"""Design ratchets: counts that a simplification must not raise.

The knob count is the number of settings a caller can pass without being
made to: the defaulted parameters of the functions in each ``dpmean``
module's ``__all__``, plus the fields of the dataclasses in it (methods are
not counted).  A change that needs a new knob raises ``MAX_KNOBS`` in its
own diff and says why.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import dpmean

# 70 -> 72: ``threads`` on ``core.sample_batch_means`` and on
# ``tailbounds.mc_tail``, which draw Monte Carlo chunks on worker threads.
# 72 -> 60: ``mechanisms.private_histogram`` and ``tailbounds.tail_bound``
# take and return plain values, so the 13 fields of the four records that
# carried their arguments and results are gone; ``tail_bound`` takes one
# defaulted ``d``.
MAX_KNOBS = 60


def knob_count() -> int:
    count = 0
    for info in pkgutil.iter_modules(dpmean.__path__):
        module = importlib.import_module(f"dpmean.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj):
                count += len(dataclasses.fields(obj))
            elif inspect.isfunction(obj):
                params = inspect.signature(obj).parameters.values()
                count += sum(p.default is not p.empty for p in params)
    return count


def test_knob_count_does_not_grow():
    assert knob_count() <= MAX_KNOBS


def test_one_place_starts_threads():
    # Every worker thread comes from core._run_on_workers, the one pool, and
    # no module brings a second one in from concurrent.futures.
    imports, threads = [], []
    for path in sorted(pathlib.Path(dpmean.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append(node.module or "")
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Thread"):
                threads.append(f"{path.name}:{node.lineno}")
    assert [name for name in imports if name.split(".")[0] == "concurrent"] == []
    assert len(threads) == 1 and threads[0].startswith("core.py:"), threads
