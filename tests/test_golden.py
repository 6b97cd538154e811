"""Pinned outputs of every estimator in ``harness.ESTIMATORS`` on fixed data
and a fixed seed.

Each estimator's estimate and every report field but ``wall_time_ms`` are
pinned by ``repr`` (arrays as lists, so no digit is lost).  Two routes are
checked on the same data: the registry function on the in-memory
dataset's per-person means, and ``dpmean estimate`` on the dataset written
as CSV.  A change that moves
any of these values changes an estimator's output and must say why.

The tail lab is pinned the same way: every row of a small ``run_tailbench``
CSV, byte for byte.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from dpmean import cli
from dpmean.core import PersonDataset, PrivacyBudget, ProblemParams, SyntheticSpec
from dpmean.harness import ESTIMATORS, TailbenchConfig, run_tailbench

PARAMS = ProblemParams(k=4.0, alpha=0.5, beta=0.1, range_R=2.0)
EPSILON = 2.0
SEED = 20240530
# estimator -> (dimension of its dataset, delta)
CASES = {
    "est1d": (1, 0.0),
    "hd_single": (2, 1e-6),
    "hd_two_round": (2, 1e-6),
    "pure_dp": (2, 0.0),
}

PINNED = {
    'est1d': {
        'estimate': '[0.2868264162923289]',
        'epsilon': '2.0',
        'delta': '0.0',
        'seed': '20240530',
        'params.rho': '3.7848802880062458',
        'params.u_err': '3.2',
        'params.mu_coarse': '0.7999999999999998',
        'params.noise_scale': '0.018924401440031227',
        'params.constant_c': '4.0',
        'params.coarse_bucket': '(0.0, 1.5999999999999996)',
        'params.ledger': '[(1.0, 0.0, 0), (1.0, 0.0, 0)]',
        'params.bias_bound_applicable': 'False',
    },
    'hd_single': {
        'estimate': '[0.25062601925641687, 0.33826288215474504]',
        'epsilon': '2.0',
        'delta': '1e-06',
        'seed': '20240530',
        'params.rho': '3.848883983845373',
        'params.u1': '[0.7999999999999998, 0.7999999999999998]',
        'params.c0': '4.0',
        'params.ledger': '[(1.0, 5e-07, 0), (1.0, 5e-07, 0)]',
    },
    'hd_two_round': {
        'estimate': '[0.28522814592063833, 0.2810589258898318]',
        'epsilon': '2.0',
        'delta': '1e-06',
        'seed': '20240530',
        'params.rho1': '0.4134501816564606',
        'params.rho2': '0.3791354882426801',
        'params.u1': '[0.7999999999999998, 0.7999999999999998]',
        'params.u2': '[0.4771753459594193, 0.5333821960904533]',
        'params.dropped_people': '0',
        'params.ledger': '[(1.0, 5e-07, 0), (0.5, 2.5e-07, 0), (0.5, 2.5e-07, 0)]',
    },
    'pure_dp': {
        'estimate': '[0.24884762866049212, 0.3105658689272196]',
        'epsilon': '2.0',
        'delta': '0.0',
        'seed': '20240530',
        'params.mu_coarse': '[0.24884762866049212, 0.3105658689272196]',
        'params.dropped_people': '0',
        'params.ledger': '[(0.5, 0.0, 0), (0.5, 0.0, 0), (0.5, 0.0, 0), (0.5, 0.0, 0), '
        '(2.0, 0.0, 1)]',
    },
}


def dataset(d):
    n, m = (400, 25) if d == 1 else (900, 25)
    rng = np.random.default_rng(7 + d)
    return PersonDataset(0.3 + 0.5 * rng.standard_normal((n, m, d)))


def pin(value):
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


def fields(report):
    out = {f: pin(getattr(report, f)) for f in ("estimate", "epsilon", "delta", "seed")}
    out.update({f"params.{k}": pin(v) for k, v in report.params.items()})
    return out


def test_registry_covers_pinned_estimators():
    assert set(ESTIMATORS) == set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_registry_and_cli_match_pinned(name, tmp_path):
    d, delta = CASES[name]
    data = dataset(d)
    report = ESTIMATORS[name](data.person_means(), PrivacyBudget(EPSILON, delta), PARAMS, SEED)
    assert fields(report) == PINNED[name]

    path = tmp_path / "data.csv"
    lines = ["person_id,sample_id," + ",".join(f"x{j + 1}" for j in range(d))]
    for i, person in enumerate(data.values):
        for s, sample in enumerate(person):
            lines.append(f"{i},{s}," + ",".join(repr(float(v)) for v in sample))
    path.write_text("\n".join(lines) + "\n")
    argv = [
        "estimate", "--data", str(path), "--estimator", name,
        "--epsilon", repr(EPSILON), "--delta", repr(delta), "--k", repr(PARAMS.k),
        "--alpha", repr(PARAMS.alpha), "--beta", repr(PARAMS.beta),
        "--range-R", repr(PARAMS.range_R), "--seed", str(SEED),
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    released = json.loads(out.getvalue())
    expected = json.loads(report.to_json())
    released.pop("wall_time_ms")
    expected.pop("wall_time_ms")
    assert released == expected


TAILBENCH_PINNED = [
    "schema_version,family,m,k,d,t,empirical,stderr,bound_name,bound_value,C_cal,valid_window,pass",
    "1,scaled_gaussian,16,4.0,1,0.7210134433004415,8e-05,2.872141189996546e-05,heavytail,"
    "0.5009033719535615,1.0,0,1",
    "1,scaled_gaussian,16,4.0,1,1.442026886600883,0.0,4.999950000499995e-06,heavytail,"
    "0.06255646074709759,1.0,0,1",
    "1,scaled_gaussian,16,4.0,1,0.7210134433004415,8e-05,2.872141189996546e-05,berry_esseen,"
    "0.014453951256983389,16.0,1,1",
    "1,scaled_gaussian,16,4.0,1,2.1630403299013246,0.0,4.999950000499995e-06,berry_esseen,"
    "0.00017844384267880724,16.0,1,1",
    "1,scaled_gaussian,16,4.0,4,0.8325546111576977,0.00068,8.258474189900994e-05,highd,"
    "0.0706303475820532,1.0,1,1",
    "1,scaled_gaussian,16,4.0,4,2.497663833473093,0.0,4.999950000499995e-06,highd,"
    "0.00010037467605874434,1.0,1,1",
]


def pinned_tailbench_config(tmp_path) -> TailbenchConfig:
    specs = [SyntheticSpec("scaled_gaussian", mean=(0.0,) * d, k=4.0) for d in (1, 4)]
    return TailbenchConfig(
        specs=specs,
        m=[16],
        bounds=["heavytail", "berry_esseen", "highd"],
        trials=10**5,
        seed=SEED,
        output_path=str(tmp_path / "tail.csv"),
        grid_points_per_window=2,
    )


def test_tailbench_rows_pinned(tmp_path):
    run_tailbench(pinned_tailbench_config(tmp_path))
    assert (tmp_path / "tail.csv").read_text().splitlines() == TAILBENCH_PINNED


def test_tailbench_rows_pinned_on_two_threads(tmp_path):
    # the d = 4 batch is two chunks, so both workers draw
    run_tailbench(pinned_tailbench_config(tmp_path), threads=2)
    assert (tmp_path / "tail.csv").read_text().splitlines() == TAILBENCH_PINNED
