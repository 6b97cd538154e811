"""Regenerate the CLI test fixture: a univariate dataset CSV plus metadata.

The dataset is 256 people x 25 samples from the k=4 normalized Gaussian with
mean 0.3 (generation seed recorded in the metadata).  The tolerance is the
estimator's Laplace tail bound at beta = 1e-4 plus sampling slack, so the
recorded estimate check is robust to RNG-stream changes across numpy versions.

Run:  python scripts/make_cli_fixture.py
"""

import json
import pathlib
import sys

from dpmean.core import SyntheticSpec, derive_rng

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"
DATA_SEED = 424242
PEOPLE, SAMPLES = 256, 25


def main() -> int:
    spec = SyntheticSpec("scaled_gaussian", mean=(0.3,), k=4.0)
    # raw samples, person-major, from the one stream derive_rng(DATA_SEED)
    values = spec.sample(derive_rng(DATA_SEED), PEOPLE * SAMPLES).reshape(PEOPLE, SAMPLES)
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    csv_path = FIXTURE_DIR / "est1d_dataset.csv"
    with open(csv_path, "w") as fh:
        fh.write("person_id,sample_id,x1\n")
        for i in range(PEOPLE):
            for j in range(SAMPLES):
                fh.write(f"{i},{j},{float(values[i, j])!r}\n")
    config = {
        "estimator": "est1d",
        "epsilon": 1.0,
        "delta": 0.0,
        "k": 4.0,
        "alpha": 0.35,
        "beta": 0.1,
        "range_R": 2.0,
        "seed": 7,
    }
    with open(FIXTURE_DIR / "est1d_config.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    meta = {
        "family": "scaled_gaussian",
        "k": 4.0,
        "true_mean": 0.3,
        "generation_seed": DATA_SEED,
        "tolerance": 0.35,
    }
    with open(FIXTURE_DIR / "est1d_fixture.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({csv_path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
