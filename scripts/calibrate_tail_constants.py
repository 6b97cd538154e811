"""Pre-registered calibration search for the tail-bound constants.

For each (family, bound) pair this searches C over {1, 2, 4, 8, 16} for the
smallest constant such that empirical tail + 3 stderr <= C * bound at every
point of the acceptance t-grids (k in {3, 4}, m in {16, 64, 256}, d in {2, 4}
for the norm bound), at 10^6 trials per grid.  The chosen constants are
frozen into dpmean.tailbounds.FROZEN_CALIBRATION and never retuned by tests.

Run:  python scripts/calibrate_tail_constants.py [--trials 1000000] [--seed 20250810]
"""

import argparse
import math
import sys

import numpy as np

from dpmean.core import SyntheticSpec, derive_seed, stable_hash
from dpmean.tailbounds import acceptance_t_grid, mc_tail, tail_bound

CANDIDATE_CONSTANTS = (1, 2, 4, 8, 16)
KS = (3.0, 4.0)
MS = (16, 64, 256)
DS_HIGH = (2, 4)


def family_spec(family: str, k: float, d: int) -> SyntheticSpec:
    if family == "scaled_gaussian":
        return SyntheticSpec("scaled_gaussian", mean=tuple([0.0] * d), k=k)
    v = np.ones(d) / math.sqrt(d)
    return SyntheticSpec("point_mass_mixture", k=k, extra={"alpha": 0.02, "v": list(v)})


def worst_ratio(family: str, bound_name: str, trials: int, seed: int) -> float:
    """max over the grid of (empirical + 3 stderr) / bound(C=1)."""
    worst = 0.0
    dims = (1,) if bound_name in ("heavytail", "berry_esseen") else DS_HIGH
    for k in KS:
        for m in MS:
            for d in dims:
                spec = family_spec(family, k, d)
                grid = acceptance_t_grid(bound_name, m, k, d)
                run_seed = derive_seed(seed, stable_hash([family, bound_name, k, m, d]))
                for point in mc_tail(spec, m, grid, trials, run_seed):
                    value, _ = tail_bound(bound_name, m, k, point.t, d)
                    ratio = (point.empirical + 3 * point.std_error) / value
                    worst = max(worst, ratio)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=20250810)
    args = parser.parse_args(argv)

    table = {}
    for family in ("scaled_gaussian", "point_mass_mixture"):
        for bound_name in ("heavytail", "berry_esseen", "highd"):
            ratio = worst_ratio(family, bound_name, args.trials, args.seed)
            chosen = next((c for c in CANDIDATE_CONSTANTS if ratio <= c), None)
            table[(family, bound_name)] = (chosen, ratio)
            print(
                f"{family:20s} {bound_name:13s} worst ratio {ratio:8.4f} -> C_cal = {chosen}"
            )
    print("\nFROZEN_CALIBRATION = {")
    for (family, bound_name), (chosen, _) in table.items():
        print(f'    ("{family}", "{bound_name}"): {float(chosen)},')
    print("}")
    return 0 if all(c is not None for c, _ in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
