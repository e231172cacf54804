#!/usr/bin/env python3
"""Probe how close the lattice prefix is to optimal at small n.

For each n, runs the descent optimizer from random starts and from the
lattice itself, then compares both against the lattice objective and the
leading-order bound.  Example:

    python scripts/optimizer_probe.py --n-list 3,7,12,19 --restarts 4 --seed 0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigencond.extremal import (_growth_scale, proposition_constant,
                                separation_functional)
from eigencond.lattice import first_n_lattice_points
from eigencond.optimizer import OptimizerConfig, optimize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-list", default="3,7,12,19")
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--restarts", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iters", type=int, default=200)
    args = parser.parse_args()

    n_values = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    print("n,lattice_objective,random_start_best,lattice_start_best,bound_ratio")
    for n in n_values:
        lattice_objective = separation_functional(first_n_lattice_points(n), args.p)
        from_random = optimize(OptimizerConfig(
            n=n, p=args.p, init="random", seed=args.seed,
            restarts=args.restarts, max_iters=args.max_iters))
        from_lattice = optimize(OptimizerConfig(
            n=n, p=args.p, init="lattice", seed=args.seed,
            restarts=1, max_iters=args.max_iters))
        best = min(from_random.objective, from_lattice.objective)
        bound_ratio = best / (proposition_constant(args.p) * _growth_scale(n, args.p))
        print(f"{n},{lattice_objective!r},{from_random.objective!r},"
              f"{from_lattice.objective!r},{bound_ratio!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
