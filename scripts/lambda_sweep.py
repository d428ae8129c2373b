"""In-process lambda sweep of ``solve``: policy iteration against Picard iteration.

Macro diversity in transformed coordinates, N terminals, K receivers, gains
U(0.1, 1) from ``numpy.random.default_rng(seed)``, unit noise, equal targets
scaled to each contraction modulus lambda. Policy iteration is the untraced
``solve``; Picard is the same map solved with ``force=True``, which keeps the
Picard loop, also untraced. Run from the repository root:

    PYTHONPATH=src python scripts/lambda_sweep.py [--n 1000] [--k 16] [--seed 0]
"""

import argparse
import time

import numpy as np

from powerfeas.core import (
    GainMatrix, InvalidInputError, NoiseVector, NonConvergenceError, QosVector,
)
from powerfeas.engine import SolveConfig, solve, sup_norm
from powerfeas.scenarios import MacroDiversity, leave_one_out_map


def run(array_map, config, force):
    start = time.perf_counter()
    try:
        p, run = solve(array_map, config, force=force, trace=False)
    except (InvalidInputError, NonConvergenceError) as exc:
        return f"{type(exc).__name__} after {time.perf_counter() - start:.3f} s: {exc}"
    x = p.as_array()
    return (f"{run.iterations_used} iterations, {time.perf_counter() - start:.4f} s, "
            f"residual {sup_norm(array_map.step(x) - x):.2e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lambdas", default="0.9,0.99,0.999,0.9999")
    parser.add_argument("--picard-max-iter", type=int, default=20_000)
    args = parser.parse_args()
    gains = GainMatrix(np.random.default_rng(args.seed).uniform(0.1, 1.0, size=(args.n, args.k)))
    noise = NoiseVector((1.0,) * args.k)
    unit = leave_one_out_map(MacroDiversity(QosVector((1.0,) * args.n), gains, noise))
    for lam in map(float, args.lambdas.split(",")):
        alpha = lam / unit.certificate().modulus
        array_map = leave_one_out_map(MacroDiversity(QosVector((alpha,) * args.n), gains, noise))
        config = SolveConfig(tolerance=1e-10)
        print(f"lambda {array_map.certificate().modulus:.6g}")
        print(f"  policy iteration: {run(array_map, config, force=False)}")
        picard = SolveConfig(tolerance=1e-10, max_iter=args.picard_max_iter)
        print(f"  picard:           {run(array_map, picard, force=True)}")


if __name__ == "__main__":
    main()
