"""Benchmark the material-point stepping kernel.

Runs the scalar relaxation loop (the hot path of material-point evolutions)
through ``kernels.mp_minimize`` and reports the best wall time with the total
solver iteration count beside it, so a faster constant factor can be told
apart from fewer iterations. Every step must converge (status 0); any other
status stops the benchmark.

Usage:
    python benchmarks/bench_kernels.py [--steps 3000] [--repeats 5]
"""

import argparse
import time

from visco_pt import MaterialModel, kernels


def run_relaxation(model, f_vi0, tau, n_steps):
    """March the zero-load relaxation; returns (F, Fv, iters)."""
    F = Fv = f_vi0
    total_iters = 0
    for i in range(n_steps):
        F, Fv, _, _, iters, status = kernels.mp_minimize(
            model.c_e, model.a4, model.c_v, model.d_v, model.p_psi,
            model.k_radius, 0.0, F, Fv, Fv, tau,
            1e-10, 10000, 1e-4, 0.5,
        )
        if status != 0:
            raise SystemExit(f"step {i} did not converge: status {status}")
        total_iters += iters
    return F, Fv, total_iters


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=3000)
    parser.add_argument("--tau", type=float, default=1e-3)
    parser.add_argument("--f-vi0", type=float, default=1.5)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    model = MaterialModel()
    best = float("inf")
    for _ in range(args.repeats):
        start = time.perf_counter()
        F, Fv, iters = run_relaxation(model, args.f_vi0, args.tau, args.steps)
        best = min(best, time.perf_counter() - start)
    per_step = 1e6 * best / args.steps
    print(
        f"{best:8.4f} s  {iters:8d} iterations  "
        f"({per_step:8.2f} us/step, F_vi({args.steps * args.tau:g}) = {Fv:.12f})"
    )


if __name__ == "__main__":
    main()
