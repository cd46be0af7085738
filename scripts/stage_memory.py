#!/usr/bin/env python3
"""Peak traced memory and wall time of each stage of ``stationary_exact``.

The stages run as ``stationary_exact`` runs them, on the ball B_M(N c,
N delta) of a model's certificate: enumerate (``engine.enumerate_ball``),
generator (``equilibrium.build_generator``), closed classes, normal weights
(the warm start) and power, its kernel built first as ``stationary_exact``
builds it; the direct cross-check of balls of at most 5000 states is left
out, and a ball of one state, whose law is its point mass, ends the table
after enumerate.  Each row gives the stage's wall time, the traced peak
while it ran (everything held from earlier stages included), the part of
that peak above what was held when it began, and what is held when it ends.
Memory is tracemalloc's count of Python and numpy allocations, so the times
include its small overhead.  A stage that raises ends the table with its
error.

    python3 scripts/stage_memory.py --N 400 --delta 0.7 --rho-fraction 0.5
    python3 scripts/stage_memory.py --model seir.cfg --N 20 --delta 1.8 --rho-fraction 0.9
"""

import argparse
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
import scipy.sparse.csgraph  # noqa: F401  (loaded before tracing starts)
import scipy.sparse.linalg  # noqa: F401

import ddjump as dj
from ddjump import engine, equilibrium as eq
from ddjump.errors import DdjumpError

MB = 1e6


def _stages(m, N, cert, delta):
    """The stages of ``stationary_exact``'s power route, as (name, thunk)
    pairs; each thunk leaves its result where the next one reads it."""
    held = {}

    def enumerate_():
        held["states"] = engine.enumerate_ball(N, cert, delta)

    def generator():
        held["Q"] = eq.build_generator(m, N, held["states"])

    def closed_classes():
        held["closed"] = eq._closed_classes(held["Q"])

    def power_kernel():
        held["kernel"] = eq._power_kernel(held.pop("Q"))

    def normal_weights():
        Sigma = dj.solve_lyapunov_sigma(cert.A, dj.equilibrium_sigma2(m, cert.c))
        held["pi0"] = eq._normal_weights(held["states"], N, cert.c, Sigma)

    def power():
        held["pi"] = eq._pi_power(*held.pop("kernel"), held.pop("pi0"))

    return held, [
        ("enumerate", enumerate_),
        ("generator", generator),
        ("closed classes", closed_classes),
        ("kernel", power_kernel),
        ("normal weights", normal_weights),
        ("power", power),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--model", help="model config file (default: the built-in SIR, alpha 2, beta 1, gamma 1)")
    ap.add_argument("--N", type=int, default=400)
    ap.add_argument("--delta", type=float, default=0.7)
    ap.add_argument("--rho-fraction", type=float, default=0.5)
    args = ap.parse_args()

    if args.model:
        with open(args.model) as f:
            m = dj.parse_model(f.read())
    else:
        m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
    cert = dj.certify(m, np.ones(m.d), rho_fraction=args.rho_fraction)
    held, stages = _stages(m, args.N, cert, args.delta)
    print(f"{'stage':<15} {'seconds':>9} {'peak_MB':>9} {'rise_MB':>9} {'held_MB':>9}")
    tracemalloc.start()
    try:
        for name, run in stages:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            t = time.perf_counter()
            try:
                run()
                note = ""
            except DdjumpError as e:
                note = f"  {type(e).__name__}: {e}"
            seconds = time.perf_counter() - t
            now, peak = tracemalloc.get_traced_memory()
            print(f"{name:<15} {seconds:9.4f} {peak / MB:9.2f} {(peak - start) / MB:9.2f} {now / MB:9.2f}{note}")
            if name == "enumerate":
                print(f"  {len(held['states'])} states")
                if len(held["states"]) == 1:  # a point mass: stationary_exact builds no kernel
                    break
            if note:
                break
    finally:
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
