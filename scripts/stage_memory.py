#!/usr/bin/env python3
"""Peak traced memory and wall time of each stage of ``stationary_exact``.

The stages run as ``stationary_exact`` runs them, on the ball B_M(N c,
N delta) of a model's certificate: enumerate (``engine.enumerate_ball``),
generator (``equilibrium.build_generator``), the power kernel, closed
classes (counted on the kernel), normal weights (the warm start) and power;
the direct cross-check of balls of at most ``CROSS_CHECK_STATES`` states is
left out, and a ball of one state, whose law is its point mass, ends the
table after enumerate.  Each row gives the stage's wall time, the traced peak
while it ran (everything held from earlier stages included), the part of
that peak above what was held when it began, and what is held when it ends.
Memory is tracemalloc's count of Python and numpy allocations, so the times
include its small overhead.  A stage that raises ends the table with its
error.  The power row is followed by the sparse products the iteration took
(one a step) and the stage's wall time per product, which includes the
renormalizations and checks between them.

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
import scipy.sparse  # noqa: F401  (loaded before tracing starts)

import ddjump as dj
from ddjump import engine, equilibrium as eq
from ddjump.errors import DdjumpError

MB = 1e6


class CountingCSR(scipy.sparse.csr_matrix):
    """A CSR matrix, sharing the arrays it is built from, that counts the
    products ``self @ x`` taken with it."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def _stages(m, N, cert, delta):
    """The stages of ``stationary_exact``'s power route, as (name, thunk)
    pairs; each thunk leaves its result where the next one reads it."""
    held = {}

    def enumerate_():
        held["states"] = engine.enumerate_ball(N, cert, delta)

    def generator():
        held["Q"] = eq.build_generator(m, N, held["states"])

    def power_kernel():
        held["kernel"] = eq._power_kernel(held["Q"])  # Q is overwritten with the kernel

    def closed_classes():
        pivot = eq._nearest_state(held["states"], N * cert.c)
        held["closed"] = eq._closed_classes(held.pop("Q"), held["kernel"][1], pivot)

    def normal_weights():
        Sigma = dj.solve_lyapunov_sigma(cert.A, dj.equilibrium_sigma2(m, cert.c))
        held["pi0"] = eq._normal_weights(held["states"], N, cert.c, Sigma)

    def power():
        lam, PT = held.pop("kernel")
        PT = CountingCSR(PT)
        try:
            held["pi"] = eq._pi_power(lam, PT, held.pop("pi0"))
        finally:
            held["products"] = PT.products

    return held, [
        ("enumerate", enumerate_),
        ("generator", generator),
        ("kernel", power_kernel),
        ("closed classes", closed_classes),
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
            if name == "power":
                products = held["products"]
                print(f"  {products} products, {seconds / products * 1e6:.1f} us per product")
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
