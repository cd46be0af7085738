#!/usr/bin/env python3
"""ddjump benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cutoff --seed 1 --seconds 10 --trace 0

Run from the root of a ddjump checkout; the package is imported from that
checkout's ``src/``.  Workloads: cutoff, couple, equilibrium, deviation (see
``workloads.py``).  Each is a closed loop: passes of the workload's
operations run back to back until ``--seconds`` of passes have been timed
(at least one pass).

``--trace 0`` times the passes at two workers and reports the end-to-end
metrics run_s (median pass wall time), setup_s (median of several set-ups)
and peak_rss_mb.  ``--trace 1`` runs one pass at two workers and two at one
worker, the last of them with spans around every layer entry point, and
reports the per-layer metrics; it also checks that all three passes give
the same results digest.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("cutoff", "couple", "equilibrium", "deviation")
WORKERS = min(2, os.cpu_count() or 1)
# set-up is timed in two batches, before and after the passes, so that its
# median spans the machine's speed changes over the run; each batch runs at
# least SETUP_REPEATS times and for at least SETUP_MIN_S seconds
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics reported on every workload (0 where a layer is not used)
PER_LAYER = (
    ("model.eval_rates_calls", "count", "lower"),
    ("model.rate_gradients_calls", "count", "lower"),
    ("dynamics.certify_s", "s", "lower"),
    ("lattice.classify_s", "s", "lower"),
    ("rng.substream_calls", "count", "lower"),
    ("rng.substream_s", "s", "lower"),
    ("engine.sim_s", "s", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.rate_rows", "count", "lower"),
    ("engine.rows_per_s", "1/s", "higher"),
    ("engine.mean_active", "count", "higher"),
    ("engine.parallel_eff", "ratio", "higher"),
    ("simulate.estimate_K2_s", "s", "lower"),
    ("simulate.coupled_s", "s", "lower"),
    ("simulate.pairs_per_s", "1/s", "higher"),
    ("simulate.pair_s_p50", "s", "lower"),
    ("simulate.pair_s_p90", "s", "lower"),
    ("simulate.martingale_self_s", "s", "lower"),
    ("simulate.exit_self_s", "s", "lower"),
    ("dist.from_points_s", "s", "lower"),
    ("io.write_csv_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
)
# per-N metrics, suffixed .N<value>: cutoff_time at the cutoff sizes, the
# equilibrium stages at every size a stationary law is solved for
PER_CUTOFF_N = (("dynamics.cutoff_time_s", "s", "lower"),)
PER_BALL_N = (
    ("equilibrium.ball_states", "count", "lower"),
    ("equilibrium.enumerate_s", "s", "lower"),
    ("equilibrium.generator_s", "s", "lower"),
    ("equilibrium.solve_s", "s", "lower"),
    ("equilibrium.states_per_s", "1/s", "higher"),
    ("equilibrium.solve_failed", "count", "lower"),
    ("equilibrium.tv_s", "s", "lower"),
    ("equilibrium.tv_support", "count", "lower"),
)


def per_layer_names(configs):
    """(name, unit, better) of every per-layer metric for a size table."""
    cut_ns = configs["cutoff"]["N"]
    ball_ns = sorted(set(cut_ns) | set(configs["equilibrium"]["N"]))
    out = list(PER_LAYER)
    out += [(f"{s}.N{n}", u, b) for n in cut_ns for s, u, b in PER_CUTOFF_N]
    out += [(f"{s}.N{n}", u, b) for n in ball_ns for s, u, b in PER_BALL_N]
    return out


def _use_checkout_source():
    # BLAS pools pinned to one thread; numpy is first imported below
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ddjump" / "__init__.py").is_file():
        sys.exit(f"error: no ddjump package at {SRC}; run from the root of a ddjump checkout")
    sys.path.insert(0, str(SRC))
    import ddjump

    if Path(ddjump.__file__).resolve().parent != (SRC / "ddjump").resolve():
        sys.exit(f"error: imported ddjump from {ddjump.__file__}, not from {SRC}")


def run_record(args, cfg):
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "ddjump").glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": cfg,
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def timed_pass(wl, workload, cfg, env, seed, workers, out_dir, tracer=None):
    t0 = time.perf_counter()
    outs = wl.PASSES[workload](cfg, env, seed, workers, tracer, out_dir)
    elapsed = time.perf_counter() - t0
    wl.CHECKS[workload](cfg, env, outs)
    for o in outs:
        if o.failed:
            print(f"  {o.name} failed: {o.error or '; '.join(o.problems)}")
    return outs, elapsed


def repeated_setup(wl, workload, cfg):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        env = wl.setup(workload, cfg)
        times.append(time.perf_counter() - t0)
    return env, times


def tally(outs_per_pass):
    attempted = sum(len(outs) for outs in outs_per_pass)
    failed = sum(o.failed for outs in outs_per_pass for o in outs)
    problems = any(o.problems for outs in outs_per_pass for o in outs)
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} operations)")
    return attempted, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full", help="toy: smoke-test sizes")
    args = ap.parse_args(argv)

    _use_checkout_source()
    import workloads as wl

    configs = wl.SCALES[args.scale]
    cfg = configs[args.workload]
    print("workload", wl.label(args.workload, cfg), f"seed={args.seed} workers={WORKERS}")
    print("run_record", json.dumps(run_record(args, cfg), sort_keys=True))
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="tmp-") as out_dir:
        if args.trace:
            result = traced(wl, args, configs, out_dir)
        else:
            result = timed(wl, args, cfg, out_dir)
    print(json.dumps(result))
    return 0


def timed(wl, args, cfg, out_dir):
    env, setup_times = repeated_setup(wl, args.workload, cfg)
    runs, digests, pass_times = [], [], []
    while not pass_times or sum(pass_times) < args.seconds:
        outs, elapsed = timed_pass(wl, args.workload, cfg, env, args.seed, WORKERS, out_dir)
        runs.append(outs)
        digests.append(wl.digest(outs))
        pass_times.append(elapsed)
        print(f"pass {len(runs)}: {elapsed:.4f} s, digest {digests[-1][:16]}")
    setup_times += repeated_setup(wl, args.workload, cfg)[1]
    for line in wl.notes(args.workload, env, runs[-1]):
        print("note", line)
    attempted, failed, problems = tally(runs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "run_s": statistics.median(pass_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    metrics = {}
    for name, unit in END_TO_END:
        print(f"{name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(f"passes {len(pass_times)}; setups {len(setup_times)}")
    correct = not problems and len(set(digests)) == 1
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(wl, args, configs, out_dir):
    from spans import Tracer

    workload = args.workload
    cfg = configs[workload]
    tracer = Tracer()
    with tracer:
        env, _ = repeated_setup(wl, workload, cfg)
    timing = Tracer(only={"ddjump.engine.run_paths"})
    with timing:
        outs_w2, _ = timed_pass(wl, workload, cfg, env, args.seed, WORKERS, out_dir)
    rp_w2 = timing.total("ddjump.engine.run_paths")
    mark = len(timing.spans)
    with timing:
        outs_w1, t_w1 = timed_pass(wl, workload, cfg, env, args.seed, 1, out_dir)
    rp_w1 = timing.total("ddjump.engine.run_paths", since=mark)
    since = len(tracer.spans)
    with tracer:
        outs_tr, t_tr = timed_pass(wl, workload, cfg, env, args.seed, 1, out_dir, tracer=tracer)
    passes = {"workers=2": outs_w2, "workers=1": outs_w1, "traced workers=1": outs_tr}
    digests = {k: wl.digest(v) for k, v in passes.items()}
    for k, v in digests.items():
        print(f"digest {k}: {v}")
    same = len(set(digests.values())) == 1
    print("digest check:", "equal" if same else "DIFFERENT")
    for line in wl.notes(workload, env, outs_tr):
        print("note", line)
    attempted, failed, problems = tally(list(passes.values()))

    values = layer_values(tracer, since, cfg, t_w1, t_tr, rp_w1, rp_w2)
    metrics = {}
    for name, unit, _ in per_layer_names(configs):
        v = float(values.get(name, 0.0))
        print(f"{name} {v:.6g} {unit}")
        metrics[name] = {"value": v, "unit": unit}
    correct = same and not problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_values(tr, since, cfg, t_w1, t_tr, rp_w1, rp_w2):
    """Per-layer numbers from the set-up spans (before ``since``) and the
    traced pass (from ``since`` on)."""

    def name(short):
        return f"ddjump.{short}"

    n_cert = len(tr.select(name("dynamics.certify")))
    v = {
        "model.eval_rates_calls": _ratio(tr.counts[name("model.eval_rates")], n_cert),
        "model.rate_gradients_calls": _ratio(tr.counts[name("model.rate_gradients")], n_cert),
        "dynamics.certify_s": tr.median(name("dynamics.certify")),
        "lattice.classify_s": tr.median(name("lattice.classify_jumps")),
        "simulate.estimate_K2_s": tr.median(name("simulate.estimate_K2")),
        "rng.substream_calls": len(tr.select(name("rng.substream"), since)),
        "rng.substream_s": tr.total(name("rng.substream"), since),
        "engine.sim_s": tr.total(name("engine.simulate_chunk"), since),
        "engine.steps": tr.counts["engine.steps"],
        "engine.rate_rows": tr.counts["engine.rate_rows"],
        "engine.parallel_eff": _ratio(rp_w1, 2.0 * rp_w2),
        "simulate.coupled_s": tr.total(name("simulate.coupled_ensemble"), since),
        "simulate.martingale_self_s": tr.self_total(name("simulate.martingale_deviation"), since),
        "simulate.exit_self_s": tr.self_total(name("simulate.exit_probability"), since),
        "dist.from_points_s": tr.total(name("dist.from_points"), since),
        "io.write_csv_s": tr.total(name("io.write_csv"), since),
        "io.bytes_written": sum(s.size for s in tr.select(name("io.write_csv"), since)),
        "trace.overhead_frac": _ratio(t_tr - t_w1, t_w1),
        "trace.coverage_frac": _ratio(tr.top_level_s(since), t_tr),
    }
    v["engine.rows_per_s"] = _ratio(v["engine.rate_rows"], v["engine.sim_s"])
    v["engine.mean_active"] = _ratio(v["engine.rate_rows"], v["engine.steps"])
    pairs = [s.dur for s in tr.select(name("simulate.simulate_coupled"), since)]
    if pairs:
        v["simulate.pairs_per_s"] = _ratio(len(pairs), v["simulate.coupled_s"])
        v["simulate.pair_s_p50"] = statistics.median(pairs)
        v["simulate.pair_s_p90"] = statistics.quantiles(pairs, n=10)[-1] if len(pairs) > 1 else pairs[0]

    ns = cfg["N"] if isinstance(cfg["N"], tuple) else (cfg["N"],)
    for N in ns:
        v[f"dynamics.cutoff_time_s.N{N}"] = tr.total(name("dynamics.cutoff_time"), since, N)
        solves = tr.select(name("equilibrium.stationary_exact"), since, N)
        if not solves:
            continue
        balls = tr.select(name("equilibrium.enumerate_ball"), since, N)
        tvs = tr.select(name("equilibrium.tv_distance"), since, N)
        tvs += tr.select(name("equilibrium._empirical_tv_with_ci"), since, N)
        states = balls[0].size if balls else 0
        solve_total = sum(s.dur for s in solves)
        v[f"equilibrium.ball_states.N{N}"] = states
        v[f"equilibrium.enumerate_s.N{N}"] = sum(s.dur for s in balls)
        v[f"equilibrium.generator_s.N{N}"] = tr.self_total(
            name("equilibrium.build_restricted_generator"), since, N
        )
        v[f"equilibrium.solve_s.N{N}"] = sum(s.self_s for s in solves)
        v[f"equilibrium.states_per_s.N{N}"] = _ratio(states * len(solves), solve_total)
        v[f"equilibrium.solve_failed.N{N}"] = sum(s.error for s in solves)
        v[f"equilibrium.tv_s.N{N}"] = sum(s.dur for s in tvs)
        v[f"equilibrium.tv_support.N{N}"] = _ratio(sum(s.size for s in tvs), len(tvs))
    return v


if __name__ == "__main__":
    sys.exit(main())
