"""Command-line interface.

Subcommands: validate, analyze, simulate, equilibrium, cutoff, couple,
report.  Exit codes: 0 success, 1 I/O or parse error, 2 validation or
precondition failure, 3 numerical failure.  Outputs are byte-identical for
identical (config, seed, version), independent of --workers.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, io as _io
from .dynamics import StabilityCertificate, certify, m_sphere_map
from .equilibrium import (
    cutoff_profile,
    discrete_normal,
    equilibrium_sigma2,
    plugin_floor,
    solve_lyapunov_sigma,
    stationary_empirical,
    stationary_exact,
    tail_mass,
    transition_width,
    tv_distance,
)
from .errors import (
    CapExceededError,
    CertificateError,
    ConfigError,
    ConvergenceError,
    DdjumpError,
    DomainError,
    HorizonError,
    InconclusiveError,
    NotSpanningError,
    RateError,
    SimulationError,
)
from .lattice import SPANNING, classify_jumps
from .model import domain_exits, eval_rates, parse_model
from .simulate import K2_CAP_FACTOR, SimOptions, coupled_ensemble, estimate_K2, simulate_coupled, simulate_path

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_log = logging.getLogger(__name__)


def _load_model(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise _CliError(EXIT_IO, f"cannot read model file: {e}") from None
    try:
        return parse_model(text), text
    except ConfigError as e:
        raise _CliError(EXIT_IO, f"parse error: {e}") from None


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v != "")


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v != "")


def _one_N(args):
    if len(args.N) != 1:
        raise _CliError(EXIT_VALIDATION, f"{args.command} takes one --N value, got {len(args.N)}")
    return args.N[0]


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _provenance(args, model_text, seed, **extra):
    relevant = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "workers", "out") and v is not None
    }
    cfg = _io.config_hash(model_text, relevant)
    return _io.provenance(__version__, seed, cfg, **extra)


def _point(m, text, option):
    """A model-space point given as comma floats, one per coordinate."""
    x = np.asarray(_floats(text))
    if x.shape != (m.d,):
        raise _CliError(EXIT_VALIDATION, f"{option} has {len(x)} entries, model dimension is {m.d}")
    return x


def _guess(m, args):
    return np.ones(m.d) if args.guess is None else _point(m, args.guess, "--guess")


def _certificate(m, args):
    if args.cert:
        return StabilityCertificate.load(args.cert)
    return certify(m, _guess(m, args), rho_fraction=args.rho_fraction)


def cmd_validate(args):
    m, text = _load_model(args.model)
    report = {"model": args.model, "dimension": m.d, "n_jumps": len(m.jumps)}
    ok = True

    analysis = classify_jumps(m.jumps, search_radius=args.search_radius)
    report["spanning_verdict"] = analysis.verdict
    if analysis.verdict == SPANNING:
        report["mu"] = analysis.mu
        report["nu"] = analysis.nu
    elif analysis.verdict == "separated":
        report["witness_vector"] = list(analysis.witness_vector)
        ok = False
    else:
        report["witness_basis"] = [list(r) for r in analysis.witness_basis]
        ok = False

    try:
        cert = certify(m, _guess(m, args), rho_fraction=args.rho_fraction)
        report["fixed_point"] = cert.c.tolist()
        report["eigenvalues"] = [[z.real, z.imag] for z in cert.eigenvalues]
        report["rho_hat"] = cert.rho_hat
        report["rho"] = cert.rho
        report["delta0"] = cert.delta0
        report["c0"] = cert.c0
        report["c1"] = cert.c1
        report["rates_at_c"] = eval_rates(m, cert.c).tolist()
        report["domain_exits"] = domain_exits(m, cert.c.tolist())
        ok = ok and not report["domain_exits"]
    except (CertificateError, ConvergenceError, DomainError, RateError) as e:
        report["certificate_error"] = str(e)
        ok = False

    report["status"] = "PASS" if ok else "FAIL"
    text_out = json.dumps(report, indent=1, sort_keys=True)
    print(text_out)
    if args.out:
        _ensure_out(args)
        _io.write_json(os.path.join(args.out, "validate.json"), report)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_analyze(args):
    m, text = _load_model(args.model)
    cert = certify(m, _guess(m, args), rho_fraction=args.rho_fraction)
    analysis = classify_jumps(m.jumps, search_radius=args.search_radius, norm_matrix=cert.M)
    out = _ensure_out(args)
    cert.dump(os.path.join(out, "certificate.json"))
    summary = {
        "provenance": _provenance(args, text, seed=None),
        "certificate": cert.to_json_dict(),
        "lattice": {
            "verdict": analysis.verdict,
            "mu": analysis.mu,
            "nu": analysis.nu,
        },
    }
    _io.write_json(os.path.join(out, "analyze.json"), summary)
    print(json.dumps({"delta0": cert.delta0, "rho_hat": cert.rho_hat}, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args):
    m, text = _load_model(args.model)
    N = _one_N(args)
    x0 = _point(m, args.x0, "--x0")
    X0 = np.round(N * x0).astype(np.int64)
    restriction = None
    if args.delta is not None:
        cert = _certificate(m, args)
        if not (0 < args.delta <= cert.delta0):
            raise ValueError(f"restriction delta {args.delta} must lie in (0, delta0={cert.delta0:.6g}]")
        restriction = cert.ball(N, args.delta)
    tr = simulate_path(m, SimOptions(N=N, seed=args.seed, horizon=args.horizon), X0, restriction=restriction)
    out = _ensure_out(args)
    meta = _provenance(args, text, seed=args.seed, N=N, absorbed=tr.absorbed)
    header = ["t"] + [f"X{i + 1}" for i in range(m.d)]
    rows = ([repr(float(t))] + [int(v) for v in x] for t, x in zip(tr.times, tr.states))
    _io.write_csv(os.path.join(out, "trajectory.csv"), meta, header, rows)
    print(json.dumps({"events": len(tr.times) - 1, "absorbed": tr.absorbed}, sort_keys=True))
    return EXIT_OK


def _regime(cert, delta):
    """The restriction radius, the certified radius, and whether it is within."""
    return {"delta": delta, "delta0": cert.delta0, "certified": bool(delta <= cert.delta0)}


def _pi_for(m, N, cert, delta, args):
    """Exact stationary law when the ball fits the cap, else the sampled
    estimate (downgrade logged as a warning, not fatal)."""
    try:
        pi = stationary_exact(m, N, cert, delta, cap=args.state_cap)
        return pi, "exact"
    except CapExceededError as e:
        _log.warning("N=%s: exact pi unavailable (%s); falling back to occupation estimate", N, e)
        pi = stationary_empirical(m, N, cert, delta, args.samples, args.seed)
        return pi, "empirical"


def cmd_equilibrium(args):
    m, text = _load_model(args.model)
    cert = _certificate(m, args)
    out = _ensure_out(args)
    delta = args.delta if args.delta is not None else cert.delta0 / 2
    summary = {"provenance": _provenance(args, text, seed=args.seed), "N": [], **_regime(cert, delta)}
    sigma2 = equilibrium_sigma2(m, cert.c)
    Sigma = solve_lyapunov_sigma(cert.A, sigma2)
    for N in args.N:
        pi, method = _pi_for(m, N, cert, delta, args)
        dn = discrete_normal(N, cert.c, Sigma)
        entry = {
            "N": N,
            "pi_method": method,
            "states": len(pi),
            "bias_floor": plugin_floor(len(pi), args.samples) if method == "empirical" else 0.0,
            "tail_mass_half_delta": tail_mass(pi, cert, N, delta / 2),
            "tv_vs_discrete_normal": tv_distance(pi, dn),
        }
        meta = _provenance(args, text, seed=args.seed, N=N, delta=delta, pi_method=method)
        header = [f"X{i + 1}" for i in range(m.d)] + ["mass"]
        rows = ([*map(int, s), repr(float(p))] for s, p in zip(pi.support, pi.mass))
        _io.write_csv(os.path.join(out, f"equilibrium_N{N}.csv"), meta, header, rows)
        summary["N"].append(entry)
    summary["sigma2"] = sigma2.tolist()
    summary["Sigma"] = Sigma.tolist()
    _io.write_json(os.path.join(out, "equilibrium.json"), summary)
    print(json.dumps(summary["N"], sort_keys=True))
    return EXIT_OK


def cmd_cutoff(args):
    m, text = _load_model(args.model)
    x0 = _point(m, args.x0, "--x0")
    cert = _certificate(m, args)
    out = _ensure_out(args)
    s_grid = _floats(args.s_grid)
    delta = args.delta if args.delta is not None else cert.delta0 / 2
    summary = {"provenance": _provenance(args, text, seed=args.seed), "runs": [], **_regime(cert, delta)}
    for N in args.N:
        pi, method = _pi_for(m, N, cert, delta, args)
        prof = cutoff_profile(
            m,
            cert,
            N,
            x0,
            s_grid,
            args.reps,
            delta,
            pi,
            args.seed,
            workers=args.workers,
        )
        meta = _provenance(
            args,
            text,
            seed=args.seed,
            N=N,
            x0=",".join(repr(v) for v in prof.x0),
            t_N=repr(prof.t_N),
            delta=delta,
            reps=args.reps,
            pi_method=method,
            bias_floor=repr(prof.bias_floor),
        )
        header = ["s", "t", "tv", "ci_lo", "ci_hi"]
        path = os.path.join(out, f"cutoff_N{N}.csv")
        _io.write_csv(path, meta, header, prof.rows())
        s_hi, s_lo, width = transition_width(prof)
        summary["runs"].append(
            {
                "N": N,
                "t_N": prof.t_N,
                "bias_floor": prof.bias_floor,
                "pi_method": method,
                "s_hi_0.9": None if math.isnan(s_hi) else s_hi,
                "s_lo_floor+0.1": None if math.isnan(s_lo) else s_lo,
                "width": None if math.isnan(width) else width,
                "csv": os.path.basename(path),
            }
        )
    _io.write_json(os.path.join(out, "cutoff.json"), summary)
    print(json.dumps(summary["runs"], sort_keys=True))
    return EXIT_OK


def cmd_couple(args):
    m, text = _load_model(args.model)
    cert = _certificate(m, args)
    out = _ensure_out(args)
    N = _one_N(args)
    Nc = N * cert.c
    h0 = args.h0 if args.h0 is not None else 0.1 * N
    u = m_sphere_map(cert.M) @ np.ones(m.d)
    u /= cert.m_norm(u)
    U0 = np.round(Nc + 0.5 * h0 * u).astype(np.int64)
    V0 = np.round(Nc - 0.5 * h0 * u).astype(np.int64)
    record = _floats(args.record) if args.record else tuple(np.linspace(0.0, args.horizon, 21))
    opts = SimOptions(N=N, seed=args.seed, horizon=args.horizon, record=record)
    k2 = args.k2 if args.k2 is not None else estimate_K2(m, cert, N, seed=args.seed)
    nu = classify_jumps(m.jumps, search_radius=args.search_radius, norm_matrix=cert.M).nu

    trace = simulate_coupled(m, cert, opts, U0, V0, k2=k2, nu=nu, trace_states=True)
    meta = _provenance(args, text, seed=args.seed, N=N, K3=repr(trace.K3), nuK3=repr(trace.nuK3))
    header = (
        ["t"]
        + [f"U{i + 1}" for i in range(m.d)]
        + [f"V{i + 1}" for i in range(m.d)]
        + ["phase", "H"]
    )
    rows = (
        [repr(float(t)), *map(int, Uv), *map(int, Vv), int(ph), repr(float(h))]
        for t, Uv, Vv, ph, h in zip(trace.record_times, trace.U, trace.V, trace.phases, trace.H)
    )
    _io.write_csv(os.path.join(out, "couple_trace.csv"), meta, header, rows)

    summary = {"provenance": _provenance(args, text, seed=args.seed), "N": N, "K3": trace.K3, "K2": k2}
    summary["K2_at_cap"] = k2 == K2_CAP_FACTOR * cert.JstarM
    if args.reps != 1:  # coupled_ensemble rejects reps < 1
        H, coal = coupled_ensemble(
            m, cert, opts, U0, V0, args.reps, k2=k2, nu=nu, workers=args.workers
        )
        mean_h = H.mean(axis=0)
        ts = np.asarray(record)
        fit = ts <= args.fit_horizon
        mask = fit & (mean_h > 0)
        slope = float(
            np.polyfit(ts[mask], np.log(mean_h[mask]), 1)[0]
        ) if mask.sum() >= 2 else math.nan
        frac = float(np.isfinite(coal).mean())
        rows = (
            [repr(float(t)), repr(float(h)), repr(float((coal <= t).mean()))]
            for t, h in zip(record, mean_h)
        )
        _io.write_csv(
            os.path.join(out, "couple_ensemble.csv"),
            meta,
            ["t", "mean_H", "coalesced_frac"],
            rows,
        )
        summary.update(
            {
                "reps": args.reps,
                "slope_log_mean_H": slope,
                "coalesced_frac": frac,
                "fit_horizon": args.fit_horizon,
            }
        )
    _io.write_json(os.path.join(out, "couple.json"), summary)
    print(json.dumps({k: v for k, v in summary.items() if k != "provenance"}, sort_keys=True))
    return EXIT_OK


def cmd_report(args):
    out = _ensure_out(args)
    missing = []
    if args.expect:
        for name in args.expect.split(","):
            if name and not os.path.exists(os.path.join(out, name)):
                missing.append(name)
    if missing:
        print(json.dumps({"missing": missing}, sort_keys=True))
        return EXIT_VALIDATION
    entries = []
    for name in sorted(os.listdir(out)):
        if not name.endswith(".csv"):
            continue
        path = os.path.join(out, name)
        meta, header = _io.read_csv_meta(path)
        dat = _io.csv_to_dat(path)
        dat_name = name[:-4] + ".dat"
        with open(os.path.join(out, dat_name), "w") as f:
            f.write(dat)
        entries.append(
            {
                "file": name,
                "dat": dat_name,
                "seed": meta.get("seed"),
                "config_hash": meta.get("config_hash"),
                "version": meta.get("version"),
            }
        )
    _io.write_json(os.path.join(out, "index.json"), {"artifacts": entries})
    print(json.dumps({"indexed": len(entries)}, sort_keys=True))
    return EXIT_OK


# Options several subcommands read, by dest; each subcommand adds only those it reads.
_SHARED = {
    "model": dict(required=True, help="model config path"),
    "out": dict(required=True, help="output directory"),
    "seed": dict(type=int, default=0),
    "workers": dict(type=int, default=os.cpu_count() or 1),
    "rho_fraction": dict(type=float, default=0.5),
    "cert": dict(default=None, help="reuse a saved certificate JSON"),
    "guess": dict(default=None, help="fixed-point guess, comma floats (default: all ones)"),
    "search_radius": dict(type=int, default=8),
    "state_cap": dict(type=int, default=200_000),
    "samples": dict(
        type=int, default=1_000_000, help="recorded states behind the sampled pi past --state-cap"
    ),
}


def _add_shared(p, *names):
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), **_SHARED[name])


def build_parser():
    ap = argparse.ArgumentParser(prog="ddjump", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model assumptions and report witnesses")
    _add_shared(p, "model", "rho_fraction", "guess", "search_radius")
    p.add_argument("--out", default=None, help="output directory (optional)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="build and save the stability certificate")
    _add_shared(p, "model", "out", "rho_fraction", "guess", "search_radius")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="dump one exact trajectory as CSV")
    _add_shared(p, "model", "out", "seed", "rho_fraction", "cert", "guess")
    p.add_argument("--N", type=_ints, required=True)
    p.add_argument("--x0", required=True, help="scaled start, comma floats")
    p.add_argument("--horizon", type=float, default=10.0, help="end time of the path; finite and positive")
    p.add_argument("--delta", type=float, default=None, help="restriction radius")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equilibrium", help="quasi-equilibrium distribution and checks")
    _add_shared(p, "model", "out", "seed", "rho_fraction", "cert", "guess", "state_cap")
    p.add_argument("--N", type=_ints, required=True)
    p.add_argument("--delta", type=float, default=None)
    _add_shared(p, "samples")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("cutoff", help="TV-to-equilibrium profile around t_N")
    _add_shared(p, "model", "out", "seed", "workers", "rho_fraction", "cert", "guess", "state_cap")
    p.add_argument("--N", type=_ints, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--s-grid", dest="s_grid", required=True)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--delta", type=float, default=None)
    _add_shared(p, "samples")
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("couple", help="two-phase coupling traces and decay fit")
    _add_shared(
        p, "model", "out", "seed", "workers", "rho_fraction", "cert", "guess", "search_radius"
    )
    p.add_argument("--N", type=_ints, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--horizon", type=float, default=20.0, help="end time of every pair; finite and positive")
    p.add_argument("--h0", type=float, default=None, help="initial M-distance (default 0.1 N)")
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--record", default=None)
    p.add_argument("--fit-horizon", dest="fit_horizon", type=float, default=5.0)
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("report", help="index prior outputs, emit gnuplot .dat files")
    _add_shared(p, "out")
    p.add_argument("--expect", default=None, help="comma list of required artifacts")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    # warnings reach stderr as their bare message, like the error lines below
    handler = logging.StreamHandler(sys.stderr)
    _log.addHandler(handler)
    try:
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ConfigError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (
        CertificateError,
        DomainError,
        RateError,
        NotSpanningError,
        CapExceededError,
        InconclusiveError,
        ValueError,
    ) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, SimulationError, HorizonError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DdjumpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        _log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
