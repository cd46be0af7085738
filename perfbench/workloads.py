"""The four benchmark workloads: set-up, one closed-loop pass, output checks.

Every workload uses the built-in SIR model ``builtin_hamer_sir(2, 1, 1)``
and drives the public library API with the workload seed as an argument.
A pass runs the workload's operations one after another; each operation
either returns its result or fails with a ``DdjumpError``.  Checks run after
the pass, outside the timed region, and mark an operation failed when its
result breaks an invariant.

Why each workload (and what it must not move):

* ``cutoff``: criterion-08's TV cutoff profile.  Batched-engine simulation
  does most of the work, TV plus bootstrap second; the stationary solve
  (27,173 states at N=200) is third.
* ``couple``: criterion-06's coupled pairs, run to the last record time.
  The scalar Python pair loop does nearly all the work; the batched engine and the stationary solve are
  bypassed, so an engine change should show no change here.
* ``equilibrium``: the ``ddjump equilibrium`` size sweep.  Generator
  assembly, the stationary solve and dict-keyed TV do all the work, with no
  simulation.  At N=300 and N=400 the default power iteration raises
  ``ConvergenceError``; those failures are counted, not sized away.
* ``deviation``: the batched engine in its martingale and exit modes, so an
  engine change tuned for record mode cannot slow the other modes unseen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os

import numpy as np

import ddjump as dj
from ddjump import io as dio
from ddjump.equilibrium import build_restricted_generator
from ddjump.errors import DdjumpError

from spans import tag

S_GRID = (-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)
CUTOFF_DELTA = 1.8
EQ_DELTA = 0.7
COUPLE_H0 = 39.6
COUPLE_HORIZON = 5.0
K2_SEED = 3
MEAN_SE_LIMIT = 4.0
RESIDUAL_LIMIT = 1e-8

# Sizes.  8192 replicates are two engine chunks of 4096, so two workers
# both get work.  Coupled pairs stop at the last record time: a pair that
# has not coalesced runs to the horizon, and at criterion-06's horizon of 20
# the few such pairs take a quarter of the time, which makes the cost of a
# run swing with the seed.  Chunks of 16 pairs keep both workers busy.
FULL = {
    "cutoff": {"N": (50, 200), "reps": 8192, "n_boot": 1000},
    "couple": {"N": 400, "pairs": 384, "chunk": 16},
    "equilibrium": {"N": (100, 200, 300, 400)},
    "deviation": {"N": 200, "reps": 8192},
}
# Toy sizes for the smoke test: same code paths, seconds instead of minutes.
TOY = {
    "cutoff": {"N": (20, 40), "reps": 256, "n_boot": 20},
    "couple": {"N": 400, "pairs": 4, "chunk": 2},
    "equilibrium": {"N": (20, 40)},
    "deviation": {"N": 40, "reps": 256},
}
SCALES = {"full": FULL, "toy": TOY}


def label(workload, cfg):
    """Size label printed next to every result."""
    parts = [f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}" for k, v in cfg.items()]
    return f"{workload} " + " ".join(parts)


@dataclasses.dataclass
class Env:
    """What set-up produces and every pass reuses."""

    model: object
    cert: object
    k2: float = math.nan
    nu: float = math.nan


@dataclasses.dataclass
class Outcome:
    name: str
    value: object = None
    error: str = ""
    problems: list = dataclasses.field(default_factory=list)

    @property
    def failed(self):
        return bool(self.error or self.problems)


def _attempt(name, op):
    try:
        return Outcome(name, value=op())
    except DdjumpError as e:
        return Outcome(name, error=f"{type(e).__name__}: {e}")


# ---------------------------------------------------------------------------
# set-up: model build plus certificate (plus K2 and nu for couple)
# ---------------------------------------------------------------------------


def setup(workload, cfg):
    m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
    rho_fraction = 0.9 if workload == "cutoff" else 0.5
    env = Env(m, dj.certify(m, np.array([1.0, 1.0]), rho_fraction=rho_fraction))
    if workload == "couple":
        env.k2 = dj.estimate_K2(m, env.cert, cfg["N"], seed=K2_SEED)
        env.nu = max(dj.classify_jumps(m.jumps, norm_matrix=env.cert.M).nu, 1.0 + 1e-9)
    return env


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _cutoff_pass(cfg, env, seed, workers, tracer, out_dir):
    outs = []
    for N in cfg["N"]:

        def op():
            pi = dj.stationary_exact(env.model, N, env.cert, CUTOFF_DELTA)
            prof = dj.cutoff_profile(
                env.model, env.cert, N, (1.0, 1.0), S_GRID, cfg["reps"], CUTOFF_DELTA, pi,
                seed=seed * 1000 + N, workers=workers, n_boot=cfg["n_boot"],
            )
            return pi, prof

        with tag(tracer, N):
            outs.append(_attempt(f"cutoff.N{N}", op))
    return outs


def couple_start(cert, N):
    """Pair start of criterion 06: +/-20 M-units along (1, 0.3) around N c."""
    Nc = N * cert.c
    u = np.linalg.inv(np.linalg.cholesky(cert.M)).T @ np.array([1.0, 0.3])
    u /= cert.m_norm(u)
    return np.round(Nc + 20.0 * u).astype(np.int64), np.round(Nc - 20.0 * u).astype(np.int64)


def _couple_pass(cfg, env, seed, workers, tracer, out_dir):
    N = cfg["N"]
    U0, V0 = couple_start(env.cert, N)
    rec = tuple(np.round(np.linspace(0.0, COUPLE_HORIZON, 11), 6))
    opts = dj.SimOptions(N=N, seed=seed, horizon=COUPLE_HORIZON, record=rec)

    def op():
        return dj.coupled_ensemble(
            env.model, env.cert, opts, U0, V0, reps=cfg["pairs"], k2=env.k2, nu=env.nu,
            workers=workers, chunk=cfg["chunk"],
        )

    with tag(tracer, N):
        return [_attempt(f"couple.N{N}", op)]


def _equilibrium_pass(cfg, env, seed, workers, tracer, out_dir):
    m, cert = env.model, env.cert
    outs = []
    for N in cfg["N"]:

        def op():
            pi = dj.stationary_exact(m, N, cert, EQ_DELTA)
            Sigma = dj.solve_lyapunov_sigma(cert.A, dj.equilibrium_sigma2(m, cert.c))
            tail = dj.tail_mass(pi, cert, N, EQ_DELTA / 2)
            tv = dj.tv_distance(pi, dj.discrete_normal(N, cert.c, Sigma))
            meta = dio.provenance(dj.__version__, seed, "benchmark", N=N, delta=EQ_DELTA)
            header = [f"X{i + 1}" for i in range(m.d)] + ["mass"]
            rows = ([*map(int, s), repr(float(p))] for s, p in zip(pi.support, pi.mass))
            text = dio.write_csv(os.path.join(out_dir, f"equilibrium_N{N}.csv"), meta, header, rows)
            return pi, tail, tv, text

        with tag(tracer, N):
            outs.append(_attempt(f"equilibrium.N{N}", op))
    return outs


def _deviation_pass(cfg, env, seed, workers, tracer, out_dir):
    N, reps = cfg["N"], cfg["reps"]
    T = 2.0
    opts = dj.SimOptions(N=N, seed=seed, horizon=T + 0.5)
    z_grid = np.geomspace(0.05, 2.0, 10)
    with tag(tracer, N):
        mart = _attempt(
            f"martingale.N{N}",
            lambda: dj.martingale_deviation(
                env.model, opts, np.array([N, N]), T=T, reps=reps, z_grid=z_grid, workers=workers
            ),
        )
        ext = _attempt(
            f"exit.N{N}",
            lambda: dj.exit_probability(
                env.model, env.cert, N, 0.2, 0.4, 5.0, reps, seed, workers=workers
            ),
        )
    return [mart, ext]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _check_cutoff(cfg, env, outs):
    s = list(S_GRID)
    for o in outs:
        if o.error:
            continue
        prof = o.value[1]
        tv_lo, tv_hi = float(prof.tv[s.index(-3.0)]), float(prof.tv[s.index(6.0)])
        if not np.all(np.isfinite(prof.tv)):
            o.problems.append("non-finite TV")
        if not tv_lo >= 0.8:
            o.problems.append(f"TV(s=-3)={tv_lo:.4f} < 0.8")
        if not tv_hi <= prof.bias_floor + 0.1:
            o.problems.append(f"TV(s=6)={tv_hi:.4f} > bias_floor+0.1={prof.bias_floor + 0.1:.4f}")
    first, last = outs[0], outs[-1]
    if not (first.error or last.error):
        n_lo, n_hi = cfg["N"][0], cfg["N"][-1]
        growth = last.value[1].t_N - first.value[1].t_N
        target = math.log(n_hi / n_lo) / (2.0 * env.cert.rho_hat)
        if not abs(growth - target) <= 0.15 * target:
            last.problems.append(f"t_N growth {growth:.4f} not within 15% of {target:.4f}")


def _check_couple(cfg, env, outs):
    U0, V0 = couple_start(env.cert, cfg["N"])
    h0 = env.cert.m_norm(U0 - V0)
    for o in outs:
        if o.error:
            continue
        H, coal = o.value
        if round(h0, 1) != COUPLE_H0 or not np.all(H[:, 0] == h0):
            o.problems.append(f"H(0)={h0:.4f}, expected {COUPLE_H0}")
        if not np.all(np.isfinite(H)):
            o.problems.append("non-finite H")
        frac = float(np.isfinite(coal).mean())
        if not 0.0 <= frac <= 1.0:
            o.problems.append(f"coalesced fraction {frac} outside [0, 1]")


def _check_equilibrium(cfg, env, outs):
    for o, N in zip(outs, cfg["N"]):
        if o.error:
            continue
        pi, tail, tv, text = o.value
        if not abs(float(pi.mass.sum()) - 1.0) <= 1e-9:
            o.problems.append(f"mass sums to {pi.mass.sum()!r}")
        states, Q = build_restricted_generator(env.model, N, env.cert, EQ_DELTA)
        if not np.array_equal(states, pi.support):
            o.problems.append("support differs from the ball")
        else:
            resid = float(np.abs(pi.mass @ Q).sum())
            if not resid <= RESIDUAL_LIMIT:
                o.problems.append(f"residual ||pi Q||_1 = {resid:.3g} > {RESIDUAL_LIMIT:g}")
        if not (0.0 <= tail <= 1.0 and 0.0 <= tv <= 1.0):
            o.problems.append(f"tail {tail} or TV {tv} outside [0, 1]")
        if sum(not line.startswith("#") for line in text.splitlines()) != len(pi) + 1:
            o.problems.append("CSV row count differs from the support size")


def _check_deviation(cfg, env, outs):
    mart, ext = outs
    if not mart.error:
        rep = mart.value
        if rep.violations != 0:
            mart.problems.append(f"{rep.violations} bound violations")
        # a 3-se test would fail by chance in ~0.5% of seeds; 4 se in ~0.01%
        if not np.all(np.abs(rep.mean_final) <= MEAN_SE_LIMIT * rep.se_final):
            mart.problems.append(
                f"|mean m(T)|={np.abs(rep.mean_final).tolist()} > "
                f"{MEAN_SE_LIMIT:g} se={rep.se_final.tolist()}"
            )
    if not ext.error:
        rep = ext.value
        if not 0.0 <= rep.estimate <= 1.0:
            ext.problems.append(f"exit estimate {rep.estimate} outside [0, 1]")
        if rep.certified != (rep.delta <= env.cert.delta0):
            ext.problems.append("certified label disagrees with delta0")


PASSES = {
    "cutoff": _cutoff_pass,
    "couple": _couple_pass,
    "equilibrium": _equilibrium_pass,
    "deviation": _deviation_pass,
}
CHECKS = {
    "cutoff": _check_cutoff,
    "couple": _check_couple,
    "equilibrium": _check_equilibrium,
    "deviation": _check_deviation,
}


def _regime(delta, cert):
    regime = "certified" if delta <= cert.delta0 else "uncertified"
    return f"delta={delta} is {regime} (delta0={cert.delta0:.4g})"


def notes(workload, env, outs):
    """Certified-regime labels that belong next to the numbers."""
    if workload == "deviation" and not outs[1].error:
        return [f"exit radius {_regime(outs[1].value.delta, env.cert)}; "
                f"estimate={outs[1].value.estimate:.4f}"]
    if workload == "cutoff":
        return [_regime(CUTOFF_DELTA, env.cert)]
    if workload == "equilibrium":
        return [_regime(EQ_DELTA, env.cert)]
    return []


# ---------------------------------------------------------------------------
# results digest
# ---------------------------------------------------------------------------


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for v in obj:
            _feed(h, v)
        h.update(b")")
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    else:
        h.update(repr(obj).encode())


def digest(outs):
    """sha256 over every operation's name, error and full result."""
    h = hashlib.sha256()
    for o in outs:
        _feed(h, (o.name, o.error, o.value))
    return h.hexdigest()
