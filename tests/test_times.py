"""A run's record grid and horizon pass one check, ``engine.check_times``,
where the run begins: in every engine chunk and in ``SimOptions``.  Without
it, a NaN or infinite time made a run that never stopped, and an unsorted
grid a wrong answer.  Every case runs in-process under ``watchdog``, so a
run that does not stop fails its test instead of hanging the suite."""

import math
import re

import numpy as np
import pytest

import ddjump as dj
import ddjump.engine as engine
from conftest import watchdog

X0 = np.array([50, 50])
UNSORTED = r"^record times must be sorted$"
OUTSIDE = r"^record times must be finite and lie within \[0, horizon\]$"
POSITIVE = r"^horizon must be positive$"
FINITE = r"^horizon must be finite$"

BAD_GRIDS = {
    "nan": ((0.5, math.nan), OUTSIDE),
    "inf": ((0.5, math.inf), OUTSIDE),
    "negative": ((-0.5, 1.0), OUTSIDE),
    "unsorted": ((2.0, 0.5), UNSORTED),
}
BAD_HORIZONS = {"nan": (math.nan, FINITE), "inf": (math.inf, FINITE), "0": (0.0, POSITIVE), "-1": (-1.0, POSITIVE)}


@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
def test_a_records_run_refuses_a_bad_grid(sir, case):
    grid, message = BAD_GRIDS[case]
    with watchdog(), pytest.raises(ValueError, match=message):
        engine.run_paths(sir, 50, X0, 1, 8, mode=engine.RECORDS, record_times=grid)


@pytest.mark.parametrize("case", sorted(BAD_HORIZONS))
@pytest.mark.parametrize("mode", [engine.EVENTS, engine.EXIT, engine.MARTINGALE])
def test_a_run_that_stops_at_its_horizon_refuses_a_bad_one(sir, cert05, mode, case):
    horizon, message = BAD_HORIZONS[case]
    kw = {
        engine.EVENTS: {},
        engine.EXIT: dict(exit_ball=cert05.ball(50, 0.6)),
        engine.MARTINGALE: dict(stop_box=(np.zeros(2), np.full(2, 3.0))),
    }[mode]
    with watchdog(), pytest.raises(ValueError, match=message):
        engine.run_paths(sir, 50, X0, 1, 8, mode=mode, horizon=horizon, **kw)


NO_END = {
    "simulate_path": lambda m, cert: dj.simulate_path(m, dj.SimOptions(N=50, seed=1, horizon=math.inf), X0),
    "coupled_ensemble": lambda m, cert: dj.coupled_ensemble(
        m, cert, dj.SimOptions(N=50, seed=1, horizon=math.inf, record=(0.0, 1.0)), [52, 51], [48, 49],
        reps=2, k2=5.0, nu=2.0,
    ),
}


@pytest.mark.parametrize("run", sorted(NO_END))
def test_a_path_or_a_pair_refuses_an_infinite_horizon(sir, cert05, run):
    with watchdog(), pytest.raises(ValueError, match=FINITE):
        NO_END[run](sir, cert05)


def _martingale(m, cert, T):
    return dj.martingale_deviation(m, dj.SimOptions(N=50, seed=1, horizon=3.0), X0, T=T, reps=8, z_grid=(0.1, 0.5))


def _exit(m, cert, T):
    return dj.exit_probability(m, cert, 50, 0.3, 0.6, T=T, reps=8, seed=1)


@pytest.mark.parametrize(
    "run,T",
    [
        (_martingale, -1.0), (_martingale, 0.0), (_martingale, math.nan), (_martingale, math.inf),
        (_martingale, 4.0), (_exit, math.nan), (_exit, math.inf), (_exit, -math.inf),
    ],
)
def test_the_deviation_experiments_refuse_a_bad_T(sir, cert05, run, T):
    # T = nan used to fail in the drift box or give an exit estimate of 0,
    # and T = -1 a martingale tail of 1 at every z
    with watchdog(), pytest.raises(ValueError, match=rf"^T must .*, got T={re.escape(repr(T))}$"):
        run(sir, cert05, T)

