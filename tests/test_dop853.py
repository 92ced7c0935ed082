"""The box-ODE stepper against the scipy method it ports: the same
coefficients and, segment by segment, the same end states to the bit."""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients

from brw2 import _dop853, moments
from brw2._dop853 import dop853
from brw2.config import parse_config, preset

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def reference(fun, t0, y0, t_bound, max_step, rtol, atol):
    """scipy's end state and its number of steps."""
    solver = DOP853(fun, t0, y0, t_bound, max_step=max_step, rtol=rtol, atol=atol)
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
    assert solver.status == "finished"
    return solver.y, steps


def law(name: str):
    if name == "fig-z2":
        return preset(name).build_model()
    return parse_config((CONFIGS / f"{name}.yaml").read_text()).build_model()


def test_coefficients_are_scipys():
    n = dop853_coefficients.N_STAGES
    assert np.array_equal(_dop853.C, dop853_coefficients.C[:n])
    assert np.array_equal(_dop853.A, dop853_coefficients.A[:n, :n])
    for name in ("B", "E3", "E5"):
        assert np.array_equal(getattr(_dop853, name), getattr(DOP853, name)), name


@pytest.mark.parametrize("name, radius", [("moments-d1", 3), ("moments-d2", 2), ("fig-z2", 2)])
def test_oracles_step_as_scipy(monkeypatch, name, radius):
    # every segment of every oracle system is integrated by both steppers
    # from the same state; the chain goes on from the port's state
    segments = []

    def both(fun, t0, y0, t_bound, max_step, rtol, atol):
        ours = dop853(fun, t0, y0, t_bound, max_step, rtol, atol)
        ref, _ = reference(fun, t0, y0, t_bound, max_step, rtol, atol)
        segments.append(np.array_equal(ours, ref))
        return ours

    monkeypatch.setattr(moments, "dop853", both)
    model, times = law(name), [0.5, 1.0, 2.0]
    moments.first_moment_ode_oracle(model, times, radius)
    moments.second_moment_ode_oracle(model, times, radius)
    moments.pair_moment_ode_oracle(model, times, 1)
    assert segments == [True] * 9


def test_rejected_first_step():
    # a fast-growing forcing that the first-step estimate underrates
    def fun(t, y):
        return np.full_like(y, np.exp(50.0 * t))

    y0 = np.array([1.0])
    ref, _ = reference(fun, 0.0, y0, 1.0, np.inf, 1e-7, 1e-9)
    solver = DOP853(fun, 0.0, y0, 1.0, rtol=1e-7, atol=1e-9)
    solver.step()
    # two evaluations to start, then 12 per attempted step
    assert solver.nfev > 2 + 12, "the first step was accepted at once"
    assert np.array_equal(dop853(fun, 0.0, y0, 1.0, np.inf, 1e-7, 1e-9), ref)


def test_run_clamped_by_max_step():
    def fun(_t, y):
        return -y

    y0 = np.array([1.0, 2.0, 3.0])
    ref, steps = reference(fun, 0.25, y0, 10.0, 0.05, 1e-7, 1e-9)
    assert steps >= (10.0 - 0.25) / 0.05
    assert np.array_equal(dop853(fun, 0.25, y0, 10.0, 0.05, 1e-7, 1e-9), ref)


def test_bound_equal_to_start():
    y0 = np.array([1.0, -2.0])
    ref, _ = reference(lambda _t, y: y, 1.5, y0, 1.5, np.inf, 1e-7, 1e-9)
    assert np.array_equal(dop853(lambda _t, y: y, 1.5, y0, 1.5, np.inf, 1e-7, 1e-9), ref)


@pytest.mark.parametrize("t_bound", [np.inf, np.nan, 0.5])
def test_rejects_bounds_it_cannot_reach(t_bound):
    with pytest.raises(ValueError):
        dop853(lambda _t, y: -y, 1.0, np.ones(2), t_bound, np.inf, 1e-7, 1e-9)
