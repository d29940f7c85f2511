"""Coupling classification and Trotter grid bookkeeping."""

import math

import pytest

from spinchain.spin_model import (
    MAX_ANGLE,
    Angles3,
    CouplingParams,
    HamiltonianClass,
    TrotterPlan,
    classify,
    step_angles,
)

TRIALS = 200
SEED = 20240817


def test_classify_single_axes():
    assert classify(CouplingParams(1.0, 0.0, 0.0)) is HamiltonianClass.X
    assert classify(CouplingParams(0.0, -2.0, 0.0)) is HamiltonianClass.Y
    assert classify(CouplingParams(0.0, 0.0, 0.4)) is HamiltonianClass.Z


def test_classify_pairs_and_full():
    assert classify(CouplingParams(1.0, 0.5, 0.0)) is HamiltonianClass.XY
    assert classify(CouplingParams(1.0, 0.0, 0.5)) is HamiltonianClass.XZ
    assert classify(CouplingParams(0.0, 1.0, 0.5)) is HamiltonianClass.YZ
    assert classify(CouplingParams(1.0, 1.0, 1.0)) is HamiltonianClass.XYZ


def test_classify_all_zero_falls_back_to_x():
    # free evolution still needs a (trivial) gate family
    assert classify(CouplingParams(0.0, 0.0, 0.0)) is HamiltonianClass.X


def test_classify_tolerance_window():
    eps = 1e-13
    assert classify(CouplingParams(1.0, eps, 0.0)) is HamiltonianClass.X
    assert classify(CouplingParams(1.0, 1e-11, 0.0)) is HamiltonianClass.XY


def test_axes_property():
    assert HamiltonianClass.X.axes == "x"
    assert HamiltonianClass.XY.axes == "xy"
    assert HamiltonianClass.XYZ.axes == "xyz"


def test_step_angles_scales_couplings():
    j = CouplingParams(-0.8, -0.2, 0.3)
    a = step_angles(j, 0.025)
    assert a == Angles3(-0.8 * 0.025, -0.2 * 0.025, 0.3 * 0.025)
    assert a.as_tuple() == (a.theta_x, a.theta_y, a.theta_z)


def test_step_angles_bound():
    # native rotations are twice the step angle and must stay within MAX_ANGLE
    edge = MAX_ANGLE / 2
    assert step_angles(CouplingParams(edge, 0.0, -edge), 1.0).as_tuple() == (edge, 0.0, -edge)
    above = math.nextafter(edge, math.inf)
    for axis, j in (("x", (above, 0.0, 0.0)), ("y", (0.0, -above, 0.0)), ("z", (0.0, 0.0, above))):
        with pytest.raises(ValueError, match=f"J.{axis}\\*dt = -?{above!r}.*{edge:g}"):
            step_angles(CouplingParams(*j), 1.0)


def test_coupling_params_reject_nonfinite():
    with pytest.raises(ValueError):
        CouplingParams(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        CouplingParams(0.0, float("inf"), 0.0)
    with pytest.raises(ValueError, match="^angle theta_y must be finite, got nan$"):
        Angles3(0.1, float("nan"), 0.0)


def test_trotter_plan_grid():
    plan = TrotterPlan(2.5, 0.025)
    assert plan.num_steps == 100
    times = plan.times()
    assert len(times) == 101
    assert times[0] == 0.0
    assert math.isclose(times[-1], 2.5, rel_tol=0, abs_tol=1e-12)
    # uniform spacing
    for k in range(1, len(times)):
        assert math.isclose(times[k] - times[k - 1], 0.025, abs_tol=1e-12)


def test_trotter_plan_rejects_bad_grid():
    with pytest.raises(ValueError):
        TrotterPlan(0.0, 0.1)
    with pytest.raises(ValueError):
        TrotterPlan(1.0, 0.0)
    with pytest.raises(ValueError):
        TrotterPlan(-1.0, 0.1)
    with pytest.raises(ValueError, match="^t_final must be finite, got inf$"):
        TrotterPlan(math.inf, 0.1)
    # the step count overflows to +-inf: a diagnostic, not an OverflowError
    with pytest.raises(ValueError, match="too large"):
        TrotterPlan(1e300, 1e-300)
    with pytest.raises(ValueError, match="at least 1"):
        TrotterPlan(-1e300, 1e-300)


def test_classify_random_axis_patterns():
    import random

    rng = random.Random(SEED)
    for _ in range(TRIALS):
        mask = rng.randrange(1, 8)
        j = CouplingParams(
            rng.uniform(0.2, 2.0) if mask & 1 else 0.0,
            rng.uniform(0.2, 2.0) if mask & 2 else 0.0,
            rng.uniform(0.2, 2.0) if mask & 4 else 0.0,
        )
        klass = classify(j)
        expected = "".join(
            axis for axis, on in zip("xyz", (mask & 1, mask & 2, mask & 4)) if on
        )
        assert klass.axes == expected
