"""Braid mirroring of R-gate triples on three qubits.

Independent oracles: 8x8 operator products built from explicit kron
embeddings of the two-parameter propagator matrix, and the Majorana
rotation read off dense Jordan-Wigner operators.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain.propagators import xyz_propagator
from spinchain.spin_model import MAX_ANGLE, ZERO_TOL, Angles3
from spinchain.ybe import (
    SOLVER_TOL,
    _rotation,
    UnsolvedError,
    YbeSolution,
    rotation_residual,
    solve,
    wrap_angle,
)

TRIALS = 400
RESIDUAL_TOL = 1e-9
ROUND_TRIP_TOL = 1e-8
SEED = 777


def kron_unitary(triple, right=False):
    # operator-order product, triple[0] leftmost; the left layout puts the
    # outer gates on the low pair, the right layout the middle one
    eye = np.eye(2, dtype=complex)
    mats = []
    for k, (g, d) in enumerate(triple):
        low = (not right) == (k % 2 == 0)
        r = xyz_propagator(Angles3(g, 0.0, d))
        mats.append(np.kron(r, eye) if low else np.kron(eye, r))
    return mats[0] @ mats[1] @ mats[2]


def random_triple(rng):
    return tuple(tuple(rng.uniform(-np.pi, np.pi, 2).tolist()) for _ in range(3))


def test_wrap_angle_range_and_branch():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)  # (-pi, pi] convention
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-0.5 - 2 * np.pi) == pytest.approx(-0.5)
    arr = [wrap_angle(x) for x in np.array([0.0, 2 * np.pi, -3 * np.pi / 2])]
    assert np.allclose(arr, [0.0, 0.0, np.pi / 2])


def test_wrap_angle_moves_by_multiples_of_two_pi_near_pi():
    # an angle near +-pi (mod 2 pi) may only change by a multiple of 2 pi;
    # snapping the whole isclose(-pi) window to +pi once moved it by 3e-5
    rng = np.random.default_rng(SEED + 6)
    offsets = np.concatenate(
        [rng.uniform(-1e-4, 1e-4, 200), rng.uniform(-1e-11, 1e-11, 50), [0.0, 3e-5, -3e-5, 1e-9]]
    )
    for k in (-3, -1, 1, 3):
        for x in k * np.pi + offsets:
            w = wrap_angle(float(x))
            turns = (w - x) / (2 * np.pi)
            assert abs(turns - round(turns)) * 2 * np.pi <= 1e-12
            assert -np.pi < w <= np.pi


def test_solve_random_triples():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(TRIALS):
        t = random_triple(rng)
        sol = solve(t)
        assert isinstance(sol, YbeSolution)
        assert sol.residual < RESIDUAL_TOL
        # dense check independent of the solver's own bookkeeping
        assert np.max(np.abs(kron_unitary(t) - kron_unitary(sol.pairs, right=True))) < RESIDUAL_TOL


# criterion 2's singular shapes, where naive elimination divides by zero
SINGULAR_SHAPES = [
    lambda r: ((r.uniform(-1, 1), 0.1), (np.pi / 2, r.uniform(-1, 1)), (0.2, 0.5)),
    lambda r: ((0.4, r.uniform(-1, 1)), (r.uniform(-1, 1), np.pi / 2), (0.2, 0.5)),
    lambda r: ((np.pi / 2, 0.1), (r.uniform(-1, 1), 0.2), (np.pi / 2, 0.5)),
    lambda r: ((0.0, r.uniform(-1, 1)), (0.3, 0.2), (0.0, 0.5)),
    lambda r: ((0.4, np.pi / 2), (0.3, r.uniform(-1, 1)), (0.2, np.pi / 2)),
]


def test_solve_right_to_left():
    # a right-layout triple is the site mirror of the left one with the same
    # pairs, so the same call gives its left-layout mirror, singular ones too
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        t = random_triple(rng)
        sol = solve(t)
        assert np.max(np.abs(kron_unitary(t, right=True) - kron_unitary(sol.pairs))) < RESIDUAL_TOL
    for k in range(20):
        t = SINGULAR_SHAPES[k % 5](rng)
        sol = solve(t)
        assert sol.method == "analytic"
        assert np.max(np.abs(kron_unitary(t, right=True) - kron_unitary(sol.pairs))) < RESIDUAL_TOL


def test_solve_round_trip_preserves_unitary():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(100):
        t = random_triple(rng)
        there = solve(t)
        back = solve(there.pairs)
        assert np.max(np.abs(kron_unitary(t) - kron_unitary(back.pairs))) < ROUND_TRIP_TOL


SPECIAL_ANGLES = (
    0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
    1e-13, -1e-13, 1e-9, 3.0,
)
ANGLES = st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(-math.pi, math.pi))
PAIRS = st.tuples(ANGLES, ANGLES)
TRIPLES = st.tuples(PAIRS, PAIRS, PAIRS)


# the largest angle a job hands the solver: step angles are capped at
# MAX_ANGLE / 2, a QASM rx at MAX_ANGLE (a gate gets half of it), and merged
# sums are wrapped
WIDE_ANGLES = st.floats(-MAX_ANGLE / 2, MAX_ANGLE / 2)
WIDE_PAIRS = st.tuples(WIDE_ANGLES, WIDE_ANGLES)
WIDE_TRIPLES = st.tuples(WIDE_PAIRS, WIDE_PAIRS, WIDE_PAIRS)

# every slot on a grid of special angles, 1e-9 off 0 and pi/2 included
GRID_ANGLES = st.sampled_from((
    0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
    3 * math.pi / 4, 1e-9, -1e-9, math.pi / 2 + 1e-9, math.pi / 2 - 1e-9,
))
GRID_PAIRS = st.tuples(GRID_ANGLES, GRID_ANGLES)
GRID_TRIPLES = st.tuples(GRID_PAIRS, GRID_PAIRS, GRID_PAIRS)
SINGULAR_TRIPLES = st.builds(
    lambda k, seed: SINGULAR_SHAPES[k](np.random.default_rng(seed)),
    st.integers(0, len(SINGULAR_SHAPES) - 1),
    st.integers(0, 2**32 - 1),
)


# identity middle gates at the input bound: the middle letters are signed
# zeros or round-off below ZERO_TOL, the outer ones wide, same-signed near
# +-MAX_ANGLE / 2 (so g1 +- g3 and d1 +- d3 reach MAX_ANGLE), or in +-pi
ZERO_ANGLES = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-ZERO_TOL, ZERO_TOL))
SIGNS = st.sampled_from((1.0, -1.0))


def near_bound_outers(sg, sd, offsets):
    a, b, c, d = (MAX_ANGLE / 2 - x for x in offsets)
    return (sg * a, sd * b), (sg * c, sd * d)


NEAR_BOUND_OUTERS = st.builds(near_bound_outers, SIGNS, SIGNS, st.tuples(*[st.floats(0, 10)] * 4))
OUTERS = st.one_of(st.tuples(WIDE_PAIRS, WIDE_PAIRS), NEAR_BOUND_OUTERS, st.tuples(PAIRS, PAIRS))
ZERO_MIDDLE_TRIPLES = st.builds(
    lambda outer, middle: (outer[0], middle, outer[1]), OUTERS, st.tuples(ZERO_ANGLES, ZERO_ANGLES)
)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def string_op(k, p):
    # Z on the sites before k, p on site k, identity after
    ops = [PAULI_Z] * k + [p] + [np.eye(2)] * (2 - k)
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


# c_2k = Z..Z X_k and c_2k+1 = Z..Z Y_k on three sites
MAJORANAS = [string_op(k, p) for k in range(3) for p in (PAULI_X, PAULI_Y)]
RX_HALF_PI = np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2)
RX_ALL = np.kron(np.kron(RX_HALF_PI, RX_HALF_PI), RX_HALF_PI)
# the Majoranas of the two 3x3 blocks a triple's rotation splits into
BLOCKS = ((0, 3, 4), (1, 2, 5))


def jordan_wigner_rotation(u):
    # M_ij = tr(c_i G c_j G^dag) / 8 for G = V u V^dag, V = rx(pi/2) on every qubit
    g = RX_ALL @ u @ RX_ALL.conj().T
    return np.array([[np.trace(ci @ g @ cj @ g.conj().T) / 8 for cj in MAJORANAS] for ci in MAJORANAS])


def module_rotation(t, right):
    # the two blocks of ybe's rotation, placed in a 6x6 matrix
    entries = _rotation(t, right)
    m = np.zeros((6, 6))
    for k, block in enumerate(BLOCKS):
        m[np.ix_(block, block)] = np.reshape(entries[9 * k:9 * k + 9], (3, 3))
    return m


def test_rotation_matches_jordan_wigner_oracle():
    # each gate alone, in every slot of either layout (so on either pair), and
    # whole triples: the oracle's rotation is real, zero off the two blocks,
    # and equal to the module's
    rng = np.random.default_rng(SEED + 9)
    gates = [tuple(rng.uniform(-np.pi, np.pi, 2)) for _ in range(20)]
    gates += [tuple(rng.choice(SPECIAL_ANGLES, 2)) for _ in range(20)]
    for g, d in gates:
        for right in (False, True):
            for k in range(3):
                t = tuple((float(g), float(d)) if i == k else (0.0, 0.0) for i in range(3))
                want = jordan_wigner_rotation(kron_unitary(t, right))
                assert np.max(np.abs(want - module_rotation(t, right))) < 1e-12
    for _ in range(20):
        for right in (False, True):
            t = random_triple(rng)
            want = jordan_wigner_rotation(kron_unitary(t, right))
            assert np.max(np.abs(want - module_rotation(t, right))) < 1e-12


@settings(max_examples=1000)
@given(st.one_of(TRIPLES, WIDE_TRIPLES, GRID_TRIPLES, SINGULAR_TRIPLES, ZERO_MIDDLE_TRIPLES))
def test_closed_form_is_total(t):
    # a mirror always exists, so the closed form's one candidate must verify
    # on every input up to the bound, identity middle gates included;
    # nothing else backs it; the residual reported is the verified one
    sol = solve(t)
    assert sol.method == "analytic"
    assert sol.residual < SOLVER_TOL
    assert rotation_residual(t, sol.pairs) == sol.residual


@given(TRIPLES, st.booleans())
def test_solve_round_trip_property(t, right):
    # there and back gives a triple with the same unitary in the starting
    # layout, read either way, or a solve says it cannot
    try:
        back = solve(solve(t).pairs)
    except UnsolvedError:
        return
    assert np.max(np.abs(kron_unitary(t, right) - kron_unitary(back.pairs, right))) < ROUND_TRIP_TOL


def test_solve_middle_identity_merges_outer_gates():
    # bridge with an identity middle gate collapses to a single middle gate:
    # here g1 + g3 and d1 + d3 lie in (0, pi/2), so the closed form's four
    # outer aggregates are zero and it returns the merge itself
    sol = solve(((0.31, -0.2), (0.0, 0.0), (0.5, 0.7)))
    (g1, d1), (g2, d2), (g3, d3) = sol.pairs
    assert (g1, d1) == (0.0, 0.0)
    assert (g3, d3) == (0.0, 0.0)
    assert g2 == pytest.approx(0.31 + 0.5, abs=1e-12)
    assert d2 == pytest.approx(-0.2 + 0.7, abs=1e-12)
    assert sol.residual < RESIDUAL_TOL


def test_solve_singular_families():
    # aggregates with vanishing denominators in naive elimination
    singular = [
        ((0.4, 0.1), (np.pi / 2, 0.3), (0.2, 0.5)),
        ((0.4, 0.1), (0.3, np.pi / 2), (0.2, 0.5)),
        ((np.pi / 2, 0.1), (0.3, 0.2), (np.pi / 2, 0.5)),
        ((0.0, 0.1), (0.3, 0.2), (0.0, 0.5)),
        ((0.4, np.pi / 2), (0.3, 0.2), (0.2, np.pi / 2)),
        ((0.4, 0.0), (0.3, 0.2), (0.2, 0.0)),
        ((np.pi / 2, np.pi / 2), (np.pi / 2, np.pi / 2), (np.pi / 2, np.pi / 2)),
    ]
    for t in singular:
        sol = solve(t)
        assert sol.residual < RESIDUAL_TOL
        assert np.max(np.abs(kron_unitary(t) - kron_unitary(sol.pairs, right=True))) < RESIDUAL_TOL


def test_solution_wraps_angles_to_principal_branch():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(50):
        t = random_triple(rng)
        sol = solve(t)
        for gamma, delta in sol.pairs:
            assert -np.pi < gamma <= np.pi + 1e-15
            assert -np.pi < delta <= np.pi + 1e-15


def test_verify_relations_flags_wrong_answer():
    # the same pairs read in the right layout are not the mirror
    t = ((0.4, 0.1), (0.3, 0.2), (0.2, 0.5))
    assert rotation_residual(t, t) > 1e-3


def test_rotation_residual_cannot_see_a_pi_shift():
    # an angle shifted by pi negates the unitary but keeps its rotation: the
    # sign is a global phase of the whole circuit, which compress, verify and
    # m_s never see, so the solver's check lets it pass. Only a dense check
    # that does not factor out phase, like acceptance criterion 2's, sees it
    t = ((0.4, 0.1), (0.3, 0.2), (0.2, 0.5))
    out = solve(t).pairs
    for k in range(6):
        angles = [a for pair in out for a in pair]
        angles[k] += math.pi
        shifted = tuple(zip(angles[::2], angles[1::2]))
        assert np.max(np.abs(kron_unitary(shifted, right=True) + kron_unitary(t))) < 1e-12
        assert rotation_residual(t, shifted) < 1e-12


@given(TRIPLES, st.booleans())
def test_rotation_residual_agrees_with_dense_residual(t, right):
    # near a solution the Frobenius distance of the 6x6 rotations equals the
    # one of the 8x8 unitaries to first order in the perturbation; t is read
    # in the right layout when right is set, and its solution in the other
    near = tuple((g + 1e-6, d + 1e-6) for g, d in solve(t).pairs)
    rotation = rotation_residual(*((near, t) if right else (t, near)))
    dense = np.linalg.norm(kron_unitary(t, right) - kron_unitary(near, not right))
    assert rotation == pytest.approx(dense, rel=1e-4)


def test_unsolved_error_reports_a_verified_residual():
    # at 4e16 an angle carries no precision: the candidate's rotation misses
    # the input's, and the error reports that residual
    with pytest.raises(UnsolvedError) as info:
        solve(((0.3, 4e16), (0.2, 0.1), (0.5, 0.4)))
    err = info.value
    assert err.best_residual >= SOLVER_TOL
    reported = float(str(err).split("best residual ")[1].split()[0])
    assert reported >= SOLVER_TOL


def test_unsolved_error_carries_best_residual():
    err = UnsolvedError(0.125)
    assert err.best_residual == 0.125
    assert str(err) == "no solution below tolerance 1e-09; best residual 1.250e-01"
