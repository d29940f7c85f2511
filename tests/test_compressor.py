"""Merge and braid rewrites, layer absorption, fixed-depth blocks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain import compressor
from spinchain._dense import phase_distance
from spinchain.circuit_ir import (
    Circuit,
    PairGate,
    build_trotter_circuit,
    from_qasm,
    recognize_pair_circuit,
    to_qasm,
    unitary_of,
)
from spinchain.compressor import (
    CompressedBlock,
    _peel_template,
    absorb_steps,
    compress,
    pad_to_template,
)
from spinchain.propagators import RGateParams
from spinchain.simulator import compressed_steps
from spinchain.spin_model import (
    Angles3,
    CouplingParams,
    HamiltonianClass,
    TrotterPlan,
    UnsupportedClassError,
)
from spinchain.ybe import solve, wrap_angle

TOL = 1e-12
PHASE_TOL = 1e-7
SEED = 1632


def max_gate_count(n):
    return n * (n - 1) // 2


def test_compress_trotter_bounds_and_unitary():
    j = CouplingParams(-0.8, -0.2, 0.0)
    for n in (2, 3, 4, 5):
        for steps in (1, 3, 7):
            plan = TrotterPlan(steps * 0.05, 0.05)
            c = build_trotter_circuit(n, j, plan)
            block = compress(c)
            assert block.gate_count <= max_gate_count(n)
            assert phase_distance(unitary_of(block.circuit), unitary_of(c)) < PHASE_TOL
            assert block.residual < 1e-9


def test_compress_step_count_independence():
    j = CouplingParams(0.6, 0.0, -0.3)
    shapes = []
    for steps in (4, 40):
        c = build_trotter_circuit(4, j, TrotterPlan(steps * 0.02, 0.02))
        block = compress(c)
        shapes.append((block.gate_count, [g.pair for g in block.circuit.gates]))
    assert shapes[0][0] == shapes[1][0]
    assert shapes[0][1] == shapes[1][1]


def kron_product(c):
    # operator product of the gates' kron embeddings, qubit 0 leftmost
    n = c.num_qubits
    u = np.eye(2 ** n, dtype=complex)
    for g in c.gates:
        u = np.kron(np.eye(2 ** g.pair), np.kron(g.unitary(), np.eye(2 ** (n - g.pair - 2)))) @ u
    return u


def test_compress_single_axis_classes(monkeypatch):
    for j in (CouplingParams(0.9, 0.0, 0.0), CouplingParams(0.0, 0.0, 0.7)):
        c = build_trotter_circuit(3, j, TrotterPlan(0.4, 0.05))
        block = compress(c)
        assert block.gate_count <= max_gate_count(3)
        assert phase_distance(unitary_of(block.circuit), unitary_of(c)) < PHASE_TOL
    # all couplings zero classify as X, and every bridge move has an identity
    # middle gate: the closed form alone must solve each one
    methods = []

    def spy(t):
        sol = solve(t)
        methods.append(sol.method)
        return sol

    monkeypatch.setattr(compressor, "solve", spy)
    for n in range(2, 9):
        methods.clear()
        block = compress(build_trotter_circuit(n, CouplingParams(0.0, 0.0, 0.0), TrotterPlan(1.0, 0.1)))
        assert block.klass is HamiltonianClass.X
        assert methods == ["analytic"] * block.ybe_moves
        assert phase_distance(kron_product(block.circuit), np.eye(2 ** n)) < PHASE_TOL


def test_compress_rejects_three_axis_class():
    c = build_trotter_circuit(3, CouplingParams(1.0, 0.8, 0.6), TrotterPlan(0.1, 0.05))
    with pytest.raises(UnsupportedClassError):
        compress(c)


def test_three_axis_couplings_raise_one_message():
    # the family table owns the rule; compress, the compressed-step stream,
    # an engine with no gate to absorb and the block reach it
    j, plan = CouplingParams(1.0, 0.8, 0.6), TrotterPlan(0.1, 0.05)
    message = "^three-axis couplings are outside the compressible families$"
    for call in (
        lambda: compress(build_trotter_circuit(3, j, plan)),
        lambda: next(compressed_steps(3, j, plan)),
        lambda: next(absorb_steps(3, HamiltonianClass.XYZ, (), 1)),
        lambda: CompressedBlock(((),) * 3, HamiltonianClass.XYZ, 0.0, 0),
        lambda: HamiltonianClass.XYZ.family,
    ):
        with pytest.raises(UnsupportedClassError, match=message):
            call()


def test_compress_rejects_mixed_classes():
    gates = (
        PairGate(0, Angles3(0.1, 0.2, 0.0)),
        PairGate(1, Angles3(0.0, 0.2, 0.3)),
    )
    with pytest.raises(UnsupportedClassError):
        compress(Circuit(3, gates))
    # an engine keeps its class: a gate off it is refused where it is absorbed
    with pytest.raises(ValueError, match=r"^gate with axes \['y'\] does not fit class X$"):
        next(absorb_steps(3, HamiltonianClass.X, [PairGate(0, Angles3(0.0, 0.2, 0.0))], 1))


def test_compress_empty_circuit():
    block = compress(Circuit(3, ()))
    assert block.gate_count == 0


def test_long_merge_runs_keep_their_precision():
    # every gate merges into one letter that no braid rewrites: on N=2 the
    # triangle's row 0, on N=3 the unfilled word of a pair-0-only circuit.
    # The merged angles must stay within rounding of the exact sums mod 2 pi.
    steps = 50_000
    a = Angles3(0.9, 0.3, 0.0)
    for n in (2, 3):
        (g,) = compress(Circuit(n, (PairGate(0, a),) * steps)).circuit.gates
        for got, one in zip(g.params.as_tuple(), HamiltonianClass.XY.family.r_params(a)):
            assert abs(wrap_angle(got - math.remainder(one * steps, 2 * math.pi))) < 1e-9


def _peel_all_rounds(perm: list[int], n: int) -> list[list[int]] | None:
    # the peel before its early stop: every one of the n rounds scans all pairs
    sigma = list(perm)
    slots: list[list[int]] = [[] for _ in range(n)]
    for k in range(n - 1, -1, -1):
        for j in range(k % 2, n - 1, 2):
            if sigma[j] > sigma[j + 1]:
                sigma[j], sigma[j + 1] = sigma[j + 1], sigma[j]
                slots[k].append(j)
    return slots if sigma == sorted(sigma) else None


def test_peel_template_matches_the_full_scan():
    # the full scan returns None unless its swaps sort the permutation, and the
    # odd-even transposition sort swaps only descents: one swap per inversion
    rng = np.random.default_rng(SEED + 3)
    perms = [list(p) for n in range(1, 8) for p in itertools.permutations(range(n))]
    perms += [list(range(n)) for n in range(8, 13)] + [list(range(n))[::-1] for n in range(8, 13)]
    perms += [rng.permutation(int(rng.integers(1, 13))).tolist() for _ in range(2000)]
    # a few crossings on a wide register: the peel stops rounds before the end
    for _ in range(500):
        perm = list(range(int(rng.integers(2, 40))))
        for j in rng.integers(0, len(perm) - 1, int(rng.integers(1, 4))):
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
        perms.append(perm)
    for perm in perms:
        slots = _peel_template(perm)
        assert slots == _peel_all_rounds(perm, len(perm))
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        assert sum(map(len, slots)) == inversions, perm


def test_pad_to_template_reaches_full_size():
    j = CouplingParams(-0.8, -0.2, 0.0)
    for n in (3, 4, 5):
        c = build_trotter_circuit(n, j, TrotterPlan(0.05, 0.05))
        block = compress(c)
        padded = pad_to_template(block)
        assert padded.gate_count == max_gate_count(n)
        assert phase_distance(
            unitary_of(padded.circuit), unitary_of(block.circuit)
        ) < TOL
        # padding is idempotent
        again = pad_to_template(padded)
        assert again.gate_count == padded.gate_count


def test_alternating_layers_bound():
    j = CouplingParams(-0.8, -0.2, 0.0)
    for n in (2, 3, 4, 5, 6):
        c = build_trotter_circuit(n, j, TrotterPlan(0.5, 0.05))
        block = compress(c)
        assert block.alternating_layers <= n
        # slot k holds pairs of parity k, and the circuit reads the slots in order
        for k, slot in enumerate(block.slots):
            assert all(g.pair % 2 == k % 2 for g in slot)
        assert block.circuit.gates == tuple(g for slot in block.slots for g in slot)
        padded = pad_to_template(block)
        template = [p for k in range(n) for p in range(k % 2, n - 1, 2)]
        assert [g.pair for g in padded.circuit.gates] == template
        assert padded.alternating_layers <= n


def test_compressed_block_validation():
    block = compress(build_trotter_circuit(3, CouplingParams(0.5, 0.2, 0.0), TrotterPlan(0.1, 0.05)))
    assert block.conjugation == "u2"
    with pytest.raises(ValueError):
        CompressedBlock(block.slots, block.klass, -1.0, block.ybe_moves)  # negative residual
    with pytest.raises(ValueError, match="^ybe_moves must be nonnegative, got -1$"):
        CompressedBlock(block.slots, block.klass, block.residual, -1)
    with pytest.raises(ValueError):
        CompressedBlock(block.slots, HamiltonianClass.XYZ, block.residual, block.ybe_moves)
    gate = PairGate(0, RGateParams(0.1, 0.2), "u2")
    # an even pair in an odd slot
    with pytest.raises(ValueError, match="misplaced"):
        CompressedBlock(((), (gate,), ()), block.klass, 0.0, 0)
    # a gate under another conjugation tag than the block's
    with pytest.raises(ValueError, match="conjugation"):
        CompressedBlock(((PairGate(0, RGateParams(0.1, 0.2), "u1"),), (), ()), block.klass, 0.0, 0)
    with pytest.raises(TypeError):
        CompressedBlock(((PairGate(0, Angles3(0.1, 0.2, 0.0)),), (), ()), block.klass, 0.0, 0)
    odd = PairGate(1, RGateParams(0.1, 0.2), "u2")
    with pytest.raises(ValueError, match="bound"):
        CompressedBlock(((gate, gate), (odd,), (gate,)), block.klass, 0.0, 0)
    assert CompressedBlock(((gate,), (), ()), block.klass, 0.0, 0).gate_count == 1


SPECIAL_ANGLES = (
    0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
    1e-13, -1e-13, 1e-9, 3.0,
)
ANGLES = st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(-math.pi, math.pi))
FAMILIES = [k for k in HamiltonianClass if k is not HamiltonianClass.XYZ]


def family_gate(draw, klass, tagged, pair):
    # a gate of the family as Angles3, or as RGateParams carrying the
    # family's conjugation tag
    a = Angles3(*(draw(ANGLES) if axis in klass.axes else 0.0 for axis in "xyz"))
    if tagged:
        return PairGate(pair, RGateParams(*klass.family.r_params(a)), klass.family.conjugation)
    return PairGate(pair, a)


@st.composite
def family_circuits(draw):
    # gates of one coupling family in any pair order
    n = draw(st.integers(2, 6))
    klass, tagged = draw(st.sampled_from(FAMILIES)), draw(st.booleans())
    pairs = draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=30))
    return Circuit(n, tuple(family_gate(draw, klass, tagged, p) for p in pairs))


@st.composite
def triangle_circuits(draw):
    # a full brickwork prefix of N columns fills the word with N(N-1)/2
    # letters, so every later gate, on any pair, descends the triangle
    n = draw(st.integers(2, 7))
    klass, tagged = draw(st.sampled_from(FAMILIES)), draw(st.booleans())
    pairs = [p for k in range(n) for p in range(k % 2, n - 1, 2)]
    pairs += draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=20))
    return Circuit(n, tuple(family_gate(draw, klass, tagged, p) for p in pairs))


def check_compressed(c):
    n = c.num_qubits
    block = compress(c)
    assert phase_distance(unitary_of(block.circuit), unitary_of(c)) < PHASE_TOL
    assert block.gate_count <= min(max_gate_count(n), len(c.gates))
    assert block.alternating_layers <= n
    recognized = recognize_pair_circuit(from_qasm(to_qasm(c)))
    # the QASM path compresses to the same shape; an input -0.0 comes back as
    # +0.0 and may steer a solve to another branch, so compare unitaries, not bits
    again = compress(recognized)
    assert again.gate_count == block.gate_count
    assert again.alternating_layers == block.alternating_layers
    assert phase_distance(unitary_of(again.circuit), unitary_of(block.circuit)) < PHASE_TOL


@given(family_circuits())
def test_compress_property(c):
    check_compressed(c)


@given(triangle_circuits())
def test_compress_triangle_property(c):
    check_compressed(c)


FAMILY_COUPLINGS = {
    klass: CouplingParams(*(v if axis in klass.axes else 0.0 for axis, v in zip("xyz", (0.7, -0.45, 0.3))))
    for klass in FAMILIES
}


def trotter_moves(n, j, steps, dt=0.05):
    return compress(build_trotter_circuit(n, j, TrotterPlan(steps * dt, dt))).ybe_moves


def test_turnovers_per_step_once_the_word_is_full():
    # a brickwork of N columns only extends the word, and past that each
    # Trotter step costs one descent of the triangle per gate: sum of j over
    # pairs j = 0 .. N-2, that is (N-1)(N-2)/2 bridge moves
    for n in range(2, 11):
        per_step = (n - 1) * (n - 2) // 2
        for j in FAMILY_COUPLINGS.values():
            assert [trotter_moves(n, j, s) for s in range(1, n // 2 + 1)] == [0] * (n // 2)
            moves = [trotter_moves(n, j, s) for s in (n, n + 1, n + 2)]
            assert moves == [moves[0], moves[0] + per_step, moves[0] + 2 * per_step], (n, j)


def test_compressed_steps_end_on_the_compressed_circuit():
    # the stream and compress run one engine over the same gates in the same
    # order, so the stream's last block is compress's, bit for bit
    jobs = [
        (n, FAMILY_COUPLINGS[klass], 0.05, steps)
        for n in range(2, 8)
        for klass in (HamiltonianClass.X, HamiltonianClass.XY, HamiltonianClass.YZ)
        for steps in sorted({1, 2, n, 3 * n})
    ]
    # a coupling and its step angle J.y*dt on opposite sides of ZERO_TOL: the
    # family comes from the angles, class XY and then class X
    jobs += [(4, CouplingParams(1.0, 1e-13, 0.0), 1000.0, 2), (4, CouplingParams(1.0, 1e-11, 0.0), 0.01, 50)]
    for n, j, dt, steps in jobs:
        plan = TrotterPlan(steps * dt, dt)
        *_, last = compressed_steps(n, j, plan)
        # block equality compares the slots, the residual and ybe_moves
        assert last == compress(build_trotter_circuit(n, j, plan))
