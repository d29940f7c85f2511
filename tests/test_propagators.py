"""Two-qubit propagator matrices and their native-gate decompositions.

Oracle used throughout: for a Pauli pair P = sigma^a x sigma^a,
exp(i t P) = cos(t) I + i sin(t) P, built here from explicit kron products.
"""

import numpy as np
import pytest

from spinchain._dense import phase_distance
from spinchain.circuit_ir import Circuit, NativeCircuit, PairGate, to_native, unitary_of
from spinchain.propagators import (
    CX_MATRIX,
    CX_REVERSED_MATRIX,
    H_MATRIX,
    S_MATRIX,
    NativeGate,
    CONJUGATION_TAGS,
    RGateParams,
    decompose_xyz,
    native_gate_matrix,
    r_gate_sequence,
    rx_matrix,
    rz_matrix,
    xyz_propagator,
)
from spinchain.spin_model import (
    Angles3,
    CouplingParams,
    HamiltonianClass,
    UnsupportedClassError,
    classify,
)

TRIALS = 300
TOL = 1e-12
PHASE_TOL = 1e-10
SEED = 91217

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def pair_exp_oracle(axis, theta):
    p = np.kron(PAULI[axis], PAULI[axis])
    return np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * p


def xyz_oracle(a):
    gen = (
        a.theta_x * np.kron(SX, SX)
        + a.theta_y * np.kron(SY, SY)
        + a.theta_z * np.kron(SZ, SZ)
    )
    vals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def random_angles(rng):
    return Angles3(*rng.uniform(-np.pi, np.pi, 3))


def conjugated_oracle(p, tag):
    """U R(gamma, delta) U^dag by its definition: U = rz(pi/2) x rz(pi/2) for
    u1, rx(pi/2) x rx(pi/2) for u2, the identity for none."""
    r = pair_exp_oracle("x", p.gamma) @ pair_exp_oracle("z", p.delta)
    if tag == "none":
        return r
    half = (rz_matrix if tag == "u1" else rx_matrix)(np.pi / 2)
    u = np.kron(half, half)
    return u @ r @ u.conj().T


def test_single_qubit_gate_matrices():
    t = 0.7321
    assert np.allclose(rx_matrix(t), np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * SX)
    assert np.allclose(rz_matrix(t), np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]))
    assert np.allclose(H_MATRIX @ H_MATRIX, np.eye(2))
    assert np.allclose(S_MATRIX, np.diag([1, 1j]))


def test_cx_matrices_flip_target():
    # qubit 0 is the left (most significant) tensor factor
    basis = np.eye(4)
    assert np.allclose(CX_MATRIX @ basis[:, 2], basis[:, 3])
    assert np.allclose(CX_MATRIX @ basis[:, 0], basis[:, 0])
    assert np.allclose(CX_REVERSED_MATRIX @ basis[:, 1], basis[:, 3])
    assert np.allclose(CX_REVERSED_MATRIX @ basis[:, 0], basis[:, 0])


def test_native_gate_matrix_dispatch():
    g = NativeGate("rx", (0,), 0.4)
    assert np.allclose(native_gate_matrix(g), rx_matrix(0.4))
    # the matrix acts on the gate's qubits in ascending order, so a cx whose
    # control is the higher qubit comes back reversed
    assert np.allclose(native_gate_matrix(NativeGate("cx", (1, 0))), CX_REVERSED_MATRIX)
    u = unitary_of(NativeCircuit(2, (NativeGate("cx", (1, 0)),)))
    assert np.allclose(u, CX_REVERSED_MATRIX)


def test_xyz_propagator_matches_eigh_oracle():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(TRIALS):
        a = random_angles(rng)
        assert np.max(np.abs(xyz_propagator(a) - xyz_oracle(a))) < TOL


def test_xyz_propagator_is_ordered_axis_product():
    # the three pair exponentials commute, so the product form is exact
    rng = np.random.default_rng(SEED + 2)
    for _ in range(TRIALS):
        a = random_angles(rng)
        prod = (
            pair_exp_oracle("x", a.theta_x)
            @ pair_exp_oracle("y", a.theta_y)
            @ pair_exp_oracle("z", a.theta_z)
        )
        assert np.max(np.abs(xyz_propagator(a) - prod)) < TOL


def test_r_matrix_periodicity():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(50):
        gamma, delta = rng.uniform(-np.pi, np.pi, 2)
        r0 = xyz_propagator(Angles3(gamma, 0.0, delta))
        r1 = xyz_propagator(Angles3(gamma + 2 * np.pi, 0.0, delta))
        r2 = xyz_propagator(Angles3(gamma, 0.0, delta + 2 * np.pi))
        assert np.max(np.abs(r0 - r1)) < TOL
        assert np.max(np.abs(r0 - r2)) < TOL
        # pi shift flips the sign only
        r3 = xyz_propagator(Angles3(gamma + np.pi, 0.0, delta))
        assert phase_distance(r0, r3) < TOL


def test_angles3_gates_emit_their_class_circuit():
    # each two-axis family emits its 2-CX R(gamma, delta) circuit, three-axis
    # angles the 3-CX circuit; either way the emitted gates are the propagator
    rng = np.random.default_rng(SEED + 5)
    for klass in HamiltonianClass:
        for _ in range(TRIALS // 7):
            a = Angles3(*(rng.uniform(-1.5, 1.5) if axis in klass.axes else 0.0 for axis in "xyz"))
            native = to_native(Circuit(2, (PairGate(0, a),)))
            assert sum(1 for g in native.gates if g.kind == "cx") == (3 if klass is HamiltonianClass.XYZ else 2)
            assert phase_distance(unitary_of(native), xyz_oracle(a)) < PHASE_TOL


def test_from_angles3_covers_two_axis_families():
    # the family table maps any two-axis Angles3 onto R(gamma, delta) under its tag
    rng = np.random.default_rng(SEED + 5)
    cases = [
        lambda r: Angles3(r.uniform(-1.5, 1.5), 0.0, 0.0),
        lambda r: Angles3(0.0, r.uniform(-1.5, 1.5), 0.0),
        lambda r: Angles3(0.0, 0.0, r.uniform(-1.5, 1.5)),
        lambda r: Angles3(r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5), 0.0),
        lambda r: Angles3(r.uniform(-1.5, 1.5), 0.0, r.uniform(-1.5, 1.5)),
        lambda r: Angles3(0.0, r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5)),
    ]
    for make in cases:
        for _ in range(TRIALS // 6):
            a = make(rng)
            family = classify(CouplingParams(*a.as_tuple())).family
            params = RGateParams(*family.r_params(a))
            assert phase_distance(conjugated_oracle(params, family.conjugation), xyz_oracle(a)) < PHASE_TOL


def test_tagged_pair_gate_matrix_is_the_conjugated_r():
    # the closed form of the tag's axes equals U R U^dag entrywise, global
    # phase included, at random angles and at signed zeros, quarter and half
    # turns and a tiny angle
    rng = np.random.default_rng(SEED + 8)
    edges = (0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1e-13)
    pairs = [(g, d) for g in edges for d in edges]
    pairs += [tuple(rng.uniform(-np.pi, np.pi, 2)) for _ in range(TRIALS)]
    pairs += [(rng.uniform(-np.pi, np.pi), e) for e in edges] + [(e, rng.uniform(-np.pi, np.pi)) for e in edges]
    for tag in CONJUGATION_TAGS:
        for gamma, delta in pairs:
            p = RGateParams(gamma, delta)
            u = PairGate(0, p, tag).unitary()
            assert np.max(np.abs(u - conjugated_oracle(p, tag))) < 1e-14, (tag, gamma, delta)


def test_from_angles3_rejects_three_axis_input():
    klass = classify(CouplingParams(*Angles3(0.3, 0.4, 0.5).as_tuple()))
    assert klass is HamiltonianClass.XYZ
    with pytest.raises(UnsupportedClassError):
        klass.family


def test_decompose_xyz_matches_propagator():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(TRIALS):
        a = random_angles(rng)
        seq = decompose_xyz(a)
        assert sum(1 for g in seq if g.kind == "cx") == 3
        assert phase_distance(unitary_of(NativeCircuit(2, seq)), xyz_propagator(a)) < PHASE_TOL


def test_special_case_sequences_match_conjugated_r():
    rng = np.random.default_rng(SEED + 7)
    classes = [
        HamiltonianClass.X,
        HamiltonianClass.Y,
        HamiltonianClass.Z,
        HamiltonianClass.XY,
        HamiltonianClass.XZ,
        HamiltonianClass.YZ,
    ]
    for klass in classes:
        tag = klass.family.conjugation
        for _ in range(40):
            gamma, delta = rng.uniform(-1.5, 1.5, 2)
            # single-axis families pin the unused parameter to zero
            if klass in (HamiltonianClass.X, HamiltonianClass.Y):
                delta = 0.0
            elif klass is HamiltonianClass.Z:
                gamma = 0.0
            p = RGateParams(gamma, delta)
            seq = r_gate_sequence(p, tag)
            assert sum(1 for g in seq if g.kind == "cx") <= 2
            assert phase_distance(unitary_of(NativeCircuit(2, seq)), conjugated_oracle(p, tag)) < PHASE_TOL


def test_special_case_sequence_rejects_three_axis_class():
    # the three-axis class has no R(gamma, delta) family, so no special-case sequence
    with pytest.raises(UnsupportedClassError):
        HamiltonianClass.XYZ.family


def test_zero_angle_gates_reduce_to_identity_phase():
    for klass in (HamiltonianClass.X, HamiltonianClass.Z, HamiltonianClass.XY):
        seq = r_gate_sequence(RGateParams(0.0, 0.0), klass.family.conjugation)
        assert phase_distance(unitary_of(NativeCircuit(2, seq)), np.eye(4)) < PHASE_TOL
