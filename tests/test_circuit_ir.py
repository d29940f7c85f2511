"""Circuit containers, Trotter construction, native expansion, QASM."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinchain import _dense
from spinchain._dense import phase_distance
from spinchain.circuit_ir import (
    Circuit,
    NativeCircuit,
    QASM_HEADER,
    PairGate,
    QasmParseError,
    _builder,
    _clusters,
    _descriptors,
    _fused_ops,
    build_trotter_circuit,
    from_qasm,
    local_ops,
    to_native,
    to_qasm,
    unitary_of,
)
from spinchain.propagators import NativeGate, RGateParams
from spinchain.spin_model import MAX_ANGLE, Angles3, CouplingParams, TrotterPlan, step_angles

TRIALS = 60
TOL = 1e-12
PHASE_TOL = 1e-10
SEED = 424242
GOLDEN = Path(__file__).parent / "golden"

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pair_unitary_oracle(a):
    gen = (
        a.theta_x * np.kron(SX, SX)
        + a.theta_y * np.kron(SY, SY)
        + a.theta_z * np.kron(SZ, SZ)
    )
    vals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def circuit_unitary_oracle(c):
    # independent kron-embedding product, qubit 0 as leftmost factor
    n = c.num_qubits
    u = np.eye(2 ** n, dtype=complex)
    for g in c.gates:
        local = pair_unitary_oracle(g.params) if isinstance(g.params, Angles3) else None
        if local is None:
            local = g.unitary()
        full = np.kron(
            np.eye(2 ** g.pair), np.kron(local, np.eye(2 ** (n - g.pair - 2)))
        )
        u = full @ u
    return u


def random_pair_circuit(rng, n, num_gates):
    gates = tuple(
        PairGate(int(rng.integers(0, n - 1)), Angles3(*rng.uniform(-1.0, 1.0, 3)))
        for _ in range(num_gates)
    )
    return Circuit(n, gates)


def test_pair_gate_validation():
    with pytest.raises(ValueError):
        PairGate(-1, Angles3(0.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        # conjugation tags only make sense on two-parameter gates
        PairGate(0, Angles3(0.1, 0.0, 0.0), conjugation="u1")
    with pytest.raises(TypeError, match="^params must be Angles3 or RGateParams, got <class 'tuple'>$"):
        PairGate(0, (0.1, 0.2))
    with pytest.raises(ValueError, match="^unknown conjugation 'u3'$"):
        PairGate(0, RGateParams(0.1, 0.2), conjugation="u3")
    with pytest.raises(ValueError, match=r"^R params must be finite, got \(0.1, nan\)$"):
        RGateParams(0.1, float("nan"))
    g = PairGate(2, RGateParams(0.3, 0.1), conjugation="u2")
    assert g.pair == 2
    assert g.unitary().shape == (4, 4)


def test_circuit_rejects_pairs_off_the_chain():
    with pytest.raises(ValueError):
        Circuit(3, (PairGate(2, Angles3(0.1, 0.0, 0.0)),))
    with pytest.raises(ValueError):
        Circuit(1, ())


def test_native_circuit_requires_adjacent_cx():
    with pytest.raises(ValueError):
        NativeCircuit(3, (NativeGate("cx", (0, 2)),))
    with pytest.raises(ValueError, match="^cx carries no angle$"):
        NativeGate("cx", (0, 1), 0.5)
    with pytest.raises(ValueError, match=r"^gate .* out of range for 2 qubits$"):
        NativeCircuit(2, (NativeGate("h", (2,)),))


def test_native_circuit_checks_each_repeated_gate_object():
    # each distinct gate object is checked once: a shared one that is out of
    # range still fails, and the first offender is the one named
    inside, outside = NativeGate("h", (0,)), NativeGate("rz", (3,), 0.5)
    for gates in ((inside, outside, inside, outside), (outside, inside, outside)):
        with pytest.raises(ValueError, match=r"^gate .*qubits=\(3,\).* out of range for 2 qubits$"):
            NativeCircuit(2, gates)
    with pytest.raises(ValueError, match=r"qubits=\(2,\)"):
        NativeCircuit(2, (inside, NativeGate("h", (2,)), outside, inside))
    assert NativeCircuit(2, (inside,) * 3).gates == (inside,) * 3


def test_build_trotter_structure():
    j = CouplingParams(-0.8, -0.2, 0.0)
    plan = TrotterPlan(0.1, 0.025)
    c = build_trotter_circuit(5, j, plan)
    assert plan.num_steps == 4
    assert len(c.gates) == 4 * 4
    a = step_angles(j, plan.dt)
    assert all(g.params == a for g in c.gates)
    # each step: the even pairs 0 and 2, then the odd pairs 1 and 3
    assert [g.pair for g in c.gates] == [0, 2, 1, 3] * 4


def test_build_trotter_two_qubits():
    c = build_trotter_circuit(2, CouplingParams(1.0, 0.0, 0.0), TrotterPlan(0.2, 0.1))
    # one gate per step on the only pair; there is no odd pair
    assert [g.pair for g in c.gates] == [0, 0]


def test_unitary_of_matches_kron_oracle():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 6))
        c = random_pair_circuit(rng, n, int(rng.integers(1, 12)))
        assert np.max(np.abs(unitary_of(c) - circuit_unitary_oracle(c))) < TOL
    # refused before the 2^13 x 2^13 matrix is allocated
    with pytest.raises(ValueError, match="^dense oracle limited to 12 qubits, got 13$"):
        unitary_of(Circuit(13, ()))


def native_gate_oracle(g, n):
    # the gate embedded in 2^n dimensions by kron products (1q) or a basis
    # permutation (cx), qubit 0 as leftmost factor
    if g.kind == "cx":
        control, target = (n - 1 - q for q in g.qubits)
        perm = [b ^ (1 << target) if b >> control & 1 else b for b in range(2 ** n)]
        return np.eye(2 ** n, dtype=complex)[perm]
    if g.kind == "rx":
        local = math.cos(g.angle / 2) * np.eye(2) - 1j * math.sin(g.angle / 2) * SX
    elif g.kind == "rz":
        local = np.diag([np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle)])
    elif g.kind == "h":
        local = (SX + SZ) / math.sqrt(2)
    else:
        local = np.diag([1, 1j])
    q = g.qubits[0]
    return np.kron(np.eye(2 ** q), np.kron(local, np.eye(2 ** (n - q - 1))))


def native_unitary_oracle(c):
    u = np.eye(2 ** c.num_qubits, dtype=complex)
    for g in c.gates:
        u = native_gate_oracle(g, c.num_qubits) @ u
    return u


@st.composite
def native_circuits(draw):
    n = draw(st.integers(1, 5))
    kinds = ["rx", "rz", "h", "s"] + (["cx"] * 2 if n > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind == "cx":
            p = draw(st.integers(0, n - 2))
            gates.append(NativeGate("cx", draw(st.sampled_from([(p, p + 1), (p + 1, p)]))))
        else:
            angle = draw(st.floats(-7.0, 7.0)) if kind in ("rx", "rz") else None
            gates.append(NativeGate(kind, (draw(st.integers(0, n - 1)),), angle))
    return NativeCircuit(n, tuple(gates))


@given(native_circuits())
@example(NativeCircuit(1, ()))
@example(NativeCircuit(1, (NativeGate("h", (0,)), NativeGate("rz", (0,), 0.3), NativeGate("s", (0,)))))
@example(
    # blocks on pairs 0 and 1 interleave, reversed cx on the last qubit
    NativeCircuit(3, (
        NativeGate("rx", (0,), 0.4),
        NativeGate("cx", (0, 1)),
        NativeGate("rz", (1,), -1.1),
        NativeGate("cx", (2, 1)),
        NativeGate("h", (2,)),
        NativeGate("cx", (1, 0)),
        NativeGate("s", (1,)),
        NativeGate("cx", (1, 2)),
        NativeGate("rx", (0,), 2.5),
    ))
)
def test_unitary_of_native_matches_kron_oracle(c):
    assert np.max(np.abs(unitary_of(c) - native_unitary_oracle(c))) < TOL


# a template gate on a pair: (kind, local qubit, angle); for a cx the local
# qubit is the control's
TEMPLATE_SINGLES = st.tuples(
    st.sampled_from(["rx", "rz", "h", "s"]), st.integers(0, 1), st.sampled_from([0.0, -0.0, 0.4, -1.3, 2.5])
)
TEMPLATE_CX = st.tuples(st.just("cx"), st.integers(0, 1), st.none())


def stamp(template, pair):
    gates = []
    for kind, local, angle in template:
        if kind == "cx":
            gates.append(NativeGate("cx", (pair + local, pair + 1 - local)))
        else:
            gates.append(NativeGate(kind, (pair + local,), angle if kind in ("rx", "rz") else None))
    return gates


TEMPLATES = st.tuples(
    st.lists(TEMPLATE_SINGLES, max_size=3), TEMPLATE_CX, st.lists(st.one_of(TEMPLATE_CX, TEMPLATE_SINGLES), max_size=6)
).map(lambda t: [*t[0], t[1], *t[2]])


@st.composite
def stamped_circuits(draw):
    # a pool of native block templates (pending singles, a cx, then cx's and
    # singles on either qubit) stamped onto random pairs, so that identical
    # descriptors recur on different pairs. The second and third templates
    # flip one gate of the first onto its other qubit (a cx: its direction),
    # so a key that cannot see that difference meets both in one circuit
    n = draw(st.integers(2, 7))
    base = draw(TEMPLATES)
    pool = [base]
    for i in draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=2)):
        kind, local, angle = base[i]
        pool.append(base[:i] + [(kind, 1 - local, angle)] + base[i + 1:])
    stamps = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, n - 2)), max_size=12))
    return NativeCircuit(n, tuple(g for template, pair in stamps for g in stamp(template, pair)))


def on(m, offset, u):
    # m applied to u at qubit offset, in the oracle's product idiom
    return np.matmul(m, u.reshape(1 << offset, len(m), -1)).reshape(u.shape)


def fused_ops_reference(c):
    # the fusion multiplied gate by gate as the circuit runs, no reuse
    singles, blocks = {}, {}
    for q, m in local_ops(c):
        if m.shape[0] == 2:
            if q in blocks:
                blocks[q] = on(m, 0, blocks[q])
            elif q - 1 in blocks:
                blocks[q - 1] = on(m, 1, blocks[q - 1])
            else:
                singles[q] = on(m, 0, singles[q]) if q in singles else m
        elif q in blocks:
            blocks[q] = on(m, 0, blocks[q])
        else:
            for p in (q - 1, q + 1):
                if p in blocks:
                    yield p, blocks.pop(p)
            block = np.eye(4, dtype=complex)
            for local in (0, 1):
                if q + local in singles:
                    block = on(singles.pop(q + local), local, block)
            blocks[q] = on(m, 0, block)
    yield from blocks.items()
    yield from singles.items()


def clusters_reference(ops):
    # the greedy rule of _clusters, each cluster multiplied member by member
    # on an identity, merged disjoint clusters in order of their lowest qubit
    open_ = {}  # lowest qubit -> (highest qubit, members)

    def close(lo, hi, members):
        if len(members) == 1:
            return members[0]
        u = np.eye(2 ** (hi - lo + 1), dtype=complex)
        for low, m in members:
            u = on(m, low - lo, u)
        return lo, u

    for low, m in ops:
        high = low + len(m).bit_length() - 2
        hit = sorted(lo for lo, (hi, _) in open_.items() if lo <= high and hi >= low)
        lo, hi = min([low, *hit]), max([high, *(open_[h][0] for h in hit)])
        if hi - lo < 4:
            open_[lo] = hi, [op for h in hit for op in open_.pop(h)[1]] + [(low, m)]
        else:
            for h in hit:
                yield close(h, *open_.pop(h))
            open_[low] = high, [(low, m)]
    for lo, (hi, members) in open_.items():
        yield close(lo, hi, members)


def fused_bytes(ops):
    return [(low, m.tobytes()) for low, m in ops]


def built_ops(c):
    # the (lowest qubit, matrix) fused ops of c, as unitary_of's builder makes them
    descriptors, gate_of = _descriptors(c)
    build = _builder(gate_of)
    return [(low, build(key)) for low, key in _fused_ops(descriptors)]


def op_widths(c):
    # (lowest qubit, qubits spanned) per op of the cluster stage, read from its key
    return [(low, key[0]) for low, key in _clusters(_fused_ops(_descriptors(c)[0]))]


def applied_ops(c, monkeypatch):
    # every (lowest qubit, matrix) that unitary_of applies to its 2^N matrix
    applied, apply_gate = [], _dense.apply_gate

    def record(u, m, low, out=None):
        applied.append((low, m.tobytes()))
        return apply_gate(u, m, low, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(_dense, "apply_gate", record)
        unitary_of(c)
    return applied


@given(stamped_circuits())
@example(NativeCircuit(2, (NativeGate("rz", (0,), 0.0), NativeGate("rz", (1,), -0.0))))
def test_unitary_of_fuses_repeated_blocks_like_the_kron_oracle(c):
    # reusing a block changes no bit of it, not even the sign of a zero
    assert fused_bytes(built_ops(c)) == fused_bytes(fused_ops_reference(c))
    assert np.max(np.abs(unitary_of(c) - native_unitary_oracle(c))) < TOL


def test_fusion_keeps_blocks_apart_that_differ_only_in_direction_or_qubit():
    # three disjoint blocks; the second and third have the first one's gates
    # but for the cx direction or the qubit of the rotation after the cx. A
    # key that cannot see the difference hands them the first one's matrix
    block = [("rz", 0, 0.3), ("cx", 0, None), ("rx", 1, 0.5)]
    reversed_cx = [("rz", 0, 0.3), ("cx", 1, None), ("rx", 1, 0.5)]
    other_qubit = [("rz", 0, 0.3), ("cx", 0, None), ("rx", 0, 0.5)]
    c = NativeCircuit(6, tuple(stamp(block, 0) + stamp(reversed_cx, 2) + stamp(other_qubit, 4)))
    assert np.max(np.abs(unitary_of(c) - native_unitary_oracle(c))) < TOL


CLUSTER_COUPLINGS = (
    CouplingParams(0.7, 0.0, 0.0),
    CouplingParams(-0.8, -0.3, 0.0),
    CouplingParams(0.0, 0.4, -0.9),
    CouplingParams(0.3, -0.6, 0.9),
)


def cluster_trotter_circuits():
    # from N = 7 the fused ops merge into clusters of up to 4 qubits; odd
    # trials list each layer's pair gates in a shuffled order, as a
    # column-reordered copy of a Trotter circuit does
    rng = np.random.default_rng(SEED + 7)
    for trial in range(6):
        n = 7 + trial % 3
        j = CLUSTER_COUPLINGS[int(rng.integers(len(CLUSTER_COUPLINGS)))]
        steps = int(rng.integers(1, 4 if n < 9 else 2))
        gates = build_trotter_circuit(n, j, TrotterPlan(0.1 * steps, 0.1)).gates
        if trial % 2:
            starts = np.cumsum([0] + [n // 2, (n - 1) // 2] * steps)  # the layers' bounds
            gates = tuple(gates[a + i] for a, b in zip(starts, starts[1:]) for i in rng.permutation(b - a))
        yield to_native(Circuit(n, gates))


def cluster_variant_circuits():
    # the fused blocks on pairs 0, 1 and on pairs 3, 4 close into two 3-qubit
    # clusters at the same member offsets. The second one's block on pair 4
    # has the first one's gates but for the cx direction or the qubit of the
    # rotation after the cx
    block = [("cx", 0, None), ("rx", 1, 0.5), ("rz", 0, 0.3)]
    reversed_cx = [("cx", 1, None), ("rx", 1, 0.5), ("rz", 0, 0.3)]
    other_qubit = [("cx", 0, None), ("rx", 0, 0.5), ("rz", 0, 0.3)]
    for variant in (reversed_cx, other_qubit):
        yield NativeCircuit(7, tuple(
            stamp(block, 0) + stamp(block, 1) + stamp(block, 3) + stamp(variant, 4)
            + stamp(block, 2) + stamp(block, 5)
        ))


def test_unitary_of_clusters_trotter_circuits_like_the_kron_oracle():
    for c in cluster_trotter_circuits():
        assert np.max(np.abs(unitary_of(c) - native_unitary_oracle(c))) < TOL
        assert max(width for _, width in op_widths(c)) in (3, 4)


def test_clusters_keep_apart_blocks_that_differ_only_in_direction_or_qubit():
    # a cluster key that cannot see its members' gates hands the second
    # cluster the first one's matrix
    for c in cluster_variant_circuits():
        assert op_widths(c)[:2] == [(0, 3), (3, 3)]
        assert np.max(np.abs(unitary_of(c) - native_unitary_oracle(c))) < TOL


def test_unitary_of_applies_each_op_as_replayed_gate_by_gate(monkeypatch):
    # every run, block and cluster that unitary_of applies has the bits of
    # its gates multiplied in time order with the same association: runs,
    # then blocks, then clusters. A builder that reassociates stays within
    # TOL of the kron oracle but moves bits here. The last circuit puts three
    # rotations on each qubit ahead of a Trotter circuit, so that its first
    # blocks take in runs of more than one gate
    rng = np.random.default_rng(SEED + 8)
    runs = [
        NativeGate(kind, (q,), float(a)) for q in range(7) for kind, a in zip(("rx", "rz", "rx"), rng.uniform(-3, 3, 3))
    ]
    runs_first = NativeCircuit(7, (*runs, *next(cluster_trotter_circuits()).gates))
    for c in [*cluster_trotter_circuits(), *cluster_variant_circuits(), runs_first]:
        replayed = list(clusters_reference(fused_ops_reference(c)))
        assert applied_ops(c, monkeypatch) == fused_bytes(replayed)
        assert max(len(m) for _, m in replayed) in (8, 16)


def test_to_native_preserves_unitary():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(TRIALS // 2):
        n = int(rng.integers(2, 6))
        c = random_pair_circuit(rng, n, int(rng.integers(1, 10)))
        native = to_native(c)
        assert isinstance(native, NativeCircuit)
        assert phase_distance(unitary_of(native), unitary_of(c)) < PHASE_TOL


def test_to_native_uses_class_circuits_for_r_gates():
    c = Circuit(2, (PairGate(0, RGateParams(0.4, 0.3)),))
    native = to_native(c)
    assert sum(1 for g in native.gates if g.kind == "cx") == 2
    assert phase_distance(unitary_of(native), unitary_of(c)) < PHASE_TOL


def test_qasm_header_and_gate_lines():
    c = Circuit(2, (PairGate(0, RGateParams(0.25, 0.0)),))
    text = to_qasm(c)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[2];"
    assert any(line.startswith("cx q[") for line in lines)


def test_qasm_round_trip_preserves_unitary():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(TRIALS // 2):
        n = int(rng.integers(2, 6))
        c = random_pair_circuit(rng, n, int(rng.integers(1, 10)))
        native = to_native(c)
        back = from_qasm(to_qasm(native))
        assert back.num_qubits == n
        assert phase_distance(unitary_of(back), unitary_of(native)) < PHASE_TOL


def test_qasm_text_is_deterministic():
    c = build_trotter_circuit(3, CouplingParams(0.5, 0.25, 0.0), TrotterPlan(0.1, 0.05))
    assert to_qasm(c) == to_qasm(c)


def test_from_qasm_accepts_pi_literals():
    text = "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "rx(pi) q[0];",
            "rz(-pi) q[1];",
            "cx q[0],q[1];",
        ]
    )
    native = from_qasm(text)
    assert native.gates[0].angle == np.pi
    assert native.gates[1].angle == -np.pi
    # an angle takes one sign: a '-' before pi or a number, or a '+' joined to a number
    for angle, value in (("0.5", 0.5), ("-0.5", -0.5), ("+0.5", 0.5), ("- 0.5", -0.5)):
        assert from_qasm(QASM_HEADER + f"qreg q[1];\nrx({angle}) q[0];\n").gates[0].angle == value
    for angle in ("--0.5", "-+0.5", "+-0.5", "+pi"):
        with pytest.raises(QasmParseError) as err:
            from_qasm(QASM_HEADER + f"qreg q[1];\nh q[0]; rx({angle}) q[0];\n")
        assert (err.value.line, err.value.column) == (4, 9)
        assert str(err.value) == f"line 4, column 9: bad angle expression {angle!r}"


def test_from_qasm_ignores_comments_and_blank_lines():
    text = (
        "OPENQASM 2.0;\n"
        '// preamble comment\ninclude "qelib1.inc";\n\n'
        "qreg q[2];\n"
        "h q[0]; // trailing comment\n"
        "s q[1];\n"
    )
    native = from_qasm(text)
    assert [g.kind for g in native.gates] == ["h", "s"]
    # an empty statement between two semicolons is skipped
    assert from_qasm(QASM_HEADER + "qreg q[2];\nh q[0];; s q[1];\n") == native


def test_from_qasm_error_positions():
    with pytest.raises(QasmParseError) as err:
        from_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nbadgate q[0];\n')
    assert err.value.line == 4
    with pytest.raises(QasmParseError):
        from_qasm("qreg q[2];\nh q[0];\n")  # missing version header
    with pytest.raises(QasmParseError):
        from_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0]\n')
    with pytest.raises(QasmParseError):
        from_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[7];\n')


def test_from_qasm_gate_shape_errors_carry_their_position():
    # NativeGate checks operand count, angle presence and cx adjacency; the
    # parser places its error at the offending statement
    base = QASM_HEADER + "qreg q[3];\n"
    for stmt, needle in (
        ("h(0.5) q[0];", "h carries no angle"),
        ("rx q[0];", "rx needs a finite angle"),
        ("cx q[0];", "cx needs two distinct qubits"),
        ("h q[0],q[1];", "h acts on one qubit"),
        ("cx q[0],q[2];", "cx must act on adjacent qubits"),
    ):
        with pytest.raises(QasmParseError) as err:
            from_qasm(base + stmt + "\n")
        assert (err.value.line, err.value.column) == (4, 1)
        assert needle in str(err.value)
        with pytest.raises(QasmParseError) as err:
            from_qasm(base + "s q[1];  " + stmt + "\n")
        assert (err.value.line, err.value.column) == (4, 10)
        assert needle in str(err.value)


def test_from_qasm_register_size_error_sits_at_its_qreg():
    # the size is checked once the text is read, but reported where it stands
    with pytest.raises(QasmParseError) as err:
        from_qasm(QASM_HEADER + "\n  qreg q[0];\n")
    assert (err.value.line, err.value.column) == (4, 3)
    assert "need at least 1 qubit" in str(err.value)


def test_from_qasm_bounds_angles():
    base = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[1];\n'
    for text in (repr(MAX_ANGLE), f"-{MAX_ANGLE!r}"):
        assert abs(from_qasm(base + f"rx({text}) q[0];\n").gates[-1].angle) == MAX_ANGLE
    above = math.nextafter(MAX_ANGLE, math.inf)
    for text in (repr(above), f"-{above!r}", f"--{above!r}", "1e300"):
        with pytest.raises(QasmParseError) as err:
            from_qasm(base + f"h q[0]; rz({text}) q[1];\n")
        assert (err.value.line, err.value.column) == (5, 9)
        assert text in str(err.value)


def test_from_qasm_rejects_non_unitary_statements():
    base = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
    with pytest.raises(QasmParseError):
        from_qasm(base)
    with pytest.raises(QasmParseError):
        from_qasm(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nmeasure q[0] -> c[0];\n'
        )


def test_from_qasm_rejects_indices_beyond_the_int_digit_limit():
    # an index longer than the interpreter's int-conversion limit (4300
    # digits) is a parse error at its statement, not a bare ValueError
    digits = "1" * 5000
    for text, line in (
        (QASM_HEADER + f"qreg q[{digits}];\n", 3),
        (QASM_HEADER + f"qreg q[2];\nh q[{digits}];\n", 4),
    ):
        with pytest.raises(QasmParseError) as err:
            from_qasm(text)
        assert (err.value.line, err.value.column) == (line, 1)
        assert "5000 digits" in str(err.value)


def test_from_qasm_reads_repeated_statements_in_place():
    # each distinct line is parsed once per call; a repeat still gives its
    # gate where it stands
    native = to_native(build_trotter_circuit(4, CouplingParams(0.5, -0.3, 0.2), TrotterPlan(0.2, 0.1)))
    qreg, *body = to_qasm(native).splitlines()[2:]
    doubled = QASM_HEADER + qreg + "\n" + "".join(f"{line}\n{line}\n" for line in body)
    assert from_qasm(doubled).gates == tuple(g for g in native.gates for _ in range(2))


def test_from_qasm_reports_a_repeated_bad_statement_at_its_first_line():
    base = QASM_HEADER + "qreg q[3];\n"
    for stmt, needle in (
        ("rx(1e99) q[0];", "beyond"),
        ("cx q[0],q[2];", "cx must act on adjacent qubits"),
        ("h q[3];", "qubit 3 out of range"),
        ("t q[0];", "unknown gate 't'"),
    ):
        with pytest.raises(QasmParseError) as err:
            from_qasm(base + f"h q[0];\n  {stmt}\nh q[0];\n{stmt}\n")
        assert (err.value.line, err.value.column) == (5, 3)
        assert needle in str(err.value)


def test_from_qasm_statement_results_depend_on_the_register():
    # a statement that is valid after qreg still fails before it
    with pytest.raises(QasmParseError) as err:
        from_qasm(QASM_HEADER + "h q[0];\nqreg q[2];\nh q[0];\n")
    assert (err.value.line, err.value.column) == (3, 1)
    assert "gate before qreg declaration" in str(err.value)
    # and one that names another register fails whatever it shares in text
    with pytest.raises(QasmParseError) as err:
        from_qasm(QASM_HEADER + "qreg q[2];\nh q[0];\nh r[0];\n")
    assert (err.value.line, err.value.column) == (5, 1)
    assert "bad operand 'r[0]'" in str(err.value)


def test_from_qasm_refuses_a_repeated_qreg_line_at_the_second():
    # a line is stored for reuse only when read after the qreg, so the qreg
    # line itself never is
    text = QASM_HEADER + "qreg q[2];\nh q[0];\nqreg q[2];\nh q[0];\n"
    with pytest.raises(QasmParseError) as err:
        from_qasm(text)
    assert (err.value.line, err.value.column) == (5, 1)
    assert "multiple qreg declarations" in str(err.value)


def test_from_qasm_reads_a_repeated_two_statement_line_like_its_statements_split():
    pair = "rz(0.25) q[1]; cx q[0],q[1];"
    body = f"h q[0];\n{pair}\ns q[1];\n{pair}\n{pair}  // again\n"
    split = body.replace("; cx", ";\ncx")
    head = QASM_HEADER + "qreg q[2];\n"
    assert from_qasm(head + body).gates == from_qasm(head + split).gates
    assert len(from_qasm(head + body).gates) == 8


def reference_gates(text):
    # the emitter's one-statement lines read one at a time, with no reuse
    gates = []
    for line in text.splitlines()[3:]:
        m = re.fullmatch(r"(\w+)(?:\((.*)\))? q\[(\d+)\](?:,q\[(\d+)\])?;", line)
        kind, angle, *qubits = m.groups()
        gates.append(NativeGate(kind, tuple(int(q) for q in qubits if q is not None),
                                None if angle is None else float(angle)))
    return tuple(gates)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.qasm")), ids=lambda p: p.name)
def test_from_qasm_of_each_golden_gives_its_gates(path):
    text = path.read_text(encoding="utf-8")
    gates = from_qasm(text).gates
    assert gates == reference_gates(text)
    # and bit for bit: each angle's sign included, and the emitter's bytes back
    assert [repr(g.angle) for g in gates] == [repr(g.angle) for g in reference_gates(text)]
    assert to_qasm(from_qasm(text)) == text


def test_to_qasm_formats_equal_gates_held_apart_alike():
    # to_qasm formats each gate object once; a copy of each gate, or one
    # object shared by every repeat, gives the same text
    native = to_native(build_trotter_circuit(4, CouplingParams(0.5, -0.3, 0.2), TrotterPlan(0.2, 0.1)))
    copied = NativeCircuit(4, tuple(NativeGate(g.kind, g.qubits, g.angle) for g in native.gates))
    assert to_qasm(copied) == to_qasm(native)
    assert to_qasm(from_qasm(to_qasm(native))) == to_qasm(native)


DIGIT_RUNS = st.one_of(
    st.integers(0, 7).map(str),
    st.integers(4290, 4400).map(lambda k: "7" * k),
    st.text(alphabet="0123456789٣۵२߂７", min_size=1, max_size=4),
)
QASM_WORDS = st.sampled_from(
    ("OPENQASM 2.0;", 'include "qelib1.inc";', "\n", " ", ";", ",", "(", ")", "[", "]",
     "q", "pi", "-", ".", "e", "//", "rx", "rz", "h", "s", "cx", "creg", "gate", "OPENQASM 3.0;")
)


@st.composite
def qasm_like_texts(draw):
    # statements with drawn holes, raw fragments and arbitrary text, joined;
    # most draws open with the header, a valid qreg and a few gates, so about
    # half of them reach gate building
    idx = DIGIT_RUNS
    angle = st.one_of(st.floats().map(repr), st.sampled_from(("pi", "-pi", "")), DIGIT_RUNS, st.text(max_size=4))
    gate = st.one_of(
        st.tuples(st.sampled_from(("rx", "rz")), angle, idx).map(lambda t: f"{t[0]}({t[1]}) q[{t[2]}];\n"),
        st.tuples(st.sampled_from(("h", "s")), idx).map(lambda t: f"{t[0]} q[{t[1]}];\n"),
        st.tuples(idx, idx).map(lambda t: f"cx q[{t[0]}],q[{t[1]}];\n"),
    )
    piece = st.one_of(
        idx.map(lambda i: f"qreg q[{i}];\n"),
        gate,
        QASM_WORDS,
        DIGIT_RUNS,
        st.text(max_size=12),
    )
    size = draw(st.integers(1, 8))
    head = draw(st.sampled_from((QASM_HEADER + f"qreg q[{size}];\n",) * 3 + ("", QASM_HEADER)))
    return head + "".join(draw(st.lists(gate, max_size=3)) + draw(st.lists(piece, max_size=12)))


@given(qasm_like_texts())
@example(QASM_HEADER + "qreg q[" + "9" * 4301 + "];\n")
@example(QASM_HEADER + "qreg q[2];\ncx q[0],q[" + "9" * 4301 + "];\n")
def test_from_qasm_gives_a_circuit_or_a_parse_error(text):
    try:
        c = from_qasm(text)
    except QasmParseError:
        return
    assert isinstance(c, NativeCircuit)
