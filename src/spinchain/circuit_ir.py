"""Circuit IR: adjacent-pair gates on a chain, dense oracle, QASM I/O."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import _dense
from .propagators import (
    CONJUGATION_TAGS,
    SANDWICH,
    Angles3,
    GateSequence,
    NativeGate,
    RGateParams,
    decompose_xyz,
    native_gate_matrix,
    r_gate_sequence,
    xyz_propagator,
)
from .spin_model import FAMILY_TABLE, MAX_ANGLE, CouplingParams, HamiltonianClass, TrotterPlan
from .spin_model import classify, step_angles

MAX_DENSE_QUBITS = 12

# unitary_of merges fused ops into clusters of at most _CLUSTER_QUBITS adjacent
# qubits from N = _CLUSTER_FROM on. There a 2^N x 2^N pass is bound by memory
# traffic, and a 16x16 gate's pass costs less than two 4x4 passes; below it
# the cluster bookkeeping costs more than the passes it saves (measured)
_CLUSTER_QUBITS = 4
_CLUSTER_FROM = 7

# (gamma axis, delta axis) of R(gamma, delta) under each conjugation tag: the
# axes of the tag's two-axis family
_TAG_AXES = {
    f.conjugation: (f.gamma_axis, f.delta_axis)
    for f in FAMILY_TABLE.values()
    if f.gamma_axis and f.delta_axis
}


@dataclass(frozen=True)
class PairGate:
    """A two-qubit gate on the adjacent pair (pair, pair + 1).

    params is either an Angles3 (general two-spin propagator) or an
    RGateParams (the two-parameter class), optionally conjugated by the
    class conjugator u1 or u2.
    """

    pair: int
    params: Angles3 | RGateParams
    conjugation: str = "none"

    def __post_init__(self) -> None:
        if self.pair < 0:
            raise ValueError(f"pair index must be nonnegative, got {self.pair}")
        if not isinstance(self.params, (Angles3, RGateParams)):
            raise TypeError(f"params must be Angles3 or RGateParams, got {type(self.params)!r}")
        if self.conjugation not in CONJUGATION_TAGS:
            raise ValueError(f"unknown conjugation {self.conjugation!r}")
        if isinstance(self.params, Angles3) and self.conjugation != "none":
            raise ValueError("conjugation tags apply to RGateParams gates only")

    def angles(self) -> Angles3:
        """The gate's (x, y, z) angles: R(gamma, delta) under tag none, u1 or
        u2 is (gamma, 0, delta), (0, gamma, delta) or (gamma, delta, 0)."""
        if isinstance(self.params, Angles3):
            return self.params
        by_axis = dict(zip(_TAG_AXES[self.conjugation], self.params.as_tuple()))
        return Angles3(*(by_axis.get(axis, 0.0) for axis in "xyz"))

    def unitary(self) -> np.ndarray:
        """exp(i (tx XX + ty YY + tz ZZ)) of the gate's angles, in closed form."""
        return xyz_propagator(self.angles())


@dataclass(frozen=True)
class Circuit:
    """Ordered adjacent-pair gates on num_qubits chain sites."""

    num_qubits: int
    gates: tuple[PairGate, ...]

    def __post_init__(self) -> None:
        if self.num_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {self.num_qubits}")
        for g in self.gates:
            if g.pair > self.num_qubits - 2:
                raise ValueError(
                    f"pair {g.pair} out of range for {self.num_qubits} qubits"
                )


@dataclass(frozen=True)
class NativeCircuit:
    """A circuit over the native gate set with register-level qubit indices."""

    num_qubits: int
    gates: tuple[NativeGate, ...]

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("need at least 1 qubit")
        # a circuit shares one gate object among its repeats, so each distinct
        # object is checked once, the first offender first
        for g in {id(g): g for g in self.gates}.values():
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g!r} out of range for {self.num_qubits} qubits")


def build_trotter_circuit(n: int, j: CouplingParams, plan: TrotterPlan) -> Circuit:
    """num_steps repetitions of the even-pair gates then the odd-pair gates.

    Every gate carries the same step angles theta = J * dt. Gate count per
    step is n - 1.
    """
    angles = step_angles(j, plan.dt)
    step = tuple(PairGate(pair, angles) for parity in (0, 1) for pair in range(parity, n - 1, 2))
    return Circuit(n, step * plan.num_steps)


def unitary_of(c: Circuit | NativeCircuit) -> np.ndarray:
    """Dense 2^N x 2^N unitary of the circuit, gates applied in order.

    The 2^N matrix sees one apply per fused op of _fused_ops, not one per
    gate, and from N = _CLUSTER_FROM on one per cluster of those ops
    (_clusters). Each op is a key that _builder resolves to its matrix, each
    distinct key once per call. Each apply writes into the other of two
    2^N x 2^N buffers (apply_gate's out path), so a pass allocates nothing.
    """
    n = c.num_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense oracle limited to {MAX_DENSE_QUBITS} qubits, got {n}")
    descriptors, gate_of = _descriptors(c)
    ops = _fused_ops(descriptors)
    if n >= _CLUSTER_FROM:
        ops = _clusters(ops)
    build = _builder(gate_of)
    u = np.eye(2 ** n, dtype=complex)
    spare = np.empty_like(u)
    for low, key in ops:
        u, spare = _dense.apply_gate(u, build(key), low, out=spare), u
    return u


def _builder(gate_of: dict):
    """A cached function from a descriptor, or a key of _fused_ops or
    _clusters, to its matrix: a descriptor's is its gate's in gate_of, and a
    key's is its parts' applied in time order at their offsets, onto the
    first part if that spans the key (a run) or else onto an identity.

    A Trotter circuit repeats a few distinct keys on every pair, and each is
    built once per builder. Each is taken in gate order, so every matrix is
    bit-identical to the product taken gate by gate.
    """

    @functools.cache
    def build(part: tuple) -> np.ndarray:
        width, parts = part[:2]
        if not isinstance(parts, tuple):  # a descriptor: a kind or params follows its width
            return _local_op(gate_of[part])[1]
        mats = [(offset, build(p)) for offset, p in parts]
        size = 1 << width
        u = mats.pop(0)[1] if len(mats[0][1]) == size else np.eye(size, dtype=complex)
        for offset, m in mats:
            u = np.matmul(m, u.reshape(1 << offset, len(m), -1)).reshape(size, size)
        return u

    return build


def _clusters(ops):
    """The (lowest qubit, key) ops merged greedily into clusters of at most
    _CLUSTER_QUBITS adjacent qubits.

    Open clusters act on disjoint qubits. An op merges with the open clusters
    it overlaps while their union spans at most _CLUSTER_QUBITS qubits;
    otherwise those clusters are emitted and the op opens a cluster of its
    own. Merged disjoint clusters commute, so their members go in order of
    their lowest qubit, and a column given in another order meets the same
    cluster. A one-member cluster is emitted as it came, and any other as a
    key whose parts are its members' keys.
    """
    open_: dict[int, tuple[int, list]] = {}  # lowest qubit -> (highest qubit, members)

    def close(lo: int, hi: int, members: list) -> tuple[int, tuple]:
        if len(members) == 1:
            return members[0]
        return lo, (hi - lo + 1, tuple((low - lo, key) for low, key in members))

    for low, key in ops:
        high = low + key[0] - 1
        hit = sorted(lo for lo, (hi, _) in open_.items() if lo <= high and hi >= low)
        lo = min([low, *hit])
        hi = max([high, *(open_[h][0] for h in hit)])
        if hi - lo < _CLUSTER_QUBITS:
            members = [op for h in hit for op in open_.pop(h)[1]]
            members.append((low, key))
            open_[lo] = hi, members
        else:
            for h in hit:
                yield close(h, *open_.pop(h))
            open_[low] = high, [(low, key)]
    for lo, (hi, members) in open_.items():
        yield close(lo, hi, members)


def _local_op(g: PairGate | NativeGate) -> tuple[int, np.ndarray]:
    """(lowest qubit, 2x2 or 4x4 matrix) of one gate; a 4x4 acts on (q, q + 1)."""
    if isinstance(g, PairGate):
        return g.pair, g.unitary()
    return min(g.qubits), native_gate_matrix(g)


def local_ops(c: Circuit | NativeCircuit):
    """_local_op per gate."""
    return map(_local_op, c.gates)


def _describe(g: PairGate | NativeGate) -> tuple:
    """(lowest qubit, descriptor) of one gate.

    The descriptor names the gate's matrix apart from its position, and leads
    with the number of qubits the gate acts on: then (kind, angle) for a
    single-qubit gate, ("cx", control is the lower qubit) for a cx, and
    (params, conjugation) for a pair gate. Angles compare by value and
    -0.0 == 0.0, so a descriptor also carries each angle's sign: rz(-0.0) and
    rz(0.0) differ in the sign of a zero entry.
    """
    if isinstance(g, PairGate):
        signs = tuple(math.copysign(1.0, a) for a in g.params.as_tuple())
        return g.pair, (2, g.params, g.conjugation, signs)
    if g.kind == "cx":
        return min(g.qubits), (2, "cx", g.qubits[0] < g.qubits[1])
    if g.angle is None:
        return g.qubits[0], (1, g.kind, None)
    return g.qubits[0], (1, g.kind, g.angle, math.copysign(1.0, g.angle))


def _descriptors(c: Circuit | NativeCircuit) -> tuple:
    """_describe per gate, and a gate of each descriptor. A circuit shares
    one gate object among its repeats, so each distinct object is described
    once per call."""
    distinct = {id(g): g for g in c.gates}
    described = {key: _describe(g) for key, g in distinct.items()}
    gate_of = {d: g for (_, d), g in zip(described.values(), distinct.values())}
    return map(described.__getitem__, map(id, c.gates)), gate_of


def _fused_ops(descriptors):
    """A circuit's _descriptors as (lowest qubit, key) ops on one qubit or one
    adjacent pair; _builder makes their matrices.

    Single-qubit gates collect per qubit into a run; a two-qubit gate on pair
    p extends the open block on p, or closes the blocks on p - 1 and p + 1
    and opens one that takes in the pending runs of both its qubits. Later
    single-qubit gates on a blocked qubit join the block. Pending blocks and
    runs act on disjoint qubits, so they commute and the order of their
    emission is free.

    A key is (the number of qubits it spans, its parts), the parts in time
    order as (offset from its lowest qubit, part); a part is a descriptor,
    which also leads with its number of qubits, or a nested key: a run in a
    block, or a block in a cluster of _clusters.
    """
    singles: dict[int, list] = {}
    blocks: dict[int, list] = {}
    for q, d in descriptors:
        if q in blocks:
            blocks[q].append((0, d))
        elif d[0] == 2:
            for p in (q - 1, q + 1):
                if p in blocks:
                    yield p, (2, tuple(blocks.pop(p)))
            blocks[q] = [(local, (1, tuple(singles.pop(q + local)))) for local in (0, 1) if q + local in singles]
            blocks[q].append((0, d))
        elif q - 1 in blocks:
            blocks[q - 1].append((1, d))
        else:
            singles.setdefault(q, []).append((0, d))
    for p, parts in blocks.items():
        yield p, (2, tuple(parts))
    for q, run in singles.items():
        yield q, (1, tuple(run))


def _pair_gate_native(g: PairGate) -> GateSequence:
    """The emitter's native block for one pair gate, on register qubits."""
    if isinstance(g.params, RGateParams):
        local = r_gate_sequence(g.params, g.conjugation)
    elif (klass := classify(CouplingParams(*g.params.as_tuple()))) is HamiltonianClass.XYZ:
        local = decompose_xyz(g.params)
    else:
        family = klass.family
        local = r_gate_sequence(RGateParams(*family.r_params(g.params)), family.conjugation)
    return tuple(
        NativeGate(ng.kind, tuple(q + g.pair for q in ng.qubits), ng.angle) for ng in local
    )


def to_native(c: Circuit) -> NativeCircuit:
    """Expand pair gates into native gates via the class circuits (or 3-CX form), each distinct gate once."""
    blocks = {g: _pair_gate_native(g) for g in dict.fromkeys(c.gates)}
    return NativeCircuit(c.num_qubits, tuple(ng for g in c.gates for ng in blocks[g]))


# the first native gate of a block under each tag: the kind of the tag's
# sandwich head, or the core's cx for tag none, whose sandwich is empty
_HEAD_TAG = {(before[0].kind if before else "cx"): tag for tag, (before, _) in SANDWICH.items()}


def recognize_pair_circuit(native: NativeCircuit) -> Circuit:
    """Group native gates back into R(gamma, delta) pair gates: the inverse of to_native.

    A block's first gate names its tag (_HEAD_TAG). gamma and delta are read
    from the rx and rz after the tag's sandwich head and the first cx (an
    absent one reads as 0.0), and the pair gate is accepted only when the
    emitter would write exactly these gates, angles compared as parsed.

    A Trotter circuit repeats a few distinct pair gates, so each distinct
    gate's block is built once per call and reused from a cache local to it.
    """
    block_of = functools.cache(_pair_gate_native)
    gates = native.gates
    out: list[PairGate] = []
    pos = 0
    while pos < len(gates):
        tag = _HEAD_TAG.get(gates[pos].kind)
        # a first gate that heads no tag's block leaves no cx to read
        cx = pos + len(SANDWICH[tag][0]) if tag else len(gates)
        block = ()
        if cx < len(gates) and gates[cx].kind == "cx":
            i = cx + 1
            gamma = delta = 0.0
            if i < len(gates) and gates[i].kind == "rx":
                gamma = -0.5 * gates[i].angle
                i += 1
            if i < len(gates) and gates[i].kind == "rz":
                delta = -0.5 * gates[i].angle
            gate = PairGate(gates[cx].qubits[0], RGateParams(gamma, delta), tag)
            block = block_of(gate)
        if not block or gates[pos : pos + len(block)] != block:
            raise ValueError(
                f"unrecognized gate structure at native gate {pos}; expected the "
                "QASM emitter's pair-gate blocks of a one- or two-axis family "
                "(three-axis circuits cannot be compressed)"
            )
        out.append(gate)
        pos += len(block)
    return Circuit(native.num_qubits, tuple(out))


QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def _qasm_line(g: NativeGate) -> str:
    if g.kind == "cx":
        return f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];"
    if g.kind in ("rx", "rz"):
        return f"{g.kind}({g.angle:.17g}) q[{g.qubits[0]}];"
    return f"{g.kind} q[{g.qubits[0]}];"


def to_qasm(c: Circuit | NativeCircuit) -> str:
    """Serialize to the OpenQASM 2.0 subset {rx, rz, h, s, cx}.

    to_native and from_qasm share one gate object among a gate's repeats, so
    each distinct object's line is formatted once per call.
    """
    native = to_native(c) if isinstance(c, Circuit) else c
    line = {key: _qasm_line(g) for key, g in {id(g): g for g in native.gates}.items()}
    lines = [QASM_HEADER + f"qreg q[{native.num_qubits}];"]
    lines.extend([line[id(g)] for g in native.gates])
    return "\n".join(lines) + "\n"


class QasmParseError(ValueError):
    """Parse failure with 1-based line and column position."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_QASM_STATEMENT = re.compile(
    r"""(?P<kind>[a-zA-Z_][a-zA-Z_0-9]*)\s*
        (?:\(\s*(?P<angle>[^)]*)\s*\))?\s*
        (?P<args>[^;]*)""",
    re.VERBOSE,
)
_QASM_ARG = re.compile(r"^(?P<reg>[a-zA-Z_][a-zA-Z_0-9]*)\[(?P<idx>\d+)\]$")
_FLOAT = re.compile(r"^(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _parse_angle(text: str, line: int, col: int) -> float:
    t = text.strip()
    # one sign: a '-' before pi or a number, or a '+' joined to a number
    neg = t.startswith("-")
    if neg:
        t = t[1:].strip()
    if t == "pi":
        value = math.pi
    elif _FLOAT.match(t if neg else t.removeprefix("+")):
        value = float(t)
    else:
        raise QasmParseError(line, col, f"bad angle expression {text.strip()!r}")
    if value > MAX_ANGLE:
        raise QasmParseError(
            line, col,
            f"angle {text.strip()} is beyond ±{MAX_ANGLE:g} rad, where it keeps too little precision",
        )
    return -value if neg else value


def _index(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's int-conversion digit limit
        raise QasmParseError(line, col, f"index of {len(digits)} digits is too large") from None


def from_qasm(text: str) -> NativeCircuit:
    """Parse the QASM subset back to a native circuit.

    The gate set is {rx, rz, h, s, cx}; anything else is rejected with the
    offending line and column.

    A Trotter circuit repeats a few distinct lines once per step, so each
    distinct line is parsed once per call: the raw line maps to its tuple of
    gates in a dict local to the call. Once the one qreg is read, a gate
    statement's gate depends only on its text, a header statement reads the
    same each time and a qreg statement is an error. So only lines read after
    the qreg that parse and build without error are stored, and every error,
    a repeated qreg line included, is still raised at its first occurrence.
    """
    num_qubits: int | None = None
    reg_name: str | None = None
    gates: list[NativeGate] = []
    lines: dict[str, tuple[NativeGate, ...]] = {}
    saw_version = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if (line_gates := lines.get(raw)) is not None:
            gates.extend(line_gates)
            continue
        first, after_qreg = len(gates), num_qubits is not None
        code = raw.split("//", 1)[0]
        *stmts, tail = code.split(";")
        if tail.strip():
            raise QasmParseError(lineno, len(code.rstrip()), "statement not terminated by ';'")
        pos = 0
        for stmt in stmts:
            start, pos = pos, pos + len(stmt) + 1
            s = stmt.strip()
            if not s:
                continue
            col = start + len(stmt) - len(stmt.lstrip()) + 1
            if s.startswith("OPENQASM"):
                if s.split()[1:] != ["2.0"]:
                    raise QasmParseError(lineno, col, f"unsupported version in {s!r}")
                saw_version = True
                continue
            if s.startswith("include"):
                continue
            if s.startswith("qreg"):
                m = _QASM_ARG.match(s[4:].strip())
                if not m:
                    raise QasmParseError(lineno, col, f"bad qreg declaration {s!r}")
                if num_qubits is not None:
                    raise QasmParseError(lineno, col, "multiple qreg declarations")
                reg_name, reg_at = m.group("reg"), (lineno, col)
                num_qubits = _index(m.group("idx"), lineno, col)
                continue
            m = _QASM_STATEMENT.match(s)
            if not m:
                raise QasmParseError(lineno, col, f"unparseable statement {s!r}")
            kind = m.group("kind")
            if kind in ("creg", "measure", "barrier", "reset", "gate", "if"):
                raise QasmParseError(lineno, col, f"{kind!r} is outside the supported subset")
            if num_qubits is None:
                raise QasmParseError(lineno, col, "gate before qreg declaration")
            qubits = []
            for arg in filter(None, (a.strip() for a in m.group("args").split(","))):
                am = _QASM_ARG.match(arg)
                if not am or am.group("reg") != reg_name:
                    raise QasmParseError(lineno, col, f"bad operand {arg!r}")
                idx = _index(am.group("idx"), lineno, col)
                if idx >= num_qubits:
                    raise QasmParseError(lineno, col, f"qubit {idx} out of range")
                qubits.append(idx)
            angle_text = m.group("angle")
            angle = None if angle_text is None else _parse_angle(angle_text, lineno, col)
            try:
                gate = NativeGate(kind, tuple(qubits), angle)
            except ValueError as exc:
                raise QasmParseError(lineno, col, str(exc)) from exc
            gates.append(gate)
        if after_qreg:
            lines[raw] = tuple(gates[first:])

    if not saw_version:
        raise QasmParseError(1, 1, "missing OPENQASM 2.0 header")
    if num_qubits is None:
        raise QasmParseError(1, 1, "missing qreg declaration")
    try:
        return NativeCircuit(num_qubits, tuple(gates))
    except ValueError as exc:  # the register size: each gate was checked where it stands
        raise QasmParseError(*reg_at, str(exc)) from exc
