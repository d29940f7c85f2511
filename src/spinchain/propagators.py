"""Two-spin propagators and their native-gate circuit decompositions.

Matrix conventions used throughout: basis order |00>, |01>, |10>, |11> with
qubit 0 the left tensor factor; RX(t) = exp(-i t X / 2), RZ(t) = exp(-i t Z / 2),
S = diag(1, i), H the standard Hadamard, CX controlled on qubit 0. Circuit
equality against a target matrix is up to global phase unless stated
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import Angles3

_SQRT1_2 = 1.0 / math.sqrt(2.0)

GATE_KINDS = ("rx", "rz", "h", "s", "cx")

# conjugation tag -> rotation kind of its conjugator U = rot(pi/2) x rot(pi/2)
# ("none": U is the identity); CONJUGATION_TAGS and SANDWICH derive from this
# table. A tagged gate's matrix is the closed form of the axes its tag feeds
# (circuit_ir.PairGate.angles), which equals U R U^dag exactly.
_CONJUGATOR_KIND = {"none": None, "u1": "rz", "u2": "rx"}
CONJUGATION_TAGS = tuple(_CONJUGATOR_KIND)


@dataclass(frozen=True)
class RGateParams:
    """Parameters of R(gamma, delta) = exp(i(gamma XX + delta ZZ)), the
    (gamma, 0, delta) slice of xyz_propagator."""

    gamma: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and math.isfinite(self.delta)):
            raise ValueError(f"R params must be finite, got ({self.gamma!r}, {self.delta!r})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.gamma, self.delta)


@dataclass(frozen=True)
class NativeGate:
    """One gate from the native set {rx, rz, h, s, cx}.

    qubits are register indices; rotations carry an angle, cx carries
    (control, target).
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate {self.kind!r}")
        if self.kind == "cx":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"cx needs two distinct qubits, got {self.qubits!r}")
            if abs(self.qubits[0] - self.qubits[1]) != 1:
                raise ValueError(f"cx must act on adjacent qubits, got {self.qubits!r}")
            if self.angle is not None:
                raise ValueError("cx carries no angle")
        else:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} acts on one qubit, got {self.qubits!r}")
            if self.kind in ("rx", "rz"):
                if self.angle is None or not math.isfinite(self.angle):
                    raise ValueError(f"{self.kind} needs a finite angle, got {self.angle!r}")
            elif self.angle is not None:
                raise ValueError(f"{self.kind} carries no angle")


GateSequence = tuple[NativeGate, ...]


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


H_MATRIX = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
S_MATRIX = np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex)
# control = qubit 0 (left factor)
CX_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# control = qubit 1
CX_REVERSED_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def native_gate_matrix(gate: NativeGate) -> np.ndarray:
    """The gate's unitary on its qubits in ascending order: 2x2, or 4x4 for a
    cx, which is CX_REVERSED_MATRIX when the control is the higher qubit."""
    if gate.kind == "rx":
        return rx_matrix(gate.angle)
    if gate.kind == "rz":
        return rz_matrix(gate.angle)
    if gate.kind == "h":
        return H_MATRIX
    if gate.kind == "s":
        return S_MATRIX
    return CX_MATRIX if gate.qubits[0] < gate.qubits[1] else CX_REVERSED_MATRIX


def xyz_propagator(a: Angles3) -> np.ndarray:
    """exp(i (tx XX + ty YY + tz ZZ)) in closed form.

    Block structure: on span(|00>, |11>) the matrix is
    e^{i tz} (cos g, i sin g) with g = tx - ty, and on span(|01>, |10>)
    it is e^{-i tz} (cos d, i sin d) with d = tx + ty.
    """
    tx, ty, tz = a.as_tuple()
    g = tx - ty
    d = tx + ty
    outer = np.exp(1j * tz)
    inner = np.exp(-1j * tz)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[3, 3] = outer * math.cos(g)
    u[0, 3] = u[3, 0] = outer * 1j * math.sin(g)
    u[1, 1] = u[2, 2] = inner * math.cos(d)
    u[1, 2] = u[2, 1] = inner * 1j * math.sin(d)
    return u


def decompose_xyz(a: Angles3) -> GateSequence:
    """Three-CX native circuit for the general two-spin propagator.

    Matches xyz_propagator(a) up to a global phase for every angle triple;
    the gate count is constant (3 CX plus 8 single-qubit gates).
    """
    tx, ty, tz = a.as_tuple()
    return (
        NativeGate("cx", (0, 1)),
        NativeGate("rx", (0,), -2.0 * tx),
        NativeGate("rz", (1,), -2.0 * tz),
        NativeGate("h", (0,)),
        NativeGate("cx", (0, 1)),
        NativeGate("s", (0,)),
        NativeGate("rz", (1,), 2.0 * ty),
        NativeGate("h", (0,)),
        NativeGate("cx", (0, 1)),
        NativeGate("rx", (0,), -math.pi / 2),
        NativeGate("rx", (1,), math.pi / 2),
    )


def _sandwich(kind: str | None, sign: float) -> GateSequence:
    if kind is None:
        return ()
    return tuple(NativeGate(kind, (q,), sign * math.pi / 2) for q in (0, 1))


# native gates before (U^dag) and after (U) the two-CX core, per conjugation tag
SANDWICH = {
    tag: (_sandwich(kind, -1.0), _sandwich(kind, 1.0))
    for tag, kind in _CONJUGATOR_KIND.items()
}


def r_gate_sequence(p: RGateParams, tag: str) -> GateSequence:
    """Two-CX native circuit for U R(gamma, delta) U^dag, U named by tag.

    The core CX (rx(-2 gamma) x rz(-2 delta)) CX equals R(gamma, delta)
    exactly; a zero parameter drops its rotation, but the identity gate keeps
    rx(0) so that its shape stays stable. With the tag's sandwich the circuit
    is exact for tag none and up to global phase otherwise.
    """
    core = [NativeGate("rx", (0,), -2.0 * p.gamma)] if p.gamma != 0.0 else []
    if p.delta != 0.0:
        core.append(NativeGate("rz", (1,), -2.0 * p.delta))
    cx = NativeGate("cx", (0, 1))
    before, after = SANDWICH[tag]
    return (*before, cx, *(core or [NativeGate("rx", (0,), 0.0)]), cx, *after)

