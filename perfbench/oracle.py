"""Independent oracles and output checks for the benchmark.

Nothing here imports spinchain: the expected unitaries and series are built
from kron products of Pauli matrices and scipy.linalg.expm, QASM and CSV are
parsed by this module's own readers, and each check returns a list of
problems (empty when the output is correct).

Conventions follow the package's documented ones: qubit 0 is the left tensor
factor, rx(t) = exp(-i t X / 2), rz(t) = exp(-i t Z / 2), cx controls on its
first operand, H = -sum_a J_a sum_i s^a_i s^a_{i+1}, and one Trotter step is
the even-pair column followed by the odd-pair column, each gate
exp(-i h_bond dt).
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
S_GATE = np.diag([1, 1j]).astype(complex)

CSV_TOL = 1e-9           # exact and trotter CSVs against the oracle series
COMPRESSED_TOL = 1e-7    # compressed series against trotter, compressed circuit against input
DISTANCE_TOL = 1e-9      # printed verify distance against the oracle distance
RANGE_SLACK = 1e-12      # rounding allowed beyond |m_s| <= 1


def embed(gate: np.ndarray, first: int, n: int) -> np.ndarray:
    """gate on qubits first..first+k-1 as a 2^n x 2^n kron product."""
    k = gate.shape[0].bit_length() - 1
    return np.kron(np.kron(np.eye(1 << first), gate), np.eye(1 << (n - first - k)))


def bond_hamiltonian(j: tuple[float, float, float]) -> np.ndarray:
    return -sum(ja * np.kron(p, p) for ja, p in zip(j, PAULIS))


def chain_hamiltonian(n: int, j) -> np.ndarray:
    h = bond_hamiltonian(j)
    return sum(embed(h, i, n) for i in range(n - 1))


def pair_gate(j, dt: float) -> np.ndarray:
    """One Trotter pair gate, exp(-i h_bond dt)."""
    return expm(-1j * dt * bond_hamiltonian(j))


def trotter_step(n: int, j, dt: float) -> np.ndarray:
    g = pair_gate(j, dt)
    u = np.eye(1 << n, dtype=complex)
    for parity in (0, 1):
        for pair in range(parity, n - 1, 2):
            u = embed(g, pair, n) @ u
    return u


def neel(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[int(("01" * n)[:n], 2)] = 1.0
    return psi


def staggered_weights(n: int) -> np.ndarray:
    """Diagonal of (1/N) sum_i (-1)^i Z_i."""
    diag = np.zeros(1 << n)
    for i in range(n):
        diag += (-1) ** i * np.real(np.diag(embed(SZ, i, n)))
    return diag / n


def series(u_step: np.ndarray, n: int, steps: int) -> np.ndarray:
    """m_s after 0..steps applications of u_step to the Neel state."""
    w = staggered_weights(n)
    psi = neel(n)
    out = [w @ np.abs(psi) ** 2]
    for _ in range(steps):
        psi = u_step @ psi
        out.append(w @ np.abs(psi) ** 2)
    return np.array(out)


def exact_series(n: int, j, dt: float, steps: int) -> np.ndarray:
    return series(expm(-1j * dt * chain_hamiltonian(n, j)), n, steps)


def trotter_series(n: int, j, dt: float, steps: int) -> np.ndarray:
    return series(trotter_step(n, j, dt), n, steps)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    tr = complex(np.trace(v.conj().T @ u))
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.linalg.norm(u - phase * v))


def shifted_rotation_distance(n: int, shift: float) -> float:
    """Phase-aligned distance between a circuit and the same circuit with one
    rx/rz angle shifted: ||I - R(shift)||_F on the full register, since the
    surrounding gates cancel by unitary invariance of the norm."""
    return math.sqrt(1 << n) * 2.0 * abs(math.sin(shift / 4.0))


# ---- QASM ----

_HEADER = re.compile(r'^\s*(OPENQASM\s+2\.0|include\s+"qelib1\.inc")\s*;\s*$')
_QREG = re.compile(r"^\s*qreg\s+q\[(\d+)\]\s*;\s*$")
_ROT = re.compile(r"^\s*(rx|rz)\s*\(\s*([^)]+?)\s*\)\s*q\[(\d+)\]\s*;\s*$")
_FIXED = re.compile(r"^\s*(h|s)\s+q\[(\d+)\]\s*;\s*$")
_CX = re.compile(r"^\s*cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;\s*$")


class QasmError(ValueError):
    pass


def parse_qasm(text: str) -> tuple[int, list[tuple[str, tuple[int, ...], float | None]]]:
    """(num_qubits, gates) for the subset rx, rz, h, s, cx on one register q."""
    n = None
    gates = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or _HEADER.match(line):
            continue
        if m := _QREG.match(line):
            n = int(m.group(1))
        elif m := _ROT.match(line):
            gates.append((m.group(1), (int(m.group(3)),), float(m.group(2))))
        elif m := _FIXED.match(line):
            gates.append((m.group(1), (int(m.group(2)),), None))
        elif m := _CX.match(line):
            gates.append(("cx", (int(m.group(1)), int(m.group(2))), None))
        else:
            raise QasmError(f"line {lineno}: unexpected {line!r}")
    if n is None:
        raise QasmError("no qreg declaration")
    for kind, qubits, _ in gates:
        if any(q >= n for q in qubits):
            raise QasmError(f"{kind} on {qubits} outside {n} qubits")
        if kind == "cx" and abs(qubits[0] - qubits[1]) != 1:
            raise QasmError(f"cx on non-adjacent qubits {qubits}")
    return n, gates


def gate_matrix(kind: str, qubits: tuple[int, ...], angle: float | None) -> tuple[np.ndarray, int]:
    """(matrix, lowest qubit) of one native gate."""
    if kind in ("rx", "rz"):
        axis = SX if kind == "rx" else SZ
        return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * axis, qubits[0]
    if kind == "h":
        return HADAMARD, qubits[0]
    if kind == "s":
        return S_GATE, qubits[0]
    c, t = qubits
    return (CX if c < t else SWAP @ CX @ SWAP), min(c, t)


def circuit_unitary(n: int, gates) -> np.ndarray:
    u = np.eye(1 << n, dtype=complex)
    for kind, qubits, angle in gates:
        mat, first = gate_matrix(kind, qubits, angle)
        u = embed(mat, first, n) @ u
    return u


# ---- CSV ----

def parse_csv(text: str) -> list[tuple[int, float, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != "step,time,m_s":
        raise ValueError("missing header step,time,m_s")
    rows = []
    for line in lines[1:]:
        step, t, m = line.split(",")
        rows.append((int(step), float(t), float(m)))
    return rows


def check_series(
    name: str, text: str, dt: float, steps: int, expected: np.ndarray | None = None, tol: float = 0.0
) -> list[str]:
    """Rows 0..steps on the dt grid, Neel step 0 exactly 1, values in [-1, 1],
    and within tol of expected when given."""
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"{name}: unreadable CSV ({exc})"]
    problems = []
    if len(rows) != steps + 1:
        return [f"{name}: {len(rows)} rows, expected {steps + 1}"]
    for k, (step, t, m) in enumerate(rows):
        if step != k or abs(t - k * dt) > 1e-12 * max(1.0, k):
            problems.append(f"{name}: row {k} has step {step} time {t!r}")
            break
        if not abs(m) <= 1.0 + RANGE_SLACK:
            problems.append(f"{name}: row {k} m_s {m!r} outside [-1, 1]")
            break
    if rows and rows[0][2] != 1.0:
        problems.append(f"{name}: step 0 m_s is {rows[0][2]!r}, not exactly 1")
    if expected is not None and not problems:
        worst = max(abs(m - e) for (_, _, m), e in zip(rows, expected))
        if worst > tol:
            problems.append(f"{name}: deviates from oracle by {worst:.3e} > {tol:g}")
    return problems
