"""Dense linear-algebra kernels shared by the oracle and simulator paths."""

from __future__ import annotations

import numpy as np


def apply_gate(mat: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Left-multiply ``gate`` acting on ``qubits`` into ``mat``.

    ``mat`` is either a statevector of length 2**num_qubits or a matrix whose
    columns are statevectors (shape ``(2**num_qubits, k)``); ``gate`` is a
    ``2**len(qubits)`` square unitary. Qubit 0 is the leftmost tensor factor
    (most significant bit of the basis index).
    """
    k = len(qubits)
    shape = mat.shape
    t = mat.reshape((2,) * num_qubits + (-1,))
    g = gate.reshape((2,) * (2 * k))
    t = np.tensordot(g, t, axes=[list(range(k, 2 * k)), list(qubits)])
    t = np.moveaxis(t, list(range(k)), list(qubits))
    return np.ascontiguousarray(t.reshape(shape))


def phase_align(u: np.ndarray, v: np.ndarray) -> tuple[float, complex]:
    """Distance between unitaries modulo global phase.

    Returns ``(dist, phase)`` where ``dist = ||u - phase*v||_F`` and
    ``phase = tr(v^dag u)/|tr(v^dag u)|``. When the trace is numerically
    zero no phase can help; the raw distance is reported with phase 1.
    The trace is the elementwise inner product, O(4^N) instead of a product.
    """
    tr = complex(np.vdot(v, u))
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0 + 0j
    return float(np.linalg.norm(u - phase * v)), phase


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    return phase_align(u, v)[0]
