"""Dense linear-algebra kernels shared by the oracle and simulator paths."""

from __future__ import annotations

import numpy as np


def apply_gate(mat: np.ndarray, gate: np.ndarray, low: int) -> np.ndarray:
    """Left-multiply ``gate`` acting on qubit ``low`` (2x2) or on the pair
    (low, low + 1) (4x4) into ``mat``.

    ``mat`` is either a statevector of length 2**N or a matrix whose columns
    are statevectors (shape ``(2**N, c)``). Qubit 0 is the leftmost tensor
    factor (most significant bit of the basis index). The gate's axis goes to
    the front for one (k, k) @ (k, rest) product; the moved copy is never
    bound to a name, so it is freed when the product returns.
    """
    k = gate.shape[0]
    before = 1 << low
    out = np.dot(gate, mat.reshape(before, k, -1).transpose(1, 0, 2).reshape(k, -1))
    return out.reshape(k, before, -1).transpose(1, 0, 2).reshape(mat.shape)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between unitaries modulo global phase: ||u - phase*v||_F.

    phase = tr(v^dag u)/|tr(v^dag u)|; when the trace is numerically zero no
    phase can help, and the raw distance is reported. The trace is the
    elementwise inner product, O(4^N) instead of a product.
    """
    tr = complex(np.vdot(v, u))
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0 + 0j
    return float(np.linalg.norm(u - phase * v))
