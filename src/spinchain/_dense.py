"""Dense linear-algebra kernels shared by the oracle and simulator paths."""

from __future__ import annotations

import numpy as np


def apply_gate(mat: np.ndarray, gate: np.ndarray, low: int, out: np.ndarray | None = None) -> np.ndarray:
    """Left-multiply ``gate`` acting on qubit ``low`` (2x2) or on the pair
    (low, low + 1) (4x4) into ``mat``.

    ``mat`` is either a statevector of length 2**N or a matrix whose columns
    are statevectors (shape ``(2**N, c)``). Qubit 0 is the leftmost tensor
    factor (most significant bit of the basis index).

    Without ``out`` the gate's axis goes to the front for one (k, k) @
    (k, rest) product; the moved copy is freed when the product returns. The
    noiseless and noisy engines take this path. From N = 3 on it gives each
    column the same bits whatever the number of columns beside it, so a noisy
    shot's row does not depend on the chunk it runs in; a batched matmul
    breaks that, and would move the engines' CSVs.

    With ``out`` (C-contiguous, mat's shape, sharing no memory with mat) the
    product is one batched matmul of the (2**low, k, rest) view into out's
    view, with no transpose and no allocation, and out is returned. The
    dense oracle takes this path, alternating two square buffers.
    """
    k = gate.shape[0]
    before = 1 << low
    if out is None:
        res = np.dot(gate, mat.reshape(before, k, -1).transpose(1, 0, 2).reshape(k, -1))
        return res.reshape(k, before, -1).transpose(1, 0, 2).reshape(mat.shape)
    # a non-contiguous out would reshape to a copy and silently drop the result
    if out.shape != mat.shape or not out.flags.c_contiguous or np.may_share_memory(out, mat):
        raise ValueError("out must be a C-contiguous array of mat's shape that shares no memory with mat")
    np.matmul(gate, mat.reshape(before, k, -1), out=out.reshape(before, k, -1))
    return out


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between unitaries modulo global phase: ||u - phase*v||_F.

    phase = tr(v^dag u)/|tr(v^dag u)|; when the trace is numerically zero no
    phase can help, and the raw distance is reported. The trace is the
    elementwise inner product, O(4^N) instead of a product.
    """
    tr = complex(np.vdot(v, u))
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0 + 0j
    return float(np.linalg.norm(u - phase * v))
