"""The dense gate kernel against a kron-product oracle."""

import numpy as np
import pytest

from spinchain._dense import apply_gate

SEED = 2017
TOL = 1e-12


def random_unitary(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embedded(gate, low, n):
    # gate on qubits low.. of an n-qubit register, qubit 0 as leftmost factor
    k = gate.shape[0]
    return np.kron(np.kron(np.eye(2 ** low), gate), np.eye(2 ** n // (k << low)))


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("width", [1, 2])
def test_apply_gate_matches_kron_oracle(n, width):
    # every lowest qubit of a 2x2 or 4x4 gate, on a statevector and on a block
    rng = np.random.default_rng(SEED + 8 * n + width)
    for low in range(n - width + 1):
        gate = random_unitary(rng, 2 ** width)
        for shape in ((2 ** n,), (2 ** n, 3)):
            mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            out = apply_gate(mat, gate, low)
            assert out.shape == shape and out.flags.c_contiguous
            assert np.max(np.abs(out - embedded(gate, low, n) @ mat)) < TOL
