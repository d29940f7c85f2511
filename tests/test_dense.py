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


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("width", [1, 2])
def test_apply_gate_into_out_matches_kron_oracle(n, width):
    # the oracle's buffered pass: square matrices, every lowest qubit
    rng = np.random.default_rng(SEED + 16 * n + width)
    mat = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    before = mat.copy()
    buf = np.empty_like(mat)
    for low in range(n - width + 1):
        gate = random_unitary(rng, 2 ** width)
        assert apply_gate(mat, gate, low, out=buf) is buf
        assert np.array_equal(mat, before)
        assert np.max(np.abs(buf - embedded(gate, low, n) @ mat)) < TOL


def test_apply_gate_rejects_an_out_it_cannot_write_through():
    # a non-contiguous out would reshape to a copy and drop the result
    rng = np.random.default_rng(SEED)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    gate = random_unitary(rng, 4)
    bad = (
        np.empty((8, 8), dtype=complex, order="F"),
        np.empty((8, 16), dtype=complex)[:, ::2],
        np.empty((8, 4), dtype=complex),
        np.empty(64, dtype=complex),
        mat,
    )
    for out in bad:
        with pytest.raises(ValueError):
            apply_gate(mat, gate, 1, out=out)
