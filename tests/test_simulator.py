"""Dense references, observable series, and the Monte Carlo noise channel."""

import numpy as np
import pytest
from scipy.linalg import expm

from spinchain import _dense, simulator
from spinchain.circuit_ir import Circuit, NativeCircuit, PairGate, build_trotter_circuit, to_native, unitary_of
from spinchain.compressor import pad_to_template
from spinchain.simulator import (
    NoiseModel,
    ObservableSeries,
    apply_circuit,
    basis_state,
    build_hamiltonian,
    compressed_steps,
    neel_state,
    run_dynamics,
    run_noisy,
    run_noisy_series,
    staggered_magnetization,
)
from spinchain.propagators import NativeGate
from spinchain.spin_model import Angles3, CouplingParams, TrotterPlan, UnsupportedClassError

TRIALS = 40
TOL = 1e-12
SEED = 5150

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def hamiltonian_oracle(n, j):
    # explicit kron sum, qubit 0 leftmost
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for q in range(n - 1):
        for coupling, sigma in ((j.jx, SX), (j.jy, SY), (j.jz, SZ)):
            if coupling == 0.0:
                continue
            term = np.kron(
                np.eye(2 ** q), np.kron(np.kron(sigma, sigma), np.eye(2 ** (n - q - 2)))
            )
            h -= coupling * term
    return h


def test_build_hamiltonian_matches_kron_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 7))
        j = CouplingParams(*rng.uniform(-1.5, 1.5, 3))
        h = build_hamiltonian(n, j)
        assert np.max(np.abs(h - hamiltonian_oracle(n, j))) < TOL
        assert np.max(np.abs(h - h.conj().T)) < TOL


def test_build_hamiltonian_two_site_zz():
    h = build_hamiltonian(2, CouplingParams(0.0, 0.0, 1.0))
    assert np.allclose(h, -np.diag([1.0, -1.0, -1.0, 1.0]))


def test_basis_state_layout():
    s = basis_state(3, "010")
    # qubit 0 is the most significant bit of the index
    assert s[0b010] == 1.0
    assert np.sum(np.abs(s)) == 1.0
    with pytest.raises(ValueError):
        basis_state(3, "01")
    with pytest.raises(ValueError):
        basis_state(3, "012")


def test_neel_state_and_staggered_magnetization():
    for n in (2, 3, 4, 5):
        s = neel_state(n)
        assert staggered_magnetization(s) == 1.0
    # uniform up state: alternating signs average out
    assert staggered_magnetization(basis_state(4, "0000")) == pytest.approx(0.0, abs=1e-15)
    assert staggered_magnetization(basis_state(3, "000")) == pytest.approx(1 / 3, abs=1e-15)


def test_staggered_magnetization_superposition():
    s = (neel_state(2) + basis_state(2, "10")) / np.sqrt(2)
    # |01> gives +1, |10> gives -1; the equal mix averages to 0
    assert staggered_magnetization(s) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="^state dimension 6 is not a power of two$"):
        staggered_magnetization(np.ones(6))


def test_staggered_magnetization_of_a_block_matches_each_column():
    # a (2^N, shots) block gives, to the last bit, each column's value from
    # the per-state dot product w @ |psi|^2, also for column-major blocks
    # such as the noise engine's gate applications leave
    rng = np.random.default_rng(SEED + 9)
    for n in (2, 3, 5, 8):
        w = simulator._staggered_weights(n)
        block = rng.normal(size=(1 << n, 37)) + 1j * rng.normal(size=(1 << n, 37))
        block /= np.linalg.norm(block, axis=0)
        for states in (block, np.asfortranarray(block)):
            values = staggered_magnetization(states)
            assert values.shape == (37,)
            assert values.tolist() == [float(w @ np.abs(states[:, s]) ** 2) for s in range(37)]
            assert staggered_magnetization(states[:, 0]) == values[0]


def test_apply_circuit_equals_dense_unitary():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 6))
        gates = tuple(
            PairGate(int(rng.integers(0, n - 1)), Angles3(*rng.uniform(-1.0, 1.0, 3)))
            for _ in range(int(rng.integers(1, 8)))
        )
        c = Circuit(n, gates)
        state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        state /= np.linalg.norm(state)
        assert np.max(np.abs(apply_circuit(state, c) - unitary_of(c) @ state)) < TOL
    with pytest.raises(ValueError, match="^state has dimension 4, circuit needs 8$"):
        apply_circuit(np.ones(4), Circuit(3, ()))


def test_run_dynamics_exact_matches_expm_series():
    n, j = 3, CouplingParams(-0.8, -0.2, 0.0)
    plan = TrotterPlan(0.5, 0.1)
    series = run_dynamics(n, j, plan, "exact")
    h = build_hamiltonian(n, j)
    psi0 = neel_state(n)
    for step, t, value in series.rows:
        psi = expm(-1j * t * h) @ psi0
        assert value == pytest.approx(staggered_magnetization(psi), abs=1e-10)


def test_run_dynamics_trotter_approaches_exact():
    n, j = 3, CouplingParams(-0.8, -0.2, 0.0)
    errs = []
    for dt in (0.1, 0.05):
        plan = TrotterPlan(1.0, dt)
        exact = run_dynamics(n, j, plan, "exact").values()
        trotter = run_dynamics(n, j, plan, "trotter").values()
        errs.append(max(abs(a - b) for a, b in zip(exact, trotter)))
    assert errs[1] < errs[0]


def test_run_dynamics_compressed_tracks_trotter():
    n, j = 4, CouplingParams(0.7, 0.0, -0.4)
    plan = TrotterPlan(0.6, 0.05)
    trotter = run_dynamics(n, j, plan, "trotter").values()
    compressed = run_dynamics(n, j, plan, "compressed").values()
    assert max(abs(a - b) for a, b in zip(trotter, compressed)) < 1e-7


def test_run_dynamics_rejects_unknown_mode_and_class():
    j = CouplingParams(1.0, 0.9, 0.8)
    plan = TrotterPlan(0.1, 0.05)
    with pytest.raises(ValueError):
        run_dynamics(3, j, plan, "magic")
    with pytest.raises(UnsupportedClassError):
        run_dynamics(3, j, plan, "compressed")
    with pytest.raises(ValueError, match="^initial state has dimension 4, need 8$"):
        run_dynamics(3, j, plan, "trotter", init_state=np.ones(4))
    # exact and trotter have no class restriction
    run_dynamics(3, j, plan, "exact")
    run_dynamics(3, j, plan, "trotter")


def test_observable_series_csv_format():
    series = ObservableSeries(((0, 0.0, 1.0), (1, 0.5, -0.25), (2, 1.0, 0.125)))
    assert series.to_csv() == "step,time,m_s\n0,0,1\n1,0.5,-0.25\n2,1,0.125\n"
    assert list(series.values()) == [1.0, -0.25, 0.125]


def test_observable_series_validation():
    with pytest.raises(ValueError):
        ObservableSeries(((0, 0.0, 1.0), (1, 0.0, 0.5)))  # time not increasing
    with pytest.raises(ValueError):
        ObservableSeries(((0, 0.0, 1.5),))  # magnetization out of range


def test_noise_model_validation():
    NoiseModel(0.0, 0.01, 100, 7)
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0.0, 100, 7)
    with pytest.raises(ValueError):
        NoiseModel(0.0, 1.5, 100, 7)
    with pytest.raises(ValueError):
        NoiseModel(0.0, 0.0, 0, 7)
    with pytest.raises(ValueError, match="seed"):
        NoiseModel(0.0, 0.0, 100, -1)


def test_run_noisy_zero_noise_matches_noiseless():
    c = build_trotter_circuit(3, CouplingParams(-0.8, -0.2, 0.0), TrotterPlan(0.2, 0.05))
    ideal = staggered_magnetization(apply_circuit(neel_state(3), c))
    mean, err = run_noisy(c, NoiseModel(0.0, 0.0, 16, 3))
    assert mean == pytest.approx(ideal, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_run_noisy_is_deterministic_in_seed():
    c = build_trotter_circuit(3, CouplingParams(-0.8, -0.2, 0.0), TrotterPlan(0.2, 0.05))
    noise = NoiseModel(0.001, 0.02, 200, 11)
    assert run_noisy(c, noise) == run_noisy(c, noise)
    other = run_noisy(c, NoiseModel(0.001, 0.02, 200, 12))
    assert other != run_noisy(c, noise)


def test_run_noisy_shot_batching_invariance(monkeypatch):
    # shot s draws from substream seed + s, so a batched run must equal the
    # average of single-shot runs at shifted seeds. At N = 2 only up to
    # rounding: there rx and rz round differently in a width-1 chunk than in
    # a wider one
    c = build_trotter_circuit(2, CouplingParams(0.5, 0.3, 0.0), TrotterPlan(0.1, 0.05))
    shots, seed = 5, 21
    mean, _ = run_noisy(c, NoiseModel(0.2, 0.3, shots, seed))
    singles = [
        run_noisy(c, NoiseModel(0.2, 0.3, 1, seed + s))[0] for s in range(shots)
    ]
    assert mean == pytest.approx(np.mean(singles), abs=1e-14)
    # from N = 3 on, each shot's row is bit-identical whatever the chunk width
    # (the property that keeps _dense.apply_gate's np.dot path)
    noise = NoiseModel(0.2, 0.3, 7, seed)
    for n in (3, 4, 5):
        for j in (CouplingParams(-0.8, -0.2, 0.0), CouplingParams(0.6, 0.0, -0.3),
                  CouplingParams(0.9, 0.0, 0.0), CouplingParams(0.5, 0.3, 0.2)):
            gates = simulator._gates(build_trotter_circuit(n, j, TrotterPlan(0.3, 0.05)))
            rows = []
            for chunk in (1, 3, 1024):
                monkeypatch.setattr(simulator, "_NOISE_CHUNK", chunk)
                rows.append(simulator._series_values(gates, 1, noise, neel_state(n))[1])
            monkeypatch.undo()
            assert all(np.array_equal(rows[0], row) for row in rows[1:]), (n, j)


def test_run_noisy_series_final_row_matches_unrolled():
    n, j = 3, CouplingParams(-0.8, -0.2, 0.0)
    steps = 4
    step = build_trotter_circuit(n, j, TrotterPlan(0.05, 0.05))
    noise = NoiseModel(0.002, 0.01, 64, 5)
    series = run_noisy_series(step, steps, noise)
    assert len(series) == steps + 1
    assert series[0][0] == pytest.approx(1.0, abs=1e-12)
    native = to_native(step)
    from spinchain.circuit_ir import NativeCircuit

    unrolled = NativeCircuit(n, native.gates * steps)
    assert series[-1] == run_noisy(unrolled, noise)
    with pytest.raises(ValueError, match="^num_steps must be >= 1, got 0$"):
        run_noisy_series(step, 0, noise)


def test_run_noisy_series_draws_in_step_blocks(monkeypatch):
    # a draw ceiling below one step's draws forces a block per step, and a
    # ceiling of a few steps' draws leaves a ragged last block; the uniform
    # stream of each shot, hence every row, must not change
    step = build_trotter_circuit(3, CouplingParams(0.6, -0.4, 0.0), TrotterPlan(0.1, 0.1))
    noise = NoiseModel(0.05, 0.1, 40, 3)
    whole = run_noisy_series(step, 7, noise)
    natives = len(to_native(step).gates)
    for draw_bytes in (1, 3 * 40 * natives * 2 * 8):
        monkeypatch.setattr(simulator, "_DRAW_BYTES", draw_bytes)
        assert run_noisy_series(step, 7, noise) == whole


def test_heavy_depolarizing_noise_scrambles_to_zero():
    c = build_trotter_circuit(3, CouplingParams(-0.8, -0.2, 0.0), TrotterPlan(1.0, 0.05))
    mean, err = run_noisy(c, NoiseModel(0.0, 1.0, 600, 9))
    assert abs(mean) < 3 * err + 1e-9


def test_noisy_compressed_rows_equal_run_noisy_on_each_block(monkeypatch):
    # every step block runs from the initial state and reads each shot's
    # stream from its start. The rows must not change whether each block
    # redraws that prefix (a draw budget that holds nothing) or the chunks
    # hold their draws across blocks (the default budget, also with several
    # chunks); the blocks' native counts grow, so a held prefix must grow.
    # run_noisy is a one-step series, so the expected rows come from the
    # other Monte Carlo driver
    n, j, plan = 3, CouplingParams(0.6, -0.4, 0.0), TrotterPlan(0.6, 0.1)
    init = basis_state(n, "011")
    blocks = [pad_to_template(b).circuit for b in compressed_steps(n, j, plan)]
    natives = [len(to_native(c).gates) for c in blocks]
    assert any(count > max(natives[:k]) for k, count in enumerate(natives[1:], 1))
    shots, default_rng = 7, np.random.default_rng
    for p1, p2 in ((0.05, 0.1), (1.0, 1.0)):
        noise = NoiseModel(p1, p2, shots, 4)
        expected = [run_noisy(c, noise, init)[0] for c in blocks]
        for chunk, draw_bytes, streams in (
            (1024, 1, shots * len(blocks)), (1024, simulator._DRAW_BYTES, shots), (3, simulator._DRAW_BYTES, shots)
        ):
            made = []
            monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or default_rng(seed))
            monkeypatch.setattr(simulator, "_NOISE_CHUNK", chunk)
            monkeypatch.setattr(simulator, "_DRAW_BYTES", draw_bytes)
            series = run_dynamics(n, j, plan, "compressed", init, noise).noisy
            monkeypatch.undo()
            assert series.rows[0][2] == staggered_magnetization(init)
            assert [m for _, _, m in series.rows[1:]] == expected
            # held draws make each shot's generator once per job
            assert len(made) == streams
        # a gate list past the budget, between two that fit, must leave the
        # held streams where their draws end
        gates = simulator._gates(blocks[-1])
        monkeypatch.setattr(simulator, "_DRAW_BYTES", shots * 4 * 2 * 8)
        held = {}
        for k in (2, 10, 4):
            row = simulator._restarted_row(gates[:k], noise, init, held)
            assert np.array_equal(row, simulator._restarted_row(gates[:k], noise, init, {}))
        monkeypatch.undo()


def test_noisy_runs_of_a_gate_free_circuit_stay_on_the_initial_state():
    # no gate, no draw: every shot keeps the Neel state, m_s = 1
    c, noise = NativeCircuit(2, ()), NoiseModel(0.5, 0.5, 5, 3)
    assert run_noisy(c, noise) == (1.0, 0.0)
    assert run_noisy_series(c, 3, noise) == [(1.0, 0.0)] * 4


def test_run_dynamics_rejects_noise_under_exact():
    with pytest.raises(ValueError, match="trotter or compressed"):
        run_dynamics(3, CouplingParams(1.0, 0.0, 0.0), TrotterPlan(0.1, 0.1), "exact",
                     noise=NoiseModel(0.1, 0.1, 4, 0))


def kron_pauli(n, qubits, index):
    # the non-identity Pauli of kron-order index on qubits, I X Y Z = 0..3 per
    # qubit, as a dense 2^n x 2^n kron product, qubit 0 leftmost
    paulis = [np.eye(2, dtype=complex), SX, SY, SZ]
    factors = [np.eye(2, dtype=complex)] * n
    for i, q in enumerate(qubits):
        factors[q] = paulis[(index >> (2 * (len(qubits) - 1 - i))) & 3]
    dense = factors[0]
    for f in factors[1:]:
        dense = np.kron(dense, f)
    return dense


@pytest.mark.parametrize("qubits", [(0,), (1,), (2,), (0, 1), (1, 2)])
def test_pauli_errors_match_the_kron_pauli_matrices(qubits):
    # each non-identity Pauli, in kron order with I, X, Y, Z as digits, is a
    # dense 8x8 matrix here; the row gather and its factor must give every
    # amplitude, so every |amplitude|^2, exactly, and leave the unhit columns
    # alone
    n = 3
    count = 4 ** len(qubits) - 1
    rng = np.random.default_rng(SEED)
    for index in range(1, count + 1):
        dense = kron_pauli(n, qubits, index)
        states = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        expected = states.copy()
        cols = np.array([0, 2, 3])
        expected[:, cols] = dense @ states[:, cols]
        u = np.full(cols.size, (index - 0.5) / count)
        simulator._pauli_errors(states, qubits, cols, u, n)
        assert np.array_equal(np.abs(states) ** 2, np.abs(expected) ** 2)
        assert np.array_equal(states, expected)
    # one call in which every hit column draws its own Pauli, each index once,
    # between two columns that no error hits
    states = rng.normal(size=(8, count + 2)) + 1j * rng.normal(size=(8, count + 2))
    expected = states.copy()
    cols = np.arange(1, count + 1)
    indices = rng.permutation(count) + 1
    for col, index in zip(cols, indices):
        expected[:, col] = kron_pauli(n, qubits, index) @ states[:, col]
    simulator._pauli_errors(states, qubits, cols, (indices - 0.5) / count, n)
    assert np.array_equal(states, expected)


def noisy_gates_reference(states, gates, draws, noise):
    # gate by gate: apply the gate, then test each shot's draw against its
    # limit and apply the picked Pauli to that shot's column as a dense matrix
    n = states.shape[0].bit_length() - 1
    for i, (qubits, low, mat) in enumerate(gates):
        states = _dense.apply_gate(states, mat, low)
        count = 4 ** len(qubits) - 1
        for s in range(states.shape[1]):
            hit, u = draws[s, i]
            if hit < (noise.p2 if len(qubits) == 2 else noise.p1):
                index = min(int(u * count), count - 1) + 1
                states[:, s] = kron_pauli(n, qubits, index) @ states[:, s]
    return states


@pytest.mark.parametrize("n", [3, 4, 5])
def test_noisy_gates_match_the_per_gate_reference(n):
    # errors decided from the draws before the gates run, and every hit column
    # moved in one gather, must give each shot's state bit for bit; the draws
    # are a view past a first step's, wider than the gate list, as in a run
    rng = np.random.default_rng(SEED + n)
    shots = 9
    for j in (CouplingParams(0.9, 0.0, 0.0), CouplingParams(-0.8, -0.3, 0.0),
              CouplingParams(0.6, 0.0, -0.3), CouplingParams(0.0, 0.5, -0.4)):
        gates = simulator._gates(build_trotter_circuit(n, j, TrotterPlan(0.2, 0.1)))
        draws = rng.random((shots, 3 * len(gates), 2))[:, len(gates):]
        init = rng.normal(size=(2 ** n, shots)) + 1j * rng.normal(size=(2 ** n, shots))
        for p1, p2 in ((0.0, 0.0), (0.05, 0.1), (1.0, 1.0)):
            noise = NoiseModel(p1, p2, shots, 0)
            got = simulator._noisy_gates(init.copy(), gates, draws, noise)
            assert np.array_equal(got, noisy_gates_reference(init.copy(), gates, draws, noise)), (j, p1, p2)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cx_with_the_higher_control_matches_the_kron_oracle(n):
    # cx on (q + 1, q): control is the right factor of the pair, so the
    # pair matrix is |0><0| x I + |1><1| x X on (q, q + 1)
    rng = np.random.default_rng(SEED + n)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for q in range(n - 1):
        pair = np.kron(np.eye(2), p0) + np.kron(SX, p1)
        oracle = np.kron(np.kron(np.eye(2 ** q), pair), np.eye(2 ** (n - q - 2)))
        c = NativeCircuit(n, (NativeGate("cx", (q + 1, q)),))
        state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        assert np.array_equal(unitary_of(c), oracle)
        assert np.array_equal(apply_circuit(state, c), oracle @ state)
