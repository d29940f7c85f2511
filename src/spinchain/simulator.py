"""Dense reference dynamics: Hamiltonian builder, statevector circuit
execution, staggered magnetization, the compressed-step stream, and a seeded
depolarizing Monte Carlo."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import _dense
from .circuit_ir import (
    MAX_DENSE_QUBITS,
    Circuit,
    NativeCircuit,
    build_trotter_circuit,
    local_ops,
    to_native,
)
from .compressor import CompressedBlock, absorb_steps, detect_class, pad_to_template
from .spin_model import CouplingParams, TrotterPlan

MODES = ("exact", "trotter", "compressed")

# the modes that run a gate circuit, and so have a noisy series
NOISY_MODES = ("trotter", "compressed")

_NOISE_CHUNK = 1024

# ceiling on the uniform draws held at once: per chunk of a series, over all chunks of restarted rows
_DRAW_BYTES = 1 << 26


def _check_size(n: int) -> None:
    if not 2 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"dense engine supports 2..{MAX_DENSE_QUBITS} qubits, got {n}")


def build_hamiltonian(n: int, j: CouplingParams) -> np.ndarray:
    """H = -sum_alpha J_alpha sum_i sigma^alpha_i sigma^alpha_{i+1}, open chain.

    Returned as a real symmetric matrix (the XX, YY, ZZ strings all have
    real elements); qubit 0 is the most significant basis bit.
    """
    _check_size(n)
    dim = 1 << n
    h = np.zeros((dim, dim))
    b = np.arange(dim)
    for q in range(n - 1):
        hi = n - 1 - q
        lo = n - 2 - q
        mask = (1 << hi) | (1 << lo)
        sign = 1.0 - 2.0 * (((b >> hi) ^ (b >> lo)) & 1)  # (-1)^(bit_q + bit_{q+1})
        np.add.at(h, (b ^ mask, b), -j.jx + j.jy * sign)
        np.add.at(h, (b, b), -j.jz * sign)
    return h


def basis_state(n: int, bits: str) -> np.ndarray:
    """Computational basis state from a bitstring; qubit 0 is the first char."""
    _check_size(n)
    if len(bits) != n or any(ch not in "01" for ch in bits):
        raise ValueError(f"need a length-{n} bitstring of 0/1, got {bits!r}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return amps


def neel_state(n: int) -> np.ndarray:
    """Alternating product state: spin up (|0>) on even sites, starting at site 0."""
    return basis_state(n, "01" * (n // 2) + "0" * (n % 2))


def _initial_state(n: int, init_state: np.ndarray | None) -> np.ndarray:
    """The given state as a complex vector of dimension 2^n; Neel when None."""
    init = neel_state(n) if init_state is None else np.asarray(init_state, dtype=complex)
    if init.shape[0] != 1 << n:
        raise ValueError(f"initial state has dimension {init.shape[0]}, need {1 << n}")
    return init


def apply_circuit(state: np.ndarray, c: Circuit | NativeCircuit) -> np.ndarray:
    """Apply every gate of c to the statevector, in circuit order."""
    dim = 1 << c.num_qubits
    out = np.asarray(state, dtype=complex)
    if out.shape[0] != dim:
        raise ValueError(
            f"state has dimension {out.shape[0]}, circuit needs {dim}"
        )
    for low, m in local_ops(c):
        out = _dense.apply_gate(out, m, low)
    return out


@functools.cache
def _staggered_weights(n: int) -> np.ndarray:
    b = np.arange(1 << n)
    w = np.zeros(1 << n)
    for i in range(n):
        bit = (b >> (n - 1 - i)) & 1
        w += (-1.0) ** i * (1.0 - 2.0 * bit)
    w /= n
    w.flags.writeable = False
    return w


def staggered_magnetization(states: np.ndarray) -> float | np.ndarray:
    """m_s = (1/N) sum_i (-1)^i <sigma_z at site i>; +1 on the Neel state.

    states is one statevector, giving a float, or a (2^N, shots) block with
    one state per column, giving one value per column.
    """
    dim = states.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    # a dot product per contiguous row of |amplitude|^2: each value rounds
    # exactly as for a lone statevector, which w @ probs would not
    values = np.vecdot(np.abs(np.ascontiguousarray(states.T)) ** 2, _staggered_weights(n))
    return float(values) if states.ndim == 1 else values


@dataclass(frozen=True)
class ObservableSeries:
    """Rows of (step, time, m_s) on a uniform grid, step 0 first. A series
    from run_dynamics may carry the mean noisy series as noisy and, under
    compressed, the engine session's last unpadded block as block."""

    rows: tuple[tuple[int, float, float], ...]
    noisy: ObservableSeries | None = field(default=None, compare=False)
    block: CompressedBlock | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        times = [t for _, t, _ in self.rows]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        for _, _, m in self.rows:
            if abs(m) > 1.0 + 1e-9:
                raise ValueError(f"|m_s| = {abs(m)} exceeds 1")

    def values(self) -> np.ndarray:
        return np.array([m for _, _, m in self.rows])

    def to_csv(self) -> str:
        lines = ["step,time,m_s"]
        for step, t, m in self.rows:
            lines.append(f"{step},{t:.17g},{m:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing gate noise: error probability p1 after single-qubit gates,
    p2 after cx; a uniformly random non-identity Pauli lands on the touched
    qubits. shots Monte Carlo repetitions from per-shot substreams seed+shot."""

    p1: float
    p2: float
    shots: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _series(plan: TrotterPlan, values: list[float], **extra) -> ObservableSeries:
    times = plan.times()
    return ObservableSeries(
        tuple((k, times[k], float(values[k])) for k in range(len(values))), **extra
    )


def _exact_series(n, j, plan, init):
    vals, vecs = np.linalg.eigh(build_hamiltonian(n, j))
    proj = vecs.conj().T @ init
    # step 0 is the bare initial state; skip the projection round-trip
    out = [staggered_magnetization(init)]
    for t in plan.times()[1:]:
        amps = vecs @ (np.exp(-1j * vals * t) * proj)
        out.append(staggered_magnetization(amps))
    return out


def _trotter_series(step, num_steps, init):
    # every step applies the same gates: build their matrices once
    ops = list(local_ops(step))
    state = init
    out = [staggered_magnetization(state)]
    for _ in range(num_steps):
        for low, m in ops:
            state = _dense.apply_gate(state, m, low)
        out.append(staggered_magnetization(state))
    return out


def compressed_steps(n: int, j: CouplingParams, plan: TrotterPlan) -> Iterator[CompressedBlock]:
    """The unpadded compressed block after each of plan's steps, step 1 first,
    from one engine session; the last is compress's block of the whole Trotter
    circuit. For three-axis couplings the first step raises
    UnsupportedClassError."""
    step = build_trotter_circuit(n, j, TrotterPlan(plan.dt, plan.dt))
    return absorb_steps(n, detect_class(step), step.gates, plan.num_steps)


def run_dynamics(
    n: int,
    j: CouplingParams,
    plan: TrotterPlan,
    mode: str,
    init_state: np.ndarray | None = None,
    noise: NoiseModel | None = None,
) -> ObservableSeries:
    """Staggered-magnetization series under one of the three engines.

    exact evaluates e^{-iHt} snapshots on the step grid; trotter applies one
    alternating layer per step; compressed absorbs each step's layer into a
    template block, in one compressed_steps session, and applies the
    (identity-padded) block to the initial state. All start from the Neel
    state unless init_state is given.

    noise, for trotter and compressed only, adds the mean noisy series as
    noisy: trotter repeats one noisy step (run_noisy_series), compressed
    runs each padded block from the initial state once per shot. Under
    compressed the last unpadded block comes back as block.
    """
    _check_size(n)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if noise is not None and mode not in NOISY_MODES:
        raise ValueError(f"noise needs mode {' or '.join(NOISY_MODES)}, got {mode!r}")
    init = _initial_state(n, init_state)
    if mode == "exact":
        return _series(plan, _exact_series(n, j, plan, init))
    if mode == "trotter":
        step = build_trotter_circuit(n, j, TrotterPlan(plan.dt, plan.dt))
        noisy = None
        if noise is not None:
            noisy = _series(plan, [mean for mean, _ in run_noisy_series(step, plan.num_steps, noise, init)])
        return _series(plan, _trotter_series(step, plan.num_steps, init), noisy=noisy)
    clean = [staggered_magnetization(init)]
    noisy, held = list(clean), {}
    for block in compressed_steps(n, j, plan):
        circuit = pad_to_template(block).circuit
        clean.append(staggered_magnetization(apply_circuit(init, circuit)))
        if noise is not None:
            noisy.append(_restarted_row(_gates(circuit), noise, init, held).mean())
    return _series(plan, clean, noisy=None if noise is None else _series(plan, noisy), block=block)


def _gates(c: Circuit | NativeCircuit) -> list:
    """c's native gates as (qubits, lowest qubit, matrix); a Pauli error reads
    its kron-order index over qubits as listed, control first for a cx."""
    native = to_native(c) if isinstance(c, Circuit) else c
    return [(g.qubits, *op) for g, op in zip(native.gates, local_ops(native))]


@functools.cache
def _pauli_table(n: int, qubits: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(rows, factors), each (2**n, 4**len(qubits)): Pauli index p on qubits
    maps a state s to factors[:, p] * s[rows[:, p]], the factor 1, -1, i or -i.

    Each qubit's digit is composed as one acts on a state, last qubit first:
    Z flips the sign where the bit is 1, X then flips the bit, and Y = iXZ
    multiplies by i after both, so each amplitude equals the Pauli matrix's.
    """
    r = np.arange(1 << n)
    rows = np.empty((r.size, 4 ** len(qubits)), dtype=np.intp)
    factors = np.empty(rows.shape, dtype=complex)
    for p in range(rows.shape[1]):
        src, f, digits = r, np.ones(r.size, dtype=complex), p
        for q in reversed(qubits):
            code, digits = digits % 4, digits // 4
            bit = 1 << (n - 1 - q)
            if code >= 2:
                f = np.where(r & bit, -f, f)
            if code in (1, 2):
                src, f = src[r ^ bit], f[r ^ bit]
            if code == 2:
                f = f * 1j
        rows[:, p], factors[:, p] = src, f
    rows.flags.writeable = factors.flags.writeable = False
    return rows, factors


def _pauli_errors(states: np.ndarray, qubits: tuple, cols: np.ndarray, u: np.ndarray, n: int) -> None:
    """Apply to each of the cols of states, in place, the non-identity Pauli
    on qubits that u picks: the kron-order index, I X Y Z = 0..3 per qubit.
    All cols move in one row gather from _pauli_table times its exact factor."""
    count = 4 ** len(qubits) - 1
    pauli = np.minimum((u * count).astype(int), count - 1) + 1
    rows, factors = _pauli_table(n, qubits)
    states[:, cols] = factors[:, pauli] * states[rows[:, pauli], cols]


def _noisy_gates(states: np.ndarray, gates: list, draws: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Run gates over a chunk's states, one shot per column; at gate i shot s
    reads the uniform pair draws[s, i]: does the gate err, and with which Pauli.
    Which shots err at which gate is read from the draws before any gate
    runs, so a gate that no shot errs at costs one apply_gate alone."""
    n = states.shape[0].bit_length() - 1
    draws = draws[:, : len(gates)]
    limits = np.array([noise.p2 if len(qubits) == 2 else noise.p1 for qubits, _, _ in gates])
    hits = draws[:, :, 0] < limits
    for i, ((qubits, low, mat), errs) in enumerate(zip(gates, hits.any(axis=0).tolist())):
        states = _dense.apply_gate(states, mat, low)
        if errs:
            cols = np.flatnonzero(hits[:, i])
            _pauli_errors(states, qubits, cols, draws[cols, i, 1], n)
    return states


def _series_values(gates: list, num_steps: int, noise: NoiseModel, init: np.ndarray) -> np.ndarray:
    """m_s per shot: row 0 for init, row k after k repeats of gates. Shot s's
    state and stream (default_rng(seed + s), a uniform pair per gate) carry on
    from step to step, drawn in runs of steps within _DRAW_BYTES (at least one)."""
    values = np.empty((num_steps + 1, noise.shots))
    for base in range(0, noise.shots, _NOISE_CHUNK):
        count = min(_NOISE_CHUNK, noise.shots - base)
        rngs = [np.random.default_rng(noise.seed + base + s) for s in range(count)]
        runs = max(1, _DRAW_BYTES // (count * max(1, len(gates)) * 2 * 8))
        states = np.repeat(init[:, None], count, axis=1)
        values[0, base : base + count] = staggered_magnetization(states)
        for k in range(num_steps):
            if k % runs == 0:
                draws = np.empty((count, min(runs, num_steps - k) * len(gates), 2))
                for s, rng in enumerate(rngs):
                    draws[s] = rng.random(draws.shape[1:])
            states = _noisy_gates(states, gates, draws[:, k % runs * len(gates) :], noise)
            values[k + 1, base : base + count] = staggered_magnetization(states)
    return values


def _restarted_row(gates: list, noise: NoiseModel, init: np.ndarray, held: dict) -> np.ndarray:
    """m_s per shot after gates run from init, shot s reading the first
    len(gates) uniform pairs of default_rng(seed + s). held keeps each chunk's
    generators and draws for the next call while shots x len(gates) pairs fit
    in _DRAW_BYTES; past that it is emptied and each call redraws the prefix."""
    row, keep = np.empty(noise.shots), noise.shots * len(gates) * 2 * 8 <= _DRAW_BYTES
    if not keep:
        held.clear()
    for base in range(0, noise.shots, _NOISE_CHUNK):
        count = min(_NOISE_CHUNK, noise.shots - base)
        rngs, draws = held.get(base, (None, np.empty((count, 0, 2))))
        if draws.shape[1] < len(gates):
            rngs = rngs or [np.random.default_rng(noise.seed + base + s) for s in range(count)]
            fresh = np.empty((count, len(gates), 2))
            fresh[:, : draws.shape[1]] = draws
            for s, rng in enumerate(rngs):
                fresh[s, draws.shape[1] :] = rng.random((len(gates) - draws.shape[1], 2))
            draws = fresh
        if keep:
            held[base] = rngs, draws
        states = _noisy_gates(np.repeat(init[:, None], count, axis=1), gates, draws, noise)
        row[base : base + count] = staggered_magnetization(states)
    return row


def _mean_stderr(row: np.ndarray, shots: int) -> tuple[float, float]:
    mean = float(row.mean())
    stderr = float(row.std(ddof=1) / math.sqrt(shots)) if shots > 1 else 0.0
    return mean, stderr


def run_noisy(
    c: Circuit | NativeCircuit,
    noise: NoiseModel,
    init_state: np.ndarray | None = None,
) -> tuple[float, float]:
    """Monte Carlo m_s under depolarizing gate noise: (mean, stderr).

    Noise acts on the native-gate expansion, so circuits with fewer native
    gates accumulate fewer error events. Deterministic for fixed seed and
    shots: shot s consumes exactly the (len(gates), 2) uniform block of
    default_rng(seed + s), independent of batching.
    """
    gates, init = _gates(c), _initial_state(c.num_qubits, init_state)
    return _mean_stderr(_series_values(gates, 1, noise, init)[1], noise.shots)


def run_noisy_series(
    step: Circuit | NativeCircuit,
    num_steps: int,
    noise: NoiseModel,
    init_state: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Noisy trajectory means: repeat the step circuit and record after each step.

    Returns num_steps + 1 rows of (mean, stderr) including the initial state.
    The final row equals run_noisy on the num_steps-fold circuit because the
    per-shot uniform stream is consumed identically.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    gates, init = _gates(step), _initial_state(step.num_qubits, init_state)
    return [_mean_stderr(row, noise.shots) for row in _series_values(gates, num_steps, noise, init)]
