"""Seeded job decks for the three workloads, their input files and checks.

A deck is a sequence of blocks. Every block holds each size stratum of its
workload once, in a seeded order, with seeded couplings, time step and noise
seed per job; kinds and coupling families rotate over the blocks. Any prefix
of the deck therefore has nearly the same mix, so throughput and latency
percentiles do not depend on where a run stops.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

FAMILIES = ("X", "Y", "Z", "XY", "XZ", "YZ")

# (kinds, spins, steps) per stratum; stratum s of block b takes kind
# kinds[(b + s) % len(kinds)] and family FAMILIES[(b + s) % 6]. Fifteen (or
# nine) strata put p50 and p90 inside a stratum rather than on the edge
# between two, so the percentiles do not jump with the mix of a run. Sizes
# keep a 30 s run well over 100 jobs, enough for ten beyond p90.
COMPRESS_KINDS = ("compress-config", "compress-qasm")
STRATA = {
    "compress": [
        (COMPRESS_KINDS, n, steps)
        for n, steps in (
            (4, 4), (4, 6), (4, 10), (4, 14), (4, 20), (4, 28), (4, 40), (5, 5),
            (5, 7), (5, 10), (5, 14), (6, 6), (6, 8), (6, 10), (7, 7),
        )
    ],
    "evolve": [
        (("evolve-all",), 3, 40), (("evolve-all",), 4, 20), (("evolve-all",), 5, 10),
        (("evolve-noisy-trotter",), 3, 100), (("evolve-noisy-trotter",), 4, 50),
        (("evolve-noisy-trotter",), 5, 30),
        (("evolve-noisy-compressed",), 3, 20), (("evolve-noisy-compressed",), 4, 10),
        (("evolve-noisy-compressed",), 5, 5),
    ],
    "qasm-verify": [
        (("qasm-verify",), n, steps)
        for n, steps in (
            (4, 10), (4, 25), (4, 50), (5, 8), (5, 20), (5, 40), (6, 5), (6, 10),
            (6, 20), (7, 3), (7, 6), (7, 12), (8, 1), (8, 3), (8, 5),
        )
    ],
}

# Native gates per pair gate of each family at the time the benchmark was
# defined. qasm-verify scales its steps by NATIVES_PER_GATE["XY"] / this, so
# every family of a stratum emits about the same number of native gates and
# verify costs about the same. The table is fixed so that the jobs never
# depend on the program's output.
NATIVES_PER_GATE = {"X": 3, "Y": 7, "Z": 3, "XY": 8, "XZ": 4, "YZ": 8}

# Smallest job of each kind, run once untimed before the timed loop.
WARMUP = {
    "compress": [("compress-config", 4, 4), ("compress-qasm", 4, 4)],
    "evolve": [
        ("evolve-all", 3, 5),
        ("evolve-noisy-trotter", 3, 5),
        ("evolve-noisy-compressed", 3, 5),
    ],
    "qasm-verify": [("qasm-verify", 4, 4)],
}

DECK_JOBS = 240      # about the jobs of one 30 s run; a run that outpaces the deck cycles
FAIL_SHARE = 4       # about one verify job in FAIL_SHARE gets a shifted rotation
ROTATION_SHIFT = 1e-3
NOISE = {"p1": 1e-3, "p2": 1e-2, "shots": 32}


@dataclass
class Job:
    key: str
    kind: str
    n: int
    steps: int
    j: tuple[float, float, float]
    dt: float
    config: Path
    other: Path | None = None     # compress QASM input, or the verify reference
    shift: float = 0.0            # nonzero: the verify reference has a shifted rotation
    block: list[str] | None = None  # emitted pair gate that `other` replicates

    def argv(self, out: Path) -> list[list[str]]:
        cfg = str(self.config)
        if self.kind == "compress-config":
            return [["compress", "--config", cfg, "--qasm-out", str(out / "shallow.qasm")]]
        if self.kind == "compress-qasm":
            return [["compress", str(self.other), "--qasm-out", str(out / "shallow.qasm")]]
        if self.kind == "evolve-all":
            return [["evolve", "--config", cfg, "--mode", "all", "--out", str(out / "m.csv")]]
        if self.kind.startswith("evolve-noisy-"):
            mode = self.kind[len("evolve-noisy-"):]
            return [["evolve", "--config", cfg, "--mode", mode, "--out", str(out / "m.csv")]]
        deep = str(out / "deep.qasm")
        return [
            ["evolve", "--config", cfg, "--mode", "trotter", "--out", str(out / "m.csv"),
             "--qasm-out", deep],
            ["verify", deep, str(self.other)],
        ]

    def expected_codes(self) -> list[int]:
        if self.kind == "qasm-verify":
            return [0, 1 if self.shift else 0]
        return [0]

    @property
    def noisy(self) -> bool:
        return self.kind.startswith("evolve-noisy-")


def _couplings(rng: np.random.Generator, family: str) -> tuple[float, float, float]:
    return tuple(
        float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)) if axis in family else 0.0
        for axis in "XYZ"
    )


def _pair_block(j, dt: float) -> list[str]:
    """The emitter's native lines for one Trotter pair gate on qubits (0, 1),
    taken from a two-qubit, one-step circuit."""
    from spinchain.circuit_ir import build_trotter_circuit, to_qasm
    from spinchain.spin_model import CouplingParams, TrotterPlan

    text = to_qasm(build_trotter_circuit(2, CouplingParams(*j), TrotterPlan(dt, dt)))
    return [ln for ln in text.splitlines() if ln and not ln.startswith(("OPENQASM", "include", "qreg"))]


def _check_block(job: Job) -> list[str]:
    """The pair block that the job's QASM input was replicated from must be
    the Trotter pair gate."""
    n, gates = oracle.parse_qasm("\n".join(["qreg q[2];"] + job.block))
    dist = oracle.phase_distance(oracle.circuit_unitary(n, gates), oracle.pair_gate(job.j, job.dt))
    return [] if dist < 1e-10 else [f"emitted pair gate off the oracle by {dist:.3e}"]


_QUBIT = re.compile(r"q\[(\d+)\]")
_ANGLE = re.compile(r"^(r[xz])\(([^)]*)\)")


def trotter_qasm(n: int, steps: int, block: list[str], rng=None, shift: float = 0.0) -> str:
    """QASM of the steps-fold Trotter circuit, pair blocks in emitter order.

    With rng, the pair blocks of every column are shuffled (they act on
    disjoint qubits, so the unitary is unchanged) and, when shift is nonzero,
    one rotation chosen by rng has its angle moved by shift.
    """
    shifted = [
        [_QUBIT.sub(lambda m: f"q[{int(m.group(1)) + p}]", ln) for ln in block]
        for p in range(n - 1)
    ]
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for _ in range(steps):
        for parity in (0, 1):
            pairs = list(range(parity, n - 1, 2))
            if rng is not None:
                rng.shuffle(pairs)
            for p in pairs:
                lines.extend(shifted[p])
    if shift:
        rotations = [i for i, ln in enumerate(lines) if _ANGLE.match(ln)]
        i = rotations[int(rng.integers(len(rotations)))]
        m = _ANGLE.match(lines[i])
        lines[i] = f"{m.group(1)}({float(m.group(2)) + shift:.17g})" + lines[i][m.end():]
    return "\n".join(lines) + "\n"


def _make_job(rng, key: str, kind: str, n: int, steps: int, family: str, fail: bool, inputs: Path) -> Job:
    j = _couplings(rng, family)
    if kind == "qasm-verify":
        steps = round(steps * NATIVES_PER_GATE["XY"] / NATIVES_PER_GATE[family])
    dt = float(rng.uniform(0.05, 0.15))
    cfg = {"J": dict(zip("xyz", j)), "spins": n, "t_final": steps * dt, "dt": dt}
    if kind.startswith("evolve-noisy-"):
        cfg["noise"] = dict(NOISE, seed=int(rng.integers(2**31)))
    job = Job(key, kind, n, steps, j, dt, inputs / f"{key}.json")
    job.config.write_text(json.dumps(cfg), encoding="utf-8")
    if kind == "compress-qasm":
        job.block = _pair_block(j, dt)
        job.other = inputs / f"{key}.qasm"
        job.other.write_text(trotter_qasm(n, steps, job.block), encoding="utf-8")
    elif kind == "qasm-verify":
        job.block = _pair_block(j, dt)
        job.shift = ROTATION_SHIFT if fail else 0.0
        job.other = inputs / f"{key}.other.qasm"
        job.other.write_text(trotter_qasm(n, steps, job.block, rng, job.shift), encoding="utf-8")
    return job


def block_size(workload: str) -> int:
    """Jobs per deck block: one per size stratum."""
    return len(STRATA[workload])


def build(workload: str, seed: int, inputs: Path) -> tuple[list[Job], list[Job]]:
    """(warm-up jobs, deck) for one workload and seed; writes the input files."""
    rng = np.random.default_rng(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    warmup = [
        _make_job(rng, f"w{i}", kind, n, steps, FAMILIES[i], False, inputs)
        for i, (kind, n, steps) in enumerate(WARMUP[workload])
    ]
    deck = []
    strata = STRATA[workload]
    for b in range(-(-DECK_JOBS // len(strata))):
        order = rng.permutation(len(strata))
        fails = set()
        if workload == "qasm-verify":
            fails = set(rng.choice(len(strata), size=round(len(strata) / FAIL_SHARE), replace=False).tolist())
        for pos, s in enumerate(order):
            kinds, n, steps = strata[s]
            kind, family = kinds[(b + s) % len(kinds)], FAMILIES[(b + s) % len(FAMILIES)]
            deck.append(_make_job(rng, f"b{b}j{pos}", kind, n, steps, family, pos in fails, inputs))
    return warmup, deck


# ---- checks ----

def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


class Oracles:
    """Expected values per job, computed once per job and reused."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, str], object] = {}

    def get(self, job: Job, what: str):
        key = (job.key, what)
        if key not in self._cache:
            if what == "block":
                value = _check_block(job)
            elif what == "unitary":
                step = oracle.trotter_step(job.n, job.j, job.dt)
                value = np.linalg.matrix_power(step, job.steps)
            elif what == "exact":
                value = oracle.exact_series(job.n, job.j, job.dt, job.steps)
            else:
                value = oracle.trotter_series(job.n, job.j, job.dt, job.steps)
            self._cache[key] = value
        return self._cache[key]


def check(job: Job, out: Path, stdouts: list[str], oracles: Oracles) -> list[str]:
    """Problems with one finished job's outputs; the exit codes were checked."""
    problems = oracles.get(job, "block") if job.block is not None else []
    if job.kind.startswith("compress-"):
        problems += _check_compress(job, out, stdouts[0], oracles)
    elif job.kind == "evolve-all":
        for mode in ("exact", "trotter", "compressed"):
            problems += _check_csv(job, out / f"m.{mode}.csv", mode, oracles)
    elif job.noisy:
        mode = job.kind[len("evolve-noisy-"):]
        problems += _check_csv(job, out / "m.csv", mode, oracles)
        problems += _check_csv(job, out / "m.noisy.csv", "noisy", oracles)
    else:
        problems += _check_csv(job, out / "m.csv", "trotter", oracles)
        problems += _check_verify(job, stdouts[1])
    return problems


def _check_csv(job: Job, path: Path, mode: str, oracles: Oracles) -> list[str]:
    text = _read(path)
    if text is None:
        return [f"missing {path.name}"]
    if mode == "noisy":
        return oracle.check_series(path.name, text, job.dt, job.steps)
    expected = oracles.get(job, "exact" if mode == "exact" else "trotter")
    tol = oracle.COMPRESSED_TOL if mode == "compressed" else oracle.CSV_TOL
    return oracle.check_series(path.name, text, job.dt, job.steps, expected, tol)


def _check_compress(job: Job, out: Path, stdout: str, oracles: Oracles) -> list[str]:
    try:
        stats = json.loads(stdout.strip().splitlines()[-1])
        before, after = int(stats["gates_before"]), int(stats["gates_after"])
    except (ValueError, IndexError, KeyError, TypeError):
        return [f"no stats line in {stdout!r}"]
    problems = []
    if before != job.steps * (job.n - 1):
        problems.append(f"gates_before {before}, expected {job.steps * (job.n - 1)}")
    bound = job.n * (job.n - 1) // 2
    if after > bound:
        problems.append(f"gates_after {after} exceeds N(N-1)/2 = {bound}")
    text = _read(out / "shallow.qasm")
    if text is None:
        return problems + ["missing shallow.qasm"]
    try:
        n, gates = oracle.parse_qasm(text)
    except oracle.QasmError as exc:
        return problems + [f"shallow.qasm: {exc}"]
    if n != job.n:
        return problems + [f"shallow.qasm has {n} qubits, expected {job.n}"]
    cx = sum(1 for kind, _, _ in gates if kind == "cx")
    if cx > 3 * bound:
        problems.append(f"{cx} cx gates exceed 3 per pair gate of the bound")
    dist = oracle.phase_distance(oracle.circuit_unitary(n, gates), oracles.get(job, "unitary"))
    if not dist <= oracle.COMPRESSED_TOL:
        problems.append(f"compressed unitary off the input by {dist:.3e}")
    return problems


def _check_verify(job: Job, stdout: str) -> list[str]:
    lines = stdout.split()
    if len(lines) != 3 or lines[0] != "distance":
        return [f"unexpected verify output {stdout!r}"]
    verdict = "FAIL" if job.shift else "PASS"
    problems = [] if lines[2] == verdict else [f"verdict {lines[2]}, expected {verdict}"]
    expected = oracle.shifted_rotation_distance(job.n, job.shift)
    dist = float(lines[1])
    if not abs(dist - expected) <= oracle.DISTANCE_TOL:
        problems.append(f"distance {dist!r}, oracle {expected!r}")
    return problems
