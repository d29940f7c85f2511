"""Command-line front end: evolve, compress, and verify workflows."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import _dense
from .circuit_ir import (
    build_trotter_circuit,
    from_qasm,
    recognize_pair_circuit,
    to_qasm,
    unitary_of,
)
from .compressor import ResidualBudgetError, compress
from .simulator import MODES as ENGINE_MODES, NOISY_MODES, NoiseModel, basis_state, run_dynamics
from .spin_model import CouplingParams, HamiltonianClass, TrotterPlan, step_angles
from .ybe import UnsolvedError

MODES = (*ENGINE_MODES, "all")

# ceiling on num_steps x (spins - 1), the pair gates of a job's Trotter circuit
MAX_PAIR_GATES = 10**6

# ceiling on shots x num_steps x (spins - 1), the pair gates of a noisy job's
# shots; it keeps the (num_steps + 1) x shots record of m_s values under 1 GiB
MAX_SHOT_PAIR_GATES = 5 * 10**7


class ConfigError(ValueError):
    """Configuration or input problem; surfaced as a diagnostic with exit 2."""


@dataclass(frozen=True)
class JobConfig:
    """One evolution job: couplings, grid, initial state, optional noise."""

    j: CouplingParams
    spins: int
    plan: TrotterPlan
    init: str = "neel"
    noise: NoiseModel | None = None
    mode: str = "all"


_CONFIG_KEYS = {"J", "class", "strength", "spins", "t_final", "dt", "init", "noise", "mode"}
_NOISE_KEYS = {"p1", "p2", "shots", "seed"}


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {field!r} must be a number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {field!r} must be an integer, got {value!r}")
    return value


def _parse_couplings(data: dict) -> CouplingParams:
    if "J" in data and "class" in data:
        raise ConfigError("config takes either 'J' or 'class', not both")
    if "strength" in data and "class" not in data:
        raise ConfigError("config field 'strength' needs 'class'")
    if "J" in data:
        j = data["J"]
        if not isinstance(j, dict):
            raise ConfigError("config field 'J' must be an object with x, y, z entries")
        unknown = set(j) - {"x", "y", "z"}
        if unknown:
            raise ConfigError(f"unknown axes in config field 'J': {', '.join(sorted(unknown))}")
        return CouplingParams(*(_number(j.get(axis, 0.0), f"J.{axis}") for axis in "xyz"))
    if "class" in data:
        name = data["class"]
        try:
            klass = HamiltonianClass(str(name).upper())
        except ValueError:
            raise ConfigError(f"config field 'class' must name a coupling family, got {name!r}") from None
        strength = _number(data.get("strength", 1.0), "strength")
        return CouplingParams(
            *(strength if axis in klass.axes else 0.0 for axis in "xyz")
        )
    raise ConfigError("config needs either 'J' or 'class'")


def _read(path: Path) -> str:
    """The text of an input file; a file that is not UTF-8 is an error that
    names it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


def load_config(path: Path) -> JobConfig:
    text = _read(path)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    for field in ("spins", "t_final", "dt"):
        if field not in data:
            raise ConfigError(f"config field {field!r} is required")
    spins = _integer(data["spins"], "spins")
    j = _parse_couplings(data)
    t_final = _number(data["t_final"], "t_final")
    dt = _number(data["dt"], "dt")
    noise = None
    if "noise" in data:
        nd = data["noise"]
        if not isinstance(nd, dict):
            raise ConfigError("config field 'noise' must be an object")
        bad = set(nd) - _NOISE_KEYS
        if bad:
            raise ConfigError(f"unknown noise field(s): {', '.join(sorted(bad))}")
        try:
            noise = NoiseModel(
                _number(nd.get("p1", 0.0), "noise.p1"),
                _number(nd.get("p2", 0.0), "noise.p2"),
                _integer(nd.get("shots", 8192), "noise.shots"),
                _integer(nd.get("seed", 0), "noise.seed"),
            )
        except ValueError as exc:
            raise ConfigError(f"config field 'noise': {exc}") from None
    mode = data.get("mode", "all")
    if mode not in MODES:
        raise ConfigError(f"config field 'mode' must be one of {MODES}, got {mode!r}")
    try:
        plan = TrotterPlan(t_final, dt)
        step_angles(j, dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if spins < 2:
        raise ConfigError(f"config field 'spins' must be at least 2, got {spins}")
    init = data.get("init", "neel")
    if not isinstance(init, str) or (init != "neel" and not init.startswith("basis:")):
        raise ConfigError("config field 'init' must be 'neel' or 'basis:<bitstring>'")
    if init.startswith("basis:"):
        bits = init[len("basis:") :]
        if len(bits) != spins or any(ch not in "01" for ch in bits):
            raise ConfigError(
                f"config field 'init' needs a basis bitstring of {spins} 0/1 characters"
            )
    pair_gates = plan.num_steps * (spins - 1)
    if pair_gates > MAX_PAIR_GATES:
        raise ConfigError(
            f"job too large: t_final/dt = {plan.num_steps:.6g} steps x {spins - 1} pairs exceeds "
            f"{MAX_PAIR_GATES} pair gates"
        )
    if noise is not None and noise.shots * pair_gates > MAX_SHOT_PAIR_GATES:
        raise ConfigError(
            f"job too large: {noise.shots} shots x {plan.num_steps} steps x {spins - 1} pairs "
            f"exceeds {MAX_SHOT_PAIR_GATES} noisy pair gates"
        )
    return JobConfig(j, spins, plan, init, noise, mode)


def _init_state(cfg: JobConfig):
    if cfg.init == "neel":
        return None
    return basis_state(cfg.spins, cfg.init[len("basis:") :])


# ---- commands ----

def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _suffixed(out: Path, tag: str) -> Path:
    return out.with_name(f"{out.stem}.{tag}{out.suffix}")


def _cmd_evolve(args) -> int:
    cfg = load_config(Path(args.config))
    mode = args.mode or cfg.mode
    noise = cfg.noise if mode in NOISY_MODES else None
    if args.seed is not None:
        if mode not in NOISY_MODES:
            raise ConfigError(f"--seed needs mode {' or '.join(NOISY_MODES)}, the modes with a noisy series")
        if noise is None:
            raise ConfigError("--seed needs a config with a 'noise' block")
        noise = NoiseModel(noise.p1, noise.p2, noise.shots, args.seed)
    init = _init_state(cfg)
    modes = ENGINE_MODES if mode == "all" else (mode,)
    if mode == "all" and args.out is None:
        raise ConfigError("--out is required with mode=all")
    if noise is not None and args.out is None:
        raise ConfigError("--out is required for the noisy companion series")
    if args.qasm_out is not None and mode not in NOISY_MODES:
        raise ConfigError(f"--qasm-out needs mode {' or '.join(NOISY_MODES)}")
    # one engine call per mode, compressed first: it alone can refuse a
    # coupling family, so others never run in vain
    runs = {m: run_dynamics(cfg.spins, cfg.j, cfg.plan, m, init_state=init, noise=noise) for m in reversed(modes)}
    if mode == "all":
        for m in modes:
            _write(_suffixed(Path(args.out), m), runs[m].to_csv())
        return 0
    run = runs[mode]
    if args.out is None:
        sys.stdout.write(run.to_csv())
    else:
        _write(Path(args.out), run.to_csv())
    if run.noisy is not None:
        _write(_suffixed(Path(args.out), "noisy"), run.noisy.to_csv())
    if args.qasm_out is not None:
        circuit = build_trotter_circuit(cfg.spins, cfg.j, cfg.plan) if run.block is None else run.block.circuit
        _write(Path(args.qasm_out), to_qasm(circuit))
    return 0


def _cmd_compress(args) -> int:
    if (args.qasm_in is None) == (args.config is None):
        raise ConfigError("compress needs exactly one input: a QASM path or --config")
    if args.qasm_in is not None:
        native = from_qasm(_read(Path(args.qasm_in)))
        if native.num_qubits > MAX_PAIR_GATES + 1:
            raise ConfigError(
                f"qreg of {native.num_qubits} qubits exceeds {MAX_PAIR_GATES + 1}, "
                "the longest chain a job config allows"
            )
        circuit = recognize_pair_circuit(native)
    else:
        cfg = load_config(Path(args.config))
        circuit = build_trotter_circuit(cfg.spins, cfg.j, cfg.plan)
    block = compress(circuit)
    _write(Path(args.qasm_out), to_qasm(block.circuit))
    stats = {
        "gates_before": len(circuit.gates),
        "gates_after": block.gate_count,
        "layers": block.alternating_layers,
        "residual": block.residual,
        "ybe_moves": block.ybe_moves,
    }
    print(json.dumps(stats, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be positive and finite, got {args.tol!r}")
    a = from_qasm(_read(Path(args.circuit_a)))
    b = from_qasm(_read(Path(args.circuit_b)))
    if a.num_qubits != b.num_qubits:
        raise ConfigError(
            f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}"
        )
    dist = _dense.phase_distance(unitary_of(a), unitary_of(b))
    ok = dist < args.tol
    print(f"distance {dist:.17g}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: each main call would otherwise rebuild it
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Spin-chain dynamics: Trotter circuits, fixed-depth "
        "compression, and dense verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ev = sub.add_parser("evolve", help="run dynamics and write m_s series CSV")
    p_ev.add_argument("--config", required=True, help="JSON job description")
    p_ev.add_argument("--mode", choices=MODES, help="engine (default from config, else all)")
    p_ev.add_argument("--out", help="CSV output path (mode=all writes suffixed files)")
    p_ev.add_argument("--qasm-out", help="also write the run's circuit as QASM")
    p_ev.add_argument("--seed", type=int, help="override the noise seed")

    p_co = sub.add_parser("compress", help="compress a circuit to fixed depth")
    p_co.add_argument("qasm_in", nargs="?", help="input circuit in the QASM subset")
    p_co.add_argument("--config", help="build the input circuit from a job config")
    p_co.add_argument("--qasm-out", required=True, help="compressed QASM output path")

    p_ve = sub.add_parser("verify", help="compare two QASM circuits up to global phase")
    p_ve.add_argument("circuit_a")
    p_ve.add_argument("circuit_b")
    p_ve.add_argument("--tol", type=float, default=1e-7, help="pass threshold (default 1e-7)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "compress":
            return _cmd_compress(args)
        return _cmd_verify(args)
    except (UnsolvedError, ResidualBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
