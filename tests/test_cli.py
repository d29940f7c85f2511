"""Command-line workflows: evolve, compress, verify, and diagnostics."""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinchain import circuit_ir, cli, compressor
from spinchain._dense import phase_distance
from spinchain.circuit_ir import Circuit, NativeCircuit, PairGate, build_trotter_circuit, from_qasm, to_native, to_qasm, unitary_of
from spinchain.cli import MAX_PAIR_GATES, MAX_SHOT_PAIR_GATES, ConfigError, JobConfig, load_config, main, recognize_pair_circuit
from spinchain.propagators import CONJUGATION_TAGS, NativeGate, RGateParams
from spinchain.spin_model import MAX_ANGLE, Angles3, CouplingParams, TrotterPlan

BASE_CONFIG = {
    "J": {"x": -0.8, "y": -0.2, "z": 0.0},
    "spins": 3,
    "t_final": 0.5,
    "dt": 0.025,
    "init": "neel",
}


def write_config(tmp_path, name="job.json", **overrides):
    data = dict(BASE_CONFIG)
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert isinstance(cfg, JobConfig)
    assert cfg.j == CouplingParams(-0.8, -0.2, 0.0)
    assert cfg.spins == 3
    assert cfg.noise is None
    assert cfg.mode == "all"


def test_load_config_class_form(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"class": "xz", "strength": 0.5, "spins": 4, "t_final": 1.0, "dt": 0.1}),
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.j == CouplingParams(0.5, 0.0, 0.5)


def test_load_config_diagnostics(tmp_path):
    bad = [
        ({"spins": 3}, "t_final"),
        ({**BASE_CONFIG, "extra": 1}, "extra"),
        ({**BASE_CONFIG, "J": {"x": 1, "w": 2}}, "w"),
        ({**BASE_CONFIG, "J": {"x": "one"}}, "J.x"),
        ({**BASE_CONFIG, "spins": 3.5}, "spins"),
        ({**BASE_CONFIG, "init": "updown"}, "init"),
        ({**BASE_CONFIG, "init": "basis:01"}, "init"),
        ({**BASE_CONFIG, "noise": {"p1": 2.0}}, "noise"),
        ({**BASE_CONFIG, "noise": {"chance": 0.1}}, "chance"),
        ({**BASE_CONFIG, "mode": "warp"}, "mode"),
        ({**BASE_CONFIG, "J": {"x": 0.5}, "class": "xy", "strength": 2.0}, "class"),
        ({**BASE_CONFIG, "J": {"x": 0.5}, "strength": 2.0}, "strength"),
    ]
    for data, needle in bad:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert needle in str(err.value)


def test_evolve_single_mode_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "series.csv"
    assert main(["evolve", "--config", str(cfg), "--mode", "exact", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,time,m_s"
    assert len(lines) == 22  # header + 21 grid points
    assert lines[1].startswith("0,0,1")


def test_evolve_stdout_when_no_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["evolve", "--config", str(cfg), "--mode", "exact"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("step,time,m_s\n")


def test_evolve_all_writes_three_files(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run.csv"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    for mode in ("exact", "trotter", "compressed"):
        assert (tmp_path / f"run.{mode}.csv").exists()
    # trotter and compressed series agree closely at this depth
    t = (tmp_path / "run.trotter.csv").read_text(encoding="utf-8")
    c = (tmp_path / "run.compressed.csv").read_text(encoding="utf-8")
    tv = [float(line.split(",")[2]) for line in t.splitlines()[1:]]
    cv = [float(line.split(",")[2]) for line in c.splitlines()[1:]]
    assert max(abs(a - b) for a, b in zip(tv, cv)) < 1e-7


def test_evolve_all_requires_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_evolve_rejects_bad_output_flags_before_running(tmp_path, capsys):
    # each combination fails up front: no file written, nothing on stdout
    plain = write_config(tmp_path, "plain.json")
    noisy = write_config(tmp_path, "noisy.json", noise={"p2": 0.01, "shots": 4, "seed": 1})
    runs = [
        (plain, ["--mode", "all", "--out", "s.csv", "--qasm-out", "c.qasm"], "--qasm-out"),
        (plain, ["--mode", "exact", "--out", "s.csv", "--qasm-out", "c.qasm"], "--qasm-out"),
        (noisy, ["--mode", "trotter"], "--out"),
        (noisy, ["--mode", "compressed", "--qasm-out", "c.qasm"], "--out"),
    ]
    for cfg, flags, needle in runs:
        argv = ["evolve", "--config", str(cfg)]
        argv += [str(tmp_path / f) if f.endswith((".csv", ".qasm")) else f for f in flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.json", "plain.json"]


def test_load_config_rejects_oversized_jobs(tmp_path):
    # num_steps x (spins - 1) pair gates may reach the ceiling, not pass it;
    # only load_config runs, so a missing check allocates nothing
    at_limit = write_config(tmp_path, spins=3, dt=1.0, t_final=MAX_PAIR_GATES / 2)
    assert load_config(at_limit).plan.t_final == MAX_PAIR_GATES / 2
    for overrides in (
        {"spins": 3, "dt": 1.0, "t_final": MAX_PAIR_GATES / 2 + 1},
        {"spins": 3, "dt": 0.1, "t_final": 1e11},
        {"spins": 2, "dt": 1e-300, "t_final": 1e300},
    ):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, **overrides))
        assert "too large" in str(err.value)


def test_load_config_bounds_noisy_shots(tmp_path):
    # shots x num_steps x (spins - 1) may reach the ceiling, not pass it;
    # only load_config runs, so a missing check allocates nothing
    shots = MAX_SHOT_PAIR_GATES // (100 * 2)
    at_limit = dict(spins=3, t_final=100.0, dt=1.0, noise={"p2": 0.01, "shots": shots})
    assert load_config(write_config(tmp_path, **at_limit)).noise.shots == shots
    over = dict(at_limit, noise={"p2": 0.01, "shots": shots + 1})
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, **over))
    assert "too large" in str(err.value)
    # the README job stays well inside it
    readme = dict(spins=3, t_final=2.5, dt=0.025, noise={"p2": 0.01, "shots": 8192})
    assert load_config(write_config(tmp_path, **readme)).noise.shots == 8192


def test_evolve_rejects_too_many_shots_before_running(tmp_path, capsys):
    # no --out: without the ceiling the run would still stop before any shot
    noise = {"p2": 0.01, "shots": MAX_SHOT_PAIR_GATES}
    cfg = write_config(tmp_path, spins=3, t_final=1.0, dt=1.0, noise=noise)
    tracemalloc.start()
    try:
        code = main(["evolve", "--config", str(cfg), "--mode", "trotter"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "noisy pair gates" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]
    assert peak < 1 << 20


def test_negative_seed_exit_2_before_anything_is_written(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", noise={"p2": 0.01, "shots": 4, "seed": -5})
    good = write_config(tmp_path, "good.json", noise={"p2": 0.01, "shots": 4, "seed": 5})
    for cfg, extra in ((bad, []), (good, ["--seed", "-1"])):
        argv = ["evolve", "--config", str(cfg), "--mode", "trotter", "--out", str(tmp_path / "m.csv")]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]


def test_evolve_seed_without_a_noise_block_exit_2(tmp_path, capsys):
    # a seed with nothing to override is a conflicting argument, not ignored
    cfg = write_config(tmp_path)
    argv = ["evolve", "--config", str(cfg), "--mode", "trotter", "--out", str(tmp_path / "m.csv")]
    assert main(argv + ["--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed needs a config with a 'noise' block\n"
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


@pytest.mark.parametrize("mode", ["exact", "all"])
def test_evolve_seed_without_a_noisy_series_exit_2(mode, tmp_path, capsys):
    # only trotter and compressed write .noisy, so a seed in another mode feeds nothing
    cfg = write_config(tmp_path, noise={"p2": 0.01, "shots": 4, "seed": 5})
    argv = ["evolve", "--config", str(cfg), "--mode", mode, "--out", str(tmp_path / "m.csv")]
    assert main(argv + ["--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --seed ")
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


@pytest.mark.parametrize("spins", [-3, 0, 1])
@pytest.mark.parametrize(
    "argv", [["compress", "--qasm-out", "out.qasm"], ["evolve", "--mode", "exact"]]
)
def test_spins_below_two_exit_2_with_one_message(spins, argv, tmp_path, capsys):
    cfg = write_config(tmp_path, spins=spins)
    argv = [str(tmp_path / a) if a.endswith(".qasm") else a for a in argv]
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config field 'spins' must be at least 2, got {spins}\n"
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_importing_the_cli_leaves_scipy_optimize_unloaded(tmp_path):
    # the package needs numpy alone: with scipy blocked, a golden compress job
    # reproduces its bytes and an unsolvable bridge move still ends in
    # UnsolvedError, not an ImportError
    root = Path(__file__).resolve().parents[1]
    golden = root / "tests" / "golden"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from spinchain import cli, ybe\n"
        "rc = cli.main(['compress', '--config', sys.argv[1], '--qasm-out', sys.argv[2]])\n"
        "try:\n"
        "    ybe.solve(((0.3, 4e16), (0.2, 0.1), (0.5, 0.4)))\n"
        "except ybe.UnsolvedError:\n"
        "    print('unsolved')\n"
        "sys.exit(rc)\n"
    )
    qasm_out = tmp_path / "out.qasm"
    argv = [sys.executable, "-c", code, str(golden / "compress_xy.json"), str(qasm_out)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == (golden / "compress_xy.stdout").read_text(encoding="utf-8") + "unsolved\n"
    assert qasm_out.read_bytes() == (golden / "compress_xy.qasm").read_bytes()


@pytest.mark.parametrize(
    "spins, argv",
    [(1, ["compress", "--qasm-out", "out.qasm"]), (0, ["evolve", "--mode", "exact"])],
)
def test_step_count_overflow_exit_2(spins, argv, tmp_path, capsys):
    # t_final/dt overflows to inf; spins - 1 <= 0 pairs keeps the pair-gate
    # ceiling from catching it, so the step rule itself must
    cfg = write_config(tmp_path, spins=spins, J={"x": 1.0}, t_final=1e300, dt=1e-300)
    argv = [str(tmp_path / a) if a.endswith(".qasm") else a for a in argv]
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t_final/dt = inf steps is too large\n"
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_evolve_basis_init_beyond_the_dense_limit_exit_2(tmp_path, capsys):
    # the size diagnostic comes before the 2^40-amplitude initial state exists
    cfg = write_config(tmp_path, spins=40, init="basis:" + "01" * 20, t_final=0.1, dt=0.05)
    tracemalloc.start()
    try:
        code = main(["evolve", "--config", str(cfg), "--mode", "exact"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dense engine supports 2..12 qubits, got 40" in captured.err
    assert peak < 1 << 20


def test_evolve_outputs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["evolve", "--config", str(cfg), "--mode", "compressed", "--out", str(a)])
    main(["evolve", "--config", str(cfg), "--mode", "compressed", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_evolve_noisy_companion_series(tmp_path):
    cfg = write_config(
        tmp_path, noise={"p1": 0.0, "p2": 0.01, "shots": 32, "seed": 7}
    )
    out = tmp_path / "noisy_run.csv"
    assert main(["evolve", "--config", str(cfg), "--mode", "trotter", "--out", str(out)]) == 0
    noisy = tmp_path / "noisy_run.noisy.csv"
    assert noisy.exists()
    lines = noisy.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,time,m_s"
    assert len(lines) == 22
    assert lines[1].startswith("0,0,1")


def test_evolve_seed_override_changes_noisy_series(tmp_path):
    cfg = write_config(tmp_path, noise={"p1": 0.0, "p2": 0.05, "shots": 16, "seed": 7})
    out_a = tmp_path / "s7.csv"
    out_b = tmp_path / "s8.csv"
    main(["evolve", "--config", str(cfg), "--mode", "trotter", "--out", str(out_a)])
    main(
        [
            "evolve",
            "--config",
            str(cfg),
            "--mode",
            "trotter",
            "--out",
            str(out_b),
            "--seed",
            "8",
        ]
    )
    ideal_a = (tmp_path / "s7.csv").read_bytes()
    ideal_b = (tmp_path / "s8.csv").read_bytes()
    assert ideal_a == ideal_b  # the ideal series ignores the seed
    noisy_a = (tmp_path / "s7.noisy.csv").read_bytes()
    noisy_b = (tmp_path / "s8.noisy.csv").read_bytes()
    assert noisy_a != noisy_b


def test_evolve_qasm_out_modes(tmp_path):
    cfg = write_config(tmp_path)
    qasm = tmp_path / "circuit.qasm"
    assert (
        main(
            [
                "evolve",
                "--config",
                str(cfg),
                "--mode",
                "compressed",
                "--out",
                str(tmp_path / "x.csv"),
                "--qasm-out",
                str(qasm),
            ]
        )
        == 0
    )
    native = from_qasm(qasm.read_text(encoding="utf-8"))
    assert native.num_qubits == 3
    # exact mode has no circuit to emit
    code = main(
        [
            "evolve",
            "--config",
            str(cfg),
            "--mode",
            "exact",
            "--out",
            str(tmp_path / "y.csv"),
            "--qasm-out",
            str(tmp_path / "z.qasm"),
        ]
    )
    assert code == 2


# J.y is a zero coupling but its step angle J.y*dt = 1e-10 is not, so the
# step gates are XY gates
STRADDLING_CONFIG = {"J": {"x": 1.0, "y": 1e-13}, "spins": 4, "t_final": 2000, "dt": 1000}


def test_evolve_takes_the_family_from_the_step_angles(tmp_path, capsys):
    cfg = write_config(tmp_path, **STRADDLING_CONFIG)
    assert main(["evolve", "--config", str(cfg), "--mode", "all", "--out", str(tmp_path / "m.csv")]) == 0
    assert capsys.readouterr() == ("", "")
    trotter, compressed = (
        np.loadtxt(tmp_path / f"m.{m}.csv", delimiter=",", skiprows=1) for m in ("trotter", "compressed")
    )
    assert np.max(np.abs(compressed - trotter)) < 1e-12


@pytest.mark.parametrize("source", ["straddling", "golden"])
def test_evolve_compressed_qasm_out_matches_compress(source, tmp_path, capsys):
    if source == "straddling":
        cfg = write_config(tmp_path, **STRADDLING_CONFIG)
    else:
        cfg = GOLDEN / "compress_xy.json"
    evolved, compressed = tmp_path / "evolve.qasm", tmp_path / "compress.qasm"
    assert main(["evolve", "--config", str(cfg), "--mode", "compressed", "--out", str(tmp_path / "m.csv"),
                 "--qasm-out", str(evolved)]) == 0
    assert main(["compress", "--config", str(cfg), "--qasm-out", str(compressed)]) == 0
    capsys.readouterr()
    assert evolved.read_bytes() == compressed.read_bytes()


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("qasm_out", [False, True])
def test_evolve_compressed_runs_one_engine_session(noisy, qasm_out, tmp_path, monkeypatch):
    # the stream's one session feeds the CSV, every 1,024-shot chunk of the
    # noisy series and --qasm-out: 82 bridge solves on the golden XY job
    solves, solve = [], compressor.solve
    monkeypatch.setattr(compressor, "solve", lambda triple: solves.append(triple) or solve(triple))
    data = json.loads((GOLDEN / "compress_xy.json").read_text(encoding="utf-8"))
    if noisy:
        data["noise"] = {"p1": 0.001, "p2": 0.01, "shots": 2500, "seed": 3}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    argv = ["evolve", "--config", str(cfg), "--mode", "compressed", "--out", str(tmp_path / "m.csv")]
    assert main(argv + ["--qasm-out", str(tmp_path / "c.qasm")] * qasm_out) == 0
    assert len(solves) == 82


@pytest.mark.parametrize("mode", ["trotter", "compressed", "all"])
def test_evolve_three_axis_couplings(mode, tmp_path, capsys):
    # no compressible family holds XX + YY + ZZ; the other engines run
    cfg = write_config(tmp_path, J={"x": 0.5, "y": 0.3, "z": 0.2}, spins=3, t_final=0.5, dt=0.1)
    code = main(["evolve", "--config", str(cfg), "--mode", mode, "--out", str(tmp_path / "m.csv")])
    written = sorted(p.name for p in tmp_path.iterdir())
    if mode == "trotter":
        assert code == 0
        assert written == ["job.json", "m.csv"]
    else:
        assert code == 2
        assert "three-axis couplings are outside the compressible families" in capsys.readouterr().err
        assert written == ["job.json"]


def test_evolve_all_refuses_three_axis_couplings_before_other_engines(tmp_path, capsys, monkeypatch):
    # the compressed engine alone can refuse a family, so it runs first
    attempted, run_dynamics = [], cli.run_dynamics

    def spy(n, j, plan, mode, **kwargs):
        attempted.append(mode)
        return run_dynamics(n, j, plan, mode, **kwargs)

    monkeypatch.setattr(cli, "run_dynamics", spy)
    cfg = write_config(tmp_path, J={"x": 0.5, "y": 0.3, "z": 0.2}, spins=10, t_final=10, dt=0.01)
    assert main(["evolve", "--config", str(cfg), "--mode", "all", "--out", str(tmp_path / "m.csv")]) == 2
    assert "three-axis couplings are outside the compressible families" in capsys.readouterr().err
    assert attempted == ["compressed"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize("name, extra", [
    ("evolve_noisy_trotter", ["--seed", "9"]),
    ("evolve_noisy_compressed", ["--seed", "9"]),
    ("evolve_noisy_trotter", ["--mode", "all"]),
])
def test_evolve_makes_one_engine_call_per_mode(name, extra, tmp_path, monkeypatch):
    # a mode's series, noisy companion and block come from one run_dynamics
    # call, mode positional where the tracer reads it; the config's noise
    # block serves a single noisy mode, never mode all
    calls, run_dynamics = [], cli.run_dynamics

    def spy(*args, **kwargs):
        calls.append((args[3], kwargs.get("noise")))
        return run_dynamics(*args, **kwargs)

    monkeypatch.setattr(cli, "run_dynamics", spy)
    config = GOLDEN / f"{name}.json"
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "m.csv"), *extra]) == 0
    cfg = load_config(config)
    if "all" in extra:
        assert calls == [("compressed", None), ("trotter", None), ("exact", None)]
    else:
        assert calls == [(cfg.mode, dataclasses.replace(cfg.noise, seed=9))]


def test_compress_from_config_stats(tmp_path, capsys):
    cfg = write_config(tmp_path)
    qasm_out = tmp_path / "compressed.qasm"
    assert main(["compress", "--config", str(cfg), "--qasm-out", str(qasm_out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert set(stats) == {"gates_before", "gates_after", "layers", "residual", "ybe_moves"}
    assert stats["gates_before"] == 40  # 20 steps x 2 gates
    assert stats["gates_after"] <= 3
    assert stats["residual"] < 1e-9
    assert qasm_out.exists()


def test_traced_compress_records_one_analytic_solve_span_per_move(tmp_path, capsys):
    # the benchmark's tracer reads each ybe.solve result as (method, residual),
    # and its traced compress run checks the span count against ybe_moves
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cfg = write_config(tmp_path, spins=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["compress", "--config", str(cfg), "--qasm-out", str(tmp_path / "c.qasm")]) == 0
    finally:
        tracer.uninstall()
    stats = json.loads(capsys.readouterr().out)
    solves = [s for s in tracer.spans if s.name == "ybe.solve"]
    assert stats["ybe_moves"] > 0
    assert len(solves) == stats["ybe_moves"]
    for span in solves:
        method, residual = span.detail
        assert method == "analytic"
        assert residual < 1e-12


def test_compress_from_qasm_round_trip(tmp_path, capsys):
    j = CouplingParams(-0.8, -0.2, 0.0)
    circuit = build_trotter_circuit(3, j, TrotterPlan(0.25, 0.025))
    qasm_in = tmp_path / "deep.qasm"
    qasm_in.write_text(to_qasm(circuit), encoding="utf-8")
    qasm_out = tmp_path / "shallow.qasm"
    assert main(["compress", str(qasm_in), "--qasm-out", str(qasm_out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["gates_before"] == len(circuit.gates)
    shallow = from_qasm(qasm_out.read_text(encoding="utf-8"))
    assert phase_distance(unitary_of(shallow), unitary_of(circuit)) < 1e-7


def test_compress_from_qasm_with_mixed_conjugation_tags(tmp_path, capsys):
    # an XY-family circuit with one y = 0 gate: QASM emission writes one u2
    # and one untagged gate, and compress must still read both as XY gates
    c = Circuit(3, (PairGate(0, Angles3(0.3, 0.2, 0.0)), PairGate(1, Angles3(0.3, 0.0, 0.0))))
    deep, shallow = tmp_path / "deep.qasm", tmp_path / "shallow.qasm"
    deep.write_text(to_qasm(c), encoding="utf-8")
    assert main(["compress", str(deep), "--qasm-out", str(shallow)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["gates_after"] == 2
    assert main(["verify", str(shallow), str(deep)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


@pytest.mark.parametrize(
    "spins, t_final, stats",
    [
        # one step on a long chain: template emission walks a 1999-letter word
        pytest.param(2000, 1, {"gates_after": 1999, "layers": 1, "ybe_moves": 0}, id="emit"),
        # the first step past N/2 merges gates into the full 1035-letter word
        pytest.param(46, 24, {"gates_after": 1035}, id="absorb"),
    ],
)
def test_compress_long_words_exit_0(spins, t_final, stats, tmp_path, capsys):
    # word rewrites recurse per neighbouring-pair level, not per letter, so
    # words far longer than the interpreter's recursion limit still compress
    cfg = write_config(tmp_path, spins=spins, J={"x": -0.8, "y": -0.2}, t_final=t_final, dt=1)
    assert main(["compress", "--config", str(cfg), "--qasm-out", str(tmp_path / "o.qasm")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert stats.items() <= json.loads(out).items()


def test_compress_requires_exactly_one_input(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compress", "--qasm-out", str(tmp_path / "o.qasm")]) == 2
    assert (
        main(
            [
                "compress",
                "x.qasm",
                "--config",
                str(cfg),
                "--qasm-out",
                str(tmp_path / "o.qasm"),
            ]
        )
        == 2
    )


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "family, source",
    [
        pytest.param(family, source, id=family if source == "config" else f"{family}-{source}")
        for source in ("config", "qasm", "compressed")
        for family in ("x", "y", "z", "xy", "xz", "yz")
    ],
)
def test_compress_output_matches_golden_bytes(family, source, tmp_path, capsys):
    # N = 5, 10 steps per coupling family; QASM text and stats line
    # (residual included) must stay byte-identical through rewrites. The
    # QASM input is the same job's Trotter circuit (evolve --mode trotter
    # --qasm-out); recognising it yields the same compressed bytes. Fed its
    # own output, compress is a byte fixed point: its 10 gates, on 3 layers,
    # come back unchanged with no bridge move.
    qasm_out = tmp_path / "out.qasm"
    argv = {
        "config": ["--config", str(GOLDEN / f"compress_{family}.json")],
        "qasm": [str(GOLDEN / f"trotter_{family}.qasm")],
        "compressed": [str(GOLDEN / f"compress_{family}.qasm")],
    }[source]
    assert main(["compress", *argv, "--qasm-out", str(qasm_out)]) == 0
    if source == "compressed":
        stats = '{"gates_after": 10, "gates_before": 10, "layers": 3, "residual": 0.0, "ybe_moves": 0}\n'
    else:
        stats = (GOLDEN / f"compress_{family}.stdout").read_text(encoding="utf-8")
    assert capsys.readouterr().out == stats
    assert qasm_out.read_bytes() == (GOLDEN / f"compress_{family}.qasm").read_bytes()


@pytest.mark.parametrize("family", ["x", "y", "z", "xy", "xz", "yz", "xyz"])
def test_evolve_trotter_qasm_matches_golden_bytes(family, tmp_path, capsys):
    # the emitter's Angles3 blocks: a two-axis family's R(gamma, delta)
    # circuit, the 3-CX circuit for three-axis couplings (N = 4, 3 steps)
    config = GOLDEN / (f"trotter_{family}.json" if family == "xyz" else f"compress_{family}.json")
    qasm_out = tmp_path / "trotter.qasm"
    assert main(["evolve", "--config", str(config), "--mode", "trotter", "--out", str(tmp_path / "m.csv"),
                 "--qasm-out", str(qasm_out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert qasm_out.read_bytes() == (GOLDEN / f"trotter_{family}.qasm").read_bytes()


@pytest.mark.parametrize("name", ["evolve_all", "evolve_noisy_trotter", "evolve_noisy_compressed",
                                  "evolve_noisy_heavy_trotter", "evolve_noisy_heavy_compressed"])
def test_evolve_output_matches_golden_bytes(name, tmp_path, capsys):
    # N = 4, mode from the config: all three noiseless CSVs, and the
    # noiseless plus .noisy CSV of a 64-shot trotter and compressed job; the
    # heavy pair, N = 5 XY at p1 = 0.2 and p2 = 0.5 with 16 shots, has most
    # gates erring in some shot, so it pins the Pauli of every error event
    assert main(["evolve", "--config", str(GOLDEN / f"{name}.json"),
                 "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert capsys.readouterr() == ("", "")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob(f"{name}.*csv"))
    for fname in written:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname


def test_compress_over_the_residual_budget_exit_2(tmp_path, capsys, monkeypatch):
    # with no budget the first move with a nonzero residual trips the guard,
    # in the engine and through the CLI, which then writes nothing
    monkeypatch.setattr(compressor, "RESIDUAL_BUDGET", 0.0)
    config = GOLDEN / "compress_xy.json"
    cfg = load_config(config)
    with pytest.raises(compressor.ResidualBudgetError):
        compressor.compress(build_trotter_circuit(cfg.spins, cfg.j, cfg.plan))
    qasm_out = tmp_path / "out.qasm"
    assert main(["compress", "--config", str(config), "--qasm-out", str(qasm_out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: accumulated residual")
    assert captured.out == ""
    assert not qasm_out.exists()


def test_compress_keeps_gates_with_angles_near_pi(tmp_path, capsys):
    # J.x * dt sits within 3.1e-5 of -pi; the compressed circuit must still
    # verify against the Trotter circuit from both compress inputs
    cfg = tmp_path / "near_pi.json"
    cfg.write_text(
        json.dumps({"spins": 3, "J": {"x": -31.4157, "z": 0.5}, "t_final": 0.2, "dt": 0.1}),
        encoding="utf-8",
    )
    trot = tmp_path / "trot.qasm"
    argv = ["evolve", "--config", str(cfg), "--mode", "trotter", "--out", str(tmp_path / "m.csv")]
    assert main(argv + ["--qasm-out", str(trot)]) == 0
    for source in (["--config", str(cfg)], [str(trot)]):
        comp = tmp_path / "comp.qasm"
        assert main(["compress", *source, "--qasm-out", str(comp)]) == 0
        capsys.readouterr()
        assert main(["verify", str(trot), str(comp)]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")


def test_recognize_pair_circuit_matches_source():
    rng = np.random.default_rng(31)
    for jraw in ((0.7, 0.0, 0.0), (0.0, 0.4, 0.0), (0.0, 0.0, 0.9), (0.5, -0.3, 0.0), (0.5, 0.0, -0.3), (0.0, 0.5, -0.3)):
        j = CouplingParams(*jraw)
        c = build_trotter_circuit(int(rng.integers(2, 5)), j, TrotterPlan(0.1, 0.05))
        native = to_native(c)
        rebuilt = recognize_pair_circuit(native)
        assert phase_distance(unitary_of(rebuilt), unitary_of(c)) < 1e-10
    # every tag with every two-CX core shape (both rotations, rx alone, rz
    # alone), the identity gate (0, 0) and parameters of 5e-10, on both pairs
    shapes = set()
    for tag in ("none", "u1", "u2"):
        for params in ((0.3, -0.2), (0.3, 0.0), (0.0, -0.2), (0.0, 0.0), (5e-10, -0.2), (0.3, 5e-10), (5e-10, 5e-10)):
            c = Circuit(3, tuple(PairGate(p, RGateParams(*params), tag) for p in (0, 1)))
            native = to_native(c)
            shapes.add((tag, tuple(g.kind for g in native.gates[: len(native.gates) // 2])))
            rebuilt = recognize_pair_circuit(native)
            assert rebuilt.gates == c.gates
            assert phase_distance(unitary_of(rebuilt), unitary_of(c)) < 1e-10
    assert len(shapes) == 9
    # a block is recognised only as the emitter writes it: a sandwich angle
    # off by 1e-13, or the two commuting head rotations swapped, is rejected
    # although the unitary is within 1e-10 of an R gate
    u1 = to_native(Circuit(2, (PairGate(0, RGateParams(0.3, -0.2), "u1"),))).gates
    nudged = (NativeGate("rz", (0,), -(math.pi / 2 + 1e-13)), *u1[1:])
    u2 = to_native(Circuit(2, (PairGate(0, RGateParams(0.3, -0.2), "u2"),))).gates
    swapped = (u2[1], u2[0], *u2[2:])
    assert swapped != u2
    for gates in (nudged, swapped):
        with pytest.raises(ValueError, match="unrecognized gate structure at native gate 0;"):
            recognize_pair_circuit(NativeCircuit(2, gates))
    # a block's first gate names its tag, so no two tags may share a head kind
    assert sorted(circuit_ir._HEAD_TAG.values()) == sorted(CONJUGATION_TAGS)
    # blocks of all three tags interleaved on different pairs come back gate for gate
    mixed = Circuit(4, tuple(
        PairGate(p, RGateParams(0.1 * (k + 1), 0.07 * k - 0.2), tag)
        for k, (p, tag) in enumerate(((0, "u2"), (2, "none"), (1, "u1"), (0, "none"), (2, "u1"), (1, "u2"), (2, "u2")))
    ))
    assert recognize_pair_circuit(to_native(mixed)).gates == mixed.gates
    # a u2 head before a u1 block's body, after one good block, is rejected at
    # the index of the bad block
    good = to_native(Circuit(3, (PairGate(1, RGateParams(0.3, -0.2)),))).gates
    u1 = to_native(Circuit(3, (PairGate(1, RGateParams(0.3, -0.2), "u1"),))).gates
    u2 = to_native(Circuit(3, (PairGate(1, RGateParams(0.3, -0.2), "u2"),))).gates
    with pytest.raises(ValueError, match=f"unrecognized gate structure at native gate {len(good)};"):
        recognize_pair_circuit(NativeCircuit(3, (*good, *u2[:2], *u1[2:])))


def test_recognize_pair_circuit_reports_the_corrupt_copy_of_a_repeated_block(tmp_path, capsys):
    # each distinct pair gate's block is built once per call; a repeat of it
    # must still be checked where it stands. The XY golden repeats pair gate 0
    # as pair gate 4, and each block is 8 native gates long, so the second
    # copy of that block starts at native gate 32
    golden = Path(__file__).parent / "golden" / "trotter_xy.qasm"
    lines = golden.read_text(encoding="utf-8").splitlines()
    circuit = recognize_pair_circuit(from_qasm("\n".join(lines)))
    assert circuit.gates[4] == circuit.gates[0]
    assert all(len(circuit_ir._pair_gate_native(g)) == 8 for g in circuit.gates[:4])
    head = 3  # OPENQASM, include and qreg come before native gate 0
    last = head + 32 + 7  # the closing sandwich gate of the second copy
    assert lines[last] == lines[head + 7] == "rx(1.5707963267948966) q[1];"
    lines[last] = "rz(1.5707963267948966) q[1];"
    with pytest.raises(ValueError, match="unrecognized gate structure at native gate 32;"):
        recognize_pair_circuit(from_qasm("\n".join(lines)))
    corrupt = tmp_path / "corrupt.qasm"
    corrupt.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["compress", str(corrupt), "--qasm-out", str(tmp_path / "out.qasm")]) == 2
    assert "at native gate 32;" in capsys.readouterr().err


def test_compress_refuses_the_emitters_three_axis_circuit(tmp_path, capsys):
    # trotter_xyz.qasm is the emitter's own output, in 3-CX blocks, so the
    # diagnostic must not claim it is not; it names what compress reads
    out = tmp_path / "out.qasm"
    assert main(["compress", str(GOLDEN / "trotter_xyz.qasm"), "--qasm-out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: unrecognized gate structure at native gate 0; expected the QASM emitter's "
        "pair-gate blocks of a one- or two-axis family (three-axis circuits cannot be compressed)\n"
    )
    assert not out.exists()


def test_compress_rejects_a_qreg_longer_than_any_job(tmp_path, capsys):
    # a job config allows at most MAX_PAIR_GATES + 1 spins (one step); a
    # longer qreg exits 2 before any per-qubit slot is allocated
    deep, shallow = tmp_path / "deep.qasm", tmp_path / "shallow.qasm"
    for size, code in ((10**20, 2), (MAX_PAIR_GATES + 2, 2), (MAX_PAIR_GATES + 1, 0)):
        deep.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{size}];\n', encoding="utf-8")
        assert main(["compress", str(deep), "--qasm-out", str(shallow)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error:")
            assert not shallow.exists()
        else:
            assert captured.err == ""
            assert json.loads(captured.out)["gates_after"] == 0
            assert from_qasm(shallow.read_text(encoding="utf-8")).num_qubits == MAX_PAIR_GATES + 1


def test_compress_one_gate_on_a_wide_qreg_is_linear(tmp_path, capsys):
    # the template peel stops once the permutation is sorted, so one gate on
    # a 100,000-qubit qreg takes well under a second; scanning all N rounds
    # would take minutes
    n = 100_000
    deep, shallow = tmp_path / "deep.qasm", tmp_path / "shallow.qasm"
    deep.write_text(to_qasm(Circuit(n, (PairGate(54_321, Angles3(0.3, -0.2, 0.0)),))), encoding="utf-8")
    start = time.perf_counter()
    assert main(["compress", str(deep), "--qasm-out", str(shallow)]) == 0
    assert time.perf_counter() - start < 30.0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["gates_before"], stats["gates_after"], stats["ybe_moves"]) == (1, 1, 0)
    (g,) = recognize_pair_circuit(from_qasm(shallow.read_text(encoding="utf-8"))).gates
    assert g.pair == 54_321


def test_verify_pass_and_fail(tmp_path, capsys):
    j = CouplingParams(-0.8, -0.2, 0.0)
    a = build_trotter_circuit(3, j, TrotterPlan(0.1, 0.05))
    b = build_trotter_circuit(3, j, TrotterPlan(0.1, 0.025))
    pa = tmp_path / "a.qasm"
    pb = tmp_path / "b.qasm"
    pc = tmp_path / "c.qasm"
    pa.write_text(to_qasm(a), encoding="utf-8")
    pb.write_text(to_qasm(a), encoding="utf-8")
    pc.write_text(to_qasm(b), encoding="utf-8")
    assert main(["verify", str(pa), str(pb)]) == 0
    out = capsys.readouterr().out
    assert "distance" in out and "PASS" in out
    assert main(["verify", str(pa), str(pc)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_tolerance_flag(tmp_path, capsys):
    j = CouplingParams(0.3, 0.0, 0.0)
    a = build_trotter_circuit(2, j, TrotterPlan(0.1, 0.1))
    b = build_trotter_circuit(2, CouplingParams(0.3 + 1e-9, 0.0, 0.0), TrotterPlan(0.1, 0.1))
    pa = tmp_path / "a.qasm"
    pb = tmp_path / "b.qasm"
    pa.write_text(to_qasm(a), encoding="utf-8")
    pb.write_text(to_qasm(b), encoding="utf-8")
    assert main(["verify", str(pa), str(pb), "--tol", "1e-6"]) == 0
    assert main(["verify", str(pa), str(pb), "--tol", "1e-14"]) == 1
    # a tolerance that is not a positive finite number is a usage error
    for tol in ("nan", "-1", "0", "inf", "-inf"):
        capsys.readouterr()
        assert main(["verify", str(pa), str(pb), f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err


def test_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["evolve", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[2];\nfancy q[0];\n", encoding="utf-8")
    assert main(["verify", str(bad), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    def error_line(argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    no_j = {k: v for k, v in BASE_CONFIG.items() if k != "J"}
    for text, message in (
        ("not json", f"config {tmp_path / 'bad.json'}: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
        ("[1]", "config root must be a JSON object"),
        (json.dumps({**BASE_CONFIG, "J": [1, 2, 3]}), "config field 'J' must be an object with x, y, z entries"),
        (json.dumps({**no_j, "class": "xq"}), "config field 'class' must name a coupling family, got 'xq'"),
        (json.dumps(no_j), "config needs either 'J' or 'class'"),
        (json.dumps({**BASE_CONFIG, "noise": 0.1}), "config field 'noise' must be an object"),
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text, encoding="utf-8")
        assert error_line(["evolve", "--config", str(cfg)]) == f"error: {message}\n"
    two, three = tmp_path / "two.qasm", tmp_path / "three.qasm"
    two.write_text("OPENQASM 2.0;\nqreg q[2];\n", encoding="utf-8")
    three.write_text("OPENQASM 2.0;\nqreg q[3];\n", encoding="utf-8")
    assert error_line(["verify", str(two), str(three)]) == "error: qubit counts differ: 2 vs 3\n"
    for text, message in (
        ("OPENQASM 2.0;\nqreg q[2];\nrx(abc) q[0];\n", "line 3, column 1: bad angle expression 'abc'"),
        ("OPENQASM 3.0;\nqreg q[2];\n", "line 1, column 1: unsupported version in 'OPENQASM 3.0'"),
        ("OPENQASM 2.0;\nqreg q;\n", "line 2, column 1: bad qreg declaration 'qreg q'"),
    ):
        bad.write_text(text, encoding="utf-8")
        assert error_line(["verify", str(bad), str(bad)]) == f"error: {message}\n"


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, past its nesting limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for command in ("evolve", "compress"):
        assert main([command, "--config", str(deep), "--qasm-out", str(tmp_path / "out.qasm")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config {deep}: invalid JSON (maximum recursion depth")
    assert not (tmp_path / "out.qasm").exists()


@pytest.mark.parametrize("command", ["evolve", "compress-config", "compress-qasm", "verify"])
def test_input_that_is_not_utf8_exits_2_naming_its_path(command, tmp_path, capsys):
    # with two verify inputs the message must say which one is bad
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b'{"spins": 3}\xff')
    out = str(tmp_path / "out.qasm")
    argv = {
        "evolve": ["evolve", "--config", str(bad)],
        "compress-config": ["compress", "--config", str(bad), "--qasm-out", out],
        "compress-qasm": ["compress", str(bad), "--qasm-out", out],
        "verify": ["verify", str(GOLDEN / "trotter_x.qasm"), str(bad)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out.qasm").exists()


def test_angles_beyond_the_bound_exit_2(tmp_path, capsys):
    # a step angle of 1e9 rad carries no precision: exit 2 before any solve or output
    cfg = write_config(tmp_path, J={"x": 1e10, "z": 0.7}, spins=4, t_final=0.4, dt=0.1)
    for argv in (["compress", "--config", str(cfg)], ["evolve", "--config", str(cfg), "--mode", "trotter"]):
        assert main([*argv, "--qasm-out", str(tmp_path / "out.qasm")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "J.x*dt = 1000000000.0" in captured.err
    assert not (tmp_path / "out.qasm").exists()
    qasm = tmp_path / "big.qasm"
    qasm.write_text(
        f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nrx({math.nextafter(MAX_ANGLE, 2e6)!r}) q[0];\n',
        encoding="utf-8",
    )
    assert main(["verify", str(qasm), str(qasm)]) == 2
    assert "line 4, column 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "trotter", "compressed", "all"])
def test_angles_beyond_the_bound_exit_2_in_every_mode(mode, tmp_path, capsys):
    # the exact engine builds no circuit, so the bound is checked on the config
    cfg = write_config(tmp_path, J={"x": 1e300, "z": 0.7}, spins=3, t_final=0.4, dt=0.1, mode=mode)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "J.x*dt = 1e+299" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_angles_at_the_bound_round_trip(tmp_path, capsys):
    # step angle MAX_ANGLE / 2 emits native rotations of MAX_ANGLE, which read back
    cfg = write_config(tmp_path, J={"x": MAX_ANGLE, "z": 0.7}, spins=4, t_final=2.0, dt=0.5)
    trotter, shallow = tmp_path / "trotter.qasm", tmp_path / "shallow.qasm"
    assert main(["evolve", "--config", str(cfg), "--mode", "trotter", "--out", str(tmp_path / "t.csv"),
                 "--qasm-out", str(trotter)]) == 0
    assert f"rx({-MAX_ANGLE:.17g})" in trotter.read_text(encoding="utf-8")
    assert main(["compress", str(trotter), "--qasm-out", str(shallow)]) == 0
    capsys.readouterr()
    assert main(["verify", str(shallow), str(trotter)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 2
