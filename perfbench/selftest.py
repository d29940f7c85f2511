"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one small job of every kind, confirms that its true outputs pass, then
corrupts one output at a time (an angle in the compressed QASM, a CSV value,
the verdict, an exit code, a repeated run's bytes) and confirms that the
checks reject each corrupted copy. Also confirms that the benchmark's QASM
replication of a Trotter circuit is byte-identical to the package's own
emitter. Prints one line per case and exits 1 if any case misbehaves.
"""

import contextlib
import dataclasses
import re
import shutil
import sys
from pathlib import Path

import numpy as np

import run

cli = run.import_cli()

import oracle  # noqa: E402
import workloads  # noqa: E402
from spinchain.circuit_ir import build_trotter_circuit, to_qasm  # noqa: E402
from spinchain.spin_model import CouplingParams, TrotterPlan  # noqa: E402

WORK = run.ROOT / ".bench_work" / "selftest"


def _edit(path: Path, fn) -> None:
    path.write_text(fn(path.read_text(encoding="utf-8")), encoding="utf-8")


def _bump_angle(text: str) -> str:
    m = re.search(r"r[xz]\(([^)]*)\)", text)
    return text[: m.start(1)] + repr(float(m.group(1)) + 1e-4) + text[m.end(1):]


def _bump_csv(row: int, delta: float):
    def fn(text: str) -> str:
        lines = text.splitlines()
        step, t, m = lines[row + 1].split(",")
        lines[row + 1] = f"{step},{t},{float(m) + delta!r}"
        return "\n".join(lines) + "\n"
    return fn


def _set_csv(row: int, value: str):
    def fn(text: str) -> str:
        lines = text.splitlines()
        step, t, _ = lines[row + 1].split(",")
        lines[row + 1] = f"{step},{t},{value}"
        return "\n".join(lines) + "\n"
    return fn


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "in").mkdir(parents=True)
    rng = np.random.default_rng(7)
    oracles = workloads.Oracles()
    bad = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal bad
        bad += not ok
        print(f"{'ok  ' if ok else 'BAD '} {name}{': ' + detail if detail else ''}")

    def job(key, kind, n, steps, family, fail=False):
        return workloads._make_job(rng, key, kind, n, steps, family, fail, WORK / "in")

    def variant(ex, name, edit=None, **changes):
        """A copy of ex with its outputs copied and one of them corrupted."""
        out = WORK / "mut" / name
        shutil.copytree(ex.out, out)
        if edit is not None:
            _edit(out / edit[0], edit[1])
        return dataclasses.replace(ex, out=out, **changes)

    try:
        # replication of the emitter, per family
        for family in workloads.FAMILIES:
            j = workloads._couplings(rng, family)
            mine = workloads.trotter_qasm(5, 3, workloads._pair_block(j, 0.1))
            theirs = to_qasm(build_trotter_circuit(5, CouplingParams(*j), TrotterPlan(0.3, 0.1)))
            report(f"replicated QASM equals the emitter ({family})", mine == theirs)

        cases = {
            "compress-config": job("cc", "compress-config", 4, 8, "XZ"),
            "compress-qasm": job("cq", "compress-qasm", 4, 8, "XY"),
            "evolve-all": job("ea", "evolve-all", 3, 10, "YZ"),
            "evolve-noisy-trotter": job("et", "evolve-noisy-trotter", 3, 10, "XY"),
            "evolve-noisy-compressed": job("ec", "evolve-noisy-compressed", 3, 6, "Z"),
            "verify-pass": job("vp", "qasm-verify", 5, 4, "XY"),
            "verify-fail": job("vf", "qasm-verify", 5, 4, "Y", fail=True),
        }
        execs = {name: run.execute(cli, j, WORK / "out" / name) for name, j in cases.items()}
        for name, ex in execs.items():
            problems = run.problems_of(ex, oracles)
            report(f"true outputs pass ({name})", not problems, "; ".join(problems))

        stats_line = execs["compress-config"].stdouts[0]
        mutants = [
            variant(execs["compress-config"], "angle", ("shallow.qasm", _bump_angle)),
            variant(execs["compress-qasm"], "angle-qasm", ("shallow.qasm", _bump_angle)),
            variant(execs["compress-config"], "gates-after",
                    stdouts=[re.sub(r'"gates_after": \d+', '"gates_after": 7', stats_line)]),
            variant(execs["compress-config"], "gates-before",
                    stdouts=[re.sub(r'"gates_before": \d+', '"gates_before": 9', stats_line)]),
            variant(execs["evolve-all"], "exact", ("m.exact.csv", _bump_csv(4, 1e-8))),
            variant(execs["evolve-all"], "trotter", ("m.trotter.csv", _bump_csv(7, 1e-8))),
            variant(execs["evolve-all"], "compressed", ("m.compressed.csv", _bump_csv(2, 1e-6))),
            variant(execs["evolve-all"], "neel", ("m.exact.csv", _set_csv(0, "0.99999999999999989"))),
            variant(execs["evolve-all"], "rows", ("m.trotter.csv", lambda t: t.rsplit("\n", 2)[0] + "\n")),
            variant(execs["evolve-noisy-trotter"], "noisy-range", ("m.noisy.csv", _set_csv(3, "1.01"))),
            variant(execs["evolve-noisy-trotter"], "noisy-trotter", ("m.csv", _bump_csv(5, 1e-8))),
            variant(execs["evolve-noisy-compressed"], "noisy-compressed", ("m.csv", _bump_csv(5, 1e-6))),
            variant(execs["verify-pass"], "verdict",
                    stdouts=[execs["verify-pass"].stdouts[0],
                             execs["verify-pass"].stdouts[1].replace("PASS", "FAIL")]),
            variant(execs["verify-fail"], "distance",
                    stdouts=[execs["verify-fail"].stdouts[0],
                             re.sub(r"distance \S+", "distance 0.5", execs["verify-fail"].stdouts[1])]),
            variant(execs["verify-fail"], "exit-code", codes=[0, 0]),
            variant(execs["verify-pass"], "trace", stderrs=["", "Traceback (most recent call last):\n"]),
            variant(execs["verify-pass"], "block",
                    job=dataclasses.replace(cases["verify-pass"], key="block",
                                            block=[_bump_angle(cases["verify-pass"].block[0])]
                                            + cases["verify-pass"].block[1:])),
        ]
        for ex in mutants:
            problems = run.problems_of(ex, oracles)
            report(f"corrupted {ex.out.name} is rejected", bool(problems), "; ".join(problems))

        noisy = execs["evolve-noisy-trotter"]
        repeat = run.execute(cli, noisy.job, WORK / "out" / "repeat")
        report("a repeated noisy job is byte-identical", not run.mismatched_repeats([noisy, repeat]))
        changed = variant(repeat, "repeat-changed", ("m.noisy.csv", _bump_csv(3, 1e-15)))
        report("a repeated noisy job that differs is rejected",
               run.mismatched_repeats([noisy, changed]) == [changed])
        report("oracle distance of the shifted rotation is nonzero",
               oracle.shifted_rotation_distance(5, workloads.ROTATION_SHIFT) > 1e-7)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    print("self-test", "passed" if not bad else f"FAILED ({bad} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
