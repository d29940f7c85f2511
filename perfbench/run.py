"""Benchmark of the spinchain command-line tool.

    python3 perfbench/run.py --workload {compress,evolve,qasm-verify} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src and driven
in process through spinchain.cli.main(argv), one job at a time by a single
client (a closed loop). Inputs are files generated from --seed under
.bench_work/ and removed at the end. Every job's outputs, the untimed
warm-up and repeat jobs included, are checked against the oracles in
oracle.py after the timed loop; attempted and failed count these jobs.

--trace 0 runs jobs for --seconds and reports the end-to-end metrics named
in BENCHMARK.json, with times at the reference speed (see ReferenceKernel;
the unscaled figures go to standard error). setup_s is the median of this
process's setup and SETUP_PROBES fresh-process setups: import, input
generation and warm-up, each part also printed on standard error.
--trace 1 ignores --seconds and runs a fixed prefix of whole blocks of the
deck (see trace_jobs), each job twice back to back, once through the tracing
shims and once without (alternating which goes first). It reports the
per-layer metrics of the traced half, unscaled, plus the tracing overhead;
as the traced jobs are fixed, counts are exact and comparable between
commits. The last line of standard output is one JSON object: correct,
attempted, failed and metrics.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6          # extra fresh-process setups; setup_s is the median of 1 + these
PROBE_TIMEOUT_S = 120
REFERENCE_S = 0.002       # reference-kernel time that defines the reference speed
SPEED_WINDOW = 5          # kernel samples on each side of a job that set its speed
SETUP_KERNELS = 15        # kernel samples that set the speed of a setup
TRACE_JOBS = 90           # least number of jobs in a traced run
SETUP_PARTS = ("import", "inputs", "warmup")


@dataclass
class Execution:
    job: workloads.Job
    out: Path
    seconds: float = 0.0
    codes: list = field(default_factory=list)
    stdouts: list = field(default_factory=list)
    stderrs: list = field(default_factory=list)
    error: str | None = None

    def files(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}


class ReferenceKernel:
    """A fixed mix of interpreter work, small tensor contractions and one
    256 x 256 complex contraction, independent of spinchain.

    On a shared machine the speed swings with the neighbours' load: on the
    2-core container where the benchmark was defined, this kernel took from
    1.6 to 2.9 ms within minutes, and job times moved with it. Every reported
    time is scaled by REFERENCE_S over the kernel time measured around it,
    which gives seconds at the reference speed and cancels those swings.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((2,) * 6) + 0j
        self._large = rng.standard_normal((2,) * 16) + 0j
        self._gate = (rng.standard_normal((4, 4)) + 0j).reshape(2, 2, 2, 2)

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = 0
        for k in range(1500):
            d = {"a": k, "b": (k, k + 1)}
            acc += d["b"][1] - d["a"]
        # contract, move the axes back and copy, as a gate application does
        for big in (False,) * 60 + (True,) * 2:
            x = self._large if big else self._small
            q = acc % (x.ndim - 1)
            x = np.tensordot(self._gate, x, axes=[[2, 3], [q, q + 1]])
            np.ascontiguousarray(np.moveaxis(x, [0, 1], [q, q + 1]))
        return time.perf_counter() - start

    def speed(self, count: int) -> float:
        """REFERENCE_S over the median of count kernel runs."""
        return REFERENCE_S / statistics.median(self.seconds() for _ in range(count))


def scaled(durations: list[float], kernels: list[float]) -> list[float]:
    """Job durations at reference speed; kernels[i] ran just before job i and
    kernels[-1] after the last job."""
    return [
        t * REFERENCE_S / statistics.median(kernels[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 2])
        for i, t in enumerate(durations)
    ]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("compress", "evolve", "qasm-verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the setup time and exit (used for setup_s)")
    return p.parse_args(argv)


def import_cli():
    if not (SRC / "spinchain" / "cli.py").is_file():
        sys.exit(f"error: no spinchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinchain.cli

    if Path(spinchain.__file__).resolve().parent != SRC / "spinchain":
        sys.exit(f"error: imported spinchain from {spinchain.__file__}, not {SRC}")
    return spinchain.cli


def trace_jobs(workload: str, deck: list) -> list:
    """The deck prefix of a traced run: at least TRACE_JOBS jobs in a whole
    multiple of len(FAMILIES) blocks, so that every stratum meets every
    coupling family equally often."""
    size = len(workloads.FAMILIES) * workloads.block_size(workload)
    return deck[: size * -(-TRACE_JOBS // size)]


def execute(cli, job, out: Path) -> Execution:
    """Run one job (one or two CLI commands) and time it."""
    out.mkdir(parents=True)
    ex = Execution(job, out)
    argvs = job.argv(out)
    start = time.perf_counter()
    try:
        for argv in argvs:
            so, se = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            ex.codes.append(code)
            ex.stdouts.append(so.getvalue())
            ex.stderrs.append(se.getvalue())
            if code != 0:
                break
    except Exception:
        ex.error = traceback.format_exc()
    ex.seconds = time.perf_counter() - start
    return ex


def problems_of(ex: Execution, oracles) -> list[str]:
    if ex.error is not None:
        return [f"raised {ex.error.strip().splitlines()[-1]}"]
    if ex.codes != ex.job.expected_codes():
        return [f"exit codes {ex.codes}, expected {ex.job.expected_codes()}: {' '.join(ex.stderrs).strip()}"]
    if any("Traceback" in e for e in ex.stderrs):
        return ["traceback on stderr"]
    return workloads.check(ex.job, ex.out, ex.stdouts, oracles)


def mismatched_repeats(execs: list[Execution]) -> list[Execution]:
    """Executions whose outputs differ from an earlier execution of the same job."""
    first: dict[str, tuple] = {}
    bad = []
    for ex in execs:
        if ex.error is not None or not ex.out.is_dir():
            continue
        seen = (ex.files(), ex.stdouts)
        ref = first.setdefault(ex.job.key, seen)
        if ref is not seen and ref != seen:
            bad.append(ex)
    return bad


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe_parts(args) -> list[dict[str, float]]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        imported = time.perf_counter()
        warmup, deck = workloads.build(args.workload, args.seed, work / "in")
        generated = time.perf_counter()
        execs = [execute(cli, job, work / "out" / f"w{i}") for i, job in enumerate(warmup)]
        set_up = time.perf_counter()
        rss_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel = ReferenceKernel()
        speed = kernel.speed(SETUP_KERNELS)
        setup = dict(zip(SETUP_PARTS, (speed * (b - a) for a, b in
                                       ((START, imported), (imported, generated), (generated, set_up)))))
        if args.setup_probe:
            print(json.dumps(setup))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        timed, traced, kernels = [], [], []
        start = time.perf_counter()
        if tracer is None:
            i = 0
            while time.perf_counter() - start < args.seconds:
                kernels.append(kernel.seconds())
                timed.append(execute(cli, deck[i % len(deck)], work / "out" / f"t{i}"))
                i += 1
        else:
            for i, job in enumerate(trace_jobs(args.workload, deck)):
                for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced_turn:
                        tracer.job = i
                        tracer.install()
                        try:
                            traced.append(execute(cli, job, work / "out" / f"t{i}traced"))
                        finally:
                            tracer.uninstall()
                    else:
                        timed.append(execute(cli, job, work / "out" / f"t{i}"))
        wall = time.perf_counter() - start
        kernels.append(kernel.seconds())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # one repeat of the first noisy job of each kind, for the seed-stability check
        execs += timed + traced
        runs_of = collections.Counter(ex.job.key for ex in execs)
        for kind in ("evolve-noisy-trotter", "evolve-noisy-compressed"):
            first = next((ex for ex in timed if ex.job.kind == kind), None)
            if first is not None and runs_of[first.job.key] == 1:
                execs.append(execute(cli, first.job, work / "out" / f"r{kind}"))

        oracles = workloads.Oracles()
        failures = {}
        for ex in execs:
            problems = problems_of(ex, oracles)
            if problems:
                failures[id(ex)] = (ex, problems)
        for ex in mismatched_repeats(execs):
            failures.setdefault(id(ex), (ex, []))[1].append("output differs from a repeat of the same job")
        for ex, problems in list(failures.values())[:10]:
            print(f"FAILED {ex.job.key} {ex.job.kind} n={ex.job.n} steps={ex.job.steps}: {'; '.join(problems)}",
                  file=sys.stderr)
        correct = not failures

        durations = [ex.seconds for ex in timed]
        print(f"{args.workload} seed {args.seed}: {len(timed)} timed jobs in {wall:.2f} s, "
              f"{len(execs)} executions checked, {len(failures)} failed; nproc {os.cpu_count()}, "
              f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
              f"BLAS threads {BLAS_THREADS}", file=sys.stderr)
        if tracer is None:
            at_reference = scaled(durations, kernels)
            setups = [setup] + setup_probe_parts(args)
            metrics = {
                "setup_s": statistics.median(sum(s.values()) for s in setups),
                "jobs_per_s": len(timed) / sum(at_reference),
                "job_s.p50": statistics.median(at_reference),
                "job_s.p90": quantile(at_reference, 90),
                "peak_rss_mb": peak_rss_mb,
            }
            parts = ", ".join(f"{part} {statistics.median(s[part] for s in setups):.4f} s"
                              for part in SETUP_PARTS)
            print(f"setup parts, median of {len(setups)} at reference speed: {parts}", file=sys.stderr)
            print(f"unscaled: setup {set_up - START:.3f} s, {len(timed) / wall:.3f} jobs/s, p50 "
                  f"{statistics.median(durations):.4f} s, p90 {quantile(durations, 90):.4f} s; reference "
                  f"kernel median {1e3 * statistics.median(kernels):.3f} ms; peak RSS at the end of setup "
                  f"{rss_setup_mb:.1f} MB", file=sys.stderr)
            names = spec["end_to_end"]
        else:
            from spinchain import simulator

            metrics = tracing.per_layer(tracer.spans, getattr(simulator, "_NOISE_CHUNK", 1 << 62))
            stats = [json.loads(ex.stdouts[0].splitlines()[-1]) for ex in traced
                     if ex.job.kind.startswith("compress-") and id(ex) not in failures]
            metrics["compressor.out_gates_per_job"] = (
                statistics.fmean(s["gates_after"] for s in stats) if stats else 0.0)
            moves = sum(s["ybe_moves"] for s in stats)
            if stats and not failures and moves != metrics["ybe.solve.calls"]:
                print(f"FAILED cross-check: {metrics['ybe.solve.calls']} ybe.solve spans, "
                      f"{moves} ybe_moves in the stats lines", file=sys.stderr)
                correct = False
            untraced_s = sum(ex.seconds for ex in timed)
            overhead = sum(ex.seconds for ex in traced) - untraced_s
            metrics["trace.jobs"] = len(traced)
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_ratio"] = overhead / untraced_s
            print(f"tracing overhead {overhead:.3f} s over {len(traced)} jobs "
                  f"({100 * overhead / untraced_s:.1f}% of {untraced_s:.3f} s untraced); "
                  f"ybe.solve spans {metrics['ybe.solve.calls']}, stats ybe_moves {moves}", file=sys.stderr)
            names = spec["per_layer"]
        missing = {m["name"] for m in names} ^ set(metrics)
        if missing:
            sys.exit(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}")
        result = {
            "correct": correct,
            "attempted": len(execs),
            "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
