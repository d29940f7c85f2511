"""Span tracing for the traced run, kept outside the package.

Tracer.install swaps every reference that a loaded spinchain module holds to
one of the TARGETS functions for a shim. The shim records a span (name,
start, end, parent span, job id, and a small per-call detail) and returns
the call's result unchanged. Spans stay in memory; per_layer turns them into
the per-layer metrics. Tracer.uninstall puts the original references back.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time


def _run_dynamics_name(args, kwargs) -> str:
    mode = args[3] if len(args) > 3 else kwargs.get("mode")
    return f"simulator.run_dynamics.{mode}"


def _natives(circuit) -> int | None:
    """Native gate count when the circuit is already native, else None (the
    count then comes from the to_native span beneath)."""
    from spinchain.circuit_ir import NativeCircuit

    return len(circuit.gates) if isinstance(circuit, NativeCircuit) else None


def _noisy(noise, steps: int, circuit) -> tuple[int, int, int | None]:
    return (noise.shots, steps, _natives(circuit))


# (module, function, span name or name(args, kwargs), detail(args, kwargs, result) or None)
TARGETS = [
    ("spinchain.cli", "main", "cli.main", None),
    ("spinchain.cli", "load_config", "cli.load_config", None),
    ("spinchain.cli", "recognize_pair_circuit", "cli.recognize_pair_circuit", None),
    ("spinchain.circuit_ir", "build_trotter_circuit", "circuit_ir.build_trotter_circuit", None),
    ("spinchain.circuit_ir", "to_native", "circuit_ir.to_native", lambda a, k, r: len(r.gates)),
    ("spinchain.circuit_ir", "to_qasm", "circuit_ir.to_qasm", None),
    ("spinchain.circuit_ir", "from_qasm", "circuit_ir.from_qasm", lambda a, k, r: len(r.gates)),
    ("spinchain.circuit_ir", "unitary_of", "circuit_ir.unitary_of", None),
    ("spinchain.ybe", "solve", "ybe.solve", lambda a, k, r: (r.method, r.residual)),
    ("spinchain.compressor", "compress", "compressor.compress", None),
    ("spinchain.compressor", "absorb_layer", "compressor.absorb_layer", lambda a, k, r: len(a[1])),
    ("spinchain.compressor", "pad_to_template", "compressor.pad_to_template", None),
    ("spinchain.simulator", "run_dynamics", _run_dynamics_name, None),
    ("spinchain.simulator", "run_noisy", "simulator.run_noisy",
     lambda a, k, r: _noisy(a[1], 1, a[0])),
    ("spinchain.simulator", "run_noisy_series", "simulator.run_noisy_series",
     lambda a, k, r: _noisy(a[2], a[1], a[0])),
    ("spinchain._dense", "apply_gate", "dense.apply_gate",
     lambda a, k, r: a[0].nbytes + a[1].nbytes + r.nbytes),
    ("spinchain._dense", "phase_distance", "dense.phase_distance", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "detail")

    def __init__(self, name: str, parent: int, job) -> None:
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.detail = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _shim(self, name, fn, detail):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = Span(label, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if detail is not None:
                span.detail = detail(args, kwargs, result)
            return result

        return shim

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "spinchain"]
        for module_name, fn_name, name, detail in TARGETS:
            fn = getattr(importlib.import_module(module_name), fn_name)
            shim = self._shim(name, fn, detail)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, shim)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def per_layer(spans: list[Span], noise_chunk: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced jobs.

    self time is a span's duration minus that of its child spans (children
    run one after another inside their parent, so they never overlap).
    compressor.compress.self_s is the compress spans minus the ybe.solve
    spans beneath them. Byte figures are computed from array sizes.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def busy(name):
        return sum((spans[i].seconds for i in idx(name)), 0.0)

    def self_s(name):
        return sum((spans[i].seconds - child[i] for i in idx(name)), 0.0)

    def under(i, name):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    solves = [spans[i] for i in idx("ybe.solve")]
    solved = [s for s in solves if s.detail is not None]
    layer_gates = sum(spans[i].detail or 0 for i in idx("compressor.absorb_layer"))
    solve_in_compress = sum(spans[i].seconds for i in idx("ybe.solve") if under(i, "compressor.compress"))

    natives_under: dict[int, int] = {}
    for i in idx("circuit_ir.to_native"):
        p = spans[i].parent
        natives_under[p] = natives_under.get(p, 0) + (spans[i].detail or 0)
    shot_gates = rng_streams = draw_peak = 0
    for name in ("simulator.run_noisy", "simulator.run_noisy_series"):
        for i in idx(name):
            if spans[i].detail is None:
                continue
            shots, steps, natives = spans[i].detail
            if natives is None:
                natives = natives_under.get(i, 0)
            shot_gates += shots * steps * natives
            rng_streams += shots
            draw_peak = max(draw_peak, min(shots, noise_chunk) * steps * natives * 2 * 8)
    noisy_busy = busy("simulator.run_noisy") + busy("simulator.run_noisy_series")
    parsed = sum(spans[i].detail or 0 for i in idx("circuit_ir.from_qasm"))

    return {
        "ybe.solve.calls": len(solves),
        "ybe.solve.busy_s": busy("ybe.solve"),
        "ybe.solve.us_p50": statistics.median(s.seconds for s in solves) * 1e6 if solves else 0.0,
        "ybe.solve.fallback_ratio": ratio(sum(s.detail[0] == "numeric-fallback" for s in solved), len(solved)),
        "ybe.solve.residual_max": max((s.detail[1] for s in solved), default=0.0),
        "compressor.compress.calls": calls("compressor.compress"),
        "compressor.compress.self_s": busy("compressor.compress") - solve_in_compress,
        "compressor.absorb_layer.calls": calls("compressor.absorb_layer"),
        "compressor.absorb_layer.self_s": self_s("compressor.absorb_layer"),
        "compressor.pad_to_template.busy_s": busy("compressor.pad_to_template"),
        "compressor.turnovers_per_input_gate": ratio(len(solves), layer_gates),
        "simulator.run_dynamics.exact.busy_s": busy("simulator.run_dynamics.exact"),
        "simulator.run_dynamics.trotter.busy_s": busy("simulator.run_dynamics.trotter"),
        "simulator.run_dynamics.compressed.busy_s": busy("simulator.run_dynamics.compressed"),
        "simulator.run_noisy.calls": calls("simulator.run_noisy"),
        "simulator.run_noisy.busy_s": busy("simulator.run_noisy"),
        "simulator.run_noisy_series.busy_s": busy("simulator.run_noisy_series"),
        "simulator.noisy.shot_gates": shot_gates,
        "simulator.noisy.shot_gates_per_s": ratio(shot_gates, noisy_busy),
        "simulator.noisy.rng_streams": rng_streams,
        "simulator.noisy.draw_bytes_peak": draw_peak,
        "dense.apply_gate.calls": calls("dense.apply_gate"),
        "dense.apply_gate.busy_s": busy("dense.apply_gate"),
        "dense.apply_gate.bytes": sum(spans[i].detail or 0 for i in idx("dense.apply_gate")),
        "dense.phase_distance.busy_s": busy("dense.phase_distance"),
        "circuit_ir.unitary_of.calls": calls("circuit_ir.unitary_of"),
        "circuit_ir.unitary_of.busy_s": busy("circuit_ir.unitary_of"),
        "circuit_ir.build_trotter_circuit.busy_s": busy("circuit_ir.build_trotter_circuit"),
        "circuit_ir.to_native.busy_s": busy("circuit_ir.to_native"),
        "circuit_ir.to_qasm.busy_s": busy("circuit_ir.to_qasm"),
        "circuit_ir.from_qasm.busy_s": busy("circuit_ir.from_qasm"),
        "circuit_ir.from_qasm.gates_per_s": ratio(parsed, busy("circuit_ir.from_qasm")),
        "cli.recognize_pair_circuit.busy_s": busy("cli.recognize_pair_circuit"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.load_config.busy_s": busy("cli.load_config"),
    }
