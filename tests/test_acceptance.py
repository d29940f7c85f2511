"""Acceptance checks: one test per shipped guarantee, one PASS/FAIL line each.

Every check is oracle-based: dense kron-product linear algebra built inside
this file, never the package's own bookkeeping, decides equivalence.
"""

import time

import numpy as np

from spinchain._dense import phase_distance
from spinchain.circuit_ir import (
    Circuit,
    NativeCircuit,
    PairGate,
    build_trotter_circuit,
    from_qasm,
    to_native,
    to_qasm,
    unitary_of,
)
from spinchain.compressor import compress, pad_to_template
from spinchain.propagators import RGateParams, decompose_xyz, xyz_propagator
from spinchain.simulator import (
    NoiseModel,
    apply_circuit,
    compressed_steps,
    neel_state,
    run_dynamics,
    run_noisy,
    staggered_magnetization,
)
from spinchain.spin_model import Angles3, CouplingParams, HamiltonianClass, TrotterPlan
from spinchain.ybe import solve

SEED = 20250301

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAIR = {
    "x": np.kron(SX, SX),
    "y": np.kron(SY, SY),
    "z": np.kron(SZ, SZ),
}

CLASS_COUPLINGS = {
    "X": CouplingParams(0.9, 0.0, 0.0),
    "Y": CouplingParams(0.0, 0.8, 0.0),
    "Z": CouplingParams(0.0, 0.0, 0.7),
    "XY": CouplingParams(-0.8, -0.2, 0.0),
    "XZ": CouplingParams(0.6, 0.0, -0.3),
    "YZ": CouplingParams(0.0, 0.5, 0.4),
}


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def axis_exponential(axis, theta):
    return np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * PAIR[axis]


def triple_kron_unitary(triple, right=False):
    eye = np.eye(2, dtype=complex)
    mats = []
    for k, (g, d) in enumerate(triple):
        low = (not right) == (k % 2 == 0)
        r = axis_exponential("x", g) @ axis_exponential("z", d)
        mats.append(np.kron(r, eye) if low else np.kron(eye, r))
    return mats[0] @ mats[1] @ mats[2]


def test_criterion_1_propagator_identities():
    budget_s, product_tol, phase_tol = 5.0, 1e-12, 1e-10
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_product = 0.0
    worst_phase = 0.0
    for _ in range(1000):
        a = Angles3(*rng.uniform(-np.pi, np.pi, 3))
        ordered = (
            axis_exponential("x", a.theta_x)
            @ axis_exponential("y", a.theta_y)
            @ axis_exponential("z", a.theta_z)
        )
        worst_product = max(worst_product, np.max(np.abs(xyz_propagator(a) - ordered)))
        seq = decompose_xyz(a)
        worst_phase = max(
            worst_phase, phase_distance(unitary_of(NativeCircuit(2, seq)), ordered)
        )
    elapsed = time.perf_counter() - start
    ok = worst_product < product_tol and worst_phase < phase_tol and elapsed < budget_s
    report(
        "criterion 1 propagator identities",
        ok,
        f"1000 triples, product {worst_product:.2e} < {product_tol:g}, "
        f"decomposition {worst_phase:.2e} < {phase_tol:g}, {elapsed:.1f}s < {budget_s:g}s",
    )


def test_criterion_2_bridge_solver():
    budget_s, residual_tol, round_trip_tol = 30.0, 1e-9, 1e-8
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst_residual = 0.0
    worst_round_trip = 0.0
    for _ in range(1000):
        t = tuple(tuple(rng.uniform(-np.pi, np.pi, 2).tolist()) for _ in range(3))
        sol = solve(t)
        # the 8x8 matrices themselves, phase included: the solver's rotation
        # check cannot see a sign, and this does
        matrix = np.max(np.abs(triple_kron_unitary(t) - triple_kron_unitary(sol.pairs, right=True)))
        worst_residual = max(worst_residual, matrix)
        back = solve(sol.pairs)
        worst_round_trip = max(
            worst_round_trip,
            np.max(np.abs(triple_kron_unitary(t) - triple_kron_unitary(back.pairs))),
        )
    # deliberately singular inputs: aggregate denominators vanish
    singular_shapes = [
        lambda r: ((r.uniform(-1, 1), 0.1), (np.pi / 2, r.uniform(-1, 1)), (0.2, 0.5)),
        lambda r: ((0.4, r.uniform(-1, 1)), (r.uniform(-1, 1), np.pi / 2), (0.2, 0.5)),
        lambda r: ((np.pi / 2, 0.1), (r.uniform(-1, 1), 0.2), (np.pi / 2, 0.5)),
        lambda r: ((0.0, r.uniform(-1, 1)), (0.3, 0.2), (0.0, 0.5)),
        lambda r: ((0.4, np.pi / 2), (0.3, r.uniform(-1, 1)), (0.2, np.pi / 2)),
    ]
    worst_singular = 0.0
    singular_analytic = True
    for k in range(100):
        shape = singular_shapes[k % len(singular_shapes)]
        t = shape(rng)
        sol = solve(t)
        singular_analytic = singular_analytic and sol.method == "analytic"
        matrix = np.max(np.abs(triple_kron_unitary(t) - triple_kron_unitary(sol.pairs, right=True)))
        worst_singular = max(worst_singular, matrix, sol.residual)
    elapsed = time.perf_counter() - start
    ok = (
        worst_residual < residual_tol
        and worst_round_trip < round_trip_tol
        and worst_singular < residual_tol
        and singular_analytic
        and elapsed < budget_s
    )
    report(
        "criterion 2 bridge solver",
        ok,
        f"1000 solves {worst_residual:.2e} < {residual_tol:g}, round trip "
        f"{worst_round_trip:.2e} < {round_trip_tol:g}, 100 singular via solve "
        f"{worst_singular:.2e} < {residual_tol:g}, {elapsed:.1f}s < {budget_s:g}s",
    )


def test_criterion_3_merge_identity():
    matrix_tol = 1e-12
    # (a) same-pair gates commute, so their three-axis exponents add
    rng = np.random.default_rng(SEED + 2)
    worst_identity = 0.0
    for _ in range(1000):
        a = PairGate(0, Angles3(*rng.uniform(-1.5, 1.5, 3)))
        b = PairGate(0, Angles3(*rng.uniform(-1.5, 1.5, 3)))
        m = PairGate(0, Angles3(*(x + y for x, y in zip(a.params.as_tuple(), b.params.as_tuple()))))
        worst_identity = max(worst_identity, np.max(np.abs(b.unitary() @ a.unitary() - m.unitary())))
    # (b) the engine's merge: three gates of one family on one pair compress
    # to one gate through two merges, each adding the angles and wrapping the
    # sum. A pair merges once and its one sum is wrapped again on emission,
    # so it cannot tell a merge that wraps from one that does not.
    rng = np.random.default_rng(SEED + 4)
    families = list(CLASS_COUPLINGS)

    def wrap(x):
        return (x + np.pi) % (2 * np.pi) - np.pi

    mismatches = 0
    worst_engine = 0.0
    for k in range(1000):
        name = families[k % len(families)]
        run = [
            PairGate(0, Angles3(*(rng.uniform(-1.5, 1.5) if axis in name.lower() else 0.0 for axis in "xyz")))
            for _ in range(3)
        ]
        block = compress(Circuit(2, tuple(run)))
        (g,) = block.circuit.gates
        want = [wrap(wrap(x + y) + z) for x, y, z in zip(*(h.params.as_tuple() for h in run))]
        mismatches += not (
            block.ybe_moves == 0
            and g.conjugation == HamiltonianClass(name).family.conjugation
            and [t.hex() for t in g.angles().as_tuple()] == [t.hex() for t in want]
        )
        product = run[2].unitary() @ run[1].unitary() @ run[0].unitary()
        worst_engine = max(worst_engine, np.max(np.abs(product - g.unitary())))
    ok = worst_identity < matrix_tol and mismatches == 0 and worst_engine < matrix_tol
    report(
        "criterion 3 merge identity",
        ok,
        f"1000 pairs, summed angles' matrix {worst_identity:.2e} < {matrix_tol:g}; "
        f"1000 same-pair runs of 3 gates through compress, {mismatches} gates off the "
        f"wrapped sums bit for bit, matrix {worst_engine:.2e} < {matrix_tol:g}",
    )


def test_criterion_4_compression_grid():
    budget_s, phase_tol = 300.0, 1e-7
    start = time.perf_counter()
    dt = 0.05
    worst_phase = 0.0
    worst_case = ""
    for n in range(2, 9):
        bound = n * (n - 1) // 2
        for name, j in CLASS_COUPLINGS.items():
            counts = {}
            for steps in (1, n, 10 * n):
                c = build_trotter_circuit(n, j, TrotterPlan(steps * dt, dt))
                block = compress(c)
                assert block.gate_count <= bound, (
                    f"N={n} {name} steps={steps}: {block.gate_count} > {bound}"
                )
                dist = phase_distance(unitary_of(block.circuit), unitary_of(c))
                if dist > worst_phase:
                    worst_phase = dist
                    worst_case = f"N={n} {name} steps={steps}"
                counts[steps] = block.gate_count
            assert counts[n] == counts[10 * n], (
                f"N={n} {name}: size {counts[n]} at {n} steps vs {counts[10 * n]} at {10 * n}"
            )
    elapsed = time.perf_counter() - start
    ok = worst_phase < phase_tol and elapsed < budget_s
    report(
        "criterion 4 compression grid",
        ok,
        f"N 2..8 x 6 classes x 3 depths, worst phase {worst_phase:.2e} < {phase_tol:g} "
        f"({worst_case}), size bound and step independence held, "
        f"{elapsed:.0f}s < {budget_s:g}s",
    )


def chain_hamiltonian(n, j):
    """H = -sum_i (Jx XX + Jy YY + Jz ZZ) on the pairs (i, i+1) of an open chain."""
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for axis, coupling in zip("xyz", (j.jx, j.jy, j.jz)):
        for i in range(n - 1):
            h -= coupling * np.kron(np.kron(np.eye(1 << i), PAIR[axis]), np.eye(1 << (n - 2 - i)))
    return h


def staggered_diagonal(n):
    """Diagonal of m_s = (1/N) sum_i (-1)^i Z_i."""
    z = np.diag(SZ).real
    return sum(
        (-1) ** i * np.kron(np.kron(np.ones(1 << i), z), np.ones(1 << (n - 1 - i)))
        for i in range(n)
    ) / n


def basis_vector(bits):
    psi = np.zeros(1 << len(bits), dtype=complex)
    psi[int(bits, 2)] = 1.0
    return psi


def test_criterion_5_trotter_order():
    # The Trotter step is a first-order product formula, so its gap to the
    # exact dynamics shrinks linearly in dt: checked on the operator norm and
    # on m_s from |001>. The Neel state |010> cannot show the first order.
    # The site mirror i -> N-1-i fixes |010>, m_s and H, and at odd N swaps
    # the even-pair and odd-pair columns, reversing the step product. That
    # flips the sign of the first-order BCH term -(i/2)[h_odd, h_even] of the
    # effective Hamiltonian, so its linear effect on m_s cancels and the Neel
    # gap decays as dt^2; it is checked at that order.
    windows = {"|001>": (0.8, 1.2), "operator-norm": (0.8, 1.2), "Neel |010>": (1.8, 2.2)}
    n, j, t_final = 3, CouplingParams(-0.8, -0.2, 0.0), 2.5
    grids = (0.1, 0.05, 0.025, 0.0125)
    vals, vecs = np.linalg.eigh(chain_hamiltonian(n, j))
    m_s = staggered_diagonal(n)

    def exact_propagator(t):
        return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T

    starts = {"|001>": basis_vector("001"), "Neel |010>": basis_vector("010")}
    gaps = {label: [] for label in windows}
    for dt in grids:
        plan = TrotterPlan(t_final, dt)
        for label, psi0 in starts.items():
            trotter = run_dynamics(n, j, plan, "trotter", init_state=psi0)
            exact = [m_s @ np.abs(exact_propagator(t) @ psi0) ** 2 for _, t, _ in trotter.rows]
            gaps[label].append(float(np.max(np.abs(trotter.values() - exact))))
        u_trotter = unitary_of(build_trotter_circuit(n, j, plan))
        gaps["operator-norm"].append(
            float(np.linalg.norm(u_trotter - exact_propagator(t_final), 2))
        )
    checks = []
    ok = True
    for label, (lo, hi) in windows.items():
        slope = float(np.polyfit(np.log(grids), np.log(gaps[label]), 1)[0])
        inside = lo <= slope <= hi
        ok = ok and inside
        checks.append(
            f"{label} slope {slope:.3f} {'in' if inside else 'OUTSIDE'} [{lo}, {hi}] "
            f"(gaps " + ", ".join(f"{g:.2e}" for g in gaps[label]) + ")"
        )
    report(
        "criterion 5 trotter order",
        ok,
        "; ".join(checks) + "; the Neel gap is second order because the site "
        "mirror cancels the first-order term",
    )


def test_criterion_6_noiseless_reproduction():
    pointwise_tol = 1e-7
    n, j = 3, CouplingParams(-0.8, -0.2, 0.0)
    plan = TrotterPlan(2.5, 0.025)
    assert plan.num_steps == 100
    trotter = run_dynamics(n, j, plan, "trotter")
    compressed = run_dynamics(n, j, plan, "compressed")
    start_exact = trotter.rows[0][2] == 1.0 and compressed.rows[0][2] == 1.0
    diff = float(np.max(np.abs(trotter.values() - compressed.values())))
    # per-step block size on the alternating template, from the stream evolve runs
    sizes = {pad_to_template(block).gate_count for block in compressed_steps(n, j, plan)}
    ok = start_exact and diff < pointwise_tol and sizes == {3}
    report(
        "criterion 6 noiseless reproduction",
        ok,
        f"m_s(0) = 1 exactly, 100-step pointwise gap {diff:.2e} < {pointwise_tol:g}, "
        f"per-step two-qubit gate count {sorted(sizes)} == [3]",
    )


def test_criterion_7_noise_contrast():
    n, j = 3, CouplingParams(-0.8, -0.2, 0.0)
    plan = TrotterPlan(2.5, 0.025)
    noise = NoiseModel(0.0, 1e-2, 8192, 7)
    deep = build_trotter_circuit(n, j, plan)
    *_, block = compressed_steps(n, j, plan)
    shallow = pad_to_template(block).circuit
    psi0 = neel_state(n)
    ideal_deep = staggered_magnetization(apply_circuit(psi0, deep))
    ideal_shallow = staggered_magnetization(apply_circuit(psi0, shallow))
    noisy_deep, _ = run_noisy(deep, noise)
    noisy_shallow, _ = run_noisy(shallow, noise)
    gap_deep = abs(noisy_deep - ideal_deep)
    gap_shallow = abs(noisy_shallow - ideal_shallow)
    contrast_ok = gap_shallow < gap_deep
    scrambled_mean, scrambled_err = run_noisy(deep, NoiseModel(0.0, 1.0, 8192, 7))
    scrambled_ok = abs(scrambled_mean) <= 3 * scrambled_err
    ok = contrast_ok and scrambled_ok
    report(
        "criterion 7 noise contrast",
        ok,
        f"step-100 bias compressed {gap_shallow:.3f} < uncompressed {gap_deep:.3f} "
        f"at p2=1e-2/8192 shots; p2=1 deep circuit m_s {scrambled_mean:.4f} "
        f"within 3 stderr ({3 * scrambled_err:.4f})",
    )


def test_criterion_8_qasm_round_trip():
    phase_tol = 1e-10
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    identical = 0
    for k in range(100):
        n = int(rng.integers(2, 6))
        gates = []
        for _ in range(int(rng.integers(1, 12))):
            pair = int(rng.integers(0, n - 1))
            if k % 2 == 0:
                gates.append(PairGate(pair, Angles3(*rng.uniform(-1.2, 1.2, 3))))
            else:
                gates.append(PairGate(pair, RGateParams(*rng.uniform(-1.2, 1.2, 2))))
        native = to_native(Circuit(n, tuple(gates)))
        back = from_qasm(to_qasm(native))
        worst = max(worst, phase_distance(unitary_of(back), unitary_of(native)))
        # gate for gate, each angle to the bit: %.17g round-trips a double,
        # and float.hex tells -0.0 from 0.0, which == does not
        bits = [[g.angle.hex() for g in c.gates if g.angle is not None] for c in (back, native)]
        identical += back == native and bits[0] == bits[1]
    ok = worst < phase_tol and identical == 100
    report(
        "criterion 8 qasm round trip",
        ok,
        f"100 circuits, worst phase distance {worst:.2e} < {phase_tol:g}, "
        f"{identical} parsed gate for gate with bit-identical angles",
    )
