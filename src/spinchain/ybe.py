"""Bridge-pattern rewriting for the two-parameter gate class R(gamma, delta).

Three R gates laid out on three chain sites in the bridge pattern
(outer pair, inner pair, outer pair) equal another triple in the mirrored
pattern whenever sixteen trigonometric relations hold between the two
parameter sets. This module solves for the mirrored parameters in closed
form, one candidate per triple, falls back to a seeded multistart
least-squares search when that candidate fails verification, and verifies
every candidate against both the relations and the dense 8x8 matrix
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .propagators import RGateParams
from .spin_model import ZERO_TOL

SOLVER_TOL = 1e-9
FALLBACK_COST_TOL = 1e-18

_FALLBACK_SEED = 11
_FALLBACK_STARTS = 8
_WRAP_SNAP_TOL = 1e-12
_TWO_PI = 2.0 * math.pi

AnglePair = tuple[float, float]
AngleTriple = tuple[AnglePair, AnglePair, AnglePair]


class YbeForm(Enum):
    """Layout of a three-site gate triple.

    LEFT places the outer gates on the lower pair: (R1 x 1)(1 x R2)(R3 x 1)
    as an operator product, R3 first in time. RIGHT is the mirror image:
    (1 x R4)(R5 x 1)(1 x R6).
    """

    LEFT = "left"
    RIGHT = "right"

    @property
    def opposite(self) -> "YbeForm":
        return YbeForm.RIGHT if self is YbeForm.LEFT else YbeForm.LEFT


@dataclass(frozen=True)
class YbeTriple:
    """Three R gates in bridge layout, listed in operator order.

    Given as three RGateParams or (gamma, delta) pairs, held as finite float
    pairs, the form the solver reads; gates gives them back as RGateParams.
    """

    pairs: AngleTriple
    form: YbeForm = YbeForm.LEFT

    def __post_init__(self) -> None:
        pairs = tuple(
            (float(g), float(d))
            for g, d in (p.as_tuple() if isinstance(p, RGateParams) else p for p in self.pairs)
        )
        if len(pairs) != 3:
            raise ValueError(f"need exactly 3 gates, got {len(pairs)}")
        if not all(math.isfinite(g) and math.isfinite(d) for g, d in pairs):
            raise ValueError(f"R params must be finite, got {pairs!r}")
        if not isinstance(self.form, YbeForm):
            raise TypeError(f"form must be a YbeForm, got {self.form!r}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def gates(self) -> tuple[RGateParams, RGateParams, RGateParams]:
        return tuple(RGateParams(g, d) for g, d in self.pairs)


@dataclass(frozen=True)
class YbeSolution:
    """Mirrored triple with the verified residual and the path that found it."""

    triple: YbeTriple
    residual: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in ("analytic", "numeric-fallback"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class RelationReport:
    """Largest magnitude of the sixteen relations plus the matrix residual."""

    max_relation: float
    matrix_residual: float

    @property
    def residual(self) -> float:
        return max(self.max_relation, self.matrix_residual)

    @property
    def worst_check(self) -> str:
        """The check that sets the residual."""
        if self.matrix_residual > self.max_relation:
            return "8x8 matrix identity"
        return "sixteen relations"


class UnsolvedError(Exception):
    """No candidate met the solver tolerance; carries the best candidate's report.

    The message gives its verified residual and names the check it failed:
    the sixteen relations or the 8x8 matrix identity.
    """

    def __init__(self, report: RelationReport) -> None:
        super().__init__(
            f"no solution below tolerance {SOLVER_TOL:g}; best residual {report.residual:.3e}"
            f" fails the {report.worst_check} (relations {report.max_relation:.3e},"
            f" 8x8 matrix {report.matrix_residual:.3e})"
        )
        self.best_residual = report.residual
        self.report = report


def wrap_angle(x: float) -> float:
    """Canonicalize an angle to (-pi, pi].

    The result differs from x by a multiple of 2 pi: only values within
    _WRAP_SNAP_TOL above -pi move to +pi.
    """
    y = (float(x) + math.pi) % _TWO_PI - math.pi
    return math.pi if abs(y + math.pi) <= _WRAP_SNAP_TOL else y


# The entries of R(gamma, delta) as ids of its distinct values: outer-block
# cos, inner-block cos, outer i sin, inner i sin, and 0 (see _embedded).
_R_ENTRIES = np.array([[0, 4, 4, 2], [4, 1, 3, 4], [4, 3, 1, 4], [2, 4, 4, 0]])


def _gate_layout(low: bool, gate: int, gates: int) -> np.ndarray:
    # np.kron(r, 1) (low) or np.kron(1, r) as flat indices into the (2, 5,
    # gates) value table of _embedded: slab 0 holds r * 1, slab 1 holds r * 0
    off = 5 * (1 - np.eye(2, dtype=int))
    if low:
        ids = _R_ENTRIES[:, None, :, None] + off[None, :, None, :]
    else:
        ids = off[:, None, :, None] + _R_ENTRIES[None, :, None, :]
    return ids.reshape(8, 8) * gates + gate


def _layout(forms: tuple[YbeForm, ...]) -> np.ndarray:
    gates = 3 * len(forms)
    return np.stack([
        _gate_layout((form is YbeForm.LEFT) == (k % 2 == 0), 3 * i + k, gates)
        for i, form in enumerate(forms)
        for k in range(3)
    ])


_LAYOUT = {form: _layout((form,)) for form in YbeForm}
# a left-layout triple and its right-layout mirror, six gates in one table
_PAIR_LAYOUT = _layout((YbeForm.LEFT, YbeForm.RIGHT))
_EXP_SIGNS = np.array((1j, -1j))  # outer block, inner block
_TY_ZERO = np.array(((-0.0,), (0.0,)))  # gamma - 0, gamma + 0
_KRON_FACTORS = np.array((1.0 + 0j, 0j))[:, None, None]  # entries of the 2x2 identity


def _embedded(angles, layout: np.ndarray) -> np.ndarray:
    """The gates, given as (gamma, delta) pairs, as 8x8 matrices in a layout.

    Each entry is the product that np.kron(r_matrix(...), 1) or
    np.kron(1, r_matrix(...)) evaluates, so the values, signed zeros
    included, are the same. r_matrix goes through xyz_propagator with
    tx = gamma, ty = 0: its outer block uses gamma - 0, its inner gamma + 0.
    """
    gammas, deltas = np.array(angles, dtype=float).T
    phase = np.exp(np.multiply.outer(_EXP_SIGNS, deltas))
    g = gammas + _TY_ZERO
    values = np.concatenate(
        (phase * np.cos(g), phase * 1j * np.sin(g), np.zeros((1, len(gammas)), dtype=complex))
    )
    return (_KRON_FACTORS * values).ravel()[layout]


def triple_unitary(t: AngleTriple, form: YbeForm) -> np.ndarray:
    """Dense 8x8 operator of a bridge-layout triple."""
    m1, m2, m3 = _embedded(t, _LAYOUT[form])
    return m1 @ m2 @ m3


# The sixteen relations, one row each: the factors of the left product, then
# those of the right product, in multiplication order. For a triple
# ((g1, d1), (g2, d2), (g3, d3)), "g" is g2, "g+" and "g-" are g1 + g3 and
# g1 - g3, and "d", "d+", "d-" the same for the deltas; a leading minus
# negates the first factor. Each row is left product minus right product.
_RELATION_ROWS = (
    "s(g) c(g-) c(d-) s(d) | c(g) s(g+) s(d+) c(d)",
    "c(g) c(g-) c(d+) s(d) | c(g) c(g+) s(d+) c(d)",
    "-s(g) c(g+) s(d-) c(d) | c(g) s(g-) c(d+) s(d)",
    "c(g) c(g+) s(d+) c(d) | c(g) c(g-) c(d+) s(d)",
    "s(g) c(g+) c(d-) c(d) | c(g) s(g+) c(d+) c(d)",
    "c(g) c(g+) c(d+) c(d) | c(g) c(g+) c(d+) c(d)",
    "-s(g) c(g-) s(d-) s(d) | c(g) s(g-) s(d+) s(d)",
    "c(g) c(g-) s(d+) s(d) | c(g) c(g-) s(d+) s(d)",
    "s(g) s(g+) c(d-) c(d) | s(g) s(g+) c(d-) c(d)",
    "c(g) s(g+) c(d+) c(d) | s(g) c(g+) c(d-) c(d)",
    "s(g) s(g-) s(d-) s(d) | s(g) s(g-) s(d-) s(d)",
    "-c(g) s(g-) s(d+) s(d) | s(g) c(g-) s(d-) s(d)",
    "-s(g) s(g-) c(d-) s(d) | s(g) s(g+) s(d-) c(d)",
    "-c(g) s(g-) c(d+) s(d) | s(g) c(g+) s(d-) c(d)",
    "-s(g) s(g+) s(d-) c(d) | s(g) s(g-) c(d-) s(d)",
    "c(g) s(g+) s(d+) c(d) | s(g) c(g-) c(d-) s(d)",
)
_FACTOR_ANGLES = ("g", "g+", "g-", "d+", "d-", "d")


def _row_indices(side: int) -> np.ndarray:
    # factor -> index into the sines, then the cosines, of _FACTOR_ANGLES
    idx = [
        [
            "sc".index(f[0]) * 6 + _FACTOR_ANGLES.index(f[2:-1])
            for f in row.split(" | ")[side].lstrip("-").split()
        ]
        for row in _RELATION_ROWS
    ]
    return np.array(idx).T


_LEFT_FACTORS = _row_indices(0)
_RIGHT_FACTORS = _row_indices(1)
_LEFT_SIGNS = np.array([-1.0 if row.startswith("-") else 1.0 for row in _RELATION_ROWS])


def _products(t, factors: np.ndarray) -> np.ndarray:
    """The sixteen four-factor products of one side, in row order."""
    (g1, d1), (g2, d2), (g3, d3) = t
    a = np.array((g2, g1 + g3, g1 - g3, d1 + d3, d1 - d3, d2), dtype=float)
    f = np.concatenate((np.sin(a), np.cos(a)))[factors]
    return f[0] * f[1] * f[2] * f[3]


def relations(left, right) -> np.ndarray:
    """The sixteen product relations; all vanish iff the matrix identity holds.

    Both arguments are triples of (gamma, delta) pairs, left in LEFT layout
    and right in RIGHT layout. The six entries of one side are all scalars
    or all arrays of one shape; the two sides broadcast against each other
    and the rows run along the first axis.
    """
    lp = _products(left, _LEFT_FACTORS)
    rp = _products(right, _RIGHT_FACTORS)
    # the sign is exact, so it equals negating the first factor
    return (_LEFT_SIGNS * lp.T - rp.T).T


def _report(t: AngleTriple, out: AngleTriple) -> RelationReport:
    rel = relations(t, out)
    m = _embedded(t + out, _PAIR_LAYOUT)
    mat = float(np.linalg.norm(m[0] @ m[1] @ m[2] - m[3] @ m[4] @ m[5]))
    return RelationReport(max(map(abs, rel.tolist())), mat)


def verify_relations(left, right) -> RelationReport:
    """Evaluate the sixteen relations and the 8x8 residual for a LEFT/RIGHT pair."""
    if left.form is not YbeForm.LEFT or right.form is not YbeForm.RIGHT:
        raise ValueError(
            f"need a left- then a right-form triple, got {left.form.value}, {right.form.value}"
        )
    return _report(left.pairs, right.pairs)


def _aggregates(t: AngleTriple) -> tuple[float, float, float, float, float, float]:
    """Sum/difference aggregates and middle angles of the mirrored triple.

    Solves the relation system for (g4+g6, g4-g6, d4+d6, d4-d6, g5, d5)
    using two-argument arctangents throughout; the middle-angle projections
    reuse the aggregate branch so the six values are sign-consistent. The
    closed form is division-free, so no denominator can vanish; acceptance
    is gated on the verified residual alone.
    """
    (g1, d1), (g2, d2), (g3, d3) = t
    sin, cos = math.sin, math.cos
    sg2, cg2, sd2, cd2 = sin(g2), cos(g2), sin(d2), cos(d2)
    sgp, cgp, sgm, cgm = sin(g1 + g3), cos(g1 + g3), sin(g1 - g3), cos(g1 - g3)
    sdp, cdp, sdm, cdm = sin(d1 + d3), cos(d1 + d3), sin(d1 - d3), cos(d1 - d3)
    p, m, q, n = np.arctan2(
        (sg2 * cdm, -sg2 * sdm, sd2 * cgm, -sd2 * sgm),
        (cg2 * cdp, cg2 * sdp, cd2 * cgp, cd2 * sgp),
    ).tolist()
    sg5 = cos(n) * sgp * cd2 - sin(n) * sgm * sd2
    cg5 = cos(q) * cgp * cd2 + sin(q) * cgm * sd2
    sd5 = cos(m) * cg2 * sdp - sin(m) * sg2 * sdm
    cd5 = cos(p) * cg2 * cdp + sin(p) * sg2 * cdm
    g5, d5 = np.arctan2((sg5, sd5), (cg5, cd5)).tolist()
    return p, m, q, n, g5, d5


def _analytic_solve(t: AngleTriple) -> tuple[AngleTriple, RelationReport]:
    """Closed-form solve: the one candidate the aggregates give, verified."""
    p, m, q, n, g5, d5 = _aggregates(t)
    out = (
        (wrap_angle((p + m) / 2), wrap_angle((q + n) / 2)),
        (wrap_angle(g5), wrap_angle(d5)),
        (wrap_angle((p - m) / 2), wrap_angle((q - n) / 2)),
    )
    return out, _report(t, out)


def _merge_degenerate(t: AngleTriple) -> AngleTriple | None:
    # identity middle gate: the triple collapses to a merge of the outer gates
    (g1, d1), (g2, d2), (g3, d3) = t
    if abs(wrap_angle(g2)) <= ZERO_TOL and abs(wrap_angle(d2)) <= ZERO_TOL:
        return ((0.0, 0.0), (wrap_angle(g1 + g3), wrap_angle(d1 + d3)), (0.0, 0.0))
    return None


def _solution(out: AngleTriple, form: YbeForm, residual: float, method: str) -> YbeSolution:
    return YbeSolution(YbeTriple(out, form), residual, method)


def _unsolved(reports: list[RelationReport]) -> UnsolvedError:
    return UnsolvedError(min(reports, key=lambda r: r.residual))


def _numeric_solve(t: AngleTriple) -> tuple[AngleTriple, RelationReport]:
    # imported here so that a run which never needs the fallback never loads scipy
    from scipy.optimize import least_squares

    target = triple_unitary(t, YbeForm.LEFT)

    def resid(x: np.ndarray) -> np.ndarray:
        u = triple_unitary(((x[0], x[1]), (x[2], x[3]), (x[4], x[5])), YbeForm.RIGHT)
        d = (u - target).ravel()
        return np.concatenate([d.real, d.imag])

    rng = np.random.default_rng(_FALLBACK_SEED)
    starts = [np.zeros(6)] + [
        rng.uniform(-np.pi, np.pi, 6) for _ in range(_FALLBACK_STARTS - 1)
    ]
    reports = []
    for s0 in starts:
        sol = least_squares(resid, s0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        x = [wrap_angle(a) for a in sol.x]
        out = ((x[0], x[1]), (x[2], x[3]), (x[4], x[5]))
        report = _report(t, out)
        if 2.0 * sol.cost < FALLBACK_COST_TOL and report.residual < SOLVER_TOL:
            return out, report
        reports.append(report)
    raise _unsolved(reports)


def numeric_fallback(t: YbeTriple) -> YbeSolution:
    """Multistart least-squares solve against the dense matrix identity.

    Deterministic: the start list is all-zeros plus seven points from a
    fixed-seed generator. Accepts a start when the squared Frobenius
    misfit drops below FALLBACK_COST_TOL and the verified residual below
    SOLVER_TOL.
    """
    out, report = _numeric_solve(t.pairs)
    return _solution(out, t.form.opposite, report.residual, "numeric-fallback")


def solve(t: YbeTriple) -> YbeSolution:
    """Rewrite a bridge triple into the mirrored form with the same unitary.

    The closed-form path is tried first and accepted when the verified
    residual (matrix and all sixteen relations) is below SOLVER_TOL; the
    numeric fallback covers anything it misses. Raises UnsolvedError with
    the best verified candidate when both fail. Both layouts are solved by
    the same left-layout formulas: R(gamma, delta) is symmetric under the
    swap of its two qubits, so the site mirror turns LEFT(a) = RIGHT(b)
    into RIGHT(a) = LEFT(b).
    """
    angles, out_form = t.pairs, t.form.opposite
    reports = []
    fast = _merge_degenerate(angles)
    if fast is not None:
        report = _report(angles, fast)
        if report.residual < SOLVER_TOL:
            return _solution(fast, out_form, report.residual, "analytic")
        reports.append(report)
    out, report = _analytic_solve(angles)
    if report.residual < SOLVER_TOL:
        return _solution(out, out_form, report.residual, "analytic")
    reports.append(report)
    try:
        out, report = _numeric_solve(angles)
    except UnsolvedError as exc:
        raise _unsolved(reports + [exc.report]) from None
    return _solution(out, out_form, report.residual, "numeric-fallback")
