"""Bridge-pattern rewriting for the two-parameter gate class R(gamma, delta).

Three R gates laid out on three chain sites in the bridge pattern
(outer pair, inner pair, outer pair) equal another triple in the mirrored
pattern with new parameters. This module solves for the mirrored parameters
in closed form, one candidate per triple, and verifies it by its 6x6
Majorana rotation, which fixes the triple's unitary up to sign: a sign on
one move is a global phase of the whole circuit. The check is scalar
arithmetic; no 8x8 unitary is built. A mirror always exists (see solve), so
the closed form fails only where an angle has lost its precision. A triple
is three plain (gamma, delta) pairs: solve reads its argument in the left
layout and returns the right-layout mirror, and rotation_residual takes
the left triple first.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SOLVER_TOL = 1e-9

_WRAP_SNAP_TOL = 1e-12
_TWO_PI = 2.0 * math.pi

# A bridge triple: three (gamma, delta) pairs in operator order. In the left
# layout, (R1 x 1)(1 x R2)(R3 x 1), the outer gates sit on the lower pair
# and R3 acts first in time; the right layout, (1 x R4)(R5 x 1)(1 x R6), is
# its mirror image.
AnglePair = tuple[float, float]
AngleTriple = tuple[AnglePair, AnglePair, AnglePair]


class YbeSolution(NamedTuple):
    """Mirrored triple, its verified residual and the path that found it.

    pairs is the right-layout mirror of a left-layout input, in operator
    order; method is always "analytic", the closed form.
    """

    pairs: AngleTriple
    residual: float
    method: str


class UnsolvedError(Exception):
    """The closed form's candidate missed the solver tolerance; carries its
    rotation residual as best_residual."""

    def __init__(self, residual: float) -> None:
        super().__init__(f"no solution below tolerance {SOLVER_TOL:g}; best residual {residual:.3e}")
        self.best_residual = residual


def wrap_angle(x: float) -> float:
    """Canonicalize an angle to (-pi, pi].

    The result differs from x by a multiple of 2 pi: only values within
    _WRAP_SNAP_TOL above -pi move to +pi.
    """
    y = (float(x) + math.pi) % _TWO_PI - math.pi
    return math.pi if abs(y + math.pi) <= _WRAP_SNAP_TOL else y


# The Majorana rotation of a triple (Jozsa and Miyake, Proc. R. Soc. A 464,
# 3089 (2008)). With Majoranas c_2k = Z..Z X_k and c_2k+1 = Z..Z Y_k on three
# sites and G a gate conjugated by rx(pi/2) on every qubit, G c_j G^dag =
# sum_i M_ij c_i for a real rotation M. A product of gates has the product of
# their rotations, and -G has the rotation of G. R(gamma, delta) on the pair
# whose Majoranas start at a (0 low, 2 high) turns plane (a + 2, a + 1) by
# 2 gamma and plane (a, a + 3) by 2 delta; a turn by theta in plane (p, q)
# takes e_p to cos(theta) e_p + sin(theta) e_q. So M splits into two 3x3
# blocks, on Majoranas (0, 3, 4) and (1, 2, 5). In each, the low gate turns
# the block's plane (0, 1) and the high gate its plane (1, 2): by 2 delta and
# -2 gamma in the first block, by -2 gamma and 2 delta in the second.


def _euler(a: float, b: float, c: float) -> tuple[float, ...]:
    """Row-major entries of T01(a) T12(b) T01(c), Tpq a turn in plane (p, q)."""
    ca, cb, cc = math.cos(a), math.cos(b), math.cos(c)
    sa, sb, sc = math.sin(a), math.sin(b), math.sin(c)
    return (
        ca * cc - sa * cb * sc, -ca * sc - sa * cb * cc, sa * sb,
        sa * cc + ca * cb * sc, -sa * sc + ca * cb * cc, -ca * sb,
        sb * sc, sb * cc, cb,
    )


def _rotation(t: AngleTriple, right: bool = False) -> tuple[float, ...]:
    """The triple's rotation as its two 3x3 blocks, row-major, (0, 3, 4) first."""
    (g1, d1), (g2, d2), (g3, d3) = t
    if not right:
        return _euler(2 * d1, -2 * g2, 2 * d3) + _euler(-2 * g1, 2 * d2, -2 * g3)
    # T12(a) T01(b) T12(c) is T01(-a) T12(-b) T01(-c) with a block's three
    # indices reversed, which reverses its row-major entries
    return _euler(2 * g1, -2 * d2, 2 * g3)[::-1] + _euler(-2 * d1, 2 * g2, -2 * d3)[::-1]


def rotation_residual(left: AngleTriple, right: AngleTriple) -> float:
    """Frobenius distance between the 6x6 rotations of a left-layout triple
    and a right-layout one."""
    diff = [x - y for x, y in zip(_rotation(left), _rotation(right, right=True))]
    return math.sqrt(math.fsum(d * d for d in diff))


def _aggregates(t: AngleTriple) -> tuple[float, float, float, float, float, float]:
    """Sum/difference aggregates and middle angles of the mirrored triple.

    Matches the two triples' unitaries entry by entry, each entry a product
    of sines and cosines of g2, g1 +- g3, d1 +- d3 and d2 (and likewise on
    the right), and solves for (g4+g6, g4-g6, d4+d6, d4-d6, g5, d5) using
    two-argument arctangents throughout; the middle-angle projections reuse
    the aggregate branch so the six values are sign-consistent. The closed
    form is division-free, so no denominator can vanish; acceptance is gated
    on the rotation residual alone.
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


def solve(t: AngleTriple) -> YbeSolution:
    """Rewrite a left-layout bridge triple into the right layout with the same unitary.

    The closed form gives one candidate, accepted when its rotation residual
    is below SOLVER_TOL; otherwise UnsolvedError carries that residual. The
    rotation fixes the unitary up to sign, and a sign on one move is a global
    phase of the whole circuit, which compress, verify and m_s never see.
    The same call solves right to left: R(gamma, delta) is symmetric under
    the swap of its two qubits, so the site mirror turns LEFT(a) = RIGHT(b)
    into RIGHT(a) = LEFT(b), and a right-layout triple's pairs solve to its
    left-layout mirror.
    """
    # No search backs the closed form, because a mirror always exists: each
    # 3x3 block of a left triple's rotation is an Euler product T01 T12 T01,
    # every SO(3) rotation also factors as T12 T01 T12, and gamma -> gamma +
    # pi negates R, which fixes the sign the rotation cannot see. What is
    # left is rounding. Over 2.4 M triples with angles up to MAX_ANGLE / 2
    # (spin_model), the largest a job hands the solver, the worst residual
    # was 2^-32 (two ulps of a sum near 1e6), 4x below SOLVER_TOL.
    p, m, q, n, g5, d5 = _aggregates(t)
    out = (
        (wrap_angle((p + m) / 2), wrap_angle((q + n) / 2)),
        (wrap_angle(g5), wrap_angle(d5)),
        (wrap_angle((p - m) / 2), wrap_angle((q - n) / 2)),
    )
    residual = rotation_residual(t, out)
    if residual < SOLVER_TOL:
        return YbeSolution(out, residual, "analytic")
    raise UnsolvedError(residual)
