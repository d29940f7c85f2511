"""Rewrite engine for alternating-layer circuits of R(gamma, delta) gates.

Two rewrites preserve the circuit unitary up to global phase, and both live
in _WordEngine. A merge folds a gate into a letter on the same pair by
adding its (gamma, delta) to the letter's, wrapped into (-pi, pi]: same-pair
gates of one family commute and their exponents add. The bridge move is the
three-gate identity that ybe.solve solves. The absorption loop combines
them so that any number of alternating layers collapses into a block of at
most N(N-1)/2 gates laid out on an N-slot alternating template.

Internally a circuit is tracked as a word of letters [pair, gamma, delta]
together with the permutation its pair swaps generate. A new gate either
extends the word (the permutation grows) or, after rewriting the word to end
on the same pair, merges into the last letter (the permutation is already
saturated there). Once the permutation is the full reversal, the word is
kept in canonical triangle order, through which a gate on pair j descends
in j bridge moves before it merges. Emission peels the permutation back into
template slots.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice

from .circuit_ir import Circuit, PairGate
from .propagators import RGateParams
from .spin_model import ZERO_TOL, CouplingParams, HamiltonianClass, classify
from .ybe import solve, wrap_angle

RESIDUAL_BUDGET = 1e-6


class ResidualBudgetError(RuntimeError):
    """Accumulated rewrite residual exceeded RESIDUAL_BUDGET."""


@dataclass(frozen=True)
class CompressedBlock:
    """Alternating-template block equivalent to a deep circuit.

    slots holds the gates of each of the N template slots; slot k holds even
    pairs when k is even, odd pairs otherwise, and circuit is the slots read
    in order. residual is the summed rotation residual (ybe.rotation_residual)
    of every bridge move behind the block; ybe_moves counts them.
    """

    slots: tuple[tuple[PairGate, ...], ...]
    klass: HamiltonianClass
    residual: float
    ybe_moves: int
    circuit: Circuit = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.slots)
        gates = tuple(g for slot in self.slots for g in slot)
        object.__setattr__(self, "circuit", Circuit(n, gates))
        conj = self.klass.family.conjugation
        bound = n * (n - 1) // 2
        if len(gates) > bound:
            raise ValueError(f"{len(gates)} gates exceed the {bound}-gate bound")
        if not math.isfinite(self.residual) or self.residual < 0.0:
            raise ValueError(f"residual must be finite and nonnegative, got {self.residual!r}")
        if self.ybe_moves < 0:
            raise ValueError(f"ybe_moves must be nonnegative, got {self.ybe_moves!r}")
        for k, slot in enumerate(self.slots):
            for g in slot:
                if g.pair % 2 != k % 2:
                    raise ValueError(f"gate on pair {g.pair} misplaced in slot {k}")
                if not isinstance(g.params, RGateParams):
                    raise TypeError("block gates must carry RGateParams")
                if g.conjugation != conj:
                    raise ValueError("block gates must share the block conjugation tag")

    @property
    def conjugation(self) -> str:
        return self.klass.family.conjugation

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def gate_count(self) -> int:
        return len(self.circuit.gates)

    @property
    def alternating_layers(self) -> int:
        used = sum(1 for s in self.slots if s)
        return (used + 1) // 2


class _WordEngine:
    """Mutable word-and-permutation state of one block, rewritten in place.

    The word grows while gates extend the permutation. Once it holds all
    N(N-1)/2 letters it is respelled once into triangle order, row k being
    the letters on pairs k, k-1, ..., 0 for k = 0 .. N-2, and each later gate
    descends the triangle (_fall).
    """

    def __init__(self, n: int, klass: HamiltonianClass) -> None:
        self.klass = klass
        self.conj = klass.family.conjugation
        self.perm = list(range(n))
        self.word: list[list] = []
        self.residual = 0.0
        self.moves = 0
        self.full = n * (n - 1) // 2
        self.triangle = False

    def _ascend(self, j: int, gamma: float, delta: float) -> bool:
        if self.perm[j] > self.perm[j + 1]:
            return False
        self.perm[j], self.perm[j + 1] = self.perm[j + 1], self.perm[j]
        self.word.append([j, gamma, delta])
        return True

    def _turn(self, f: list, h: list, g: list) -> tuple[list, list, list]:
        # time-ordered letters f@j, h@i, g@j with |i-j| = 1 become a@i, b@j,
        # c@i; solve reads its pairs in operator order (g first) and its one
        # direction covers j < i and j > i alike, by the site mirror
        sol = solve(((g[1], g[2]), (h[1], h[2]), (f[1], f[2])))
        self.residual += sol.residual
        self.moves += 1
        if self.residual > RESIDUAL_BUDGET:
            raise ResidualBudgetError(
                f"accumulated residual {self.residual:.3e} exceeds {RESIDUAL_BUDGET:g}"
            )
        r = sol.pairs
        return [h[0], *r[2]], [f[0], *r[1]], [h[0], *r[0]]

    def _braid(self, q: int) -> None:
        w = self.word
        w[q - 2], w[q - 1], w[q] = self._turn(w[q - 2], w[q - 1], w[q])

    def _mew(self, end: int, i: int) -> None:
        # rewrite word[:end] in place to end on pair i; precondition: after
        # word[:end] the strands at i, i+1 are x > y, so they have crossed.
        # Letters that commute with pair i are stepped over; only a letter on
        # a neighbouring pair recurses, crossing y with some d < y (or x with
        # some e > x). Its two calls target (x, d) in word[:q-1] and (x, y) in
        # word[:q-2], where d has crossed neither x nor y, so no strand joins
        # a chain of nested calls twice: the depth stays below N.
        w = self.word
        q = end
        while abs(w[q - 1][0] - i) >= 2:
            q -= 1
        j = w[q - 1][0]
        if j != i:
            self._mew(q - 1, i)
            self._mew(q - 2, j)
            self._braid(q - 1)
        if q != end:
            w.insert(end - 1, w.pop(q - 1))

    def _respell(self, order: list[int]) -> None:
        # rewrite the word right to left into order, a reduced word of perm. Both
        # hold one letter per inversion: one per _ascend, kept by merges and braids,
        # one per peel swap, and N(N-1)/2 in the triangle, which absorb passes a full word
        for end in range(len(order), 0, -1):
            self._mew(end, order[end - 1])

    def _fall(self, j: int, gamma: float, delta: float) -> None:
        # a letter on pair j after row r commutes past the row's pairs j-2 .. 0
        # and meets its letters on j, j-1; one braid keeps the row's shape and
        # sends a letter on pair j-1 left out of the row, past its pairs above
        # j, to the end of row r-1. On pair 0 it merges into the row's last letter.
        w = self.word
        letter = [j, gamma, delta]
        r = len(self.perm) - 2
        while letter[0]:
            at = r * (r + 1) // 2 + r - letter[0]
            letter, w[at], w[at + 1] = self._turn(w[at], w[at + 1], letter)
            r -= 1
        self._merge(w[r * (r + 3) // 2], letter[1], letter[2])

    @staticmethod
    def _merge(letter: list, gamma: float, delta: float) -> None:
        # wrapped: row 0's letter takes merges and no braid for the whole
        # session, and unwrapped sums would lose precision as they grow
        letter[1] = wrap_angle(letter[1] + gamma)
        letter[2] = wrap_angle(letter[2] + delta)

    def absorb(self, g: PairGate) -> None:
        j, gamma, delta = g.pair, *_r_form_gate(g, self.klass)
        if self.triangle:
            self._fall(j, gamma, delta)
        elif self._ascend(j, gamma, delta):
            return
        elif len(self.word) < self.full:
            self._mew(len(self.word), j)
            self._merge(self.word[-1], gamma, delta)
        else:
            n = len(self.perm)
            self._respell([p for k in range(n - 1) for p in range(k, -1, -1)])
            self.triangle = True
            self._fall(j, gamma, delta)

    def block(self) -> CompressedBlock:
        """The block of the gates so far, emitted from a copy of the word so
        that absorption can go on."""
        twin = copy.copy(self)
        twin.word = [list(letter) for letter in self.word]
        slots = _peel_template(self.perm)
        twin._respell([j for s in slots for j in reversed(s)])
        gates = (
            PairGate(j, RGateParams(wrap_angle(gamma), wrap_angle(delta)), self.conj)
            for j, gamma, delta in twin.word
        )
        return CompressedBlock(
            tuple(tuple(islice(gates, len(s))) for s in slots), self.klass, twin.residual, twin.moves
        )


def _peel_template(perm: list[int]) -> list[list[int]]:
    """Peel perm right to left into N alternating slots by odd-even transposition sort, which
    sorts any N items in N rounds (Knuth, TAOCP Vol. 3, 5.3.4) and swaps once per inversion."""
    n, sigma = len(perm), list(perm)
    slots: list[list[int]] = [[] for _ in range(n)]
    for k in range(n - 1, -1, -1):
        slot = slots[k]
        for j in range(k % 2, n - 1, 2):
            if sigma[j] > sigma[j + 1]:
                sigma[j], sigma[j + 1] = sigma[j + 1], sigma[j]
                slot.append(j)
        # two rounds in a row without a swap leave no descent at either
        # parity: sigma is sorted, and scanning the rounds left would make a
        # shallow block on a wide register cost O(n^2)
        if not slot and k < n - 1 and not slots[k + 1]:
            break
    return slots


def _r_form_gate(g: PairGate, klass: HamiltonianClass) -> tuple[float, float]:
    """(gamma, delta) of a gate of the block's class."""
    a = g.angles()
    axes = [axis for axis, t in zip("xyz", a.as_tuple()) if abs(t) > ZERO_TOL]
    if not set(axes) <= set(klass.axes):
        raise ValueError(f"gate with axes {axes} does not fit class {klass.name}")
    return klass.family.r_params(a)


def absorb_layer(engine: _WordEngine, gates: Sequence[PairGate]) -> CompressedBlock:
    """Fold gates, a time-ordered list of the engine's class, into the
    engine's word in the order given, and emit the block so far onto the
    template."""
    for g in gates:
        engine.absorb(g)
    return engine.block()


def absorb_steps(
    n: int, klass: HamiltonianClass, step: Sequence[PairGate], num_steps: int
) -> Iterator[CompressedBlock]:
    """The block after each of num_steps absorptions of step, from one engine
    session that starts empty: each block is emitted from a copy, so
    absorption goes on. Raises UnsupportedClassError for a three-axis class
    before any gate is absorbed."""
    engine = _WordEngine(n, klass)
    for _ in range(num_steps):
        yield absorb_layer(engine, step)


def detect_class(c: Circuit) -> HamiltonianClass:
    """The class of the per-axis peak angles over every gate; a circuit with
    no gates has all peaks zero, class X."""
    angles = (g.angles().as_tuple() for g in c.gates)
    peaks = (max(map(abs, axis)) for axis in zip((0.0, 0.0, 0.0), *angles))
    return classify(CouplingParams(*peaks))


def compress(c: Circuit) -> CompressedBlock:
    """Absorb a whole circuit into one template block in one engine session.

    Gates go in the order given and the block is emitted once at the end. The
    gate count of the result is at most N(N-1)/2 regardless of how many
    layers went in. Raises UnsupportedClassError for three-axis gate sets
    and propagates UnsolvedError from the bridge solver.
    """
    return next(absorb_steps(c.num_qubits, detect_class(c), c.gates, 1))


def pad_to_template(block: CompressedBlock) -> CompressedBlock:
    """Fill every free template position with an identity gate.

    The unitary is unchanged; the gate count becomes exactly N(N-1)/2,
    making per-step counts of the compressed circuit shape-stable.
    """
    n = block.num_qubits
    identity = RGateParams(0.0, 0.0)
    slots = []
    for k, slot in enumerate(block.slots):
        have = {g.pair: g for g in slot}
        slots.append(tuple(
            have.get(j) or PairGate(j, identity, block.conjugation) for j in range(k % 2, n - 1, 2)
        ))
    return CompressedBlock(tuple(slots), block.klass, block.residual, block.ybe_moves)
