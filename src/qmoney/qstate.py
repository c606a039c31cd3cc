# The quantum state of the money lab.
#
# Every bill and every attacker-held state in this protocol is a product
# state or a short linear combination of product states, so a state is
# stored as a sum of product terms instead of a 2^n amplitude vector.
# The tests check it against a dense statevector oracle (tests/support.py).
#
# Ownership: a SumOfProductsState is owned by exactly one holder (the
# registry hands out handles, never states), so its operations update
# it in place and return the same object; `s = s.op(...)` reads the
# same either way.
#
# Reference symbols: every state remembers a symbol tuple (`_ref`: the
# tuple it was issued from, or the target of its last VALID projection)
# and the qubits touched since (`_dirty`).  Invariant: for every term
# and every qubit k not in `_dirty`, `factors[k] is _ref[k].amplitudes`.
# So off the dirty qubits all terms agree.  An INVALID answer onto
# another tuple marks dirty the qubits where the target differs from
# `_ref`.  `norm_sq` and `compress` take their overlaps in one loop
# over the sorted dirty qubits, and so does `inner_with_symbols` when
# its target is `_ref` itself; onto any other target it takes all n.
# The mint verifies with the very tuple the bill was issued from, every
# VALID answer clears `_dirty`, and a qubit measured onto its reference
# symbol leaves it, so each query of the adaptive attack costs O(1)
# whatever n is.
#
# Costs: a gate costs O(1) per term.  A projector onto `_ref` costs
# O(|dirty| * terms^2) at worst, plus O(n) when an INVALID answer adds
# the target as a term; a projector onto any other symbols costs
# O(n * terms^2) at worst, O(n) on a single product term.  An INVALID
# answer whose residue the caller does not want (a destroying mint, and
# through it the harness's baseline trial) builds no term and calls no
# `compress`.  A qubit measurement costs O(1) on a single product term:
# one overlap per outcome, no norm and no term list.  On more terms its
# pairwise overlaps run over the dirty qubits.  Every measurement the
# attacks make is of a single product term (an X on a Z-basis qubit
# makes the state orthogonal to the target, so its INVALID adds no
# term); only tests measure the residues of two or more terms that an
# INVALID after a general unitary leaves.  A measurement draws once, by
# calling its caller's `rng.random()` after its own checks (the qubit
# index, or the length of a target that is not `_ref`), so a refused one
# draws nothing.
#
# Construction: neither class has an `__init__`, so calling either
# raises TypeError.  `from_symbols` builds every state and its one term,
# and the projector builds a term only for an INVALID residue, with
# `object.__new__` and the slots set directly: a product of symbols is
# normalized by construction, so there is nothing to check.  A VALID
# answer keeps the surviving term.  The tests build other states with
# the checked constructor in tests/support.py.
#
# Constant factors: each query of the adaptive attack, in process or
# through the server, is a gate, a verify and a measurement that cost
# O(1), so there the fixed cost per call is the cost.  The gates and
# `measure_qubit` check the qubit index inline, with no helper frame.
# The projector and `inner_with_symbols` take no `tuple()` and no `len()`
# of a target that is `_ref`, which has n symbols by construction.
# `inner_with_symbols`, the one-term `measure_qubit` and the overlaps of
# `norm_sq` and `compress` write out `_dot` and `clamp_probability`
# instead of calling them: the same operations in the same order, with
# a symbol's conjugated amplitudes cached on it (`bra`), so the same
# bits.  An INVALID residue is renormalized once, by `compress`, and
# `compress` of one term is one renormalization.

from __future__ import annotations

import math
from enum import Enum

# Norm / probability tolerance: values within ATOL of 0 or 1 are exact.
ATOL = 1e-9
_NEAR_ONE = 1.0 - ATOL
# Terms with coefficient magnitude below this are dropped.
PRUNE_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_sqrt = math.sqrt


class Basis(Enum):
    Z = "Z"
    X = "X"


class QubitSymbol(Enum):
    """The four conjugate-coding states: the alphabet of bills."""

    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"


SYMBOL_ALPHABET = "01+-"

_AMPLITUDES = {
    QubitSymbol.ZERO: (1.0 + 0.0j, 0.0 + 0.0j),
    QubitSymbol.ONE: (0.0 + 0.0j, 1.0 + 0.0j),
    QubitSymbol.PLUS: (_INV_SQRT2 + 0.0j, _INV_SQRT2 + 0.0j),
    QubitSymbol.MINUS: (_INV_SQRT2 + 0.0j, -_INV_SQRT2 + 0.0j),
}

for _sym in QubitSymbol:
    # cached on the members: Enum.__hash__ is Python code, so a dict
    # keyed by members costs a call per lookup in the hot loops.  `bra`
    # holds the conjugated amplitudes, which is the first operand of
    # every overlap `_dot` takes; conjugation is exact, so an overlap
    # with a cached bra gives the same bits.
    _sym.amplitudes = _AMPLITUDES[_sym]
    _sym.bra = tuple(a.conjugate() for a in _sym.amplitudes)

# a basis's outcome vectors are the symbols' own amplitude tuples, so a
# qubit measured onto a reference symbol holds that symbol's factor again
Basis.Z.symbols = (QubitSymbol.ZERO, QubitSymbol.ONE)
Basis.X.symbols = (QubitSymbol.PLUS, QubitSymbol.MINUS)
for _basis in Basis:
    _basis.vectors = tuple(sym.amplitudes for sym in _basis.symbols)
    _basis.bras = tuple(sym.bra for sym in _basis.symbols)


_SYMBOL_ORDER = tuple(QubitSymbol)
_ZERO, _ONE, _PLUS, _MINUS = _SYMBOL_ORDER


def random_symbols(rng, n: int) -> tuple[QubitSymbol, ...]:
    """n uniform conjugate-coding symbols, one rng.random() draw each.

    Draw d picks `_SYMBOL_ORDER[int(d * 4)]`.  Since d * 4 is exact,
    comparing d with the quarters picks the same symbol, for less.
    """
    draw = rng.random
    return tuple([(_ZERO if d < 0.25 else _ONE) if (d := draw()) < 0.5
                  else (_PLUS if d < 0.75 else _MINUS) for _ in range(n)])


def symbols_from_string(text: str) -> tuple[QubitSymbol, ...]:
    """Parse a symbol string over the alphabet 01+-."""
    out = []
    for ch in text:
        if ch not in SYMBOL_ALPHABET:
            raise ValueError(f"invalid symbol character {ch!r}; alphabet is {SYMBOL_ALPHABET!r}")
        out.append(QubitSymbol(ch))
    return tuple(out)


def symbols_to_string(symbols) -> str:
    return "".join(s.value for s in symbols)


class VerifyOutcome(Enum):
    VALID = "VALID"
    INVALID = "INVALID"


# the members as module globals, for the hot paths: EnumType defines
# __getattr__, so reading a member off its class is a slow lookup
_VALID = VerifyOutcome.VALID
_INVALID = VerifyOutcome.INVALID


class NonUnitaryError(ValueError):
    """Raised when a supplied 2x2 matrix is not unitary."""

    code = "NON_UNITARY"


def _dot(u, v) -> complex:
    # <u|v> for 2-vectors stored as tuples; every factor overlap goes here
    return u[0].conjugate() * v[0] + u[1].conjugate() * v[1]


def clamp_probability(p: float) -> float:
    """Snap probabilities within ATOL of 0 or 1 to the exact value."""
    if p < ATOL:
        return 0.0
    if p > 1.0 - ATOL:
        return 1.0
    return p


def check_unitary(u) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Validate a 2x2 matrix (rows of pairs) is unitary; return it as tuples."""
    try:
        (a, b), (c, d) = (
            (complex(u[0][0]), complex(u[0][1])),
            (complex(u[1][0]), complex(u[1][1])),
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise NonUnitaryError(f"not a 2x2 complex matrix: {u!r}") from exc
    # every comparison with NaN is false, so the tolerance test below
    # would pass it
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in (a, b, c, d)):
        raise NonUnitaryError("matrix has a non-finite entry")
    col0 = abs(a) ** 2 + abs(c) ** 2
    col1 = abs(b) ** 2 + abs(d) ** 2
    cross = a.conjugate() * b + c.conjugate() * d
    if abs(col0 - 1.0) > ATOL or abs(col1 - 1.0) > ATOL or abs(cross) > ATOL:
        raise NonUnitaryError("matrix is not unitary within tolerance")
    return ((a, b), (c, d))


class ProductTerm:
    """One product term: a complex coefficient times n unit-norm factors.

    The state that owns a term updates it in place.  There is no
    `__init__`: a term is built with `_new`, then both slots are set.
    """

    __slots__ = ("coeff", "factors")


_new = object.__new__


class SumOfProductsState:
    """A normalized n-qubit state stored as a sum of product terms.

    Operations update the state in place and return it.  Term count only
    grows on projector measurements (at most one extra term per
    measurement).  `_ref` and `_dirty` are the reference symbols and the
    qubits touched since (see the module comment).  There is no
    `__init__`: `from_symbols` builds every state.
    """

    __slots__ = ("n", "terms", "_ref", "_dirty")

    @classmethod
    def from_symbols(cls, symbols) -> "SumOfProductsState":
        # a product state is normalized by construction: nothing to check
        if type(symbols) is not tuple:
            symbols = tuple(symbols)
        if not symbols:
            raise ValueError("symbol sequence must be nonempty")
        term = _new(ProductTerm)
        term.coeff = 1.0 + 0.0j
        term.factors = [s.amplitudes for s in symbols]
        state = _new(cls)
        state.n = len(symbols)
        state.terms = [term]
        state._ref = symbols
        state._dirty = set()
        return state

    def norm_sq(self) -> float:
        terms = self.terms
        # the qubits two terms can differ on
        idx = sorted(self._dirty)
        total = 0.0 + 0.0j
        for j, tj in enumerate(terms):
            total += abs(tj.coeff) ** 2
            fj = tj.factors
            for tk in terms[j + 1 :]:
                ov = tj.coeff.conjugate() * tk.coeff
                fk = tk.factors
                for k in idx:
                    a0, a1 = fj[k]
                    b0, b1 = fk[k]
                    ov *= a0.conjugate() * b0 + a1.conjugate() * b1  # _dot
                    if ov == 0:
                        break
                total += 2 * ov.real
        return total.real

    def inner_with_symbols(self, target) -> complex:
        """<target|psi> where target is a symbol sequence."""
        if target is self._ref:
            # off the dirty qubits every factor is the target's own
            idx = sorted(self._dirty)
        else:
            if type(target) is not tuple:
                target = tuple(target)
            if len(target) != self.n:
                raise ValueError(f"dimension mismatch: state n={self.n}, target length {len(target)}")
            idx = range(self.n)
        # each factor overlap is `_dot(target[k].amplitudes, factor)`,
        # written out with the cached bra
        total = 0.0 + 0.0j
        for t in self.terms:
            amp = t.coeff
            f = t.factors
            for k in idx:
                b0, b1 = target[k].bra
                f0, f1 = f[k]
                amp *= b0 * f0 + b1 * f1
                if amp == 0:
                    break
            total += amp
        return total

    def apply_pauli_x(self, i: int) -> "SumOfProductsState":
        if not 0 <= i < self.n:
            raise IndexError(f"qubit index {i} out of range for n={self.n}")
        self._dirty.add(i)
        for t in self.terms:
            f = t.factors[i]
            t.factors[i] = (f[1], f[0])
        return self

    def apply_unitary(self, i: int, u) -> "SumOfProductsState":
        if not 0 <= i < self.n:
            raise IndexError(f"qubit index {i} out of range for n={self.n}")
        (a, b), (c, d) = check_unitary(u)
        self._dirty.add(i)
        for t in self.terms:
            f0, f1 = t.factors[i]
            t.factors[i] = (a * f0 + b * f1, c * f0 + d * f1)
        return self

    def _project(self, i: int, bvec, before) -> None:
        # qubit i of each term onto bvec, from its (coeff, factor) in `before`
        for t, (coeff, f) in zip(self.terms, before):
            t.coeff = coeff * _dot(bvec, f)
            t.factors[i] = bvec

    def measure_qubit(self, i: int, basis: Basis, rng) -> tuple[int, "SumOfProductsState"]:
        """Born-rule measurement of qubit i; one rng.random() draw, after the check."""
        if not 0 <= i < self.n:
            raise IndexError(f"qubit index {i} out of range for n={self.n}")
        terms = self.terms
        if len(terms) == 1:
            # the branch amplitude is the term's own overlap; the same
            # expressions as the general path below, so the same bits:
            # `_dot(b, f)` and `clamp_probability`, written out
            t = terms[0]
            f = t.factors
            f0, f1 = f[i]
            coeff = t.coeff
            (u0, u1), bra1 = basis.bras
            c = coeff * (u0 * f0 + u1 * f1)
            p = abs(c) ** 2
            if p < ATOL:
                p = 0.0
            elif p > _NEAR_ONE:
                p = 1.0
            if rng.random() < p:
                bit = 0
            else:
                bit, p = 1, 1.0 - p
                u0, u1 = bra1
                c = coeff * (u0 * f0 + u1 * f1)
            t.coeff = c * (1.0 / _sqrt(p))
            f[i] = bvec = basis.vectors[bit]
        else:
            b0, b1 = basis.vectors
            before = [(t.coeff, t.factors[i]) for t in terms]
            # the norm needs no overlap on qubit i: every term holds b0 there
            self._project(i, b0, before)
            p0 = clamp_probability(self.norm_sq())
            if rng.random() < p0:
                bit, bvec, p = 0, b0, p0
            else:
                bit, bvec, p = 1, b1, 1.0 - p0
                self._project(i, b1, before)
            scale = 1.0 / math.sqrt(p)
            self.terms = [t for t in terms if abs(t.coeff) >= PRUNE_TOL]
            for t in self.terms:
                t.coeff *= scale
        # qubit i is clean again iff it holds the reference factor
        if bvec is self._ref[i].amplitudes:
            self._dirty.discard(i)
        else:
            self._dirty.add(i)
        return bit, self

    def measure_projector_detail(
        self, target, rng, residue: bool = True
    ) -> tuple[VerifyOutcome, "SumOfProductsState | None", float]:
        """Project onto the product state of `target`; one rng.random() draw.

        Returns (outcome, post-state, clamped probability of VALID).  The
        VALID post-state is the clean target product state (global phase
        discarded); the INVALID post-state is the renormalized residue,
        or None when `residue` is false, in which case it is never built
        and the state is left to be dropped.
        """
        if target is not self._ref and type(target) is not tuple:
            target = tuple(target)
        c = self.inner_with_symbols(target)
        mag = abs(c)
        p = mag ** 2  # clamp_probability, written out
        if p < ATOL:
            p = 0.0
        elif p > _NEAR_ONE:
            p = 1.0
        if rng.random() < p:
            # the surviving term becomes the target
            term = self.terms[0]
            if target is self._ref:
                # off the dirty qubits the term is the target already
                factors = term.factors
                for k in self._dirty:
                    factors[k] = target[k].amplitudes
            else:
                term.factors = [s.amplitudes for s in target]
                self._ref = target
            self._dirty.clear()
            term.coeff = 1.0 + 0.0j
            self.terms = [term]
            return _VALID, self, p
        if not residue:
            return _INVALID, None, p
        # the residue |psi> - c|target>, which `compress` renormalizes
        if mag >= PRUNE_TOL:
            if target is not self._ref:
                # the new term differs from `_ref` where the target does; locals
                # named only in the first iterable become no closure cells
                self._dirty |= {k for k, (s, r) in enumerate(zip(target, self._ref)) if s is not r}
            term = _new(ProductTerm)
            term.coeff = -c
            term.factors = [s.amplitudes for s in target]
            self.terms.append(term)
        return _INVALID, self.compress(), p

    def compress(self) -> "SumOfProductsState":
        """Drop negligible terms, merge colinear ones, renormalize."""
        terms = self.terms
        if len(terms) == 1:
            # what the loops below do with one term, written out
            t = terms[0]
            mag = abs(t.coeff)
            if mag < PRUNE_TOL:
                raise ValueError("compression eliminated all terms; state had zero norm")
            t.coeff *= 1.0 / _sqrt(mag ** 2)
            return self
        merged: list[ProductTerm] = []
        # the qubits two terms can differ on
        idx = sorted(self._dirty)
        for t in terms:
            if abs(t.coeff) < PRUNE_TOL:
                continue
            ft = t.factors
            for m in merged:
                phase = 1.0 + 0.0j
                colinear = True
                fm = m.factors
                for k in idx:
                    a0, a1 = fm[k]
                    b0, b1 = ft[k]
                    ov = a0.conjugate() * b0 + a1.conjugate() * b1  # _dot
                    if abs(ov) < _NEAR_ONE:
                        colinear = False
                        break
                    phase *= ov
                if colinear:
                    m.coeff += t.coeff * phase
                    break
            else:
                merged.append(t)
        merged = [t for t in merged if abs(t.coeff) >= PRUNE_TOL]
        if not merged:
            raise ValueError("compression eliminated all terms; state had zero norm")
        self.terms = merged
        scale = 1.0 / math.sqrt(self.norm_sq())
        for t in merged:
            t.coeff *= scale
        return self

