"""Shared test helpers: the dense statevector oracle, the randomized
two-backend program runner, and the constructors and readers that only
tests use.

`DenseState` is the independent oracle that the sum-of-products state is
checked against: a 2^n numpy amplitude vector, immutable (every
operation returns a new state) and capped at DENSE_MAX_QUBITS qubits.
`to_dense` expands a sum-of-products state into one.

The runtime builds every state through `SumOfProductsState.from_symbols`,
and neither state class has an `__init__`.  `sum_of_products` and
`product_term` are the checked constructors that tests use to build
multi-term states by hand; `state_from_string`, `inner_with`, `fidelity`,
`fidelity_to_symbols`, `symbol_basis`, `symbol_bit`, the `PAULI_X` and
`HADAMARD` gates, `FixedDraw` (an rng whose draws are one set number),
`ScriptedDraw` (an rng whose draws are a given list, in order, and whose
`getrandbits` returns the words that give those draws),
`bills_equal`, `serials` (a mint's serials), `is_live` (whether a
registry holds a handle's state), `read_results_csv` and `indexed_rng`
(a stream per trial index, for tests pinned to such streams) are the
other helpers that only tests call.

Both backends' measurements take an rng and draw from it once, after
their own checks, as the runtime's do.
"""

import _random
import cmath
import csv
import math
import random

import numpy as np

from qmoney.harness import _MIX_A, _MIX_B, _U64, ResultRow
from qmoney.qstate import (
    ATOL,
    Basis,
    ProductTerm,
    QubitSymbol,
    SumOfProductsState,
    VerifyOutcome,
    _dot,
    check_unitary,
    clamp_probability,
    symbols_from_string,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

PAULI_X = ((0.0 + 0.0j, 1.0 + 0.0j), (1.0 + 0.0j, 0.0 + 0.0j))
HADAMARD = (
    (_INV_SQRT2 + 0.0j, _INV_SQRT2 + 0.0j),
    (_INV_SQRT2 + 0.0j, -_INV_SQRT2 + 0.0j),
)


def symbol_basis(sym: QubitSymbol) -> Basis:
    return Basis.Z if sym in (QubitSymbol.ZERO, QubitSymbol.ONE) else Basis.X


def symbol_bit(sym: QubitSymbol) -> int:
    return 0 if sym in (QubitSymbol.ZERO, QubitSymbol.PLUS) else 1


def product_term(coeff: complex, factors) -> ProductTerm:
    term = object.__new__(ProductTerm)
    term.coeff = coeff
    term.factors = factors if type(factors) is list else list(factors)
    return term


def sum_of_products(n: int, terms, check: bool = True) -> SumOfProductsState:
    """A state from its terms; with `check`, factor counts and the norm
    are checked, and terms that are not ProductTerms are converted."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    if not terms:
        raise ValueError("state needs at least one term")
    state = object.__new__(SumOfProductsState)
    state.n = n
    state.terms = terms
    # any n symbols will do as the reference while every qubit is dirty
    state._ref = (QubitSymbol.ZERO,) * n
    state._dirty = set(range(n))
    if check:
        state.terms = terms = [
            t if isinstance(t, ProductTerm) else product_term(complex(t.coeff), t.factors)
            for t in terms
        ]
        for t in terms:
            if len(t.factors) != n:
                raise ValueError("term factor count does not match qubit count")
        nrm = state.norm_sq()
        if abs(nrm - 1.0) > ATOL:
            raise ValueError(f"state is not normalized: <psi|psi> = {nrm}")
    return state


def state_from_string(text: str) -> SumOfProductsState:
    return SumOfProductsState.from_symbols(symbols_from_string(text))


def inner_with(a: SumOfProductsState, b: SumOfProductsState) -> complex:
    """<a|b>."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    total = 0.0 + 0.0j
    for tj in a.terms:
        for tk in b.terms:
            amp = tj.coeff.conjugate() * tk.coeff
            for fj, fk in zip(tj.factors, tk.factors):
                amp *= _dot(fj, fk)
                if amp == 0:
                    break
            total += amp
    return total


def fidelity(a: SumOfProductsState, b: SumOfProductsState) -> float:
    """|<a|b>|^2; compares states up to global phase."""
    return min(1.0, abs(inner_with(a, b)) ** 2)


def fidelity_to_symbols(state: SumOfProductsState, symbols) -> float:
    return min(1.0, abs(state.inner_with_symbols(symbols)) ** 2)


def bills_equal(a, b) -> bool:
    """Whether two mints hold the same bill secrets."""
    return a._bills == b._bills


def serials(mint) -> list[str]:
    with mint._lock:
        return list(mint._bills)


def is_live(registry, handle: int) -> bool:
    with registry._lock:
        return handle in registry._states


# the third splitmix64 constant, which mixed a trial index into its own
# stream before a row's trials read one stream in order
_MIX_C = 0x94D049BB133111EB


def indexed_rng(seed: int, n: int, index: int) -> _random.Random:
    """The generator seeded with `seed*A + n*B + index*C` masked to 64 bits:
    trial `index`'s own stream, from which the mint path's pinned digests
    and criterion 1 were recorded.  Index 0 is `harness.trial_rng(seed, n)`."""
    return _random.Random((seed * _MIX_A + n * _MIX_B + index * _MIX_C) & _U64)


def read_results_csv(path) -> list[ResultRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(
                ResultRow(
                    n=int(rec["n"]),
                    strategy=rec["strategy"],
                    policy=rec["policy"],
                    trials=int(rec["trials"]),
                    successes=int(rec["successes"]),
                    success_rate=float(rec["success_rate"]),
                    mean_queries=float(rec["mean_queries"]),
                    std_error=float(rec["std_error"]),
                    analytic_rate=float(rec["analytic_rate"]),
                    seed=int(rec["seed"]),
                )
            )
        return rows

# Dense backend is a desk-scale oracle only.
DENSE_MAX_QUBITS = 20


class DenseState:
    """Reference 2^n statevector backend (qubit 0 is the leftmost factor).

    Immutable: operations return new states.
    """

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps):
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        if n > DENSE_MAX_QUBITS:
            raise ValueError(f"dense backend capped at n={DENSE_MAX_QUBITS}")
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (2**n,):
            raise ValueError("amplitude vector length must be 2^n")
        self.n = n
        self.amps = amps

    @classmethod
    def from_symbols(cls, symbols) -> "DenseState":
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("symbol sequence must be nonempty")
        v = np.array([1.0 + 0.0j])
        for s in symbols:
            v = np.kron(v, np.array(s.amplitudes, dtype=complex))
        return cls(len(symbols), v)

    @classmethod
    def from_string(cls, text: str) -> "DenseState":
        return cls.from_symbols(symbols_from_string(text))

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"qubit index {i} out of range for n={self.n}")

    def _tensor(self):
        return self.amps.reshape((2,) * self.n)

    def apply_unitary(self, i: int, u) -> "DenseState":
        self._check_index(i)
        rows = check_unitary(u)
        mat = np.array(rows, dtype=complex)
        t = np.tensordot(mat, self._tensor(), axes=([1], [i]))
        t = np.moveaxis(t, 0, i)
        return DenseState(self.n, t.reshape(-1))

    def apply_pauli_x(self, i: int) -> "DenseState":
        return self.apply_unitary(i, PAULI_X)

    def measure_qubit(self, i: int, basis: Basis, rng) -> tuple[int, "DenseState"]:
        self._check_index(i)
        b0 = np.array(basis.vectors[0], dtype=complex)
        b1 = np.array(basis.vectors[1], dtype=complex)
        t = self._tensor()
        amp0 = np.tensordot(b0.conjugate(), t, axes=([0], [i]))
        p0 = clamp_probability(float(np.vdot(amp0, amp0).real))
        if rng.random() < p0:
            bit, bvec, amp, p = 0, b0, amp0, p0
        else:
            amp1 = np.tensordot(b1.conjugate(), t, axes=([0], [i]))
            bit, bvec, amp, p = 1, b1, amp1, 1.0 - p0
        post = np.moveaxis(np.multiply.outer(bvec, amp), 0, i) / math.sqrt(p)
        return bit, DenseState(self.n, post.reshape(-1))

    def measure_projector_detail(
        self, target, rng
    ) -> tuple[VerifyOutcome, "DenseState", float]:
        target = tuple(target)
        if len(target) != self.n:
            raise ValueError("dimension mismatch")
        tvec = DenseState.from_symbols(target).amps
        c = complex(np.vdot(tvec, self.amps))
        p = clamp_probability(abs(c) ** 2)
        if rng.random() < p:
            return VerifyOutcome.VALID, DenseState(self.n, tvec), p
        post = (self.amps - c * tvec) / math.sqrt(1.0 - p)
        return VerifyOutcome.INVALID, DenseState(self.n, post), p

    def fidelity(self, other: "DenseState") -> float:
        return min(1.0, abs(complex(np.vdot(self.amps, other.amps))) ** 2)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def to_dense(state: SumOfProductsState) -> DenseState:
    if state.n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense expansion capped at n={DENSE_MAX_QUBITS}")
    amps = np.zeros(2**state.n, dtype=complex)
    for t in state.terms:
        v = np.array([t.coeff], dtype=complex)
        for f in t.factors:
            v = np.kron(v, np.array(f, dtype=complex))
        amps += v
    return DenseState(state.n, amps)


def dense_fidelity(sop: SumOfProductsState, dense: DenseState) -> float:
    """Cross-backend fidelity |<dense|sop>|^2."""
    return to_dense(sop).fidelity(dense)


_SYMBOLS = list(QubitSymbol)


def random_symbols(rng: random.Random, n: int):
    return [rng.choice(_SYMBOLS) for _ in range(n)]


def mutate_symbols(rng: random.Random, symbols):
    """A target sequence sharing most positions with `symbols`."""
    out = list(symbols)
    for i in range(len(out)):
        if rng.random() < 0.35:
            out[i] = rng.choice(_SYMBOLS)
    return out


def random_unitary(rng: random.Random):
    """A random 2x2 unitary e^{ia} [[cos t, -e^{il} sin t], [e^{ip} sin t, e^{i(p+l)} cos t]]."""
    a, t, p, l = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
    g = cmath.exp(1j * a)
    cos_t, sin_t = math.cos(t), math.sin(t)
    return (
        (g * cos_t, -g * cmath.exp(1j * l) * sin_t),
        (g * cmath.exp(1j * p) * sin_t, g * cmath.exp(1j * (p + l)) * cos_t),
    )


def random_program(rng: random.Random, max_n: int = 10, max_x: int = 5, max_meas: int = 3,
                   max_u: int = 2, max_qubit_meas: int = 2):
    """Draw a program: initial symbols plus a shuffled op list of Pauli X
    gates, projectors, random unitaries and single-qubit measurements."""
    n = rng.randint(1, max_n)
    symbols = random_symbols(rng, n)
    ops = []
    for _ in range(rng.randint(0, max_x)):
        ops.append(("x", rng.randrange(n)))
    for _ in range(rng.randint(0, max_meas)):
        ops.append(("project", mutate_symbols(rng, symbols)))
    for _ in range(rng.randint(0, max_u)):
        ops.append(("u", rng.randrange(n), random_unitary(rng)))
    for _ in range(rng.randint(0, max_qubit_meas)):
        ops.append(("measure", rng.randrange(n), rng.choice([Basis.Z, Basis.X])))
    rng.shuffle(ops)
    return symbols, ops


class FixedDraw:
    """An rng stand-in whose every draw is the same number."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


class ScriptedDraw:
    """An rng stand-in whose draws are the given numbers, in order, read at
    the Mersenne Twister word level as `_random.Random` reads them.

    `random()` returns the next number as it is.  `getrandbits(k)` takes
    k / 64 numbers and returns the words a generator reads to return each
    from `random()`: for d = D * 2**-53, a = (D >> 26) << 5 then
    b = (D mod 2**26) << 6, the first word least significant.  So a serial,
    `getrandbits(128)`, takes two numbers (0.0 and 0.0 make serial 0), and
    it refuses a number that `random()` cannot return.
    """

    def __init__(self, values):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)

    def getrandbits(self, k: int) -> int:
        if k % 64:
            raise ValueError(f"getrandbits({k}): a script holds whole 64-bit draws only")
        bits = 0
        for i in range(k // 64):
            d = next(self._values)
            if not (type(d) is float and 0.0 <= d < 1.0 and (d * 2.0**53).is_integer()):
                raise ValueError(f"{d!r} is not a random() output: no words give it")
            big = int(d * 2.0**53)
            bits |= ((big >> 26) << 5 | (big & (1 << 26) - 1) << 38) << 64 * i
        return bits


def run_on_both_backends(symbols, ops, draws):
    """Execute the same op list on both backends with one draw stream:
    each measurement's draw reaches both as one FixedDraw.

    Returns (outcome pairs, per-step cross fidelities, projector VALID
    probability pairs).  Each step rebinds the state each backend
    returns: the sum-of-products state changes in place, the dense one
    never does.
    """
    draws = iter(draws)
    sop = SumOfProductsState.from_symbols(symbols)
    dense = DenseState.from_symbols(symbols)
    outcomes = []
    probabilities = []
    fidelities = [dense_fidelity(sop, dense)]
    for op in ops:
        if op[0] == "x":
            sop = sop.apply_pauli_x(op[1])
            dense = dense.apply_pauli_x(op[1])
        elif op[0] == "u":
            _, i, u = op
            sop = sop.apply_unitary(i, u)
            dense = dense.apply_unitary(i, u)
        elif op[0] == "project":
            draw = FixedDraw(next(draws))
            out_s, sop, p_s = sop.measure_projector_detail(op[1], draw)
            out_d, dense, p_d = dense.measure_projector_detail(op[1], draw)
            outcomes.append((out_s, out_d))
            probabilities.append((p_s, p_d))
        elif op[0] == "measure":
            _, i, basis = op
            draw = FixedDraw(next(draws))
            bit_s, sop = sop.measure_qubit(i, basis, draw)
            bit_d, dense = dense.measure_qubit(i, basis, draw)
            outcomes.append((bit_s, bit_d))
        else:
            raise ValueError(f"unknown op {op!r}")
        fidelities.append(dense_fidelity(sop, dense))
    return outcomes, fidelities, probabilities
