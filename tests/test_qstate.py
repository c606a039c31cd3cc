import math
import random
import re
import struct
import types

import numpy as np
import pytest
from support import (
    HADAMARD,
    PAULI_X,
    DenseState,
    FixedDraw,
    dense_fidelity,
    fidelity,
    fidelity_to_symbols,
    product_term,
    random_unitary,
    state_from_string,
    sum_of_products,
    symbol_basis,
    symbol_bit,
    to_dense,
)

import qmoney
from qmoney.qstate import (
    ATOL,
    Basis,
    NonUnitaryError,
    ProductTerm,
    QubitSymbol,
    SumOfProductsState,
    VerifyOutcome,
    check_unitary,
    clamp_probability,
    random_symbols,
    symbols_from_string,
    symbols_to_string,
)

INV_SQRT2 = 1 / math.sqrt(2)


class TestSymbols:
    def test_amplitudes(self):
        assert QubitSymbol.ZERO.amplitudes == (1, 0)
        assert QubitSymbol.ONE.amplitudes == (0, 1)
        a0, a1 = QubitSymbol.PLUS.amplitudes
        assert a0 == pytest.approx(INV_SQRT2) and a1 == pytest.approx(INV_SQRT2)
        a0, a1 = QubitSymbol.MINUS.amplitudes
        assert a0 == pytest.approx(INV_SQRT2) and a1 == pytest.approx(-INV_SQRT2)

    def test_unit_norm(self):
        for sym in QubitSymbol:
            a0, a1 = sym.amplitudes
            assert abs(a0) ** 2 + abs(a1) ** 2 == pytest.approx(1, abs=ATOL)

    def test_pauli_eigenvectors(self):
        x = np.array(PAULI_X)
        z = np.diag([1, -1])
        for sym, op, eig in [
            (QubitSymbol.PLUS, x, 1),
            (QubitSymbol.MINUS, x, -1),
            (QubitSymbol.ZERO, z, 1),
            (QubitSymbol.ONE, z, -1),
        ]:
            v = np.array(sym.amplitudes)
            assert np.allclose(op @ v, eig * v)

    def test_basis_and_bit(self):
        assert symbol_basis(QubitSymbol.ZERO) is Basis.Z and symbol_bit(QubitSymbol.ZERO) == 0
        assert symbol_basis(QubitSymbol.ONE) is Basis.Z and symbol_bit(QubitSymbol.ONE) == 1
        assert symbol_basis(QubitSymbol.PLUS) is Basis.X and symbol_bit(QubitSymbol.PLUS) == 0
        assert symbol_basis(QubitSymbol.MINUS) is Basis.X and symbol_bit(QubitSymbol.MINUS) == 1
        for sym in QubitSymbol:
            assert symbol_basis(sym).symbols[symbol_bit(sym)] is sym

    def test_random_symbols_pick_the_quarter_of_each_draw(self):
        # draw d picks symbol int(d * 4), at the quarters' edges too
        edges = [0.0, 0.25, 0.5, 0.75]
        draws = edges + [math.nextafter(e, 0.0) for e in edges[1:] + [1.0]]
        rng = random.Random(8)
        draws += [rng.random() for _ in range(10_000)]
        stream = types.SimpleNamespace(random=iter(draws).__next__)
        order = tuple(QubitSymbol)
        assert random_symbols(stream, len(draws)) == tuple(order[int(d * 4)] for d in draws)

    def test_string_round_trip(self):
        syms = symbols_from_string("01+-")
        assert symbols_to_string(syms) == "01+-"
        with pytest.raises(ValueError, match="'2'"):
            symbols_from_string("012")


class TestConstruction:
    def test_single_symbol(self):
        s = state_from_string("0")
        assert s.n == 1
        assert len(s.terms) == 1
        assert s.terms[0].coeff == 1
        assert s.terms[0].factors[0] == (1, 0)

    def test_two_symbols(self):
        s = state_from_string("0+")
        assert len(s.terms) == 1
        f0, f1 = s.terms[0].factors
        assert f0 == (1, 0)
        assert f1[0] == pytest.approx(INV_SQRT2) and f1[1] == pytest.approx(INV_SQRT2)

    def test_norm_of_four_qubits(self):
        s = state_from_string("01+-")
        assert s.norm_sq() == pytest.approx(1, abs=ATOL)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SumOfProductsState.from_symbols([])

    def test_unnormalized_rejected(self):
        bad = product_term(2.0 + 0j, ((1 + 0j, 0j),))
        with pytest.raises(ValueError, match="normalized"):
            sum_of_products(1, [bad])

    def test_from_symbols_is_the_only_constructor(self):
        # the runtime has no checked constructor: tests build other states
        # with support.sum_of_products
        with pytest.raises(TypeError):
            SumOfProductsState(1, [product_term(1 + 0j, [(1 + 0j, 0j)])])
        with pytest.raises(TypeError):
            ProductTerm(1 + 0j, [(1 + 0j, 0j)])
        assert "fidelity" not in qmoney.__all__


class TestInnerProduct:
    def test_identical(self):
        s = state_from_string("0")
        assert s.inner_with_symbols(symbols_from_string("0")) == pytest.approx(1)

    def test_cross_basis(self):
        s = state_from_string("0")
        c = s.inner_with_symbols(symbols_from_string("+"))
        assert c == pytest.approx(INV_SQRT2)

    def test_factorized(self):
        s = state_from_string("0+")
        c = s.inner_with_symbols(symbols_from_string("-1"))
        assert c == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        s = state_from_string("0+")
        with pytest.raises(ValueError, match="mismatch"):
            s.inner_with_symbols(symbols_from_string("0"))


class TestPauliX:
    def test_flips_zero(self):
        s = state_from_string("0").apply_pauli_x(0)
        assert fidelity_to_symbols(s, symbols_from_string("1")) == pytest.approx(1, abs=ATOL)

    def test_plus_invariant(self):
        s = state_from_string("+").apply_pauli_x(0)
        assert fidelity(s, state_from_string("+")) == pytest.approx(1, abs=ATOL)

    def test_minus_picks_up_phase(self):
        flipped = state_from_string("-").apply_pauli_x(0)
        # eigenvalue -1 shows up in the amplitudes, not in fidelity
        assert flipped.inner_with_symbols(symbols_from_string("-")) == pytest.approx(-1)
        assert fidelity(flipped, state_from_string("-")) == pytest.approx(1, abs=ATOL)

    def test_in_place(self):
        s = state_from_string("0+")
        assert s.apply_pauli_x(0) is s
        assert fidelity_to_symbols(s, symbols_from_string("1+")) == pytest.approx(1, abs=ATOL)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            state_from_string("0").apply_pauli_x(1)


class TestUnitary:
    def test_identity(self):
        out = state_from_string("0+").apply_unitary(1, ((1, 0), (0, 1)))
        assert fidelity(out, state_from_string("0+")) == pytest.approx(1, abs=ATOL)

    def test_matches_pauli_x(self):
        a = state_from_string("01+-").apply_pauli_x(2)
        b = state_from_string("01+-").apply_unitary(2, PAULI_X)
        for ta, tb in zip(a.terms, b.terms):
            assert ta.coeff == tb.coeff
            assert ta.factors == tb.factors

    def test_hadamard(self):
        s = state_from_string("0").apply_unitary(0, HADAMARD)
        assert abs(s.inner_with_symbols(symbols_from_string("+"))) == pytest.approx(1, abs=ATOL)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            state_from_string("0").apply_unitary(0, ((1, 1), (0, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    def test_non_finite_rejected(self, bad):
        # NaN fails every tolerance comparison, so only an explicit check stops it
        u = ((bad, 0), (0, bad))
        with pytest.raises(NonUnitaryError):
            check_unitary(u)
        s = state_from_string("0")
        with pytest.raises(NonUnitaryError):
            s.apply_unitary(0, u)
        assert s.norm_sq() == pytest.approx(1, abs=ATOL)
        with pytest.raises(NonUnitaryError):
            DenseState.from_string("0").apply_unitary(0, u)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            state_from_string("0").apply_unitary(3, PAULI_X)


class TestMeasureQubit:
    def test_deterministic_z(self):
        bit, post = state_from_string("0").measure_qubit(0, Basis.Z, FixedDraw(0.999999))
        assert bit == 0
        assert fidelity_to_symbols(post, symbols_from_string("0")) == pytest.approx(1, abs=ATOL)

    def test_deterministic_x(self):
        bit, _ = state_from_string("+").measure_qubit(0, Basis.X, FixedDraw(0.999999))
        assert bit == 0

    def test_plus_in_z_is_even(self):
        # oracle: dense backend gives p(0) = 1/2 for |+> in Z
        dense = DenseState.from_string("+")
        t = dense._tensor()
        amp0 = np.tensordot(np.array([1, 0], dtype=complex), t, axes=([0], [0]))
        assert float(np.vdot(amp0, amp0).real) == pytest.approx(0.5)
        bit, post = state_from_string("+").measure_qubit(0, Basis.Z, FixedDraw(0.3))
        assert bit == 0
        assert fidelity_to_symbols(post, symbols_from_string("0")) == pytest.approx(1, abs=ATOL)
        bit, post = state_from_string("+").measure_qubit(0, Basis.Z, FixedDraw(0.7))
        assert bit == 1
        assert fidelity_to_symbols(post, symbols_from_string("1")) == pytest.approx(1, abs=ATOL)

    def test_one_draw_contract(self):
        # both outcomes partition [0,1) at p(0)
        for draw in (0.0, 0.499, 0.501, 0.999):
            bit, _ = state_from_string("+").measure_qubit(0, Basis.Z, FixedDraw(draw))
            assert bit == (0 if draw < 0.5 else 1)


_OUT_OF_RANGE = "qubit index {} out of range for n=4"
_SHORT = symbols_from_string("01+")  # a target one symbol short of n = 4


class TestRefusedMeasurement:
    """A measurement that raises has taken no draw, in either backend:
    each checks its input before it calls `rng.random()`."""

    @pytest.mark.parametrize("make, call, error, text", [
        (state_from_string, lambda s, rng: s.measure_qubit(4, Basis.X, rng),
         IndexError, _OUT_OF_RANGE.format(4)),
        (state_from_string, lambda s, rng: s.measure_qubit(-1, Basis.Z, rng),
         IndexError, _OUT_OF_RANGE.format(-1)),
        (state_from_string, lambda s, rng: s.measure_projector_detail(_SHORT, rng),
         ValueError, "dimension mismatch: state n=4, target length 3"),
        (DenseState.from_string, lambda s, rng: s.measure_qubit(4, Basis.X, rng),
         IndexError, _OUT_OF_RANGE.format(4)),
        (DenseState.from_string, lambda s, rng: s.measure_qubit(-1, Basis.Z, rng),
         IndexError, _OUT_OF_RANGE.format(-1)),
        (DenseState.from_string, lambda s, rng: s.measure_projector_detail(_SHORT, rng),
         ValueError, "dimension mismatch"),
    ], ids=["sop-qubit-n", "sop-qubit-negative", "sop-projector-length",
            "dense-qubit-n", "dense-qubit-negative", "dense-projector-length"])
    def test_takes_no_draw(self, make, call, error, text):
        rng = random.Random(7)
        before = rng.getstate()
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            call(make("0+1-"), rng)
        assert rng.getstate() == before


def _with_zero_term(state: SumOfProductsState) -> SumOfProductsState:
    """The same one-term state plus a term of coefficient 0, so that a
    measurement takes the general path, which prunes that term."""
    (t,) = state.terms
    return sum_of_products(
        state.n, [product_term(t.coeff, list(t.factors)), product_term(0j, list(t.factors))]
    )


def _threshold(measure) -> float:
    """The least draw in [0, 1] for which measure(FixedDraw(draw)) gives
    bit 1: p(0) itself, to the last bit.  Non-negative doubles sort as
    their bits."""
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1.0))[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if measure(FixedDraw(struct.unpack("<d", struct.pack("<q", mid))[0])) == 1:
            hi = mid
        else:
            lo = mid + 1
    return struct.unpack("<d", struct.pack("<q", lo))[0]


class TestMeasureQubitOneTerm:
    @pytest.mark.parametrize("rotated", [False, True], ids=["symbol", "unitary"])
    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    @pytest.mark.parametrize("sym", list(QubitSymbol), ids=lambda s: s.value)
    def test_matches_dense_and_general_path(self, sym, basis, rotated):
        symbols = (QubitSymbol.PLUS, sym)
        u = random_unitary(random.Random(sym.value + basis.value)) if rotated else None

        def one_term():
            s = SumOfProductsState.from_symbols(symbols)
            return s.apply_unitary(1, u) if rotated else s

        dense = DenseState.from_symbols(symbols)
        if rotated:
            dense = dense.apply_unitary(1, u)
        for draw in (0.0, 0.4999, 0.999):
            bit, post = one_term().measure_qubit(1, basis, FixedDraw(draw))
            bit_g, post_g = _with_zero_term(one_term()).measure_qubit(1, basis, FixedDraw(draw))
            bit_d, post_d = dense.measure_qubit(1, basis, FixedDraw(draw))
            assert bit == bit_g == bit_d
            assert dense_fidelity(post, post_d) >= 1 - 1e-12
            # the general path prunes the zero term and leaves the same bits
            (t,), (t_g,) = post.terms, post_g.terms
            assert repr(t.coeff) == repr(t_g.coeff)
            assert t.factors == t_g.factors
        p0 = _threshold(lambda d: one_term().measure_qubit(1, basis, d)[0])
        assert p0 == _threshold(lambda d: _with_zero_term(one_term()).measure_qubit(1, basis, d)[0])
        assert p0 == pytest.approx(_threshold(lambda d: dense.measure_qubit(1, basis, d)[0]),
                                   abs=1e-12)


class TestMeasureProjector:
    def test_exact_match_valid(self):
        s = state_from_string("0+")
        outcome, post, p = s.measure_projector_detail(symbols_from_string("0+"),
                                                      FixedDraw(0.999999))
        assert p == 1.0
        assert outcome is VerifyOutcome.VALID
        assert fidelity_to_symbols(post, symbols_from_string("0+")) == pytest.approx(1, abs=ATOL)

    def test_orthogonal_invalid_state_unchanged(self):
        # X on a Z-eigenstate qubit makes the bill orthogonal to the target
        s = state_from_string("0+").apply_pauli_x(0)
        outcome, post, p = s.measure_projector_detail(symbols_from_string("0+"), FixedDraw(0.0))
        assert p == 0.0
        assert outcome is VerifyOutcome.INVALID
        assert fidelity_to_symbols(post, symbols_from_string("1+")) == pytest.approx(1, abs=ATOL)

    def test_partial_overlap_invalid_branch(self):
        # oracle: dense computation of (1 - |0><0|)|+> renormalized is |1>
        dense = DenseState.from_string("+")
        tvec = DenseState.from_string("0").amps
        c = complex(np.vdot(tvec, dense.amps))
        residue = (dense.amps - c * tvec) / math.sqrt(1 - abs(c) ** 2)
        assert np.allclose(residue, DenseState.from_string("1").amps)

        outcome, post, p = state_from_string("+").measure_projector_detail(
            symbols_from_string("0"), FixedDraw(0.9)
        )
        assert p == pytest.approx(0.5)
        assert outcome is VerifyOutcome.INVALID
        assert fidelity_to_symbols(post, symbols_from_string("1")) == pytest.approx(1, abs=ATOL)

    def test_branch_completeness(self):
        assert clamp_probability(0.5) + (1 - clamp_probability(0.5)) == 1.0
        assert clamp_probability(1 - 1e-12) == 1.0
        assert clamp_probability(1e-12) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_from_string("0+").measure_projector_detail(
                symbols_from_string("0"), FixedDraw(0.5)
            )

    def test_invalid_onto_another_tuple_keeps_the_reference(self):
        # the residue |0+1-> - <++1-|0+1->|++1-> has two terms that differ
        # on qubit 0 only, but a term from another tuple may differ
        # anywhere, so every qubit is dirty until measured back
        ref = symbols_from_string("0+1-")
        sop = SumOfProductsState.from_symbols(ref)
        dense = DenseState.from_symbols(ref)
        draw = FixedDraw(0.9)
        outcome, sop, p = sop.measure_projector_detail(symbols_from_string("++1-"), draw)
        outcome_d, dense, p_d = dense.measure_projector_detail(symbols_from_string("++1-"), draw)
        assert outcome is outcome_d is VerifyOutcome.INVALID
        assert p == pytest.approx(p_d, abs=1e-12) and p == pytest.approx(0.5)
        assert len(sop.terms) == 2
        assert sop._ref is ref
        assert sop._dirty == {0, 1, 2, 3}
        assert dense_fidelity(sop, dense) >= 1 - 1e-9
        for i, sym in enumerate(ref):
            draw = FixedDraw(0.0 if symbol_bit(sym) == 0 else 0.999)
            bit, sop = sop.measure_qubit(i, symbol_basis(sym), draw)
            bit_d, dense = dense.measure_qubit(i, symbol_basis(sym), draw)
            assert bit == bit_d == symbol_bit(sym)
            assert sop._ref is ref
            assert sop._dirty == set(range(i + 1, 4))
            assert dense_fidelity(sop, dense) >= 1 - 1e-9
            assert abs(sop.norm_sq() - 1) <= 1e-9
        for t in sop.terms:
            assert all(f is s.amplitudes for f, s in zip(t.factors, ref))

    def test_term_growth_bound(self):
        rng = random.Random(11)
        state = state_from_string("01+-+-01")
        for k in range(1, 6):
            target = [rng.choice(list(QubitSymbol)) for _ in range(8)]
            _, state, _ = state.measure_projector_detail(target, rng)
            assert len(state.terms) <= k + 1
            assert abs(state.norm_sq() - 1) <= ATOL


class TestToDense:
    def test_single_qubit(self):
        assert np.allclose(to_dense(state_from_string("0")).amps, [1, 0])

    def test_tensor_expansion(self):
        amps = to_dense(state_from_string("+-")).amps
        assert np.allclose(amps, [0.5, -0.5, 0.5, -0.5])

    def test_cap(self):
        terms = [product_term(1.0 + 0j, ((1 + 0j, 0j),) * 21)]
        s = sum_of_products(21, terms, check=False)
        with pytest.raises(ValueError, match="capped"):
            to_dense(s)

    def test_norm_after_measurements(self):
        rng = random.Random(5)
        for _ in range(20):
            syms = [rng.choice(list(QubitSymbol)) for _ in range(3)]
            s = SumOfProductsState.from_symbols(syms)
            for _ in range(2):
                target = [rng.choice(list(QubitSymbol)) for _ in range(3)]
                _, s, _ = s.measure_projector_detail(target, rng)
            assert abs(to_dense(s).norm_sq() - 1) <= ATOL


class TestFidelity:
    def test_self(self):
        s = state_from_string("01+-")
        assert fidelity(s, s) == pytest.approx(1, abs=ATOL)

    def test_orthogonal(self):
        a = state_from_string("0")
        b = state_from_string("1")
        assert fidelity(a, b) == pytest.approx(0, abs=ATOL)

    def test_cross_basis(self):
        a = state_from_string("0")
        b = state_from_string("+")
        assert fidelity(a, b) == pytest.approx(0.5, abs=ATOL)


class TestCompress:
    def test_single_term_unchanged(self):
        c = state_from_string("0+").compress()
        assert len(c.terms) == 1
        assert fidelity(c, state_from_string("0+")) == pytest.approx(1, abs=ATOL)

    def test_tiny_term_dropped(self):
        terms = [product_term(1 + 0j, ((1 + 0j, 0j),)), product_term(1e-15 + 0j, ((0j, 1 + 0j),))]
        s = sum_of_products(1, terms, check=False)
        c = s.compress()
        assert len(c.terms) == 1
        assert fidelity(c, state_from_string("0")) >= 1 - ATOL

    @pytest.mark.parametrize("coeff", [0.3 - 1.1j, 2e-12 + 0j])
    def test_one_term_path_matches_general_path(self, coeff):
        # an unnormalized coefficient, so the renormalization shows; the
        # general path prunes the zero term and leaves the same bits
        factors = [QubitSymbol.PLUS.amplitudes, (0.6 + 0j, 0.8j)]
        one = sum_of_products(2, [product_term(coeff, list(factors))], check=False)
        general = sum_of_products(
            2, [product_term(coeff, list(factors)), product_term(0j, list(factors))], check=False
        )
        (t,), (t_g,) = one.compress().terms, general.compress().terms
        assert repr(t.coeff) == repr(t_g.coeff)

    def test_zero_norm_rejected_on_both_paths(self):
        for terms in ([product_term(1e-13 + 0j, [(1 + 0j, 0j)])],
                      [product_term(1e-13 + 0j, [(1 + 0j, 0j)]),
                       product_term(0j, [(0j, 1 + 0j)])]):
            with pytest.raises(ValueError, match="zero norm"):
                sum_of_products(1, terms, check=False).compress()

    def test_colinear_merge(self):
        zero = ((1 + 0j, 0j),)
        terms = [product_term(INV_SQRT2 + 0j, zero), product_term(INV_SQRT2 + 0j, zero)]
        c = sum_of_products(1, terms, check=False).compress()
        assert len(c.terms) == 1
        assert fidelity_to_symbols(c, symbols_from_string("0")) == pytest.approx(1, abs=ATOL)


class TestNormPreservation:
    def test_random_walk(self):
        rng = random.Random(29)
        syms = [rng.choice(list(QubitSymbol)) for _ in range(6)]
        s = SumOfProductsState.from_symbols(syms)
        for _ in range(40):
            roll = rng.random()
            if roll < 0.4:
                s = s.apply_pauli_x(rng.randrange(6))
            elif roll < 0.6:
                s = s.apply_unitary(rng.randrange(6), HADAMARD)
            elif roll < 0.8:
                _, s = s.measure_qubit(rng.randrange(6), rng.choice([Basis.Z, Basis.X]), rng)
            else:
                target = [rng.choice(list(QubitSymbol)) for _ in range(6)]
                _, s, _ = s.measure_projector_detail(target, rng)
            assert abs(s.norm_sq() - 1) <= ATOL
