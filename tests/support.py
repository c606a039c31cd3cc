"""Shared helpers: the randomized two-backend program runner."""

import cmath
import math
import random

from qmoney.qstate import (
    Basis,
    DenseState,
    QubitSymbol,
    SumOfProductsState,
    dense_fidelity,
)

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


def run_on_both_backends(symbols, ops, draws):
    """Execute the same op list on both backends with one draw stream.

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
            draw = next(draws)
            out_s, sop, p_s = sop.measure_projector_detail(op[1], draw)
            out_d, dense, p_d = dense.measure_projector_detail(op[1], draw)
            outcomes.append((out_s, out_d))
            probabilities.append((p_s, p_d))
        elif op[0] == "measure":
            _, i, basis = op
            draw = next(draws)
            bit_s, sop = sop.measure_qubit(i, basis, draw)
            bit_d, dense = dense.measure_qubit(i, basis, draw)
            outcomes.append((bit_s, bit_d))
        else:
            raise ValueError(f"unknown op {op!r}")
        fidelities.append(dense_fidelity(sop, dense))
    return outcomes, fidelities, probabilities
