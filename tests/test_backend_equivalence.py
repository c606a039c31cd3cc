import random

import pytest

from support import random_program, run_on_both_backends


def assert_backends_agree(outcomes, fidelities, probabilities):
    for out_s, out_d in outcomes:
        assert out_s == out_d
    for p_s, p_d in probabilities:
        assert abs(p_s - p_d) <= 1e-9
    for f in fidelities:
        assert f >= 1 - 1e-9


@pytest.mark.parametrize("seed", range(40))
def test_shared_draw_programs_agree(seed):
    rng = random.Random(1000 + seed)
    symbols, ops = random_program(rng)
    draws = [rng.random() for _ in range(len(ops))]
    assert_backends_agree(*run_on_both_backends(symbols, ops, draws))


def test_qubit_measurements_agree_too():
    from qmoney.qstate import Basis

    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 6)
        symbols, ops = random_program(rng, max_n=n)
        n = len(symbols)
        for _ in range(rng.randint(0, 3)):
            ops.append(("measure", rng.randrange(n), rng.choice([Basis.Z, Basis.X])))
        rng.shuffle(ops)
        draws = [rng.random() for _ in range(len(ops))]
        assert_backends_agree(*run_on_both_backends(symbols, ops, draws))
