import cmath
import random

import numpy as np
import pytest

from idemzeros.cyclotomic import (
    IntPoly,
    _divmod_monic,
    cyclotomic_poly,
    is_zero,
    power_residue_matrix,
    power_residues,
    root_sum,
)


def test_known_cyclotomics():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(2).coeffs == (1, 1)
    assert cyclotomic_poly(4).coeffs == (1, 0, 1)
    assert cyclotomic_poly(6).coeffs == (1, -1, 1)
    assert cyclotomic_poly(8).coeffs == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(9).coeffs == (1, 0, 0, 1, 0, 0, 1)


def test_cyclotomic_divides_xn_minus_1():
    for N in range(1, 65):
        num = [0] * (N + 1)
        num[0], num[N] = -1, 1
        _, rem = _divmod_monic(num, cyclotomic_poly(N).coeffs)
        assert not any(rem), N


def test_power_residues_match_direct_reduction():
    for N in (4, 6, 8, 9, 12):
        phi = cyclotomic_poly(N).coeffs
        for e, row in enumerate(power_residues(N)):
            mono = [0] * e + [1]
            _, rem = _divmod_monic(mono, phi)
            rem = rem + [0] * (len(phi) - 1 - len(rem))
            assert tuple(rem) == row


def test_power_residue_matrix_holds_power_residues():
    # the narrowest dtype that holds the coefficients: int8 up to here
    for N in range(1, 200):
        table = power_residue_matrix(N)
        assert table.dtype == np.int8, N
        assert table.tolist() == [list(row) for row in power_residues(N)], N


def test_full_root_sum_vanishes():
    for N in range(2, 33):
        assert is_zero(root_sum(N, range(N)))
        assert not is_zero(root_sum(N, [0]))


def test_exact_agrees_with_float():
    rng = random.Random(5)
    for _ in range(500):
        N = rng.randint(2, 32)
        exps = [rng.randrange(N) for _ in range(rng.randint(0, 2 * N))]
        numeric = sum(cmath.exp(2j * cmath.pi * e / N) for e in exps)
        assert is_zero(root_sum(N, exps)) == (abs(numeric) < 1e-9)


def test_conjugation_symmetry():
    rng = random.Random(9)
    for _ in range(300):
        N = rng.randint(2, 32)
        exps = [rng.randrange(N) for _ in range(rng.randint(0, N))]
        neg = [(-e) % N for e in exps]
        assert is_zero(root_sum(N, exps)) == is_zero(root_sum(N, neg))


def test_intpoly_rejects_trailing_zero():
    with pytest.raises(ValueError):
        IntPoly((1, 0))
    assert IntPoly(()).is_zero
