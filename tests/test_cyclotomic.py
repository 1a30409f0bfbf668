import cmath
import random

import numpy as np
import pytest

from idemzeros import cyclotomic
from idemzeros.cyclotomic import (
    IntPoly,
    _divmod_monic,
    cyclotomic_poly,
    is_zero,
    power_residue_matrix,
    power_residues,
    residue_sums,
    root_sum,
)


def padded_root_sum(N: int, exponents) -> list[int]:
    coeffs = list(root_sum(N, exponents).residue.coeffs)
    return coeffs + [0] * (len(power_residues(N)[0]) - len(coeffs))


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


def test_residue_sums_match_root_sum():
    rng = random.Random(13)
    for N in (1, 2, 12, 30, 64, 105, 128):
        width = rng.randint(0, 2 * N)
        # exponents outside [0, N) are taken mod N, as root_sum takes them
        exponents = np.array(
            [[rng.randrange(-2 * N, 2 * N) for _ in range(width)] for _ in range(20)],
            dtype=np.int64,
        ).reshape(20, width)
        sums = residue_sums(N, exponents)
        assert sums.dtype == np.int64
        for row, exps in zip(sums.tolist(), exponents.tolist()):
            assert row == padded_root_sum(N, exps), (N, exps)


@pytest.mark.parametrize("scale", [1 << 61, 1 << 70])
def test_wide_residue_sums_use_python_ints(monkeypatch, scale):
    # Rows scaled by 2^61 still fit int64, but four of them pass 2^63; rows
    # scaled by 2^70 are Python ints already.  Both bounds pass int64, so the
    # sums must be Python ints, equal to root_sum over the same scaled rows.
    N = 12
    rows = tuple(tuple(c * scale for c in row) for row in power_residues(N))
    table = np.array(rows, dtype=np.int64 if scale < 1 << 63 else object)
    monkeypatch.setattr(cyclotomic, "power_residues", lambda n: rows)
    monkeypatch.setattr(cyclotomic, "power_residue_matrix", lambda n: table)
    rng = random.Random(17)
    exponents = [[0, 0, 0, 0], [1, 1, 1, 1], [0, 3, 6, 9]]
    exponents += [[rng.randrange(N) for _ in range(4)] for _ in range(20)]
    sums = residue_sums(N, np.array(exponents))
    assert sums.dtype == object
    assert sums[0, 0] == 4 * scale >= 1 << 63
    for row, exps in zip(sums.tolist(), exponents):
        assert row == padded_root_sum(N, exps), exps


def test_intpoly_rejects_trailing_zero():
    with pytest.raises(ValueError):
        IntPoly((1, 0))
    assert IntPoly(()).is_zero
