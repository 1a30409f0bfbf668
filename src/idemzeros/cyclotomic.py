"""Exact zero testing of sums of N-th roots of unity.

A sum of roots is represented by its residue modulo the N-th cyclotomic
polynomial, with arbitrary-precision integer coefficients.  This is the
ground-truth arithmetic backend: a sum vanishes iff the residue polynomial is
identically zero, with no tolerance anywhere.  ``root_sum`` adds one sum in
Python ints.  Only ``power_residue_matrix``, the table that the oracle's limb
tables and the Fuglede class scan are built from, loads numpy, so the scalar
route of ``root_sum`` and ``ramanujan`` runs without it.

Every residue table starts from ``power_residues(N)``: N rows of phi(N)
coefficients.  One guard, with no override, refuses an N for which they
exceed RESIDUE_GUARD before any is built, and so covers ``root_sum``,
``power_residue_matrix`` and each module that sums roots of unity:
``fuglede``, ``oracle`` and ``ramanujan``.  ``fourier.zero_set`` builds no
residues in exact mode, nor does ``fuglede``'s partner search, but both
check the same guard first, so they refuse the same N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from .errors import GuardExceededError
from .zn_core import euler_phi, proper_divisors

if TYPE_CHECKING:
    import numpy as np

RESIDUE_GUARD = 1 << 24


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coefficient index = degree, zero poly = empty tuple."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class CycloElem:
    """An element of Z[w_N], reduced modulo the N-th cyclotomic polynomial."""

    modulus: int
    residue: IntPoly


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder by a monic divisor, exact integer arithmetic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return quot, num[:dd]


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> IntPoly:
    """N-th cyclotomic polynomial via exact division of x^N - 1 by lower orders."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    num = [0] * (N + 1)
    num[0], num[N] = -1, 1
    for d in proper_divisors(N):
        num, rem = _divmod_monic(num, cyclotomic_poly(d).coeffs)
        if any(rem):
            raise AssertionError(f"cyclotomic division left a remainder at N={N}")
    return IntPoly(_trim(num))


@lru_cache(maxsize=None)
def check_residue_guard(N: int) -> None:
    """GuardExceededError when the power residues mod N would hold more than
    RESIDUE_GUARD coefficients, N * phi(N); as phi(N) >= 1, an N past the
    guard is refused before it is factorized.  A passing N is remembered, so
    a repeat check does not factorize again; the N that pass are finitely many."""
    if N > RESIDUE_GUARD or N * euler_phi(N) > RESIDUE_GUARD:
        raise GuardExceededError(
            f"{N} * phi({N}) power-residue coefficients exceed the residue guard"
        )


@lru_cache(maxsize=None)
def power_residues(N: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod Phi_N for e in [0, N), each as a fixed-length coefficient tuple;
    check_residue_guard(N) runs first."""
    check_residue_guard(N)
    phi = cyclotomic_poly(N).coeffs
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(N):
        rows.append(tuple(cur))
        # multiply by x, then fold the single overflowing term back in
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for j in range(deg):
                cur[j] -= lead * phi[j]
    return tuple(rows)


@lru_cache(maxsize=None)
def power_residue_matrix(N: int) -> np.ndarray:
    """power_residues as a matrix, for vectorized bulk consumers: in the
    narrowest signed integer dtype that holds every coefficient, Python ints
    beyond int64.  Consumers sum it into a wider dtype."""
    import numpy as np

    rows = power_residues(N)
    peak = max(abs(c) for row in rows for c in row)
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if peak <= np.iinfo(dtype).max:
            return np.array(rows, dtype=dtype)
    return np.array(rows, dtype=object)


def root_sum(N: int, exponents: Iterable[int]) -> CycloElem:
    """Exact representative of sum_j w_N^{e_j} for a multiset of exponents."""
    rows = power_residues(N)
    deg = len(rows[0])
    acc = [0] * deg
    for e in exponents:
        row = rows[e % N]
        for j in range(deg):
            acc[j] += row[j]
    return CycloElem(N, IntPoly(_trim(acc)))


def is_zero(e: CycloElem) -> bool:
    return e.residue.is_zero
