"""Ramanujan sums c_q(k) and the annihilation condition they induce.

Two independent exact routes are provided: the authoritative one sums roots of
unity through the cyclotomic backend; a Moebius divisor-sum identity serves as
an internal cross-check.  Since c_q(k) = c_q(gcd(k, q)), the root sum is taken
once per divisor of q and cached.  A root sum over Z_q builds the power
residues mod q, q * phi(q) coefficients; the residue guard of ``cyclotomic``,
where they are built, refuses before any work a q for which they exceed
``cyclotomic.RESIDUE_GUARD``.  The Moebius identity visits only the divisors
d of gcd(k, q) with q/d squarefree, built from one factorization of q.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .cyclotomic import root_sum
from .errors import InvalidDivisorError
from .zn_core import IndexSet, euler_phi, factorize, valuation


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def _constant_value(N: int, exponents) -> int:
    """Exact integer value of a root-of-unity sum known to be rational."""
    el = root_sum(N, exponents)
    coeffs = el.residue.coeffs
    if len(coeffs) > 1:
        raise AssertionError(f"sum over Z_{N} is not an integer: {coeffs}")
    return coeffs[0] if coeffs else 0


def ramanujan_direct(q: int, k: int) -> int:
    """c_q(k) = sum of w_q^{nk} over n in Z_q coprime to q, evaluated exactly.

    c_q(k) = c_q(gcd(k, q)): as n runs over the units of Z_q, n*k and
    n*gcd(k, q) run over the same exponents mod q.  So the exact sum is taken,
    and cached, once per divisor of q.
    """
    _check_q(q)
    return _unit_root_sum(q, math.gcd(k, q))


def _check_q(q: int) -> None:
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")


@lru_cache(maxsize=None)
def _unit_root_sum(q: int, g: int) -> int:
    """Sum of w_q^{ng} over the units n of Z_q, for a divisor g of q."""
    return _constant_value(q, (n * g % q for n in range(q) if math.gcd(n, q) == 1))


def ramanujan_prime_power(p: int, m: int, k: int) -> int:
    """Closed form of c_{p^m}(k): 0, -p^{m-1}, or phi(p^m) by divisibility of k."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k % p ** (m - 1) != 0:
        return 0
    if k % p**m != 0:
        return -(p ** (m - 1))
    return euler_phi(p**m)


def ramanujan_mobius(q: int, k: int) -> int:
    """Cross-check identity: c_q(k) = sum over d | gcd(k, q) of d * mu(q/d).

    The divisors d are built from one factorization of q = prod p^m, with the
    exponent e of each p at most its exponent in g = gcd(k, q).  mu(q/d) is 0
    unless every m - e is 0 or 1, so only e in {m - 1, m} are visited, and
    mu(q/d) is -1 to the number of e = m - 1.
    """
    _check_q(q)
    g = math.gcd(k % q, q) or q
    fact = factorize(q)
    total = 0
    for exps in itertools.product(*(range(m - 1, valuation(g, p) + 1) for p, m in fact)):
        d = math.prod(p**e for (p, _), e in zip(fact, exps))
        total += d * (-1) ** sum(m - e for (_, m), e in zip(fact, exps))
    return total


def gcd_class_exponential_sum(q: int, d: int, k: int) -> int:
    """Sum of w_q^{nk} over n in Z_q with gcd(n, q) = d; equals c_{q/d}(k)."""
    _check_q(q)
    if d < 1 or q % d != 0:
        raise InvalidDivisorError(f"{d} does not divide q={q}")
    k %= q
    return _constant_value(q, (n * k % q for n in range(q) if math.gcd(n, q) == d))


def annihilation_check(J: IndexSet, dprime: int, n_shift: int) -> bool:
    """True iff sum over j in J of c_{dprime}(n_shift + j) vanishes exactly."""
    if dprime < 1:
        raise ValueError(f"dprime must be positive, got {dprime}")
    return sum(ramanujan_direct(dprime, n_shift + j) for j in J) == 0
