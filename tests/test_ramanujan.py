import math
import time

import pytest

from idemzeros import cyclotomic, ramanujan, zn_core
from idemzeros.digit_tables import PivotSet, enumerate_solutions
from idemzeros.errors import GuardExceededError, InvalidDivisorError
from idemzeros.ramanujan import (
    annihilation_check,
    euler_phi,
    gcd_class_exponential_sum,
    ramanujan_direct,
    ramanujan_mobius,
    ramanujan_prime_power,
)
from idemzeros.zn_core import IndexSet, ModulusContext, factorize, proper_divisors, translate


def test_euler_phi_small():
    assert [euler_phi(n) for n in (1, 2, 4, 9, 12, 27)] == [1, 1, 2, 6, 4, 18]


def test_prime_power_cases():
    assert ramanujan_prime_power(2, 2, 1) == 0
    assert ramanujan_prime_power(2, 2, 2) == -2
    assert ramanujan_prime_power(2, 2, 4) == 2
    with pytest.raises(ValueError):
        ramanujan_prime_power(6, 1, 0)


def test_q4_values():
    assert [ramanujan_direct(4, k) for k in range(5)] == [2, 0, -2, 0, 2]


def test_closed_form_matches_direct():
    for p in (2, 3, 5):
        for m in range(1, 5):
            if p**m > 64:
                continue
            for k in range(0, 2 * p**m + 1):
                assert ramanujan_prime_power(p, m, k) == ramanujan_direct(p**m, k)


def test_mobius_identity_matches_direct():
    for q in range(1, 49):
        for k in range(0, q + 1):
            assert ramanujan_mobius(q, k) == ramanujan_direct(q, k)


def test_gcd_class_sum_reduces_to_lower_order():
    for q in range(1, 49):
        for d in (d for d in range(1, q + 1) if q % d == 0):
            for k in range(0, q + 1, max(1, q // 7)):
                assert gcd_class_exponential_sum(q, d, k) == ramanujan_direct(q // d, k)
    with pytest.raises(InvalidDivisorError):
        gcd_class_exponential_sum(12, 5, 0)


def test_nonpositive_q_is_refused_before_any_work(monkeypatch):
    def work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(ramanujan, "factorize", work)
    monkeypatch.setattr(ramanujan, "_constant_value", work)
    for q in (0, -4):
        calls = (
            lambda: ramanujan_direct(q, 2),
            lambda: ramanujan_mobius(q, 2),
            lambda: gcd_class_exponential_sum(q, 1, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^q must be positive, got {q}$"):
                call()


def test_even_and_periodic():
    for q in (5, 8, 9, 12, 48):
        for k in range(-2 * q, 2 * q + 1):
            assert ramanujan_direct(q, k) == ramanujan_direct(q, -k)
            assert ramanujan_direct(q, k) == ramanujan_direct(q, k + q)


def test_annihilation_on_enumerated_solutions():
    for N, l in ((8, 1), (9, 0), (16, 2)):
        ctx = ModulusContext.of(N)
        dprime = ctx.p ** (ctx.M - l)
        for J in enumerate_solutions(ctx, PivotSet.of([l])):
            if not J.members:
                continue
            for shift in range(N):
                assert annihilation_check(J, dprime, shift)


def unit_root_sum(q, k):
    """Reference: c_q(k) from the exponents n*k mod q, uncached."""
    return ramanujan._constant_value(q, (n * k % q for n in range(q) if math.gcd(n, q) == 1))


def test_direct_is_the_uncached_sum_over_the_unreduced_exponents():
    # the exponents n*k mod q depend on k mod q only, so one reference per residue
    for q in range(1, 131):
        reference = [unit_root_sum(q, k) for k in range(q)]
        ks = list(range(-2 * q, 3 * q)) + [s * (10**6 + d) for s in (1, -1) for d in range(-3, 4)]
        for k in ks:
            assert ramanujan_direct(q, k) == reference[k % q], (q, k)


def test_cache_holds_one_entry_per_divisor():
    for q in (1, 30, 64, 97, 120):
        ramanujan._unit_root_sum.cache_clear()
        for k in range(-q, 2 * q):
            ramanujan_direct(q, k)
        ramanujan_direct(q, 10**6 + 1)
        divisors = sum(1 for d in range(1, q + 1) if q % d == 0)
        assert ramanujan._unit_root_sum.cache_info().currsize == divisors, q


def test_residue_guard_refuses_before_any_work(monkeypatch):
    # the guard sits in cyclotomic.power_residues; the cyclotomic polynomial,
    # the first work past it, is stubbed to stop a passing call there.  The
    # guard counts q * phi(q) coefficients, and a q past it is never factorized
    class Summed(Exception):
        pass

    def cyclotomic_poly(N):
        raise Summed

    factorized = []
    monkeypatch.setattr(zn_core, "factorize", lambda n: factorized.append(n) or factorize(n))
    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", cyclotomic_poly)
    ramanujan._unit_root_sum.cache_clear()
    cyclotomic.power_residues.cache_clear()
    assert cyclotomic.RESIDUE_GUARD == 1 << 24
    assert not hasattr(ramanujan, "RESIDUE_GUARD")
    # 4093 and 4099 are prime: 4093 * 4092 <= 2^24 < 4099 * 4098
    calls = (
        lambda q: ramanujan_direct(q, 1),
        lambda q: gcd_class_exponential_sum(q, 1, 1),
        lambda q: annihilation_check(IndexSet.of(q, [0, 1]), q, 0),
    )
    for call in calls:
        with pytest.raises(Summed):
            call(4093)
        for q in (4099, 10**6, (1 << 24) + 1, 10**30):
            factorized.clear()
            with pytest.raises(GuardExceededError) as exceeded:
                call(q)
            assert str(exceeded.value) == (
                f"{q} * phi({q}) power-residue coefficients exceed the residue guard"
            )
            assert all(n <= 1 << 24 for n in factorized), q
            assert (q in factorized) == (q <= 1 << 24), q
    assert ramanujan._unit_root_sum.cache_info().currsize == 0


@pytest.mark.parametrize("k", [0, 1, 2, 5**12, 2**11 * 5**3, 10**12, -(10**6), 123456789])
def test_mobius_visits_only_the_divisors_of_the_gcd(k):
    # the old loop over every d up to gcd(k, q) took hours at q = 10^12
    q = 10**12
    start = time.perf_counter()
    value = ramanujan_mobius(q, k)
    assert time.perf_counter() - start < 1
    assert value == math.prod(ramanujan_prime_power(p, m, k) for p, m in factorize(q))
