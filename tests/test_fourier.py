import random
import tracemalloc

import numpy as np
import pytest

from idemzeros import cyclotomic, fourier
from idemzeros.cyclotomic import is_zero, root_sum
from idemzeros.errors import GuardExceededError, ModulusMismatchError
from idemzeros.fourier import (
    Signal,
    circular_convolution,
    dft,
    idempotent_from_spectrum,
    idft,
    is_idempotent,
    zero_set,
)
from idemzeros.zn_core import DivisorSpec, IndexSet, bracelet, expand_zero_spec, proper_divisors


def random_index_set(rng: random.Random, N: int) -> IndexSet:
    return IndexSet.of(N, rng.sample(range(N), rng.randint(0, N)))


def test_dft_round_trip():
    rng = random.Random(1)
    for N in (3, 4, 7, 12):
        x = Signal.of([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(N)])
        back = idft(dft(x)).to_numpy()
        assert np.allclose(back, x.to_numpy(), atol=1e-10)


def dense_dft(x: Signal, sign: int) -> np.ndarray:
    """Reference: the N x N DFT matrix times the signal, with 1/N on the inverse."""
    k = np.arange(x.modulus)
    out = np.exp(sign * 2j * np.pi * np.outer(k, k) / x.modulus) @ x.to_numpy()
    return out if sign < 0 else out / x.modulus


def test_dft_matches_the_dense_matrix():
    rng = np.random.default_rng(64)
    for N in range(1, 65):
        x = Signal.of(rng.normal(size=N) + 1j * rng.normal(size=N))
        assert np.abs(dft(x).to_numpy() - dense_dft(x, -1)).max() < 1e-9, N
        assert np.abs(idft(x).to_numpy() - dense_dft(x, +1)).max() < 1e-9, N


def test_dft_round_trip_builds_no_dense_matrix():
    # a 2048 x 2048 complex matrix alone takes 64 MiB
    x = Signal.of(np.random.default_rng(2048).normal(size=2048))
    tracemalloc.start()
    try:
        back = idft(dft(x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert np.allclose(back.to_numpy(), x.to_numpy(), atol=1e-10)


def test_idempotent_values_n4():
    h = idempotent_from_spectrum(IndexSet.of(4, [0, 1]))
    vals = h.time_domain().to_numpy()
    expected = np.array([2, 1 + 1j, 0, 1 - 1j]) / 4
    assert np.allclose(vals, expected, atol=1e-12)
    assert abs(h.evaluate(0) - 0.5) < 1e-12


def test_time_domain_is_one_inverse_fft_of_the_indicator():
    # the pointwise definition, evaluate(n), is the reference
    rng = random.Random(64)
    for N in range(1, 65):
        for J in (IndexSet.of(N, []), IndexSet.of(N, range(N)), random_index_set(rng, N)):
            h = idempotent_from_spectrum(J)
            values = h.time_domain()
            indicator = Signal.of([1 if n in J.members else 0 for n in range(N)])
            assert values == idft(indicator), (N, J.members)
            assert max(abs(v - h.evaluate(n)) for n, v in enumerate(values.values)) < 1e-12


def test_idempotent_under_convolution():
    rng = random.Random(3)
    for _ in range(20):
        N = rng.randint(2, 12)
        h = idempotent_from_spectrum(random_index_set(rng, N)).time_domain()
        conv = circular_convolution(h, h).to_numpy()
        assert np.allclose(conv, h.to_numpy(), atol=1e-9)
        assert is_idempotent(h)


def test_convolution_basics():
    delta = Signal.of([1, 0, 0, 0])
    x = Signal.of([3, 1, 4, 1])
    assert np.allclose(circular_convolution(delta, x).to_numpy(), x.to_numpy())
    a = IndexSet.of(4, [0, 1])
    b = IndexSet.of(4, [0, 2])
    ind = lambda s: Signal.of([1 if i in s else 0 for i in range(4)])
    assert np.allclose(circular_convolution(ind(a), ind(b)).to_numpy(), np.ones(4))
    y = Signal.of([2, -1, 0, 5])
    assert np.allclose(
        circular_convolution(x, y).to_numpy(), circular_convolution(y, x).to_numpy()
    )
    with pytest.raises(ModulusMismatchError):
        circular_convolution(x, Signal.of([1, 2]))


def test_convolution_past_its_guard_is_refused_before_any_work(monkeypatch):
    x = Signal.of([1] * 4097)
    monkeypatch.setattr(Signal, "to_numpy", lambda self: pytest.fail("signal read"))
    with pytest.raises(GuardExceededError, match="exceed the convolution guard"):
        circular_convolution(x, x)


def test_zero_set_structure_and_divisors():
    report = zero_set(idempotent_from_spectrum(IndexSet.of(8, [0, 1])))
    assert report.zero_set.members == (4,)
    assert report.zero_divisors.divisors == (4,)
    assert report.structure_ok


def test_zero_at_0_only_for_empty_spectrum():
    rng = random.Random(17)
    for _ in range(100):
        N = rng.randint(2, 12)
        J = random_index_set(rng, N)
        zeros = zero_set(idempotent_from_spectrum(J)).zero_set
        assert (0 in zeros.members) == (len(J) == 0)


def test_empty_spectrum_structure_ok():
    report = zero_set(idempotent_from_spectrum(IndexSet.of(6, [])))
    assert report.zero_set.members == tuple(range(6))
    assert report.structure_ok


def test_bracelet_invariance_of_zero_sets():
    rng = random.Random(23)
    for _ in range(100):
        N = rng.randint(2, 16)
        J = random_index_set(rng, N)
        base = zero_set(idempotent_from_spectrum(J)).zero_set
        for K in bracelet(J):
            assert zero_set(idempotent_from_spectrum(K)).zero_set == base


def test_structure_ok_randomized():
    rng = random.Random(29)
    for _ in range(200):
        N = rng.randint(2, 16)
        J = random_index_set(rng, N)
        assert zero_set(idempotent_from_spectrum(J)).structure_ok


def test_structure_check_is_the_union_of_gcd_classes(monkeypatch):
    # with a loose tolerance float mode reads parts of gcd classes, which the
    # check must refuse; the reference expands each zero divisor's class
    rng = random.Random(43)
    refused = 0
    for tol in (fourier.TOL, 0.05, 0.2):
        monkeypatch.setattr(fourier, "TOL", tol)
        for _ in range(200):
            J = random_index_set(rng, rng.randint(1, 24))
            N = J.modulus
            report = zero_set(idempotent_from_spectrum(J), mode="float")
            zeros = set(report.zero_set.members)
            divisors = tuple(d for d in proper_divisors(N) if d in zeros)
            expected = set(expand_zero_spec(DivisorSpec(N, divisors)).members)
            if not J:
                expected.add(0)
            assert report.zero_divisors.divisors == divisors, J
            assert report.structure_ok == (zeros == expected), (tol, J)
            refused += not report.structure_ok
    assert refused > 0


def test_exact_zero_set_matches_scalar_root_sums():
    # the scalar reference: one exact root_sum per index n
    def scalar_zeros(J):
        N = J.modulus
        return tuple(n for n in range(N) if is_zero(root_sum(N, (j * n % N for j in J))))

    rng = random.Random(41)
    cases = []
    for N in range(1, 129):
        cases.append(IndexSet.of(N, []))
        for _ in range(3):
            cases.append(IndexSet.of(N, rng.sample(range(N), rng.randint(1, min(N, 12)))))
        # the full spectrum vanishes everywhere but 0
        full = zero_set(idempotent_from_spectrum(IndexSet.of(N, range(N))), mode="exact")
        assert full.zero_set.members == tuple(range(1, N)) and full.structure_ok
    cases += [IndexSet.of(N, range(N)) for N in (1, 2, 12, 30, 64, 105, 127)]
    # Phi_105 has a coefficient of -2
    assert -2 in cyclotomic.cyclotomic_poly(105).coeffs
    cases += [random_index_set(rng, 105) for _ in range(6)]
    for J in cases:
        report = zero_set(idempotent_from_spectrum(J), mode="exact")
        assert report.zero_set.members == scalar_zeros(J), J
        assert report.structure_ok, J


def test_three_prime_zero_set_without_coset_cover():
    # at N = 30 the sum over J of w^j vanishes, though J is no disjoint union
    # of rotated 2-, 3- or 5-gons: the class of 1 is the whole zero set
    J = IndexSet(30, (5, 6, 12, 18, 24, 25))
    report = zero_set(idempotent_from_spectrum(J), mode="exact")
    assert report.zero_set.members == (1, 7, 11, 13, 17, 19, 23, 29)
    assert report.zero_divisors.divisors == (1,)
    assert report.zero_set.members == tuple(
        n for n in range(30) if is_zero(root_sum(30, (j * n for j in J)))
    )


def coset_union(rng: random.Random, N: int) -> IndexSet:
    """A union of up to three cosets t + dZ_N, 1 < d < N, d | N."""
    steps = [d for d in range(2, N) if N % d == 0]
    members = []
    for d in rng.sample(steps, rng.randint(1, 3)):
        t = rng.randrange(N)
        members += range(t, t + N, d)
    return IndexSet.of(N, members)


def exact_and_float_agree(J: IndexSet) -> None:
    h = idempotent_from_spectrum(J)
    assert zero_set(h, mode="exact").zero_set == zero_set(h, mode="float").zero_set, J


def test_exact_matches_float():
    rng = random.Random(31)
    for _ in range(500):
        exact_and_float_agree(random_index_set(rng, rng.randint(2, 32)))
    for N in range(1, 15):
        for mask in range(1 << N):
            exact_and_float_agree(IndexSet.from_mask(N, mask))
    for N in (256, 1024, 2048, 4096):
        for _ in range(6):
            exact_and_float_agree(coset_union(rng, N))
            exact_and_float_agree(IndexSet.of(N, rng.sample(range(N), rng.randint(1, N // 4))))


def test_additivity_on_disjoint_spectra():
    rng = random.Random(37)
    for _ in range(50):
        N = rng.randint(2, 16)
        members = rng.sample(range(N), rng.randint(0, N))
        cut = rng.randint(0, len(members))
        j1 = IndexSet.of(N, members[:cut])
        j2 = IndexSet.of(N, members[cut:])
        total = idempotent_from_spectrum(IndexSet.of(N, members))
        h1 = idempotent_from_spectrum(j1)
        h2 = idempotent_from_spectrum(j2)
        for n in range(N):
            assert abs(total.evaluate(n) - h1.evaluate(n) - h2.evaluate(n)) < 1e-12


def test_residue_guard_refuses_before_the_exponents(monkeypatch):
    # past the guard, exact mode tests the divisors of N, which is stubbed
    # here, so 4093 (4093 * 4092 <= 2^24) reaches it and 4099 is refused;
    # float mode builds no residues and is not guarded
    assert zero_set(idempotent_from_spectrum(IndexSet(4099, (0, 1))), mode="float").zero_set.members == ()

    class Built(Exception):
        pass

    def proper_divisors(N):
        raise Built

    monkeypatch.setattr(fourier, "proper_divisors", proper_divisors)
    with pytest.raises(Built):
        zero_set(idempotent_from_spectrum(IndexSet(4093, (0,))))
    for N in (4099, 10**12):
        h = idempotent_from_spectrum(IndexSet(N, (0, 1)))
        with pytest.raises(GuardExceededError) as refused:
            zero_set(h)
        assert str(refused.value) == f"{N} * phi({N}) power-residue coefficients exceed the residue guard"
