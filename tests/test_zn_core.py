import itertools
import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idemzeros import zn_core
from idemzeros.errors import GuardExceededError, InvalidDivisorError
from idemzeros.zn_core import (
    DivisorSpec,
    IndexSet,
    ModulusContext,
    _index_sets,
    bracelet,
    canonical_bracelet_rep,
    expand_zero_spec,
    factorize,
    gcd_class,
    proper_divisors,
    reverse,
    tiles,
    translate,
    valuation,
)


def random_index_set(rng: random.Random, N: int) -> IndexSet:
    size = rng.randint(0, N)
    return IndexSet.of(N, rng.sample(range(N), size))


def test_factorize_reconstructs():
    for n in range(1, 200):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_valuation_matches_factorize():
    small_primes = (2, 3, 5, 7, 11, 13)
    for n in range(1, 10**4 + 1):
        exponents = dict(factorize(n))
        for p in set(small_primes) | set(exponents):
            assert valuation(n, p) == exponents.get(p, 0), (n, p)
    # n = 0 and p = 1 would never finish dividing
    for n, p in ((0, 2), (-4, 2), (12, 1)):
        with pytest.raises(ValueError):
            valuation(n, p)


def test_factorize_guard_bounds_the_trial_divisors():
    # 1048573 is the largest prime up to 2^20 and 1048583 the least above
    assert zn_core.FACTOR_GUARD == 1 << 20
    assert factorize(1048573**2) == ((1048573, 2),)
    assert factorize(3 * 1048573 * 1048583) == ((3, 1), (1048573, 1), (1048583, 1))
    assert factorize(1 << 1200) == ((2, 1200),)
    for n in (1048583**2, (1 << 127) - 1, 6 * ((1 << 61) - 1)):
        with pytest.raises(GuardExceededError, match=f"^N={n}: .* factor guard 1048576$"):
            factorize(n)


def test_modulus_context_prime_power():
    ctx = ModulusContext.of(27)
    assert ctx.is_prime_power and ctx.p == 3 and ctx.M == 3
    assert not ModulusContext.of(12).is_prime_power


def test_index_set_dedup_and_order():
    s = IndexSet.of(8, [5, 1, 1, 13])
    assert s.members == (1, 5)
    assert s.mask == 0b100010
    assert IndexSet.from_mask(8, s.mask) == s
    assert IndexSet.from_json(s.to_json()) == s


def test_index_set_rejects_bad_members():
    with pytest.raises(ValueError):
        IndexSet(4, (0, 4))
    with pytest.raises(ValueError):
        IndexSet(4, (2, 1))


def test_from_mask_rejects_bits_outside_modulus():
    assert IndexSet.from_mask(4, 0b1001) == IndexSet(4, (0, 3))
    assert IndexSet.from_mask(70, 1 << 69 | 1) == IndexSet(70, (0, 69))
    with pytest.raises(ValueError):
        IndexSet.from_mask(4, 0b10001)
    with pytest.raises(ValueError):
        IndexSet.from_mask(4, -1)


def test_from_mask_rejects_nonpositive_modulus():
    # the unchecked constructor must not let a modulus past that
    # IndexSet(0, ()) would reject
    for modulus in (0, -1):
        with pytest.raises(ValueError):
            IndexSet.from_mask(modulus, 0)


def test_index_set_stores_members_as_tuple():
    s = IndexSet(4, [2])
    assert s.members == (2,) and isinstance(s.members, tuple)
    assert s == IndexSet(4, (2,))
    assert hash(s) == hash(IndexSet(4, (2,)))
    assert IndexSet(9, range(3)) == IndexSet(9, (0, 1, 2))


def _validated(N: int, mask: int) -> IndexSet:
    return IndexSet(N, tuple(i for i in range(N) if mask >> i & 1))


def test_from_mask_matches_validated_constructor():
    # byte boundaries, N not a multiple of 8, and masks wider than int64
    rng = random.Random(61)
    for N in (1, 7, 8, 9, 27, 63, 100, 300):
        masks = [0, (1 << N) - 1, 1 << (N - 1)]
        masks += [rng.getrandbits(N) for _ in range(200)]
        masks += [sum(1 << i for i in rng.sample(range(N), min(N, 3))) for _ in range(50)]
        unchecked = [IndexSet.from_mask(N, mask) for mask in masks]
        validated = [_validated(N, mask) for mask in masks]
        for s, v, mask in zip(unchecked, validated, masks):
            assert s == v and hash(s) == hash(v) and isinstance(s.members, tuple)
            assert s.mask == mask
        # the dataclass order compares unchecked and validated sets alike
        positions = range(len(masks))
        assert sorted(positions, key=unchecked.__getitem__) == sorted(
            positions, key=validated.__getitem__
        )
        assert not any(s < v or s > v for s, v in zip(unchecked, validated))
        expected = sorted((_validated(N, m) for m in set(masks)), key=lambda J: J.members)
        assert list(_index_sets(N, set(masks))) == expected
    # the unchecked constructor writes the slots; the set stays frozen
    s = IndexSet._unchecked(4, (1, 2))
    with pytest.raises(FrozenInstanceError):
        s.members = (0,)
    with pytest.raises(FrozenInstanceError):
        s.modulus = 5
    assert s == IndexSet(4, (1, 2))


def test_wide_mask_decoding_equals_the_bit_loop():
    # the to_bytes route against the shift per byte and against the bits of
    # the mask's binary string, for sparse, dense and gapped masks
    rng = random.Random(97)
    for N in (63, 64, 1000, 20000):
        # every byte's table, for the shift loop of the narrow decoder
        tables = tuple(zn_core._byte_table(k) for k in range((N + 7) // 8))
        masks = [0, 1, (1 << N) - 1, 1 << (N - 1), rng.getrandbits(N)]
        masks += [sum(1 << i for i in rng.sample(range(N), 3)) for _ in range(3)]
        masks += [rng.getrandbits(8) | rng.getrandbits(8) << (N - 8)]
        for mask in masks:
            expected = tuple(i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")
            assert zn_core._wide_mask_members(mask, tables) == expected, N
            assert zn_core._mask_members(mask, tables) == expected, N
            assert IndexSet.from_mask(N, mask).members == expected, N
            assert [J.members for J in _index_sets(N, [mask])] == [expected], N


def test_index_sets_hold_no_instance_dict():
    # slotted: a set holds its two fields and no per-instance dict, whether
    # built with validation or by the unchecked constructor, and the two
    # kinds compare and hash alike, across moduli too
    rng = random.Random(89)
    unchecked, validated = [], []
    for N in (1, 8, 27, 100):
        masks = sorted({rng.getrandbits(N) for _ in range(40)})
        unchecked += [IndexSet.from_mask(N, mask) for mask in masks]
        validated += [_validated(N, mask) for mask in masks]
    assert IndexSet.__slots__ == ("modulus", "members")
    for s, v in zip(unchecked, validated):
        assert not hasattr(s, "__dict__") and not hasattr(v, "__dict__")
        assert s == v and hash(s) == hash(v) and not s < v and not s > v
    rng.shuffle(unchecked)
    assert sorted(unchecked) == sorted(validated)
    assert set(unchecked) == set(validated) and len(set(unchecked)) == len(validated)


def test_index_sets_order_matches_member_sort():
    # every int64 width and two wider ones, list lengths either side of the
    # tuple-sort cutoff, and list, set and array inputs
    rng = random.Random(83)
    cut = zn_core._TUPLE_SORT_MAX
    for N in [*range(1, 65), 100, 300]:
        for n in (0, 1, cut, cut + 1, 3 * cut):
            masks = [rng.getrandbits(rng.randint(1, N)) for _ in range(n)]
            expected = sorted(_validated(N, m).members for m in masks)
            assert [J.members for J in _index_sets(N, masks)] == expected, (N, n)
            unique = [J.members for J in _index_sets(N, set(masks))]
            assert unique == sorted(set(expected)), (N, n)
            array = np.array(masks, dtype=np.int64 if N <= 62 else object)
            array.setflags(write=False)
            assert [J.members for J in _index_sets(N, array)] == expected, (N, n)
    # top bits 53..61 at N = 62, where a float log2 of the mask rounds up
    N = 62
    masks = [(1 << (top + 1)) - 1 for top in range(53, 62)]
    masks += [(1 << top) | rng.getrandbits(top) for top in range(53, 62) for _ in range(30)]
    masks += [(1 << top) | ((1 << (top - 1)) - 1) for top in range(53, 62)]
    assert len(masks) > cut
    expected = sorted(_validated(N, m).members for m in masks)
    assert [J.members for J in _index_sets(N, masks)] == expected
    # one full chunk and a short third one, odd and even widths up to 62
    # bits, and masks held in the low or the high half alone
    chunk = zn_core._YIELD_CHUNK
    for N in (9, 16, 17, 27, 31, 33, 61, 62):
        h = (N + 1) // 2
        for n in (chunk, 2 * chunk + 1):
            for masks in (
                [rng.getrandbits(N) for _ in range(n)],
                [rng.getrandbits(h) for _ in range(n)],
                [rng.getrandbits(N - h) << h for _ in range(n)],
            ):
                got = list(_index_sets(N, masks))
                expected = sorted((_validated(N, m) for m in masks), key=lambda J: J.members)
                assert got == expected, (N, n)
                assert list(map(hash, got)) == list(map(hash, expected)), (N, n)
                for J in got:
                    assert type(J.members) is tuple and not hasattr(J, "__dict__")
        with pytest.raises(FrozenInstanceError):
            got[-1].members = ()
        with pytest.raises(FrozenInstanceError):
            got[-1].modulus = N + 1


def test_index_sets_rejects_bits_outside_modulus():
    assert list(_index_sets(4, [])) == []
    for masks in ([0b1001, 0b10000], [0b1, -1]):
        with pytest.raises(ValueError):
            next(_index_sets(4, masks))
        with pytest.raises(ValueError):
            next(_index_sets(4, np.array(masks)))


def test_divisor_spec_validation():
    DivisorSpec.of(12, [1, 2, 6])
    with pytest.raises(InvalidDivisorError):
        DivisorSpec.of(12, [5])
    with pytest.raises(InvalidDivisorError):
        DivisorSpec.of(12, [12])


def test_gcd_classes_partition():
    for N in range(1, 65):
        ctx = ModulusContext.of(N)
        seen: set[int] = set()
        for k in proper_divisors(N) + (N,):
            cls = gcd_class(ctx, k).members
            assert all(math.gcd(i, N) == k for i in cls)
            assert not seen & set(cls)
            seen.update(cls)
        assert seen == set(range(N))


def test_gcd_classes_match_math_gcd():
    # every class and a seeded union of classes at every N <= 200, against
    # math.gcd index by index
    rng = random.Random(200)
    for N in range(1, 201):
        ctx = ModulusContext.of(N)
        for k in proper_divisors(N) + (N,):
            expected = tuple(i for i in range(N) if math.gcd(i, N) == k)
            assert gcd_class(ctx, k) == IndexSet(N, expected), (N, k)
        for divisors in ((), proper_divisors(N), rng.sample(proper_divisors(N), len(proper_divisors(N)) // 2)):
            expected = tuple(i for i in range(N) if math.gcd(i, N) in divisors and i)
            assert expand_zero_spec(DivisorSpec.of(N, divisors)) == IndexSet(N, expected), N
    assert zn_core._gcd_table.cache_info().maxsize == 64


def test_expand_zero_spec_n4():
    assert expand_zero_spec(DivisorSpec.of(4, [2])).members == (2,)
    assert expand_zero_spec(DivisorSpec.of(4, [1])).members == (1, 3)
    assert expand_zero_spec(DivisorSpec.of(4, [1, 2])).members == (1, 2, 3)


@given(st.integers(2, 32), st.data())
def test_translate_composes_and_reverse_involutes(N, data):
    members = data.draw(st.sets(st.integers(0, N - 1)))
    a = data.draw(st.integers(-N, N))
    b = data.draw(st.integers(-N, N))
    s = IndexSet.of(N, members)
    assert translate(translate(s, a), b) == translate(s, a + b)
    assert reverse(reverse(s)) == s


def test_bracelet_size_divides_2n():
    rng = random.Random(7)
    for _ in range(200):
        N = rng.randint(2, 16)
        s = random_index_set(rng, N)
        assert (2 * N) % len(bracelet(s)) == 0


def test_canonical_rep_constant_on_bracelet():
    rng = random.Random(11)
    for _ in range(200):
        N = rng.randint(2, 12)
        s = random_index_set(rng, N)
        rep = canonical_bracelet_rep(s)
        assert canonical_bracelet_rep(rep) == rep
        for member in bracelet(s):
            assert canonical_bracelet_rep(member) == rep


def test_canonical_rep_is_least_of_bracelet_orbit():
    # the orbit minimum is the definition; the rep builds only 2|s| translates
    rng = random.Random(13)
    cases = [IndexSet.of(1, []), IndexSet.of(1, [0]), IndexSet.of(9, [])]
    for _ in range(1000):
        N = rng.randint(1, 40)
        size = rng.choice([N, rng.randint(0, N), rng.randint(0, min(N, 8))])
        cases.append(IndexSet.of(N, rng.sample(range(N), size)))
    for s in cases:
        rep = canonical_bracelet_rep(s)
        assert rep == min(bracelet(s), key=lambda t: t.members), s
        assert rep == IndexSet(rep.modulus, rep.members)


def test_bracelet_orbit_is_priced_before_any_work(monkeypatch):
    # 2N sets of N bits against ENUMERATION_GUARD, 2^25 bits: N = 4096 passes
    assert len(bracelet(IndexSet(4096, (0,)))) == 4096
    monkeypatch.setattr(zn_core, "reverse", lambda s: pytest.fail("orbit built"))
    for N in (4097, 10**7):
        with pytest.raises(GuardExceededError) as exceeded:
            bracelet(IndexSet(N, (0,)))
        assert str(exceeded.value) == (
            f"N={N}: the bracelet orbit holds up to {2 * N} sets of {N} bits, "
            "past the enumeration guard 33554432 bits"
        )


def test_bracelet_examples_n8():
    b = bracelet(IndexSet.of(8, [0, 1]))
    assert IndexSet.of(8, [0, 7]) in b
    assert all(IndexSet.of(8, [k, k + 1]) in b for k in range(7))
    assert not b & bracelet(IndexSet.of(8, [0, 3]))
    assert canonical_bracelet_rep(IndexSet.of(8, [0, 5])) == IndexSet.of(8, [0, 3])


def test_proper_divisors_match_the_trial_division():
    for N in range(1, 2001):
        assert proper_divisors(N) == tuple(d for d in range(1, N) if N % d == 0), N


def test_tiles_refuses_a_size_mismatch_before_counting():
    # |J| |K| != N decides it; a list of N counts would take 800 MB here
    J = IndexSet(10**8, (0,))
    tracemalloc.start()
    try:
        assert not tiles(J, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def tiles_by_counts(J: IndexSet, K: IndexSet) -> bool:
    """The definition: every residue is j + k for exactly one pair."""
    N = J.modulus
    counts = [0] * N
    for j in J.members:
        for k in K.members:
            counts[(j + k) % N] += 1
    return all(c == 1 for c in counts)


def test_tiles_matches_the_counts_reference():
    for N in range(1, 9):
        subsets = [IndexSet(N, c) for r in range(N + 1) for c in itertools.combinations(range(N), r)]
        for J in subsets:
            for K in subsets:
                assert tiles(J, K) == tiles_by_counts(J, K), (N, J.members, K.members)
    rng = random.Random(2716)
    for N in (16, 18, 24, 27, 32, 36, 48, 64):
        for _ in range(300):
            d = rng.choice([d for d in range(1, N + 1) if N % d == 0])
            if rng.random() < 0.5:
                # a coset of the multiples of d and one member of each class
                # mod d, which tile
                a = rng.randrange(N)
                J = IndexSet.of(N, range(a, a + N, d))
                K = IndexSet.of(N, [r + d * rng.randrange(N // d) for r in range(d)])
            else:
                J = IndexSet.of(N, rng.sample(range(N), N // d))
                K = IndexSet.of(N, rng.sample(range(N), d))
            assert tiles(J, K) == tiles_by_counts(J, K), (N, J.members, K.members)
            assert tiles(K, J) == tiles(J, K)


def test_priced_cache_evicts_the_least_recently_used_past_its_bound():
    calls = []

    @zn_core._priced_cache(lambda result, key, bits: bits)
    def build(key, bits):
        calls.append(key)
        return [key]

    third = zn_core.ENUMERATION_GUARD // 3
    for key in "abc":
        build(key, third)
    # a hit returns the kept result and makes it the most recent
    assert build("a", third) == ["a"] and calls == list("abc")
    build("d", third)
    assert build.cache_bits() == 3 * third
    for key in "acd":
        build(key, third)
    assert calls == list("abcd")
    build("b", third)
    assert calls == list("abcdb")
    assert build.cache_bits() == 3 * third
    # a result priced past the bound on its own is returned, not kept, and
    # evicts nothing
    for _ in range(2):
        assert build("e", zn_core.ENUMERATION_GUARD + 1) == ["e"]
    assert calls == list("abcdbee")
    assert build.cache_bits() == 3 * third
    build("c", third)
    assert calls[-1] == "e"
    build.cache_clear()
    assert build.cache_bits() == 0
    build("c", third)
    assert calls[-1] == "c"
