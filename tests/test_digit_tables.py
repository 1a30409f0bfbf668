import itertools
import random

import numpy as np
import pytest

from idemzeros import digit_tables
from idemzeros.digit_tables import (
    ConformingTable,
    DigitTable,
    PivotSet,
    SolutionCheck,
    decompose,
    enumerate_solutions,
    from_index_set,
    generate_conforming,
    is_conforming,
    is_solution,
    mc_star,
    pivot_columns,
    solution_masks,
    to_index_set,
)
from idemzeros.errors import (
    DigitChoiceError,
    GuardExceededError,
    InvalidDivisorError,
    ModulusMismatchError,
    NonPrimePowerError,
    PreconditionError,
)
from idemzeros.fourier import idempotent_from_spectrum, zero_set
from idemzeros.zn_core import (
    DivisorSpec,
    IndexSet,
    ModulusContext,
    bracelet,
    expand_zero_spec,
    translate,
)


def test_digit_round_trip():
    ctx = ModulusContext.of(27)
    J = IndexSet.of(27, [0, 5, 13, 26])
    assert to_index_set(from_index_set(ctx, J)) == J
    with pytest.raises(NonPrimePowerError):
        from_index_set(ModulusContext.of(12), IndexSet.of(12, [0]))


def test_digit_order_is_little_endian():
    ctx = ModulusContext.of(8)
    table = from_index_set(ctx, IndexSet.of(8, [6]))
    assert table.rows == ((0, 1, 1),)


def test_pivots_from_divisors():
    ctx = ModulusContext.of(27)
    assert PivotSet.from_divisors(ctx, (9, 1, 3)) == PivotSet.of((0, 1, 2))
    assert PivotSet.from_divisors(ctx, ()) == PivotSet.of(())
    with pytest.raises(InvalidDivisorError):
        PivotSet.from_divisors(ctx, (2,))
    with pytest.raises(NonPrimePowerError):
        PivotSet.from_divisors(ModulusContext.of(12), ())


def test_pivot_columns_examples():
    t = DigitTable(2, 3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert pivot_columns(t).columns == (0, 1)
    t2 = DigitTable(2, 3, ((0, 0, 0), (0, 1, 1)))
    assert pivot_columns(t2).columns == (1,)
    t3 = DigitTable(2, 3, ((0, 0, 0), (1, 1, 0)))
    assert pivot_columns(t3).columns == (0,)


def pivot_columns_pairwise(t: DigitTable) -> PivotSet:
    """Reference: every pair of rows, at the column where they first differ."""
    cols = set()
    for a, b in itertools.combinations(t.rows, 2):
        for j in range(t.M):
            if a[j] != b[j]:
                cols.add(j)
                break
    return PivotSet.of(cols)


def test_pivot_columns_match_the_pairwise_scan():
    # every nonempty subset at N in {4, 8, 9, 16}, seeded subsets at 25 and 27
    rng = random.Random(18)
    for N in (4, 8, 9, 16, 25, 27):
        ctx = ModulusContext.of(N)
        if N <= 16:
            sets = (IndexSet.from_mask(N, mask) for mask in range(1, 1 << N))
        else:
            sets = (IndexSet.of(N, rng.sample(range(N), rng.randint(1, N))) for _ in range(3000))
        for J in sets:
            table = from_index_set(ctx, J)
            assert pivot_columns(table) == pivot_columns_pairwise(table), J


def test_conforming_validation():
    ConformingTable(2, 2, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        ConformingTable(2, 2, ((0, 0), (1, 1), (0, 1)))


def test_mc_star_involution():
    for M in range(1, 6):
        cols = list(range(M))
        for r in range(M + 1):
            for sub in itertools.combinations(cols, r):
                mc = PivotSet.of(sub)
                assert mc_star(M, mc_star(M, mc)) == mc


def test_decompose_round_trip():
    rng = random.Random(41)
    for N in (8, 9, 16, 27):
        ctx = ModulusContext.of(N)
        for _ in range(25):
            size = ctx.p ** rng.randint(1, ctx.M)
            J = IndexSet.of(N, rng.sample(range(N), size))
            table = from_index_set(ctx, J)
            if not is_conforming(table) or not pivot_columns(table).columns:
                continue
            prefix, blocks = decompose(table)
            rows = sorted(r for b in blocks for r in b.rows)
            assert tuple(rows) == table.rows
            assert all(r[: len(prefix)] == prefix for r in rows)
            assert all(is_conforming(b) for b in blocks)


def test_generate_conforming_examples():
    ctx8 = ModulusContext.of(8)
    t = generate_conforming(ctx8, PivotSet.of([0]), (0, 2))
    assert to_index_set(t).members == (0, 3)
    ctx4 = ModulusContext.of(4)
    t = generate_conforming(ctx4, PivotSet.of([1]), (0, 0))
    assert to_index_set(t).members == (0, 2)
    t = generate_conforming(ctx8, PivotSet.of([0, 1]), ((0, (0, 0)), (0, (0, 0))))
    assert to_index_set(t).members == (0, 1, 2, 3)
    with pytest.raises(DigitChoiceError):
        generate_conforming(ctx8, PivotSet.of([0]), (0, 1))


def test_pivot_invariance_on_bracelets():
    rng = random.Random(43)
    for N in (8, 9, 16, 27):
        ctx = ModulusContext.of(N)
        for _ in range(25):
            J = IndexSet.of(N, rng.sample(range(N), rng.randint(2, min(N, 6))))
            base = pivot_columns(from_index_set(ctx, J))
            for K in bracelet(J):
                assert pivot_columns(from_index_set(ctx, K)) == base


def test_is_solution_certificate():
    ctx = ModulusContext.of(8)
    check = is_solution(ctx, IndexSet.of(8, [0, 1, 4, 7]), PivotSet.of([2]))
    assert check.ok
    union: set[int] = set()
    for block in check.certificate:
        assert not union & set(block.members)
        union.update(block.members)
        table = from_index_set(ctx, block)
        assert is_conforming(table)
        assert pivot_columns(table) == mc_star(3, PivotSet.of([2]))
    assert union == {0, 1, 4, 7}
    assert not is_solution(ctx, IndexSet.of(8, [0, 1, 2]), PivotSet.of([2])).ok
    assert is_solution(ctx, IndexSet.of(8, []), PivotSet.of([2])).ok


def test_certificate_blocks_equal_validated_rebuild():
    rng = random.Random(67)
    arrays = 0
    for N, cap in ((9, None), (16, None), (27, 6)):
        ctx = ModulusContext.of(N)
        for mc in _pivot_sets(ctx.M):
            masks = solution_masks(ctx, mc, cap)
            arrays += isinstance(masks, np.ndarray)
            # the same masks, in the same order, as Python ints
            masks = list(map(int, masks))
            for mask in rng.sample(masks, min(len(masks), 200)):
                J = IndexSet.from_mask(N, mask)
                for block in is_solution(ctx, J, mc).certificate:
                    assert isinstance(block.members, tuple)
                    assert block == IndexSet(N, list(block.members))
    assert arrays > 0
    with pytest.raises(ModulusMismatchError):
        is_solution(ModulusContext.of(9), IndexSet(27, (0, 9, 18)), PivotSet.of(()))


def test_enumeration_n4_worked_example():
    ctx = ModulusContext.of(4)
    by_mc = {
        (1,): {(), (0, 1), (0, 3), (1, 2), (2, 3), (0, 1, 2, 3)},
        (0,): {(), (0, 2), (1, 3), (0, 1, 2, 3)},
        (0, 1): {(), (0, 1, 2, 3)},
    }
    for mc, expected in by_mc.items():
        got = {J.members for J in enumerate_solutions(ctx, PivotSet.of(mc))}
        assert got == expected


def test_enumeration_soundness():
    for N, mc in ((8, (1,)), (9, (0,)), (16, (1, 3)), (27, (0, 2))):
        ctx = ModulusContext.of(N)
        spec = DivisorSpec.of(N, (ctx.p**l for l in mc))
        required = set(expand_zero_spec(spec).members)
        for J in enumerate_solutions(ctx, PivotSet.of(mc), max_cardinality=9):
            zeros = set(zero_set(idempotent_from_spectrum(J)).zero_set.members)
            assert required <= zeros
            assert len(J) % ctx.p ** len(mc) == 0


def _pivot_sets(M):
    return [PivotSet.of(c) for r in range(M + 1) for c in itertools.combinations(range(M), r)]


def test_enumeration_matches_membership_test():
    for N in (8, 9):
        ctx = ModulusContext.of(N)
        everything = [
            IndexSet(N, c) for k in range(N + 1) for c in itertools.combinations(range(N), k)
        ]
        for mc in _pivot_sets(ctx.M):
            enumerated = {J.members for J in enumerate_solutions(ctx, mc)}
            for J in everything:
                assert (J.members in enumerated) == is_solution(ctx, J, mc).ok
    rng = random.Random(53)
    ctx = ModulusContext.of(16)
    for mc in _pivot_sets(ctx.M):
        solutions = [J.members for J in enumerate_solutions(ctx, mc)]
        enumerated = set(solutions)
        sample = rng.sample(solutions, min(len(solutions), 100)) + [
            tuple(sorted(rng.sample(range(16), rng.randint(0, 16)))) for _ in range(300)
        ]
        for members in sample:
            assert (members in enumerated) == is_solution(ctx, IndexSet(16, members), mc).ok


def _assert_certificate(ctx, J, mc, certificate, block_pivots):
    """The certificate partitions J into conforming tables with pivot set
    mc_star(mc), listed by least member; ``block_pivots`` caches the pivot
    columns of blocks already seen."""
    star = mc_star(ctx.M, mc)
    firsts = [b.members[0] for b in certificate]
    assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
    assert sum(len(b) for b in certificate) == len(J)
    assert set().union(*(b.members for b in certificate)) == set(J.members)
    for b in certificate:
        if b.members not in block_pivots:
            table = from_index_set(ctx, b)
            block_pivots[b.members] = is_conforming(table) and pivot_columns(table)
        assert block_pivots[b.members] == star


def test_enumerated_certificates():
    grid = [(N, mc, None) for N in (8, 9, 16) for mc in _pivot_sets(ModulusContext.of(N).M)]
    # at N = 27 the solutions up to 9 members number 7.1M for mc = () and
    # 640k for mc = (2,), too many to check one by one
    grid += [(27, mc, 9) for mc in _pivot_sets(3) if mc.columns not in ((), (2,))]
    for N, mc, cap in grid:
        ctx = ModulusContext.of(N)
        block_pivots: dict = {}
        for J in enumerate_solutions(ctx, mc, cap):
            check = is_solution(ctx, J, mc)
            assert check.ok
            _assert_certificate(ctx, J, mc, check.certificate, block_pivots)


def test_large_modulus_is_solution():
    ctx = ModulusContext.of(243)
    mc = PivotSet.from_divisors(ctx, (81,))
    J = IndexSet(243, tuple(sorted(random.Random(1).sample(range(243), 60))))
    assert is_solution(ctx, J, mc) == SolutionCheck(False, None)
    rng = random.Random(59)
    block = to_index_set(generate_conforming(ctx, mc_star(5, mc), (0, 3, 234)))
    members: set[int] = set()
    for _ in range(40):
        shifted = set(translate(block, rng.randrange(243)).members)
        if not shifted & members:
            members |= shifted
    J = IndexSet.of(243, members)
    check = is_solution(ctx, J, mc)
    assert check.ok and len(J) >= 30
    _assert_certificate(ctx, J, mc, check.certificate, {})


def test_is_solution_with_far_apart_pivots():
    # N = 2^1200, pivots at columns 0, 600 and 1199: a set that needs a
    # digit column per level of recursion would pass the recursion limit
    ctx = ModulusContext.of(1 << 1200)
    mc = PivotSet.from_divisors(ctx, (1, 1 << 599, 1 << 1199))
    assert mc_star(1200, mc).columns == (0, 600, 1199)
    base = 6 | 5 << 700
    block = [base + i + (j << 600) + (k << 1199) for k in (0, 1) for j in (0, 1) for i in (0, 1)]
    check = is_solution(ctx, IndexSet.of(ctx.N, block), mc)
    assert check == SolutionCheck(True, (IndexSet.of(ctx.N, block),))
    assert is_solution(ctx, IndexSet.of(ctx.N, block[:-1]), mc) == SolutionCheck(False, None)
    two = block + [b + (1 << 1000) for b in block]
    check = is_solution(ctx, IndexSet.of(ctx.N, two), mc)
    assert check.ok and [b.members for b in check.certificate] == [
        tuple(sorted(block)), tuple(sorted(b + (1 << 1000) for b in block))
    ]


def test_enumeration_guard(monkeypatch):
    # the refusing join raises before it builds anything: every array joined
    # before it fits in the guard, and past 62 bits no join is an array
    lengths = []
    asarray = np.asarray

    def recorded(a, *args, **kwargs):
        lengths.append(len(a))
        return asarray(a, *args, **kwargs)

    monkeypatch.setattr(np, "asarray", recorded)
    for N, mc, cap, arrays in ((32, (), None, True), (243, (4,), 3, False)):
        lengths.clear()
        with pytest.raises(GuardExceededError) as refused:
            next(enumerate_solutions(ModulusContext.of(N), PivotSet.of(mc), cap))
        assert str(refused.value) == (
            f"enumeration needs more than {digit_tables.ENUMERATION_GUARD // N} masks of "
            f"{N} bits; lower max_cardinality or impose more divisors"
        )
        # join converts its two operands in turn
        joined = [a * b for a, b in zip(lengths[::2], lengths[1::2])]
        assert bool(joined) == arrays
        assert sum(joined) * N <= digit_tables.ENUMERATION_GUARD


def _list_union_masks(monkeypatch, p, M, cols, cap):
    """``_union_masks`` with every join on the list route."""
    with monkeypatch.context() as m:
        m.setattr(digit_tables, "_ARRAY_JOIN_MIN", digit_tables.ENUMERATION_GUARD)
        return digit_tables._union_masks(p, M, cols, cap)


def test_array_joins_equal_list_joins(monkeypatch):
    # every join a list is the reference; a cut of 0 makes every join up to
    # 62 bits an array, 37 splits them, and the default cut is what runs
    default = digit_tables._ARRAY_JOIN_MIN
    grid = [(N, None) for N in (4, 8, 9, 16)] + [(25, 6), (27, 6), (32, 4), (64, 3), (81, 3)]
    for N, cap in grid:
        ctx = ModulusContext.of(N)
        for mc in _pivot_sets(ctx.M):
            cols, limit = mc_star(ctx.M, mc).columns, ctx.N if cap is None else cap
            expected = _list_union_masks(monkeypatch, ctx.p, ctx.M, cols, limit)
            assert all(type(masks) is list for masks in expected.values())
            flat = [m for masks in expected.values() for m in masks]
            for cut in (0, 37, default):
                monkeypatch.setattr(digit_tables, "_ARRAY_JOIN_MIN", cut)
                # the cached masks were joined at another cut
                digit_tables._ascending_masks.cache_clear()
                got = digit_tables._union_masks(ctx.p, ctx.M, cols, limit)
                assert list(got) == list(expected), (N, mc, cut)
                for size, masks in got.items():
                    assert list(map(int, masks)) == expected[size], (N, mc, cut, size)
                # all lists, or all int64 arrays once a join past the cut made one
                made = isinstance(got[0], np.ndarray)
                for masks in got.values():
                    assert isinstance(masks, np.ndarray) == made, (N, mc, cut)
                    assert not made or masks.dtype == np.int64
                if made:
                    assert N <= 62, (N, mc, cut)
                elif N <= 62 and cut == 0:
                    assert all(masks == [size] for size, masks in got.items()), (N, mc)
                masks = solution_masks(ctx, mc, cap)
                assert list(map(int, masks)) == sorted(flat), (N, mc, cut)
                assert isinstance(masks, np.ndarray) == made, (N, mc, cut)
    # the listing past the cut, at the moduli where the arrays are largest
    for N, mc in ((16, ()), (25, ()), (25, (1,)), (27, ()), (27, (2,)), (64, ()), (81, (3,))):
        ctx, pivots = ModulusContext.of(N), PivotSet.of(mc)
        cap = None if N == 16 else 3 if N > 62 else 6
        monkeypatch.setattr(digit_tables, "_ARRAY_JOIN_MIN", default)
        digit_tables._ascending_masks.cache_clear()
        got = [J.members for J in enumerate_solutions(ctx, pivots, cap)]
        monkeypatch.setattr(digit_tables, "_ARRAY_JOIN_MIN", digit_tables.ENUMERATION_GUARD)
        digit_tables._ascending_masks.cache_clear()
        assert got == [J.members for J in enumerate_solutions(ctx, pivots, cap)], (N, mc)
    digit_tables._ascending_masks.cache_clear()


def _fresh_masks(ctx, mc, cap):
    """A freshly built, sorted flattening of ``_union_masks``, as Python ints."""
    cols = mc_star(ctx.M, mc).columns
    by_size = digit_tables._union_masks(ctx.p, ctx.M, cols, ctx.N if cap is None else cap)
    return sorted(int(m) for masks in by_size.values() for m in masks)


def test_cached_masks_are_the_sorted_union_masks():
    # the criterion-2 grid, and two listings past 62 bits, which are tuples
    grid = [(N, None) for N in (4, 8, 9, 16)] + [(25, 6), (27, 6)]
    cases = [(N, mc, cap) for N, cap in grid for mc in _pivot_sets(ModulusContext.of(N).M)]
    cases += [(64, PivotSet.of(()), 3), (81, PivotSet.of((3,)), 3)]
    digit_tables._ascending_masks.cache_clear()
    kinds = set()
    for N, mc, cap in cases:
        ctx = ModulusContext.of(N)
        masks = solution_masks(ctx, mc, cap)
        assert list(map(int, masks)) == _fresh_masks(ctx, mc, cap), (N, mc, cap)
        if isinstance(masks, np.ndarray):
            assert masks.dtype == np.int64 and not masks.flags.writeable, (N, mc)
        else:
            assert type(masks) is tuple and all(type(m) is int for m in masks), (N, mc)
        kinds.add((N > 62, type(masks)))
        # a repeat, and a cap past N, share the entry
        assert solution_masks(ctx, mc, cap) is masks
        assert cap is not None or solution_masks(ctx, mc, N + 1) is masks
    assert kinds == {(False, tuple), (False, np.ndarray), (True, tuple)}


def test_cached_array_refuses_writes():
    masks = solution_masks(ModulusContext.of(16), PivotSet.of(()))
    assert isinstance(masks, np.ndarray)
    with pytest.raises(ValueError):
        masks[0] = 1
    with pytest.raises(ValueError):
        masks.sort()


def test_refused_listing_leaves_the_cache_as_it_was():
    solution_masks(ModulusContext.of(8), PivotSet.of(()))
    held = digit_tables._ascending_masks.cache_bits()
    assert held > 0
    for _ in range(2):
        with pytest.raises(GuardExceededError):
            solution_masks(ModulusContext.of(32), PivotSet.of(()))
        assert digit_tables._ascending_masks.cache_bits() == held


def test_cache_evicts_the_least_recently_used_listings():
    # about 34.1 Mbit in all, past the 2^25-bit bound by the last listing
    keys = [
        (27, (), 6), (32, (), 5), (25, (), 6), (64, (), 3),
        (27, (), 5), (81, (3,), 3), (32, (), 4), (16, (), None),
    ]  # fmt: skip
    cached = digit_tables._ascending_masks
    cached.cache_clear()
    built, held = {}, {}  # held: the entries a model LRU keeps, oldest first
    for key in keys:
        N, mc, cap = key
        built[key] = held[key] = solution_masks(ModulusContext.of(N), PivotSet.of(mc), cap)
        while sum(len(m) * k[0] for k, m in held.items()) > digit_tables.ENUMERATION_GUARD:
            del held[next(iter(held))]
        assert cached.cache_bits() == sum(len(m) * k[0] for k, m in held.items())
        assert cached.cache_bits() <= digit_tables.ENUMERATION_GUARD
    assert list(held) == keys[1:]
    # oldest first, so each hit keeps the order: a kept entry comes back as it is
    for (N, mc, cap), masks in held.items():
        assert solution_masks(ModulusContext.of(N), PivotSet.of(mc), cap) is masks
    again = solution_masks(ModulusContext.of(27), PivotSet.of(()), 6)
    assert again is not built[keys[0]]
    assert np.array_equal(again, built[keys[0]])
    assert cached.cache_bits() <= digit_tables.ENUMERATION_GUARD
    cached.cache_clear()
    assert cached.cache_bits() == 0


def singleton_multiset_check(ctx: ModulusContext, J: IndexSet, l: int) -> bool:
    """Check the balanced-residue structure of a singleton-divisor solution.

    Precondition: 0 in J and every member is a multiple of p^{l'-1} where
    l' = M - l.  True iff, reduced mod p^{l'}, the members hit 0 and every
    nonzero multiple of p^{l'-1} with one common multiplicity.
    """
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    if not 0 <= l < ctx.M:
        raise PreconditionError(f"pivot exponent {l} out of range for M={ctx.M}")
    lprime = ctx.M - l
    unit = ctx.p ** (lprime - 1)
    if 0 not in J.members:
        raise PreconditionError("index set must be translated so that 0 is a member")
    if any(i % unit for i in J.members):
        raise PreconditionError(f"all members must be multiples of {unit}")
    dprime = ctx.p**lprime
    counts: dict[int, int] = {}
    for i in J.members:
        counts[i % dprime] = counts.get(i % dprime, 0) + 1
    residues = {a * unit for a in range(ctx.p)}
    if set(counts) != residues:
        return False
    return len(set(counts.values())) == 1


def test_singleton_multiset_check():
    assert singleton_multiset_check(ModulusContext.of(8), IndexSet.of(8, [0, 4]), 0)
    assert singleton_multiset_check(ModulusContext.of(4), IndexSet.of(4, [0, 2]), 0)
    with pytest.raises(PreconditionError):
        singleton_multiset_check(ModulusContext.of(8), IndexSet.of(8, [0, 3]), 0)
    with pytest.raises(PreconditionError):
        singleton_multiset_check(ModulusContext.of(8), IndexSet.of(8, [4]), 0)
