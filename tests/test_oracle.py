import itertools
import json
import random
import time
from math import comb, gcd

import numpy as np
import pytest

from idemzeros import cli, oracle, zn_core
from idemzeros.cyclotomic import is_zero, power_residue_matrix, root_sum
from idemzeros.digit_tables import PivotSet, solution_masks
from idemzeros.errors import GuardExceededError, ModulusMismatchError
from idemzeros.fourier import idempotent_from_spectrum, zero_set
from idemzeros.oracle import brute_force_solutions, compare_with_theorem
from idemzeros.sampling import FragmentSet, design_pattern
from idemzeros.zn_core import DivisorSpec, IndexSet, ModulusContext, expand_zero_spec


def test_n4_vanish_at_index_2():
    sols = brute_force_solutions(4, IndexSet.of(4, [2]))
    assert {s.members for s in sols} == {
        (),
        (0, 1),
        (0, 3),
        (1, 2),
        (2, 3),
        (0, 1, 2, 3),
    }
    # an IndexSet given a list of members stores them as a tuple
    assert brute_force_solutions(4, IndexSet(4, [2])) == sols


def test_n6_exact_nonexistence():
    assert brute_force_solutions(6, IndexSet.of(6, [2, 3, 4]), "exact-zero-set") == []


def test_n6_vanish_at_least():
    sols = brute_force_solutions(6, IndexSet.of(6, [2, 3, 4]))
    assert {s.members for s in sols} == {(), tuple(range(6))}


def test_exact_mode_is_filtered_vanish_mode():
    N = 8
    target = IndexSet.of(N, [2, 6])
    exact = {s.members for s in brute_force_solutions(N, target, "exact-zero-set")}
    vanish = brute_force_solutions(N, target)
    refiltered = {
        s.members
        for s in vanish
        if zero_set(idempotent_from_spectrum(s)).zero_set == target
    }
    assert exact == refiltered


def test_oracle_solutions_have_structured_zero_sets():
    for s in brute_force_solutions(9, IndexSet.of(9, [3])):
        assert zero_set(idempotent_from_spectrum(s)).structure_ok


def test_capped_search_is_filtered_full_search():
    N, zeros = 8, IndexSet.of(8, [4])
    capped = brute_force_solutions(N, zeros, max_cardinality=3)
    full = [s for s in brute_force_solutions(N, zeros) if len(s) <= 3]
    assert capped == full


def test_exact_mode_edge_cases():
    N = 6
    for cap in (None, 2):
        everywhere = brute_force_solutions(N, IndexSet.of(N, range(N)), "exact-zero-set", cap)
        assert everywhere == [IndexSet(N, ())]
        # only the empty set vanishes at 0, and it vanishes everywhere
        assert brute_force_solutions(N, IndexSet.of(N, [0, 3]), "exact-zero-set", cap) == []


def test_wide_modulus_capped_search():
    # N > 62: masks no longer fit in int64
    N, zeros, cap = 100, IndexSet.of(100, [50]), 2
    expected = [
        IndexSet(N, J)
        for k in range(cap + 1)
        for J in itertools.combinations(range(N), k)
        if is_zero(root_sum(N, (50 * j for j in J)))
    ]
    assert brute_force_solutions(N, zeros, max_cardinality=cap) == sorted(
        expected, key=lambda J: J.members
    )
    assert len(expected) == 1 + 50 * 50
    # a design at a composite period counts the bits of wide masks too
    for F, best in (([0, 50], (0, 1)), ([0, 2], (0, 25))):
        assert design_pattern(FragmentSet.of(F), N).pattern.offsets.members == best


def test_narrow_sums_with_larger_cyclotomic_coefficients():
    # Phi_105 has a coefficient -2, so residues of powers of x are not all 0/1
    N, zeros = 105, IndexSet(105, (1,))
    found = brute_force_solutions(N, zeros, max_cardinality=3)
    cosets = [IndexSet(N, (a, a + 35, a + 70)) for a in range(35)]
    assert found == [IndexSet(N, ())] + cosets
    for J in found:
        assert is_zero(root_sum(N, J.members))
    assert brute_force_solutions(N, zeros, "exact-zero-set", 3) == []
    # the vanish flags agree with exact root sums at every index, on sets
    # that mostly do not vanish
    rng = random.Random(71)
    sets = [sorted(rng.sample(range(N), rng.randint(1, 8))) for _ in range(40)] + [
        J.members for J in cosets[:5]
    ]
    masks = np.array([sum(1 << j for j in J) for J in sets], dtype=object)
    for n in range(N):
        flags = oracle._vanishes(N, masks, n)
        assert flags.tolist() == [is_zero(root_sum(N, (j * n for j in J))) for J in sets]


def dense_vanishes(N, masks, n):
    """Reference: every mask's exact residue sum, gathered and added in full."""
    limbs = oracle._limb_tables(N, n)
    flags = np.empty(len(masks), dtype=bool)
    for start in range(0, len(masks), 1 << 16):
        chunk = masks[start : start + (1 << 16)]
        sums = sum(table[(chunk >> lo & 255).astype(np.intp)] for lo, table, _ in limbs)
        flags[start : start + (1 << 16)] = ~sums.any(axis=1)
    return flags


def vanish_cases(full_up_to, cap27):
    """(N, masks): every subset at N <= full_up_to, N = 27 up to cap27
    members, and N = 63 and 100, whose masks are Python ints, up to 2."""
    for N in range(1, full_up_to + 1):
        yield N, oracle._subset_masks(N, N)
    yield 27, oracle._subset_masks(27, cap27)
    for N in (63, 100):
        yield N, oracle._subset_masks(N, 2)


def test_vanishes_matches_dense_sums():
    # the fingerprints only rule masks out, so the flags are the dense ones
    for N, masks in vanish_cases(20, 6):
        for n in range(N):
            got = oracle._vanishes(N, masks, n)
            assert np.array_equal(got, dense_vanishes(N, masks, n)), (N, n)


def test_vanishes_without_fingerprints(monkeypatch):
    # with every fingerprint 0 every mask is a candidate, and the exact sums
    # alone decide
    limb_tables = oracle._limb_tables
    monkeypatch.setattr(
        oracle,
        "_limb_tables",
        lambda N, n: tuple((lo, t, np.zeros_like(fp)) for lo, t, fp in limb_tables(N, n)),
    )
    for N, masks in vanish_cases(12, 4):
        for n in range(N):
            got = oracle._vanishes(N, masks, n)
            assert np.array_equal(got, dense_vanishes(N, masks, n)), (N, n)


def unshared(N, zeros, mode, cap):
    """Reference: the full subset table filtered index by index."""
    masks = oracle._subset_masks(N, cap)
    for n in range(N):
        if n in zeros:
            masks = masks[oracle._vanishes(N, masks, n)]
        elif mode == "exact-zero-set":
            masks = masks[~oracle._vanishes(N, masks, n)]
    return masks


def test_search_shares_first_zero_filter():
    # every grid search for one modulus, in both call orders and both modes,
    # equals a search that filters the full subset table zero by zero

    # at N = 16 both halves are the table of 8 positions; at N = 27 they are
    # those of 16 and 11 positions, and the zero-less search adds the table
    # of all N positions
    for N, cap, tables in ((16, 16, 2), (27, 4, 3)):
        ctx = ModulusContext.of(N)
        zero_sets = [
            expand_zero_spec(DivisorSpec.of(N, (ctx.p**l for l in mc))).members
            for k in range(ctx.M + 1)
            for mc in itertools.combinations(range(ctx.M), k)
        ]
        least = {min(zeros) for zeros in zero_sets if zeros}
        assert len(least) == ctx.M
        for mode in ("vanish-at-least", "exact-zero-set"):
            expected = {zeros: unshared(N, zeros, mode, cap) for zeros in zero_sets}
            for order in (zero_sets, zero_sets[::-1]):
                oracle._search.cache_clear()
                oracle._vanishing.cache_clear()
                oracle._subset_masks.cache_clear()
                for zeros in order:
                    got = oracle._search(N, zeros, mode, cap)
                    assert not got.flags.writeable
                    assert np.array_equal(got, expected[zeros]), (N, zeros, mode)
                # one meet-in-the-middle pass per least zero, over half tables
                # that every pass shares
                assert oracle._vanishing.cache_info().currsize == len(least)
                assert oracle._vanishing.cache_info().misses == len(least)
                assert oracle._subset_masks.cache_info().misses == tables
                for n in least:
                    assert not oracle._vanishing(N, cap, n).flags.writeable


def test_vanish_flags_are_constant_on_gcd_classes():
    # J(w^(u*n)) is the image of J(w^n) under the automorphism w -> w^u, so on
    # the oracle's own residues every index of a gcd class gives the same flags
    for N in range(1, 17):
        masks = oracle._subset_masks(N, N)
        first = {}
        for n in range(N):
            flags = oracle._vanishes(N, masks, n)
            assert np.array_equal(flags, first.setdefault(gcd(n, N), flags)), (N, n)


def gcd_closure(N, zeros):
    """The union of the gcd classes that meet ``zeros``."""
    classes = {gcd(n, N) for n in zeros}
    return tuple(n for n in range(N) if gcd(n, N) in classes)


def test_search_matches_the_per_index_filter_on_any_zero_set():
    # seeded zero sets: random ones, unions of gcd classes, and such unions
    # with one index added or dropped, so that they split a class
    rng = random.Random(3401)
    nonempty = 0
    for N, cap in ((12, 12), (16, 8), (18, 6), (20, 5)):
        classes = [gcd_closure(N, [d]) for d in (*zn_core.proper_divisors(N), 0)]
        zero_sets = {(), tuple(range(N))}
        for _ in range(6):
            zero_sets.add(tuple(sorted(rng.sample(range(N), rng.randint(1, N - 1)))))
            union = set().union(*rng.sample(classes, rng.randint(1, len(classes) - 1)))
            zero_sets.add(tuple(sorted(union)))
            zero_sets.add(tuple(sorted(union ^ {rng.randrange(1, N)})))
        for zeros in sorted(zero_sets):
            closure = gcd_closure(N, zeros)
            for mode in ("vanish-at-least", "exact-zero-set"):
                got = oracle._search(N, zeros, mode, cap)
                assert np.array_equal(got, unshared(N, zeros, mode, cap)), (N, zeros, mode)
                if mode == "vanish-at-least":
                    # vanishing at one index of a class is vanishing on all of it
                    expected = oracle._search(N, closure, mode, cap)
                    assert np.array_equal(got, expected), (N, zeros)
                elif zeros != closure:
                    # a split class is required and forbidden at once
                    assert len(got) == 0, (N, zeros)
                else:
                    nonempty += len(got) > 0
    assert nonempty >= 10


def test_one_limb_table_per_tested_class():
    # the 18 units of Z_27 are one class, tested by the meet in the middle alone
    units = expand_zero_spec(DivisorSpec.of(27, [1])).members
    assert len(units) == 18
    for N, zeros, mode, tables in (
        (27, units, "vanish-at-least", 1),
        # at N = 20 no exact search tests more indices than 20 has divisors
        (20, (4, 8, 12, 16), "exact-zero-set", 6),
        (20, (3, 5, 10), "exact-zero-set", 6),
        (20, (), "exact-zero-set", 6),
    ):
        oracle._search.cache_clear()
        oracle._vanishing.cache_clear()
        oracle._limb_tables.cache_clear()
        oracle._search(N, zeros, mode, 4)
        assert 0 < oracle._limb_tables.cache_info().misses <= tables, (N, zeros, mode)


def test_zero_set_of_another_modulus_is_refused():
    # the 9 of Z_16 is not read as the 1 of Z_8, in either mode
    for mode in ("vanish-at-least", "exact-zero-set"):
        with pytest.raises(ModulusMismatchError, match="zero set modulus 16 != N=8"):
            brute_force_solutions(8, IndexSet(16, (9,)), mode)
    assert len(brute_force_solutions(8, IndexSet(8, (1, 3, 5, 7)), "exact-zero-set")) == 8


def test_subset_table_built_once_per_modulus_and_cap():
    # searches at one (N, cap) with different least zeros share one build of
    # each half table, and the zero-less search, which returns the full table
    # itself, adds a third entry without evicting them
    N, cap = 27, 4
    oracle._search.cache_clear()
    oracle._vanishing.cache_clear()
    oracle._subset_masks.cache_clear()
    for zeros in ((1, 2), (3, 6), (9,), ()):
        oracle._search(N, zeros, "vanish-at-least", cap)
    assert oracle._vanishing.cache_info().currsize == 3
    assert oracle._subset_masks.cache_info().misses == 3
    table = oracle._subset_masks(N, cap)
    assert oracle._search(N, (), "vanish-at-least", cap) is table
    assert len(table) == sum(comb(N, k) for k in range(cap + 1))
    # a new least zero reads the cached halves: 16 low positions, 11 high
    oracle._search(N, (2,), "vanish-at-least", cap)
    for bits in (16, 11):
        half = oracle._subset_masks(bits, cap)
        assert len(half) == sum(comb(bits, k) for k in range(cap + 1))
        with pytest.raises(ValueError):
            half[0] = 1
    assert oracle._subset_masks.cache_info().misses == 3
    with pytest.raises(ValueError):
        table[0] = 1


def full_table_vanishing(N, cap, n):
    """Reference: the pass over the full subset table that the search made
    before it met in the middle."""
    masks = oracle._subset_masks(N, cap)
    return masks[oracle._vanishes(N, masks, n)]


def test_vanishing_matches_the_full_table_pass(monkeypatch):
    # also with every fingerprint 0, where every low meets every high and the
    # exact sums alone decide
    limb_tables = oracle._limb_tables

    def zeroed(N, n):
        return tuple((lo, t, np.zeros_like(fp)) for lo, t, fp in limb_tables(N, n))

    # (zeroed, every pair is added up: that run skips the full tables past 16)
    cases = [(N, cap) for N in range(1, 21) for cap in sorted({1, 2, 3, N})]
    for N, cap in cases + [(25, 6), (27, 6)]:
        for n in range(N):
            expected = full_table_vanishing(N, cap, n)
            for tables in (limb_tables, zeroed)[: 1 if cap == N > 16 else 2]:
                oracle._vanishing.cache_clear()
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "_limb_tables", tables)
                    got = oracle._vanishing(N, cap, n)
                assert not got.flags.writeable
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (N, cap, n, tables)
    oracle._vanishing.cache_clear()


def test_vanishing_matches_the_full_table_pass_at_wide_moduli():
    # N > 62: the masks are Python ints; at N = 130 the low half has 72 bits
    for N in (64, 70, 100, 130):
        for cap in (1, 2):
            for n in {0, 1, N - 1, *zn_core.proper_divisors(N)}:
                got = oracle._vanishing(N, cap, n)
                expected = full_table_vanishing(N, cap, n)
                assert got.dtype == expected.dtype == object
                assert got.tolist() == expected.tolist(), (N, cap, n)


def test_refused_search_builds_no_half_table(monkeypatch, capsys):
    def built(*key):
        raise AssertionError(f"table {key} built")

    monkeypatch.setattr(oracle, "_subset_masks", built)
    monkeypatch.setattr(oracle, "_limb_tables", built)
    with pytest.raises(GuardExceededError):
        brute_force_solutions(25, IndexSet.of(25, [5]))
    with pytest.raises(GuardExceededError):
        compare_with_theorem(ModulusContext.of(25), PivotSet.of([1]))
    assert cli.main(["oracle", "solve", "--N", "25", "--zeros", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["code"] == "guard-exceeded"


def subset_sums(rows: np.ndarray) -> np.ndarray:
    """Entry i is the sum of the rows selected by the bits of i, built by doubling."""
    sums = np.zeros((1,) + rows.shape[1:], dtype=np.int64)
    for row in rows:
        sums = np.concatenate([sums, sums + row])
    return sums


def test_limb_tables_match_per_limb_subset_sums():
    # every limb's table and fingerprints equal those of its own doubling,
    # over the entries a mask below 2^N reaches, also in a partial last limb
    for N in range(1, 41):
        divisor = next((d for d in range(2, N) if N % d == 0), 0)
        for n in {0, 1, divisor, N - 1}:
            rows = power_residue_matrix(N)[(np.arange(N) * n) % N]
            weights = oracle._fingerprint_weights(rows.shape[1])
            limbs = oracle._limb_tables(N, n)
            assert [lo for lo, _, _ in limbs] == list(range(0, N, 8))
            for lo, table, fingerprints in limbs:
                expected = subset_sums(rows[lo : lo + 8])
                reach = len(expected)
                assert not table.flags.writeable and not fingerprints.flags.writeable
                assert np.array_equal(table[:reach], expected), (N, n, lo)
                assert np.array_equal(fingerprints[:reach], expected @ weights), (N, n, lo)


def test_guard_raises():
    with pytest.raises(GuardExceededError):
        brute_force_solutions(25, IndexSet.of(25, [5]))


def test_guard_is_one_rule_on_subsets(monkeypatch):
    # one guard on the subsets searched: every cap passes at N = 24, whose full
    # search is SEARCH_GUARD subsets; above it only a cap that stays within passes
    searched = []
    monkeypatch.setattr(
        oracle, "_search", lambda *key: searched.append(key) or np.zeros(0, np.int64)
    )
    assert oracle.SEARCH_GUARD == 1 << 24
    for cap in (None, 0, 12, 24, 29):
        assert brute_force_solutions(24, IndexSet.of(24, [12]), max_cardinality=cap) == []
    # sum_{k <= 12} C(25, k) = 2^24 exactly
    assert brute_force_solutions(25, IndexSet.of(25, [5]), max_cardinality=12) == []
    assert [(key[0], key[-1]) for key in searched] == [
        (24, 24), (24, 0), (24, 12), (24, 24), (24, 24), (25, 12)
    ]
    searched.clear()
    # cap 13, and no cap: the one message, and nothing searched
    for cap, shown, total in ((13, 13, sum(comb(25, k) for k in range(14))), (None, 25, "2^25")):
        with pytest.raises(GuardExceededError) as exceeded:
            brute_force_solutions(25, IndexSet.of(25, [5]), max_cardinality=cap)
        message = f"{total} subsets up to cardinality {shown} exceeds the search guard"
        assert str(exceeded.value) == message
    # a full search is counted as "2^N", never as an N-bit total too long to print
    with pytest.raises(GuardExceededError, match=r"^2\^1000000 subsets up to cardinality 1000000 "):
        brute_force_solutions(10**6, IndexSet.of(10**6, []))
    assert searched == []


def test_guard_refuses_a_large_cap_at_once(monkeypatch):
    # the count stops once its total has more digits than Python prints, so
    # refusing takes no longer at a larger N; below that, the exact total
    monkeypatch.setattr(oracle, "_search", lambda *key: pytest.fail("searched"))
    assert (10**oracle._PRINTABLE_DIGITS).bit_length() == oracle._UNPRINTABLE_BITS
    cases = (
        (14000, 13999, str(2**14000 - 1)),
        (14285, 14284, "more than 2^14284"),
        # totals of 14,285 bits, the length of 10^4300, that still print
        (14285, 7142, str(2**14284)),
        (14285, 7143, str(2**14284 + comb(14285, 7143))),
        (20000, 19999, "more than 2^14284"),
        (10**6, 3, str(sum(comb(10**6, k) for k in range(4)))),
        (10**6, 10**6 - 1, "more than 2^14292"),
    )
    for N, cap, total in cases:
        start = time.perf_counter()
        with pytest.raises(GuardExceededError) as exceeded:
            brute_force_solutions(N, IndexSet.of(N, [1]), max_cardinality=cap)
        assert time.perf_counter() - start < 1, (N, cap)
        message = f"{total} subsets up to cardinality {cap} exceeds the search guard"
        assert str(exceeded.value) == message


def test_compare_with_theorem_small():
    for N, mc in ((4, (0,)), (8, (2,)), (9, (1,)), (16, (0, 2))):
        report = compare_with_theorem(ModulusContext.of(N), PivotSet.of(mc))
        assert report.passed, (N, mc, report.only_oracle, report.only_theorem)


def test_compare_with_theorem_capped():
    report = compare_with_theorem(ModulusContext.of(25), PivotSet.of([1]), max_cardinality=5)
    assert report.passed
    assert report.oracle_count == report.theorem_count > 0


def test_compare_refuses_before_expanding_the_zero_spec(monkeypatch, capsys):
    # expanding the divisor 1 of N = 2^22 would build an N-entry gcd table
    def expanded(N):
        raise AssertionError(f"gcd table of {N} entries built")

    monkeypatch.setattr(zn_core, "_gcd_table", expanded)
    N = 1 << 22
    message = f"2^{N} subsets up to cardinality {N} exceeds the search guard"
    with pytest.raises(GuardExceededError) as exceeded:
        compare_with_theorem(ModulusContext.of(N), PivotSet.of([0]))
    assert str(exceeded.value) == message
    assert cli.main(["oracle", "compare", "--N", str(N), "--divisors", "1"]) == 1
    assert json.loads(capsys.readouterr().out) == {"code": "guard-exceeded", "message": message}


def test_compare_with_theorem_reports_differences(monkeypatch):
    ctx, mc = ModulusContext.of(8), PivotSet.of([2])
    true_masks = solution_masks(ctx, mc)
    # {1} comes after {0, 2} in member order, before it in mask order
    dropped = [0b11, 0b11000000]
    added = [0b10, 0b101]
    assert all(m in true_masks for m in dropped)
    assert not any(m in true_masks for m in added)
    theorem_side = [m for m in true_masks if m not in dropped] + added
    # the theorem side as a list, a tuple, and the int64 array of a listing past the cut
    for masks in (theorem_side, tuple(theorem_side), np.array(theorem_side, dtype=np.int64)):
        monkeypatch.setattr(oracle, "solution_masks", lambda *args: masks)
        report = compare_with_theorem(ctx, mc)
        assert not report.passed
        assert report.oracle_count == report.theorem_count == len(true_masks)
        assert report.only_oracle == (IndexSet(8, (0, 1)), IndexSet(8, (6, 7)))
        assert report.only_theorem == (IndexSet(8, (0, 2)), IndexSet(8, (1,)))
