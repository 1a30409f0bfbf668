import itertools

import pytest

from idemzeros.cyclotomic import is_zero, root_sum
from idemzeros.digit_tables import PivotSet
from idemzeros.errors import GuardExceededError
from idemzeros.fourier import idempotent_from_spectrum, zero_set
from idemzeros.oracle import brute_force_solutions, compare_with_theorem
from idemzeros.zn_core import IndexSet, ModulusContext


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
    # IndexSet keeps members as given, here a list
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


def test_guard_raises():
    with pytest.raises(GuardExceededError):
        brute_force_solutions(25, IndexSet.of(25, [5]))


def test_compare_with_theorem_small():
    for N, mc in ((4, (0,)), (8, (2,)), (9, (1,)), (16, (0, 2))):
        report = compare_with_theorem(ModulusContext.of(N), PivotSet.of(mc))
        assert report.passed, (N, mc, report.only_oracle, report.only_theorem)


def test_compare_with_theorem_capped():
    report = compare_with_theorem(ModulusContext.of(25), PivotSet.of([1]), max_cardinality=5)
    assert report.passed
    assert report.oracle_count == report.theorem_count > 0
