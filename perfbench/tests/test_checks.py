"""Each correctness check of the benchmark accepts the library's real output
and rejects a corrupted copy of it, so a wrong answer cannot pass unseen.

Run with:  python3 -m pytest -q perfbench/tests
"""

import itertools
import random

import numpy as np
import pytest

import checks
import workloads
from idemzeros import digit_tables, fourier, fuglede, oracle, ramanujan, sampling
from idemzeros.zn_core import IndexSet, ModulusContext


@pytest.mark.parametrize("N", [4, 8, 9, 16, 25, 27, 32])
def test_fiber_rule_matches_cyclotomic_zero_set(N):
    rng = random.Random(N)
    for _ in range(40):
        J = tuple(sorted(rng.sample(range(N), rng.randint(1, N))))
        exact = fourier.zero_set(fourier.idempotent_from_spectrum(IndexSet(N, J)))
        assert checks.zero_set_exact(N, J) == exact.zero_set.members


def grid_item(N, mc, cap):
    ctx = ModulusContext.of(N)
    piv = digit_tables.PivotSet.of(mc)
    rep = oracle.compare_with_theorem(ctx, piv, max_cardinality=cap)
    summary = {
        "passed": rep.passed,
        "oracle_count": rep.oracle_count,
        "theorem_count": rep.theorem_count,
        "only_oracle": 0,
        "only_theorem": 0,
    }
    sols = [J.members for J in digit_tables.enumerate_solutions(ctx, piv, max_cardinality=cap)]
    p, M = checks.factor_prime_power(N)
    masks = checks.subset_masks(N, cap)
    levels = checks.level_vanish_table(p, M, masks)
    keep = np.ones(len(masks), dtype=bool)
    for l in mc:
        keep &= levels[l]
    return summary, sols, np.sort(masks[keep])


@pytest.mark.parametrize("N,mc,cap", [(8, (1,), 8), (9, (0,), 9), (27, (1,), 6)])
def test_grid_check_rejects_dropped_extra_and_unsorted(N, mc, cap):
    summary, sols, expected = grid_item(N, mc, cap)
    assert checks.check_grid_item(N, mc, cap, summary, sols, expected) == []
    assert checks.check_grid_item(N, mc, cap, summary, sols[:-1], expected)
    non_solution = next(
        c for c in itertools.combinations(range(N), 2) if c not in set(sols)
    )
    assert checks.check_grid_item(N, mc, cap, summary, sorted(sols[1:] + [non_solution]), expected)
    assert checks.check_grid_item(N, mc, cap, summary, sols[::-1], expected)
    assert checks.check_grid_item(N, mc, cap, dict(summary, passed=False), sols, expected)
    assert checks.check_grid_item(
        N, mc, cap, dict(summary, oracle_count=summary["oracle_count"] + 1), sols, expected
    )


def test_zero_set_contains_rejects_missing_class():
    J = (0, 4)
    zeros = checks.zero_set_exact(8, J)
    assert checks.check_zero_set_contains(8, J, zeros, [1]) == []
    assert checks.check_zero_set_contains(8, J, zeros[1:], [1])


def report_dict(N):
    rep = fuglede.fuglede_report(ModulusContext.of(N))
    return {
        "disagreements": len(rep.disagreements),
        "sets_checked": rep.sets_checked,
        "classes": [
            {
                "size": v.size,
                "zero_divisors": tuple(v.zero_divisors),
                "spectral": v.spectral,
                "tiling": v.tiling,
                "rep": v.representative.members,
                "witness": v.witness.members if v.witness else None,
                "partner": v.partner.members if v.partner else None,
            }
            for v in rep.classes
        ],
    }


def test_fuglede_report_check_rejects_each_corruption():
    N = 8
    report = report_dict(N)
    keys = checks.class_keys(N, np.arange(1, 1 << N, dtype=np.int64))
    sample = list(range(1, 1 << N))
    assert checks.check_fuglede_report(N, report, sample, keys) == []

    def corrupt(i, **change):
        classes = [dict(c) for c in report["classes"]]
        classes[i].update(change)
        return dict(report, classes=classes)

    tiling = next(i for i, c in enumerate(report["classes"]) if c["tiling"] and c["size"] > 1)
    cls = report["classes"][tiling]
    bad_partner = tuple(range(len(cls["partner"])))
    assert not checks.tiles_by_convolution(N, cls["rep"], bad_partner)
    assert checks.check_fuglede_report(N, corrupt(tiling, partner=bad_partner), sample, keys)
    assert checks.check_fuglede_report(N, corrupt(tiling, spectral=False, witness=None), sample, keys)
    assert checks.check_fuglede_report(N, corrupt(tiling, tiling=False), sample, keys)
    other = next(c for c in report["classes"] if c["zero_divisors"] != cls["zero_divisors"])
    assert checks.check_fuglede_report(N, corrupt(tiling, rep=other["rep"]), sample, keys)
    assert checks.check_fuglede_report(N, dict(report, disagreements=1), sample, keys)
    dropped = dict(report, classes=report["classes"][1:])
    assert checks.check_fuglede_report(N, dropped, sample, keys)
    assert checks.check_fuglede_report(N, dropped, sample, None)


def test_drilldown_check_rejects_wrong_flag_and_partner():
    cls = next(c for c in report_dict(9)["classes"] if c["tiling"] and c["size"] == 3)
    good = [cls["partner"]]
    assert checks.check_drilldown(9, cls, True, good) == []
    assert checks.check_drilldown(9, cls, False, good)
    assert checks.check_drilldown(9, cls, True, [])
    assert checks.check_drilldown(9, cls, True, [(0, 1, 3)])


def test_is_solution_check_rejects_flipped_verdict_and_bad_certificate():
    ctx = ModulusContext.of(16)
    mc = (1,)
    J = (0, 1, 4, 5)
    res = digit_tables.is_solution(ctx, IndexSet(16, J), digit_tables.PivotSet.of(mc))
    cert = [b.members for b in res.certificate]
    assert res.ok and checks.check_is_solution(16, mc, J, True, cert) == []
    assert checks.check_is_solution(16, mc, J, False, None)
    assert checks.check_is_solution(16, mc, J, True, None)
    assert checks.check_is_solution(16, mc, J, True, [cert[0]])
    assert checks.check_is_solution(16, mc, J, True, [(0, 1), (4, 5)])
    assert checks.check_is_solution(16, mc, (0, 1, 2, 3), True, [(0, 1), (2, 3)])


@pytest.mark.parametrize("N", [12, 16, 27])
def test_zero_set_check_rejects_dropped_zero(N):
    J = (0, 1, 3) if N != 16 else (0, 8)
    rep = fourier.zero_set(fourier.idempotent_from_spectrum(IndexSet(N, J)))
    args = (rep.zero_set.members, rep.zero_divisors.divisors, rep.structure_ok)
    assert checks.check_zero_set(N, J, *args) == []
    if args[0]:
        assert checks.check_zero_set(N, J, args[0][1:], args[1], args[2])
    assert checks.check_zero_set(N, J, args[0] + (0,), args[1], args[2])
    assert checks.check_zero_set(N, J, args[0], args[1], False)


def test_ramanujan_check_rejects_wrong_route():
    for q, k in [(12, 4), (27, 9), (20, 7)]:
        d = ramanujan.ramanujan_direct(q, k)
        m = ramanujan.ramanujan_mobius(q, k)
        assert checks.check_ramanujan(q, k, d, d, m) == []
        assert checks.check_ramanujan(q, k, d + 1, d, m)


def test_spectral_check_rejects_bad_witness_and_false_negative():
    J = IndexSet(8, (0, 1, 4, 5))
    res = fuglede.is_spectral(J)
    assert res.spectral
    assert checks.check_spectral(8, J.members, True, res.witness.members) == []
    assert checks.check_spectral(8, J.members, True, (0, 1, 2, 3))
    assert checks.check_spectral(8, J.members, False, None)
    assert checks.check_spectral(8, (0, 1, 3), False, None) == []
    assert checks.check_spectral(8, (0, 1, 3), True, (0, 1, 3))


def test_partner_check_rejects_dropped_and_non_tiling_partner():
    J = IndexSet(8, (0, 4))
    partners = [K.members for K in fuglede.find_tiling_partners(J)]
    assert partners and checks.check_partners(8, J.members, partners) == []
    assert checks.check_partners(8, J.members, partners[1:])
    assert checks.check_partners(8, J.members, partners + [(0, 4, 1, 5)])
    assert checks.check_partners(8, J.members, [(0, 1, 2, 4)] + partners[1:])


def test_design_check_rejects_aliasing_pattern_and_error():
    F = (0, 2)
    d = sampling.design_pattern(sampling.FragmentSet.of(F), 4)
    J = d.pattern.offsets.members
    assert checks.check_design(4, F, J, 1e-15) == []
    assert checks.check_design(4, F, (0, 2), 1e-15)
    assert checks.check_design(4, F, J, 1e-3)


def test_bracelet_check_rejects_non_minimal_rep():
    assert checks.check_bracelet_rep(8, (0, 5), (0, 3)) == []
    assert checks.check_bracelet_rep(8, (0, 5), (0, 5))


def test_cli_validators():
    ok = '{"code": "invalid-value", "message": "N must be positive"}\n'
    assert workloads.error_object(1, ok, "") == []
    assert workloads.error_object(0, ok, "")
    assert workloads.error_object(1, "", "Traceback (most recent call last):\n")
    assert workloads.error_object(1, '{"message": "x"}', "")
    lines = [{"N": 4, "members": [0, 2]}]
    assert workloads.expect_lines(lines)(0, '{"N": 4, "members": [0, 2]}\n', "") == []
    assert workloads.expect_lines(lines)(0, '{"N": 4, "members": [0, 1]}\n', "")
    assert workloads.expect_lines(lines)(0, "not json\n", "")
    truth = checks.vanishes_at_level(3, 5, workloads.FAULT_SET_243, 4)
    verdict = f'{{"solution": {str(not truth).lower()}, "certificate": null}}'
    assert workloads.check_243(0, verdict, "")
