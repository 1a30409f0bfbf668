"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import itertools
import json
import random
import subprocess
import sys
import time

import numpy as np

from idemzeros.digit_tables import (
    PivotSet,
    decompose,
    enumerate_solutions,
    from_index_set,
    is_conforming,
    mc_star,
    pivot_columns,
)
from idemzeros.fourier import idempotent_from_spectrum, zero_set
from idemzeros.fuglede import fuglede_report
from idemzeros.oracle import brute_force_solutions, compare_with_theorem
from idemzeros.ramanujan import (
    gcd_class_exponential_sum,
    ramanujan_direct,
    ramanujan_prime_power,
)
from idemzeros.sampling import (
    DiscreteSimulation,
    FragmentSet,
    SamplingPattern,
    design_pattern,
    simulate,
)
from idemzeros.zn_core import IndexSet, ModulusContext, bracelet, canonical_bracelet_rep


def report(capsys, number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS - {description}")


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "idemzeros", *args], capture_output=True, text=True
    )


def test_criterion_1_n4_worked_example(capsys):
    def check():
        start = time.monotonic()
        expected = {
            "1": {(), (0, 2), (1, 3), (0, 1, 2, 3)},
            "2": {(), (0, 1), (0, 3), (1, 2), (2, 3), (0, 1, 2, 3)},
            "1,2": {(), (0, 1, 2, 3)},
        }
        for divisors, want in expected.items():
            proc = cli("zeroset", "enumerate", "--N", "4", "--divisors", divisors)
            assert proc.returncode == 0
            got = {
                tuple(json.loads(line)["members"])
                for line in proc.stdout.strip().splitlines()
            }
            assert got == want, divisors
        assert time.monotonic() - start < 1 * 10  # subprocess overhead allowance

    report(capsys, 1, "N=4 enumeration matches the three worked-example lists", check)


def test_criterion_2_and_6_theorem_equals_oracle(capsys):
    caps = {4: None, 8: None, 9: None, 16: None, 25: 6, 27: 6}

    def check():
        start = time.monotonic()
        for N, cap in caps.items():
            ctx = ModulusContext.of(N)
            for r in range(ctx.M + 1):
                for sub in itertools.combinations(range(ctx.M), r):
                    mc = PivotSet.of(sub)
                    rep = compare_with_theorem(ctx, mc, max_cardinality=cap)
                    assert rep.passed, (N, sub, rep.only_oracle[:3], rep.only_theorem[:3])
                    block = ctx.p ** len(mc)
                    for J in enumerate_solutions(ctx, mc, max_cardinality=cap):
                        if J.members:
                            assert len(J) % block == 0
        assert time.monotonic() - start < 60

    report(capsys, 2, "theorem enumeration = oracle for N in {4,8,9,16,25,27}", check)
    report(capsys, 6, "cardinality law |J| divisible by p^|mc| on the same grid", lambda: None)


def test_criterion_3_n6_nonexistence(capsys):
    def check():
        start = time.monotonic()
        proc = cli("oracle", "solve", "--N", "6", "--zeros", "2,3,4", "--mode", "exact")
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""
        assert time.monotonic() - start < 10

    report(capsys, 3, "no idempotent on Z_6 has zero set exactly {2,3,4}", check)


def test_criterion_4_n8_bracelet_counterexample(capsys):
    def check():
        a = IndexSet.of(8, [0, 1])
        b = IndexSet.of(8, [0, 3])
        za = zero_set(idempotent_from_spectrum(a)).zero_set
        zb = zero_set(idempotent_from_spectrum(b)).zero_set
        assert za.members == zb.members == (4,)
        assert not bracelet(a) & bracelet(b)
        assert canonical_bracelet_rep(a) != canonical_bracelet_rep(b)

    report(capsys, 4, "equal zero sets {4} at N=8 for {0,1} and {0,3}, distinct bracelets", check)


def test_criterion_5_ramanujan(capsys):
    def check():
        start = time.monotonic()
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
            m = 1
            while p**m <= 64:
                for k in range(129):
                    assert ramanujan_prime_power(p, m, k) == ramanujan_direct(p**m, k)
                m += 1
        for q in range(1, 49):
            for d in (d for d in range(1, q + 1) if q % d == 0):
                for k in range(q + 1):
                    assert gcd_class_exponential_sum(q, d, k) == ramanujan_direct(q // d, k)
        assert time.monotonic() - start < 5

    report(capsys, 5, "closed form = direct for p^m <= 64 and gcd-class identity for q <= 48", check)


def test_criterion_7_sampling_example(capsys):
    def check():
        start = time.monotonic()
        F = FragmentSet.of([0, 2])
        design = design_pattern(F, 4)
        assert design.pattern.offsets.members == (0, 1)
        h = design.idempotent.time_domain().to_numpy()
        assert np.allclose(h, np.array([2, 1 + 1j, 0, 1 - 1j]) / 4, atol=1e-12)
        for seed in range(10):
            rep = simulate(F, design.pattern, DiscreteSimulation(8, seed))
            assert rep.max_error <= 1e-9
        bad = simulate(F, SamplingPattern(4, IndexSet.of(4, [0, 2])), DiscreteSimulation(8, 0))
        assert not bad.alias_free and bad.max_error > 1e-3
        assert time.monotonic() - start < 5

    report(capsys, 7, "F={0,2}, N=4 design J={0,1}, exact reconstruction, bad pattern aliases", check)


def test_criterion_8_fuglede_desk_scale(capsys):
    def check():
        start = time.monotonic()
        for N in (4, 8, 9):
            assert fuglede_report(ModulusContext.of(N)).disagreements == ()
        for N in (16, 27):
            rep = fuglede_report(ModulusContext.of(N))
            assert rep.disagreements == ()
        assert time.monotonic() - start < 600

    report(capsys, 8, "zero spectral/tiling disagreements for N in {4,8,9,16,27}", check)


def test_criterion_9_invariant_suites(capsys):
    def check():
        start = time.monotonic()
        rng = random.Random(2024)
        # bracelet invariance of zero sets and exact-mode structure
        for _ in range(60):
            N = rng.randint(2, 16)
            J = IndexSet.of(N, rng.sample(range(N), rng.randint(0, N)))
            zrep = zero_set(idempotent_from_spectrum(J))
            assert zrep.structure_ok
            for K in bracelet(J):
                assert zero_set(idempotent_from_spectrum(K)).zero_set == zrep.zero_set
        # exact vs float agreement
        for _ in range(200):
            N = rng.randint(2, 32)
            J = IndexSet.of(N, rng.sample(range(N), rng.randint(0, N)))
            h = idempotent_from_spectrum(J)
            assert zero_set(h, "exact").zero_set == zero_set(h, "float").zero_set
        # decompose round trip on conforming tables from the enumerator
        for N, mc in ((8, (1,)), (9, (0,)), (27, (1,))):
            ctx = ModulusContext.of(N)
            for J in itertools.islice(enumerate_solutions(ctx, PivotSet.of(mc)), 1, 40):
                table = from_index_set(ctx, J)
                if not is_conforming(table) or not pivot_columns(table).columns:
                    continue
                prefix, blocks = decompose(table)
                rows = sorted(r for b in blocks for r in b.rows)
                assert tuple(rows) == table.rows
        # mc_star involution
        for M in range(1, 6):
            for r in range(M + 1):
                for sub in itertools.combinations(range(M), r):
                    mc = PivotSet.of(sub)
                    assert mc_star(M, mc_star(M, mc)) == mc
        assert time.monotonic() - start < 60

    report(capsys, 9, "randomized invariant suites (bracelets, structure, float, tables)", check)
