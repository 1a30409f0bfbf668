import itertools
import random
from math import gcd

import numpy as np
import pytest

from idemzeros import sampling
from idemzeros.cyclotomic import is_zero, root_sum
from idemzeros.digit_tables import (
    PivotSet,
    _union_masks,
    is_solution,
    least_block,
    mc_star,
)
from idemzeros.errors import GuardExceededError, PreconditionError
from idemzeros.fourier import idempotent_from_spectrum, zero_set
from idemzeros.oracle import brute_force_solutions
from idemzeros.sampling import (
    DiscreteSimulation,
    FragmentSet,
    SamplingPattern,
    _fragment_bins,
    design_pattern,
    required_zero_set,
    simulate,
)
from idemzeros.zn_core import IndexSet, ModulusContext, _index_sets, factorize


def simulate_by_rolls(F, pattern, sim):
    """Reference: the sampled spectrum from N rolls of the whole N*R grid."""
    N, R = pattern.modulus, sim.oversampling
    rng = np.random.default_rng(sim.seed)
    grid = N * R
    bins = _fragment_bins(F, R)
    spectrum = np.zeros(grid, dtype=complex)
    spectrum[bins] = rng.standard_normal(len(bins)) + 1j * rng.standard_normal(len(bins))
    hvals = idempotent_from_spectrum(pattern.offsets).time_domain().values
    sampled = np.zeros(grid, dtype=complex)
    for k in range(N):
        sampled += hvals[k] * np.roll(spectrum, k * R)
    recovered = sampled[bins] / hvals[0]
    max_error = float(np.max(np.abs(recovered - spectrum[bins])))
    alias_energy = {}
    for k in range(1, N):
        shifted = np.roll(spectrum, k * R)[bins]
        alias_energy[k] = float(abs(hvals[k]) ** 2 * np.sum(np.abs(shifted) ** 2))
    return max_error, alias_energy


def test_required_zero_set():
    F = FragmentSet.of([0, 2])
    assert required_zero_set(F, 4).members == (2,)
    assert required_zero_set(FragmentSet.of([0, 1, 3]), 8).members == (1, 2, 3, 5, 6, 7)
    with pytest.raises(PreconditionError):
        required_zero_set(F, 3)


def test_design_example():
    result = design_pattern(FragmentSet.of([0, 2]), 4)
    assert result.pattern.offsets.members == (0, 1)
    assert result.rate == 2
    h = result.idempotent.time_domain().to_numpy()
    assert np.allclose(h, np.array([2, 1 + 1j, 0, 1 - 1j]) / 4, atol=1e-12)


def test_design_is_least_solution_by_size_then_members():
    # the oracle's listed solutions, minimised by (size, members), are the
    # reference; at the prime powers 4, 8, 9 and 16 the design is the least
    # digit-table block, so two independent routes meet there
    rng = random.Random(89)
    for N in (6, 8, 9, 10, 12, 14, 15, 18, 4, 16):
        for _ in range(6):
            size = rng.randint(1, 3)
            F = FragmentSet.of(rng.sample(range(N - 2), min(size, N - 2)))
            solutions = brute_force_solutions(N, required_zero_set(F, N))
            best = min((J for J in solutions if J.members), key=lambda J: (len(J), J.members))
            assert design_pattern(F, N).pattern.offsets == best, (N, F)


def design_by_listing(F: FragmentSet, N: int) -> IndexSet:
    """The design at N = p^M by the digit-table listing: the unions of blocks
    with each size from |F| up that p^|mc| divides, until one has any, and
    the least of those in member order."""
    ctx = ModulusContext.of(N)
    mc = PivotSet.from_divisors(ctx, {gcd(n, N) for n in required_zero_set(F, N).members})
    cols = mc_star(ctx.M, mc).columns
    for size in range(len(F.fragments), N + 1):
        if size % ctx.p ** len(mc) == 0:
            # a list or, past the join cut, an int64 array
            masks = _union_masks(ctx.p, ctx.M, cols, size).get(size, [])
            if len(masks):
                return next(_index_sets(N, masks))


def test_least_block_is_the_least_single_block():
    # against the least of the listed single blocks, wherever the listing fits
    # its guard; past it, 3^27 blocks at N = 81 with pivots {0, 1, 2}, the block
    # is still one solution block
    refused = []
    for N in range(2, 82):
        if len(factorize(N)) > 1:
            continue
        ctx = ModulusContext.of(N)
        for k in range(ctx.M + 1):
            for cols in itertools.combinations(range(ctx.M), k):
                block = least_block(ctx.p, [ctx.p**c for c in cols])
                J = IndexSet(N, tuple(block))
                check = is_solution(ctx, J, mc_star(ctx.M, PivotSet(cols)))
                assert check.ok and check.certificate == (J,), (N, cols)
                size = ctx.p**k
                try:
                    blocks = _union_masks(ctx.p, ctx.M, cols, size)[size]
                except GuardExceededError:
                    refused.append((N, cols))
                    continue
                least = min(IndexSet.from_mask(N, m).members for m in blocks)
                assert tuple(block) == least, (N, cols)
    assert refused == [
        (49, (0,)),
        (64, (0, 1, 2)), (64, (0, 1, 3)), (64, (0, 1, 2, 3)), (64, (0, 1, 2, 4)),
        (64, (0, 1, 3, 4)), (64, (0, 1, 2, 3, 4)),
        (81, (0, 1)), (81, (0, 2)), (81, (0, 1, 2)),
    ]


def test_design_at_prime_powers_matches_the_listing():
    # wherever the listing answers; it meets its guard only at N = 49
    answered, refused = 0, []
    for N in (n for n in range(2, 65) if len(factorize(n)) == 1):
        for k in (1, 2, 3):
            for F in itertools.combinations(range(8), k):
                if N > F[-1] + 1:
                    F = FragmentSet(F)
                    try:
                        expected = design_by_listing(F, N)
                    except GuardExceededError:
                        refused.append((N, F.fragments))
                        continue
                    assert design_pattern(F, N).pattern.offsets == expected, (N, F)
                    answered += 1
    assert (answered, refused) == (2060, [(49, (0, 7))])


def test_design_past_the_old_listing_guard():
    # the listing refused each of these: it needed more than
    # ENUMERATION_GUARD // N masks of N bits
    for F, N, best in (
        ([0, 7], 49, range(7)),
        ([0, 11], 121, range(11)),
        ([0, 25], 125, range(5)),
        ([0, 81], 243, range(3)),
    ):
        with pytest.raises(GuardExceededError):
            design_by_listing(FragmentSet.of(F), N)
        result = design_pattern(FragmentSet.of(F), N)
        assert result.pattern.offsets.members == tuple(best), (F, N)
        for n in required_zero_set(FragmentSet.of(F), N).members:
            assert is_zero(root_sum(N, (j * n for j in best)))


def test_design_period_past_the_simulation_guard_is_refused_before_the_design(monkeypatch):
    def work(*args):
        raise AssertionError("design work past the guard")

    for name in ("least_block", "_solution_masks", "idempotent_from_spectrum"):
        monkeypatch.setattr(sampling, name, work)
    guard = sampling.SIMULATION_GUARD
    # 2^24 + 1 = 97 * 257 * 673, and 3^16
    for N in (guard + 1, 3**16):
        with pytest.raises(GuardExceededError) as exceeded:
            design_pattern(FragmentSet.of([0, 1]), N)
        assert str(exceeded.value) == f"period N={N} exceeds the simulation guard {guard}"


def test_design_composite_period():
    result = design_pattern(FragmentSet.of([0, 2]), 6)
    required = required_zero_set(FragmentSet.of([0, 2]), 6)
    zeros = zero_set(idempotent_from_spectrum(result.pattern.offsets)).zero_set
    assert set(required.members) <= set(zeros.members)


def test_design_past_the_full_search_guard():
    # 30 is past the oracle's full-search guard; sizes 2 and 3 are searched
    F = FragmentSet.of([0, 2])
    result = design_pattern(F, 30)
    assert result.pattern.offsets.members == (0, 5, 10)
    for n in required_zero_set(F, 30).members:
        assert is_zero(root_sum(30, (j * n for j in result.pattern.offsets.members)))
    # one fragment imposes no zero, so the least pattern is a single offset
    assert design_pattern(FragmentSet.of([3]), 24).pattern.offsets.members == (0,)


def test_reconstruction_error_over_seeds():
    F = FragmentSet.of([0, 2])
    pattern = SamplingPattern(4, IndexSet.of(4, [0, 1]))
    for seed in range(10):
        report = simulate(F, pattern, DiscreteSimulation(oversampling=8, seed=seed))
        assert report.max_error <= 1e-9
        assert report.alias_free


def test_bad_pattern_reports_aliasing():
    F = FragmentSet.of([0, 2])
    pattern = SamplingPattern(4, IndexSet.of(4, [0, 2]))
    report = simulate(F, pattern, DiscreteSimulation(oversampling=8, seed=0))
    assert report.max_error > 1e-3
    assert not report.alias_free


def test_randomized_design_grid():
    rng = random.Random(47)
    cases = 0
    while cases < 25:
        N = rng.choice([4, 8, 9, 12, 16])
        size = rng.randint(1, 4)
        fragments = sorted(rng.sample(range(N - 1), min(size, N - 1)))
        F = FragmentSet.of(fragments)
        result = design_pattern(F, N)
        required = set(required_zero_set(F, N).members)
        zeros = set(
            zero_set(idempotent_from_spectrum(result.pattern.offsets)).zero_set.members
        )
        assert required <= zeros
        assert len(result.pattern.offsets) >= len(F.fragments)
        for seed in (0, 1):
            report = simulate(F, result.pattern, DiscreteSimulation(8, seed))
            assert report.max_error <= 1e-9
        cases += 1


def test_simulation_determinism():
    F = FragmentSet.of([0, 1])
    pattern = SamplingPattern(8, IndexSet.of(8, [0, 1]))
    a = simulate(F, pattern, DiscreteSimulation(8, 5))
    b = simulate(F, pattern, DiscreteSimulation(8, 5))
    assert a.max_error == b.max_error
    assert a.alias_energy == b.alias_energy


def test_simulation_rejects_bad_inputs():
    pattern = SamplingPattern(4, IndexSet.of(4, [0, 1]))
    with pytest.raises(PreconditionError, match="fragment set must be nonempty"):
        simulate(FragmentSet.of([]), pattern, DiscreteSimulation(8, 0))
    for oversampling in (0, -2):
        with pytest.raises(PreconditionError):
            DiscreteSimulation(oversampling=oversampling)


def test_simulation_bit_identical_to_rolled_grid():
    # every F in range(4) at every period up to 32, with the designed and a
    # random pattern; the designs at 22 and 26 are left out, as their
    # size-exact searches take seconds
    rng = random.Random(13)
    cases = 0
    for size in range(1, 5):
        for fragments in itertools.combinations(range(4), size):
            F = FragmentSet.of(fragments)
            for N in range(max(fragments) + 2, 33):
                patterns = [SamplingPattern(N, IndexSet.of(N, rng.sample(range(N), rng.randint(1, N))))]
                if N not in (22, 26):
                    patterns.append(design_pattern(F, N).pattern)
                for pattern in patterns:
                    sim = DiscreteSimulation(rng.choice((1, 3, 8, 16)), rng.randrange(100))
                    report = simulate(F, pattern, sim)
                    max_error, alias_energy = simulate_by_rolls(F, pattern, sim)
                    assert repr(report.max_error) == repr(max_error), (F, pattern, sim)
                    assert list(report.alias_energy) == list(alias_energy)
                    assert [repr(e) for e in report.alias_energy.values()] == [
                        repr(e) for e in alias_energy.values()
                    ], (F, pattern, sim)
                    cases += 1
    assert cases == 832


def test_simulation_guard_refuses_before_any_work(monkeypatch):
    # the random draw and the evaluation of h come after the guard, so a
    # missing guard fails here before anything of the size of the gather is
    # allocated, or h is evaluated
    class Drawn(Exception):
        pass

    def draw(seed):
        raise Drawn

    monkeypatch.setattr(np.random, "default_rng", draw)
    monkeypatch.setattr(
        sampling.Idempotent, "time_domain", lambda self: pytest.fail("evaluated")
    )
    assert sampling.SIMULATION_GUARD == 1 << 24
    # N * |F| * R = 2^24 gathered bins pass the guard
    pattern = SamplingPattern(1 << 12, IndexSet.of(1 << 12, [0]))
    with pytest.raises(Drawn):
        simulate(FragmentSet.of([0, 1]), pattern, DiscreteSimulation(1 << 11))
    for N, fragments, R in (
        (1 << 12, [0, 1], (1 << 11) + 1),
        ((1 << 12) + 1, [0, 3], 1 << 11),
        (10**5, [0], 10**5),
    ):
        pattern = SamplingPattern(N, IndexSet.of(N, [0]))
        with pytest.raises(GuardExceededError) as exceeded:
            simulate(FragmentSet.of(fragments), pattern, DiscreteSimulation(R))
        assert str(exceeded.value) == (
            f"{N * len(fragments) * R} shifted fragment bins exceed the simulation guard"
        )


def test_simulation_past_the_old_terms_guard():
    # N * |J| = 4097 * 4096 terms once refused the direct sum for h; one
    # inverse FFT takes its place, and the result is still the rolled grid's
    N = 4097
    F, pattern, sim = FragmentSet.of([0]), SamplingPattern(N, IndexSet.of(N, range(N - 1))), DiscreteSimulation(1)
    report = simulate(F, pattern, sim)
    max_error, alias_energy = simulate_by_rolls(F, pattern, sim)
    assert repr(report.max_error) == repr(max_error)
    assert [repr(e) for e in report.alias_energy.values()] == [repr(e) for e in alias_energy.values()]
