import itertools
import json
import random
from math import comb, gcd

import numpy as np
import pytest

from idemzeros import cli, fourier, fuglede, oracle
from idemzeros.cyclotomic import power_residue_matrix
from idemzeros.digit_tables import PivotSet, _union_masks, mc_star
from idemzeros.errors import GuardExceededError
from idemzeros.fuglede import (
    find_tiling_partners,
    fuglede_report,
    is_spectral,
    tiles,
)
from idemzeros.fourier import idempotent_from_spectrum, zero_set
from idemzeros.zn_core import (
    IndexSet,
    ModulusContext,
    _index_sets,
    bracelet,
    factorize,
    proper_divisors,
    translate,
)


def test_tiles_basics():
    assert tiles(IndexSet.of(4, [0, 1]), IndexSet.of(4, [0, 2]))
    assert not tiles(IndexSet.of(4, [0, 1]), IndexSet.of(4, [0, 1]))
    assert not tiles(IndexSet.of(4, [0, 1]), IndexSet.of(4, [0]))
    assert tiles(IndexSet.of(6, [0, 2, 4]), IndexSet.of(6, [0, 3]))


def test_tiles_symmetry_and_translation():
    rng = random.Random(53)
    for _ in range(50):
        N = rng.choice([4, 6, 8, 9, 12])
        J = IndexSet.of(N, rng.sample(range(N), rng.randint(1, N)))
        K = IndexSet.of(N, rng.sample(range(N), rng.randint(1, N)))
        t = tiles(J, K)
        assert tiles(K, J) == t
        assert tiles(translate(J, rng.randrange(N)), K) == t


def test_partners_verified_and_complete():
    partners = list(find_tiling_partners(IndexSet.of(4, [0, 1])))
    assert [k.members for k in partners] == [(0, 2), (1, 3)]
    for K in partners:
        assert tiles(IndexSet.of(4, [0, 1]), K)
    assert list(find_tiling_partners(IndexSet.of(4, [0, 1, 2]))) == []


def test_partners_composite_modulus():
    partners = list(find_tiling_partners(IndexSet.of(6, [0, 3])))
    assert all(tiles(IndexSet.of(6, [0, 3]), K) for K in partners)
    assert IndexSet.of(6, [0, 2, 4]) in partners
    # against every set of N/|J| members that tiles with J
    rng = random.Random(67)
    for N in (6, 10, 12, 14, 15):
        sizes = [d for d in range(1, N + 1) if N % d == 0]
        for J in [IndexSet.of(N, range(d)) for d in sizes] + [
            IndexSet.of(N, rng.sample(range(N), rng.choice(sizes))) for _ in range(6)
        ]:
            expected = [
                IndexSet(N, K)
                for K in itertools.combinations(range(N), N // len(J))
                if tiles(J, IndexSet(N, K))
            ]
            assert list(find_tiling_partners(J)) == expected, (N, J.members)


def partners_by_zero_sets(J: IndexSet) -> list[IndexSet]:
    """The sets of N/|J| members whose idempotent vanishes wherever h_J does
    not, away from 0, each checked by ``tiles``: an independent route to the
    partners, through zero sets.  At N = p^M they are listed from the digit
    tables, the unions of blocks of p^|mc| members, so other sizes have none;
    elsewhere the oracle's search is capped at N/|J| and its masks of that
    size are kept."""
    N = J.modulus
    if len(J) == 0 or N % len(J):
        return []
    zeros = set(zero_set(idempotent_from_spectrum(J)).zero_set.members)
    required = tuple(n for n in range(1, N) if n not in zeros)
    ctx, size = ModulusContext.of(N), N // len(J)
    if ctx.is_prime_power:
        mc = PivotSet.from_divisors(ctx, {gcd(n, N) for n in required})
        cols = mc_star(ctx.M, mc).columns
        masks = []
        if size % ctx.p ** len(mc) == 0:
            masks = _union_masks(ctx.p, ctx.M, cols, size).get(size, [])
    else:
        masks = oracle._solution_masks(N, required, "vanish-at-least", size)
        masks = masks[np.bitwise_count(masks) == size]
    return [K for K in _index_sets(N, masks) if tiles(J, K)]


def test_partners_match_the_zero_set_route_on_every_report_class():
    for N in range(1, 25):
        for v in fuglede_report(ModulusContext.of(N)).classes:
            J = v.representative
            assert list(find_tiling_partners(J)) == partners_by_zero_sets(J), (N, J.members)


def test_partners_match_the_zero_set_route_on_seeded_sets():
    # where the zero-set route answers: its listing meets its enumeration
    # guard first on some of these
    rng = random.Random(27)
    answered = []
    for N in (27, 32, 64, 81, 128):
        for make in (digit_set, coset_union):
            for _ in range(4):
                J = make(rng, N)
                try:
                    expected = partners_by_zero_sets(J)
                except GuardExceededError:
                    continue
                assert list(find_tiling_partners(J)) == expected, (N, J.members)
                answered.append(len(expected))
    assert (len(answered), sum(map(bool, answered))) == (33, 26)


def test_partners_past_the_oracle_guard():
    # the zero-set route refused the first after counting 100,946,732,307
    # subsets, and searched 9.7M subsets for the second
    first = next(find_tiling_partners(IndexSet.of(48, range(4)), 1))
    assert first == IndexSet.of(48, range(0, 48, 4))
    first = next(find_tiling_partners(IndexSet.of(24, (0, 12)), 1))
    assert first == IndexSet.of(24, range(12))


def test_partner_search_stops_at_the_clique_guard(monkeypatch, capsys):
    # the search for the 16 partners of {0, 4} in Z_8 visits 23 nodes
    J = IndexSet.of(8, (0, 4))
    every = list(find_tiling_partners(J))
    assert len(every) == 16
    monkeypatch.setattr(fuglede, "CLIQUE_GUARD", 10)
    found = []
    with pytest.raises(GuardExceededError, match="tiling-partner search exceeds the clique guard 10 nodes$"):
        found.extend(find_tiling_partners(J))
    assert 0 < len(found) < 16 and every[: len(found)] == found
    assert cli.main(["fuglede", "partners", "--N", "8", "--J", "0,4"]) == 1
    *printed, last = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["members"] for line in printed] == [list(K.members) for K in found]
    error = json.loads(last)
    assert set(error) == {"code", "message"} and error["code"] == "guard-exceeded"
    assert error["message"].endswith("clique guard 10 nodes")


def test_partner_count_matches_the_listing():
    for N in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        (p, M), = factorize(N)
        for v in fuglede_report(ModulusContext.of(N)).classes:
            J = v.representative
            assert fuglede._partner_count(J, p, M) == len(list(find_tiling_partners(J)))
    rng = random.Random(29)
    for N, p, M in ((32, 2, 5), (64, 2, 6), (81, 3, 4)):
        for make in (digit_set, coset_union):
            for _ in range(4):
                J = make(rng, N)
                count = fuglede._partner_count(J, p, M)
                if count <= 1 << 12:
                    assert count == len(list(find_tiling_partners(J))), (N, J.members)
    # {0, N/2} takes one of each pair {x, x + N/2}
    assert fuglede._partner_count(IndexSet.of(4096, (0, 2048)), 2, 12) == 1 << 2048


def test_partner_listing_is_priced_before_the_search(monkeypatch, capsys):
    # 2^2048 partners of 4096 bits, and 2^32 of 64 bits, against 2^25 bits
    def no_search(N, members):
        raise AssertionError("searched")

    monkeypatch.setattr(fuglede, "_translate_covers", no_search)
    with pytest.raises(GuardExceededError, match="needs more than 8192 partners of 4096 bits$"):
        next(find_tiling_partners(IndexSet.of(4096, (0, 2048))))
    assert cli.main(["fuglede", "partners", "--N", "64", "--J", "0,16,32,48"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["code"] == "guard-exceeded"
    assert error["message"] == "N=64: the tiling-partner listing needs more than 524288 partners of 64 bits"
    monkeypatch.undo()
    first = next(find_tiling_partners(IndexSet.of(4096, (0, 2048)), 1))
    assert first == IndexSet.of(4096, range(2048))
    # at the edge: {0, 4} has 16 partners in Z_8
    J = IndexSet.of(8, (0, 4))
    monkeypatch.setattr(fuglede, "ENUMERATION_GUARD", 8 * 16)
    assert len(list(find_tiling_partners(J))) == 16
    monkeypatch.setattr(fuglede, "ENUMERATION_GUARD", 8 * 16 - 1)
    assert len(list(find_tiling_partners(J, 15))) == 15
    monkeypatch.setattr(fuglede, "_translate_covers", no_search)
    with pytest.raises(GuardExceededError, match="needs more than 15 partners of 8 bits$"):
        next(find_tiling_partners(J, 16))


def test_partner_listing_is_charged_per_partner_at_composite_moduli(monkeypatch, capsys):
    # {0, 12} in Z_24 has 4096 partners; no closed form prices them here
    J = IndexSet.of(24, (0, 12))
    every = list(find_tiling_partners(J, 6))
    monkeypatch.setattr(fuglede, "ENUMERATION_GUARD", 24 * 5)
    assert list(find_tiling_partners(J, 5)) == every[:5]
    found = []
    with pytest.raises(GuardExceededError, match="needs more than 5 partners of 24 bits$"):
        found.extend(find_tiling_partners(J))
    assert found == every[:5]
    assert cli.main(["fuglede", "partners", "--N", "24", "--J", "0,12"]) == 1
    *printed, last = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["members"] for line in printed] == [list(K.members) for K in found]
    assert json.loads(last)["code"] == "guard-exceeded"


def test_partner_limit():
    assert list(find_tiling_partners(IndexSet.of(8, [0]))) == [
        IndexSet.of(8, range(8))
    ]
    assert len(list(find_tiling_partners(IndexSet.of(8, [0, 4]), max_results=3))) == 3


def test_partner_limit_zero_and_negative():
    assert list(find_tiling_partners(IndexSet.of(8, [0]), max_results=0)) == []
    with pytest.raises(ValueError):
        list(find_tiling_partners(IndexSet.of(8, [0]), max_results=-1))


def test_spectral_examples():
    assert is_spectral(IndexSet.of(4, [0, 1])).spectral
    assert not is_spectral(IndexSet.of(4, [0, 1, 2])).spectral
    full = is_spectral(IndexSet.of(8, list(range(8))))
    assert full.spectral and full.witness.members == tuple(range(8))


def gram_is_scaled_identity(J: IndexSet, rows) -> bool:
    """The Gram check of the DFT submatrix on rows x columns J, the reference
    for ``fuglede._is_witness``.  The phases are reduced mod N before the
    float division, so they stay below 2 pi and lose no precision at large N."""
    N, size = J.modulus, len(J)
    M = np.exp(-2j * np.pi * (np.outer(rows, J.members) % N) / N)
    return bool(np.allclose(M.conj().T @ M, size * np.eye(size), atol=1e-9))


def test_spectral_witness_gram():
    J = IndexSet.of(8, [0, 1, 4, 5])
    result = is_spectral(J)
    assert result.spectral
    assert gram_is_scaled_identity(J, result.witness.members)


def test_spectral_bracelet_invariance():
    rng = random.Random(59)
    for _ in range(20):
        N = rng.choice([4, 8, 9])
        J = IndexSet.of(N, rng.sample(range(N), rng.randint(1, N)))
        verdict = is_spectral(J).spectral
        for K in bracelet(J):
            assert is_spectral(K).spectral == verdict


def test_tiling_iff_joint_zero_cover():
    # the support-level criterion used by the report path must match tiles()
    rng = random.Random(61)
    for _ in range(100):
        N = rng.choice([4, 6, 8, 9])
        J = IndexSet.of(N, rng.sample(range(N), rng.randint(1, N)))
        K = IndexSet.of(N, rng.sample(range(N), rng.randint(1, N)))
        zj = set(zero_set(idempotent_from_spectrum(J)).zero_set.members)
        zk = set(zero_set(idempotent_from_spectrum(K)).zero_set.members)
        support = len(J) * len(K) == N and set(range(1, N)) <= (zj | zk)
        assert tiles(J, K) == support


def test_report_small_moduli():
    for N in (4, 8, 9):
        report = fuglede_report(ModulusContext.of(N))
        assert report.disagreements == ()
        assert report.sets_checked == 2**N - 1


def test_report_reps_are_least_masks_of_their_classes():
    for N in (8, 9, 12):
        least = {}
        for mask in range(1, 1 << N):
            J = IndexSet.from_mask(N, mask)
            zeros = zero_set(idempotent_from_spectrum(J), mode="exact").zero_set.members
            key = (len(J), tuple(d for d in proper_divisors(N) if d in zeros))
            least.setdefault(key, mask)
        report = fuglede_report(ModulusContext.of(N))
        assert {(v.size, v.zero_divisors): v.representative.mask for v in report.classes} == least
    # Classes are closed under rotation and reversal, so each least mask is
    # also least in its bracelet (in mask order, not canonical_bracelet_rep's
    # member-tuple order).
    for v in fuglede_report(ModulusContext.of(16)).classes:
        assert min(K.mask for K in bracelet(v.representative)) == v.representative.mask


def subset_sums(rows: np.ndarray) -> np.ndarray:
    """Entry i is the sum of the rows selected by the bits of i, built by doubling."""
    sums = np.zeros((1,) + rows.shape[1:], dtype=np.int64)
    for row in rows:
        sums = np.concatenate([sums, sums + row])
    return sums


def class_reps_by_unique_ids(N: int) -> dict[tuple, int]:
    """Least mask of every (size, divisor flags) class of nonempty sets.

    Masks split into low and high bits.  At each proper divisor d, the exact
    residue sums of all low subsets and of the negated high subsets get common
    integer ids, so a mask vanishes at d iff its low id equals its high id.
    """
    R = power_residue_matrix(N)
    divisors = proper_divisors(N)
    low_bits = min(N, 16)
    n_low = 1 << low_bits
    low_ids, high_ids = [], []
    for d in divisors:
        rows = R[(np.arange(N) * d) % N]
        sums = np.concatenate([subset_sums(rows[:low_bits]), -subset_sums(rows[low_bits:])])
        rows_as_bytes = sums.view(np.dtype((np.void, sums.strides[0])))[:, 0]
        _, ids = np.unique(rows_as_bytes, return_inverse=True)
        low_ids.append(ids[:n_low])
        high_ids.append(ids[n_low:])
    low_sizes = subset_sums(np.ones(low_bits, dtype=np.int64))
    high_sizes = subset_sums(np.ones(N - low_bits, dtype=np.int64))
    n_keys = 256 << len(divisors)
    seen = np.zeros(n_keys, dtype=bool)
    reps: dict[int, int] = {}
    for high in range(1 << (N - low_bits)):
        keys = low_sizes + high_sizes[high]
        for i, (lo, hi) in enumerate(zip(low_ids, high_ids)):
            keys |= (lo == hi[high]).astype(np.int64) << (8 + i)
        # Masks grow with ``high``, so a key's first chunk holds its least mask.
        new = np.flatnonzero(np.bincount(keys, minlength=n_keys).astype(bool) & ~seen)
        seen[new] = True
        for key in new.tolist():
            if key & 255:
                reps[key] = high << low_bits | int(np.argmax(keys == key))
    return {
        (key & 255, tuple(bool(key >> (8 + i) & 1) for i in range(len(divisors)))): mask
        for key, mask in reps.items()
    }


def test_class_reps_match_the_scan_over_every_mask():
    # the reference scans every mask and ids the exact sums of every half,
    # from its own residue rows, not the oracle's limb tables
    for N in range(1, 28):
        assert fuglede._class_reps(N) == class_reps_by_unique_ids(N), N


def test_class_reps_decided_by_exact_sums(monkeypatch):
    # with every fingerprint 0, every low is a hit, so only the exact sums
    # can tell a vanishing mask from the rest
    limb_tables = oracle._limb_tables

    def zeroed(N, n):
        return tuple((lo, table, np.zeros_like(fp)) for lo, table, fp in limb_tables(N, n))

    monkeypatch.setattr(oracle, "_limb_tables", zeroed)
    for N in (8, 12, 16, 18, 20, 23, 25, 27):
        assert fuglede._class_reps(N) == class_reps_by_unique_ids(N), N


def test_distinct_rows_stay_apart_past_the_radix_bound():
    # bases 2, 2 and 2^32 twice: without a re-rank, the size and the first
    # id would be shifted past bit 63, and rows 0 and 1 would share a key
    sizes = np.array([0, 1, 1, 0, 1])
    ids = [
        np.zeros(5, dtype=np.int64),
        np.array([5, 5, 2**32 - 2, 5, 5]),
        np.array([7, 7, 2**32 - 2, 7, 7]),
    ]
    assert fuglede._least_of_each_row(sizes, ids).tolist() == [0, 1, 2]
    assert fuglede._least_of_each_row(sizes, []).tolist() == [0, 1]


def test_class_reps_in_closed_form_at_prime_moduli():
    # at a prime N a nonempty set vanishes at 1 iff it is all of Z_N, so the
    # least set of each size s is {0, ..., s-1}
    for N in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        expected = {(s, (False,)): (1 << s) - 1 for s in range(1, N)}
        expected[N, (True,)] = (1 << N) - 1
        assert fuglede._class_reps(N) == expected, N


def test_report_sets_checked_with_size_cap():
    report = fuglede_report(ModulusContext.of(9), max_set_size=4)
    assert report.sets_checked == sum(comb(9, k) for k in range(1, 5))
    assert {v.size for v in report.classes} == {1, 2, 3, 4}


def test_witness_test_matches_the_gram_reference_on_random_rows():
    # random rows, with a repeat or one row too many now and then, and the
    # search's rows where it finds any, so that both verdicts occur
    rng = random.Random(26)
    verdicts = []
    for _ in range(1500):
        N = rng.randint(1, 32)
        J = IndexSet.of(N, rng.sample(range(N), rng.randint(1, min(N, 8))))
        rows = rng.sample(range(N), len(J))
        if rng.random() < 0.4:
            zeros = zero_set(idempotent_from_spectrum(J)).zero_set.mask
            rows = list(fuglede._difference_clique(N, zeros, len(J)) or rows)
        if len(rows) > 1 and rng.random() < 0.1:
            rows[-1] = rows[0]
        if len(rows) < N and rng.random() < 0.1:
            rows.append(rng.choice([r for r in range(N) if r not in rows]))
        verdict = fuglede._is_witness(J, rows)
        assert verdict == gram_is_scaled_identity(J, rows), (N, J.members, rows)
        verdicts.append(verdict)
    assert 300 < verdicts.count(True) < 1200


@pytest.mark.parametrize("N", [4, 8, 9, 16, 25, 27])
def test_witness_test_matches_the_gram_reference_on_t1_witnesses(N):
    # the report has one class for each set S of prime powers whose cyclotomic
    # polynomials divide J(x), so its spectral classes give every T1 witness;
    # moving the last of two or more rows up by one must spoil each of them
    witnesses = 0
    for v in fuglede_report(ModulusContext.of(N)).classes:
        J = v.representative
        result = is_spectral(J)
        if not result.spectral:
            continue
        rows = list(result.witness.members)
        assert fuglede._is_witness(J, rows) and gram_is_scaled_identity(J, rows), J.members
        witnesses += 1
        if len(rows) > 1:
            rows[-1] = (rows[-1] + 1) % N
            assert not fuglede._is_witness(J, rows), (J.members, rows)
            assert not gram_is_scaled_identity(J, rows), (J.members, rows)
    ((_, M),) = factorize(N)
    assert witnesses == 2**M


def test_report_witnesses_pass_the_witness_test(monkeypatch):
    # a row set whose DFT submatrix is not unitary must not become a witness
    monkeypatch.setattr(fuglede, "_difference_clique", lambda N, zero_mask, size: tuple(range(size)))
    with pytest.raises(AssertionError, match="failed the witness test"):
        fuglede_report(ModulusContext.of(8))


def test_report_guards():
    with pytest.raises(GuardExceededError, match="exceeds the report guard"):
        fuglede_report(ModulusContext.of(33))
    with pytest.raises(GuardExceededError):
        fuglede_report(ModulusContext.of(49))


def test_report_at_composite_moduli():
    # spectral and tiling sets coincide in every cyclic group of order <= 32
    for N in (1, 6, 12, 18, 20, 24):
        report = fuglede_report(ModulusContext.of(N))
        assert report.disagreements == (), N
        for v in report.classes:
            assert v.partner is None or tiles(v.representative, v.partner), (N, v)


def test_report_tiling_matches_partner_search():
    # the class-table partners against the exact cover by translates of J
    for N in (8, 9, 12, 16, 18, 20):
        for v in fuglede_report(ModulusContext.of(N)).classes:
            found = next(find_tiling_partners(v.representative, 1), None) is not None
            assert v.tiling == found, (N, v.representative.members)


def test_spectral_and_partner_checks_hit_the_residue_guard(monkeypatch):
    # both take the exact zero set of h_J first, which the residue guard
    # refuses before any divisor of N is tested
    monkeypatch.setattr(fourier, "proper_divisors", lambda N: pytest.fail("divisors tested"))
    for N in (4099, 10**12):
        J = IndexSet(N, (0,))
        with pytest.raises(GuardExceededError, match="exceed the residue guard$"):
            is_spectral(J)
        with pytest.raises(GuardExceededError, match="exceed the residue guard$"):
            list(find_tiling_partners(J))


def test_spectral_clique_search_stops_at_its_guard(monkeypatch, capsys):
    # J = {0, 1, 3, 4, 6, 7, 9, 10} in Z_12 is not spectral; the search that
    # shows it visits 16 nodes, and a refused search is not a verdict
    J = IndexSet.of(12, [0, 1, 3, 4, 6, 7, 9, 10])
    monkeypatch.setattr(fuglede, "CLIQUE_GUARD", 16)
    assert is_spectral(J) == fuglede.SpectralResult(False, None)
    monkeypatch.setattr(fuglede, "CLIQUE_GUARD", 15)
    with pytest.raises(GuardExceededError, match="exceeds the clique guard 15 nodes$"):
        is_spectral(J)
    assert cli.main(["fuglede", "spectral", "--N", "12", "--J", "0,1,3,4,6,7,9,10"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["code"] == "guard-exceeded" and out["message"].endswith("clique guard 15 nodes")


def searched(J: IndexSet) -> fuglede.SpectralResult:
    """The verdict of the clique search over the exact zero set of h_J."""
    witness = fuglede._spectral_witness(J, zero_set(idempotent_from_spectrum(J)).zero_set.members)
    return fuglede.SpectralResult(witness is not None, witness)


def test_spectral_at_composite_moduli_matches_the_zero_set_search():
    # the reference runs the search on the public exact zero set; is_spectral
    # reads the zero set off the divisors that _zero_divisors finds
    rng = random.Random(100)
    composite = [N for N in range(12, 101) if len(factorize(N)) > 1]
    spectral = 0
    for N in composite:
        for _ in range(4):
            d = rng.choice([d for d in range(1, N + 1) if N % d == 0 and d <= 12])
            J = IndexSet.of(N, rng.sample(range(N), rng.choice([d, rng.randint(1, 6)])))
            zeros = zero_set(idempotent_from_spectrum(J)).zero_set.mask
            rows = fuglede._difference_clique(N, zeros, len(J))
            expected = fuglede.SpectralResult(rows is not None, rows and IndexSet(N, rows))
            assert is_spectral(J) == expected, (N, J.members)
            spectral += expected.spectral
    assert 40 < spectral < len(composite) * 4 - 40


def least_clique_by_brute_force(zeros: tuple[int, ...], size: int) -> tuple[int, ...] | None:
    """The first size-element set holding 0, in lexicographic order, whose
    differences all lie in ``zeros``; its other members are zeros, as
    differences with 0, and two of them u < v differ by v - u, which needs no
    reduction mod N."""
    in_zeros = set(zeros)
    for rest in itertools.combinations(zeros, size - 1):
        if all(v - u in in_zeros for u, v in itertools.combinations(rest, 2)):
            return (0, *rest)
    return None


def test_clique_search_finds_the_least_clique():
    # the CLI prints the search's rows, so they must be the least clique,
    # not merely some clique
    rng = random.Random(33)
    cases = [IndexSet.from_mask(12, mask) for mask in range(1, 1 << 12)]
    for N in (18, 20, 24):
        sizes = [d for d in range(2, 9) if N % d == 0] + [rng.randint(2, 8) for _ in range(4)]
        cases += [IndexSet.of(N, rng.sample(range(N), size)) for size in sizes for _ in range(6)]
        cases += [coset_union(rng, N) for _ in range(12)]
    expected = {}
    found = 0
    for J in cases:
        N, zeros = J.modulus, zero_set(idempotent_from_spectrum(J)).zero_set
        key = (N, zeros.members, len(J))
        if key not in expected:
            expected[key] = least_clique_by_brute_force(zeros.members, len(J))
        assert fuglede._difference_clique(N, zeros.mask, len(J)) == expected[key], (N, J.members)
        found += expected[key] is not None
    assert 0 < found < len(cases)


def test_spectral_by_t1_agrees_with_the_search_on_every_small_subset():
    # at N = p^M the verdict and the witness come from T1 and never from the
    # search, and equal the search's: its witness is the least clique
    for N in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for mask in range(1, 1 << N):
            J = IndexSet.from_mask(N, mask)
            assert is_spectral(J) == searched(J), (N, J.members)


def test_spectral_by_t1_agrees_with_the_report_classes():
    for N in (16, 25, 27):
        for v in fuglede_report(ModulusContext.of(N)).classes:
            result = is_spectral(v.representative)
            assert result == fuglede.SpectralResult(v.spectral, v.witness), (N, v)


def digit_set(rng: random.Random, N: int) -> IndexSet:
    """A translate of {sum_i d_i p^i : d_i in D_i} in Z_{p^M}, each D_i a
    random set of base-p digits: one digit, all p, or any number."""
    ((p, M),) = factorize(N)
    members = {0}
    for i in range(M):
        D = rng.sample(range(p), rng.choice([1, 1, p, p, rng.randint(1, p)]))
        members = {m + d * p**i for m in members for d in D}
    t = rng.randrange(N)
    return IndexSet.of(N, ((m + t) % N for m in members))


def coset_union(rng: random.Random, N: int) -> IndexSet:
    """A union of up to three cosets t + dZ_N, 1 < d < N, d | N."""
    steps = [d for d in range(2, N) if N % d == 0]
    members = []
    for d in rng.sample(steps, rng.randint(1, min(3, len(steps)))):
        t = rng.randrange(N)
        members += range(t, t + N, d)
    return IndexSet.of(N, members)


def t1_from_float_zeros(J: IndexSet) -> bool:
    """T1 with the divisors read from float mode, a route independent of the
    difference operators: |J| = p^k for k the number of zero divisors."""
    ((p, _),) = factorize(J.modulus)
    report = zero_set(idempotent_from_spectrum(J), mode="float")
    return len(J) == p ** len(report.zero_divisors.divisors)


def test_spectral_by_t1_agrees_with_the_search_on_seeded_sets(monkeypatch):
    # a non-spectral coset union can take the search past 2^20 nodes and
    # seconds; with the guard at 2^16 the search is refused on a few, and
    # there T1 from the float zero divisors must refuse them too
    monkeypatch.setattr(fuglede, "CLIQUE_GUARD", 1 << 16)
    rng = random.Random(25)
    verdicts = []
    for N in (64, 81, 125, 243, 256):
        for make in (digit_set, coset_union):
            for _ in range(8):
                J = make(rng, N)
                result = is_spectral(J)
                assert result.spectral == t1_from_float_zeros(J), (N, J.members)
                try:
                    expected = searched(J)
                except GuardExceededError:
                    verdicts.append(None)
                    assert result == fuglede.SpectralResult(False, None), (N, J.members)
                    continue
                verdicts.append(expected.spectral)
                assert result == expected, (N, J.members)
    assert (verdicts.count(True), verdicts.count(False), verdicts.count(None)) == (58, 17, 5)


def test_spectral_answers_where_the_search_is_refused():
    # the search needs more than CLIQUE_GUARD nodes on each of these
    cases = [
        (512, [j + 32 * k for j in (12, 13, 15, 29) for k in range(16)], (1, 2, 4, 8)),
        (1024, [23 + 64 * k for k in range(16)] + [239 + 256 * k for k in range(4)], (1, 2)),
        (2048, [5 + 64 * k for k in range(32)] + [100 + 512 * k for k in range(4)], (1, 2)),
    ]
    for N, members, divisors in cases:
        J = IndexSet.of(N, members)
        assert is_spectral(J) == fuglede.SpectralResult(False, None), N
        h = idempotent_from_spectrum(J)
        for mode in ("exact", "float"):
            assert zero_set(h, mode=mode).zero_divisors.divisors == divisors, (N, mode)


def test_spectral_answers_where_the_gram_check_or_the_recursion_failed(capsys):
    # the float Gram check, without the phases reduced mod N, rejected Z_4096
    # as its own witness; the search that finds {0, ..., 999} for 2 Z_2000
    # recursed once per row
    full = IndexSet.of(4096, range(4096))
    assert is_spectral(full) == fuglede.SpectralResult(True, full)
    assert cli.main(["fuglede", "spectral", "--N", "4096", "--J", ",".join(map(str, range(4096)))]) == 0
    assert json.loads(capsys.readouterr().out) == {"spectral": True, "witness": list(range(4096))}
    evens = IndexSet.of(2000, range(0, 2000, 2))
    assert is_spectral(evens) == fuglede.SpectralResult(True, IndexSet.of(2000, range(1000)))


@pytest.mark.parametrize("N, t1_t2", [(8, (False, False)), (12, (True, True))])
def test_report_checks_each_class_against_t1_and_t2(monkeypatch, N, t1_t2):
    # at N = 8, T1 false contradicts the spectral classes; at N = 12, which
    # is no prime power, T1 and T2 true claim the non-spectral ones spectral
    monkeypatch.setattr(fuglede, "_t1_t2", lambda size, S: t1_t2)
    with pytest.raises(AssertionError, match="disagree with spectral"):
        fuglede_report(ModulusContext.of(N))
