"""Tiling checks, tiling-partner search, spectral witnesses, and the
spectral-vs-tiling agreement report.

A set J tiles Z_N with K iff the integer convolution of the indicators is the
all-ones signal, that is, iff the translates J + k, k in K, cover Z_N exactly
once; equivalently |J||K| = N and the zero sets of the two idempotents jointly
cover all nonzero indices, which is how the report decides it.  Partners come
from an exact-cover search over the translates of J, in Python ints, with no
zero set: it decides k = 0, 1, ... in turn, include first, so partners come
lazily in lexicographic order, and a point that only one open translate can
still cover forces it.  Each partner is charged its N bits against the digit
tables' ENUMERATION_GUARD; at N = p^M, where the partners are counted in
closed form, the whole listing is priced before the search.  The convolution
check itself, ``tiles``, is pure set combinatorics; it lives in ``zn_core``
and is re-exported here.

J is spectral iff some equally-sized row set I has all pairwise differences
inside the zero set of h_J, which makes the corresponding square DFT
submatrix unitary up to scaling; one routine finds such an I, and one
integer test checks every witness: it counts the pairs of rows whose
difference has each gcd d with N, and needs Phi_{N/d} | J(x) at every d that
occurs, with no matrix and no float.

The exhaustive report classifies index sets by (size, zero-set divisors); both
predicates are constant on such classes, so each class is decided once, on its
least mask, and a class tiles iff some class of the complementary size
vanishes at every divisor it does not.  A translate of a set by minus its
least member has the same class and a mask no larger, so only the masks that
hold 0 are scanned.  A mask vanishes at a divisor iff the exact residue sums
of its low and high bits cancel.  Those sums and their 64-bit fingerprints
come from the oracle's one reader of its limb tables, and the oracle's one
match of two half tables, which its own search uses too, rules out the low
halves that no high half can cancel.  Exact integer ids are built only for
the rest, and those exact sums decide every flag.  A mask's class depends on each
half only through its popcount and ids, so each half is cut down to the least
half of each distinct row before the halves are paired, in blocks.

At N = p^M, ``is_spectral`` needs neither the zero set nor a search: J is
spectral iff |J| = p^k, where k counts the p^j | N with Phi_{p^j} | J(x)
(Coven and Meyerowitz's T1; Laba), so a size that is no power of p decides
it at once, and the witness is explicit.  At any
other N it reads the zero set into one mask and searches it for a row set, in
ascending order on candidate masks, as the partner search does; the search
refuses, with GuardExceededError, to visit more than CLIQUE_GUARD nodes.  The
report always searches, and checks each class's verdict against T1 and T2
read off the class's divisor flags, so the theorems and the search check
each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import mul, or_
from typing import TYPE_CHECKING, Iterator

from .cyclotomic import check_residue_guard
from .digit_tables import ENUMERATION_GUARD, least_block
from .errors import GuardExceededError
from .fourier import _phi_divides, _zero_divisors
from .zn_core import (
    IndexSet,
    ModulusContext,
    _gcd_classes,
    factorize,
    proper_divisors,
    tiles,
    valuation,
)

if TYPE_CHECKING:
    import numpy as np

REPORT_GUARD_N = 32
# nodes the spectral clique search may visit; no report class needs 1,000
CLIQUE_GUARD = 1 << 20
# keys per block of the class scan
_BLOCK = 1 << 15
# highs from which sorting the lows into distinct rows saves more than it costs
_GROUP_LOWS_FROM = 8


def check_report_guard(N: int) -> None:
    """GuardExceededError when N is past the report guard; a check of N alone,
    so callers can make it before they factorize N."""
    if N > REPORT_GUARD_N:
        raise GuardExceededError(f"N={N} exceeds the report guard {REPORT_GUARD_N}")


def _translate_covers(N: int, members: tuple[int, ...]) -> Iterator[int]:
    """Masks of the sets K whose translates J + k, k in K, cover Z_N exactly
    once, where J holds ``members``, in lexicographic order of their sorted
    members.

    The search decides k = 0, 1, ..., N - 1 in turn, include first, so the
    covers come in lexicographic order.  Bitmasks hold the covered points,
    the open translates (neither decided nor clashing with a chosen one) and
    the chosen translates; choosing k closes every k + (J - J).  At each node
    every uncovered point must still lie in some open translate, and a point
    in exactly one is covered by it, so that translate is chosen at once.  A
    translate J + t is a rotation of J's mask, read off the mask written out
    twice.  A search that visits more than CLIQUE_GUARD nodes raises
    GuardExceededError.
    """
    full = (1 << N) - 1
    twice = 1 | 1 << N
    tile = twice * sum(1 << j for j in members)
    # J - J, as the union of the translates J - a, and the translates that
    # hold a point x, x - J
    clash = twice * (reduce(or_, (tile << N - a >> N for a in members)) & full)
    reach = twice * sum(1 << -j % N for j in members)
    size = len(members)
    nodes = 0
    # covered points, open translates and chosen translates
    stack = [(0, full, 0)]
    while stack:
        covered, free, chosen = stack.pop()
        nodes += 1
        if nodes > CLIQUE_GUARD:
            raise GuardExceededError(
                f"N={N}: the tiling-partner search exceeds the clique guard {CLIQUE_GUARD} nodes"
            )
        stale = True
        while stale:
            stale = False
            # the points in at least one and in at least two open translates,
            # summed over whichever is shorter: J, or the open translates
            uncovered = full ^ covered
            ge1 = ge2 = 0
            if 2 * free.bit_count() < size:
                left = free
                while left:
                    low = left & -left
                    left ^= low
                    row = tile << low.bit_length() - 1 >> N
                    ge2 |= ge1 & row
                    ge1 |= row
            else:
                free2 = twice * free
                for j in members:
                    row = free2 << j
                    ge2 |= ge1 & row
                    ge1 |= row
                ge1 >>= N
                ge2 >>= N
            if uncovered & ~ge1:
                break
            # a point in one open translate forces it; a forced translate
            # that closes others means a recount
            once = uncovered & ~ge2
            while once:
                x = (once & -once).bit_length() - 1
                only = reach << x >> N & free
                if not only:
                    break
                t = only.bit_length() - 1
                cover = tile << t >> N & full
                covered |= cover
                once &= ~cover
                closed = clash << t >> N & free
                free ^= closed
                chosen |= only
                stale = stale or closed != only
            if once:
                break
        else:
            if covered == full:
                yield chosen
                continue
            low = free & -free
            t = low.bit_length() - 1
            stack.append((covered, free ^ low, chosen))
            covered |= tile << t >> N & full
            if covered == full:
                yield chosen | low
                continue
            stack.append((covered, free & ~(clash << t >> N), chosen | low))


def _t1_orders(J: IndexSet, p: int) -> list[int] | None:
    """S, the p^k > 1 dividing N = p^M with Phi_{p^k} | J(x), descending,
    when T1 holds, |J| = p^|S|; None when it does not."""
    N = J.modulus
    S = [N // d for d in _zero_divisors(J.members, N) if d < N]
    return S if len(J) == p ** len(S) else None


def _partner_count(J: IndexSet, p: int, M: int) -> int:
    """The number of partners of J at N = p^M, with no search.

    J tiles iff |J| = p^|S|, S the p^k with Phi_{p^k} | J(x) (T1), and
    then K is a partner iff |K| = N/|J| and Phi_{p^k} | K(x) for every other
    k.  Those K are the single conforming blocks of the digit tables with
    pivot columns k - 1, p^k not in S.  Read from the highest digit down, a
    pivot column joins p independent fibers, raising the count to the p-th
    power, and any other column puts the block into one of p fibers.
    """
    S = _t1_orders(J, p)
    if S is None:
        return 0
    count = 1
    for k in range(M, 0, -1):
        count = p * count if p**k in S else count**p
    return count


def find_tiling_partners(J: IndexSet, max_results: int | None = None) -> Iterator[IndexSet]:
    """Partners K with 1_J * 1_K = all-ones, lexicographic order.

    Partners come lazily from an exact cover of Z_N by translates of J
    (``_translate_covers``), and each is re-checked by ``tiles``; one that
    fails raises AssertionError.  At most ``max_results`` partners are
    yielded, and the search stops there; a negative limit raises ValueError.
    The residue guard refuses a too-large N before any work, since the search
    holds N-bit masks of up to N translates.  A listing of more partners of N
    bits than ENUMERATION_GUARD bits allows raises GuardExceededError: before
    any work at N = p^M, where ``_partner_count`` prices it, and elsewhere
    after the partners that fit.  So does a search past CLIQUE_GUARD nodes,
    after the partners found until then.
    """
    if max_results is not None and max_results < 0:
        raise ValueError(f"max_results must be nonnegative, got {max_results}")
    N = J.modulus
    if len(J) == 0 or N % len(J) != 0:
        return
    check_residue_guard(N)
    limit = ENUMERATION_GUARD // N
    refusal = f"N={N}: the tiling-partner listing needs more than {limit} partners of {N} bits"
    # Z_N has 2^N subsets, so a listing at a small N always fits
    if (max_results is None or max_results > limit) and 1 << N > limit:
        primes = factorize(N)
        if len(primes) == 1 and _partner_count(J, *primes[0]) > limit:
            raise GuardExceededError(refusal)
    covers = itertools.islice(_translate_covers(N, J.members), max_results)
    for count, mask in enumerate(covers, 1):
        if count > limit:
            raise GuardExceededError(refusal)
        K = IndexSet.from_mask(N, mask)
        if not tiles(J, K):
            raise AssertionError(f"partner {K.members} fails the convolution check for {J.members}")
        yield K


@dataclass(frozen=True)
class SpectralResult:
    spectral: bool
    witness: IndexSet | None


def _difference_clique(N: int, zero_mask: int, size: int) -> tuple[int, ...] | None:
    """The lexicographically least size-element subset of Z_N holding 0 whose
    pairwise differences are all bits of ``zero_mask``, or None.  Rows are
    added in ascending order, depth first on a stack of candidate masks; a
    row v keeps the later candidates in ``zero_mask << v``, and a node whose
    clique and candidates fall short of ``size`` is not entered.  A search
    that visits more than CLIQUE_GUARD nodes raises GuardExceededError."""
    clique: list[int] = []
    # the candidates not yet tried at each open node, deepest last
    stack: list[int] = []
    nodes = 0
    v, cands = 0, zero_mask & ~1
    while True:
        nodes += 1
        if nodes > CLIQUE_GUARD:
            raise GuardExceededError(
                f"N={N}: the spectral search for {size} rows exceeds the clique guard "
                f"{CLIQUE_GUARD} nodes"
            )
        clique.append(v)
        if len(clique) == size:
            return tuple(clique)
        if len(clique) + cands.bit_count() < size:
            clique.pop()
        else:
            stack.append(cands)
        while stack and not stack[-1]:
            stack.pop()
            clique.pop()
        if not stack:
            return None
        low = stack[-1] & -stack[-1]
        stack[-1] ^= low
        v = low.bit_length() - 1
        cands = stack[-1] & zero_mask << v


def _is_witness(J: IndexSet, rows) -> bool:
    """Whether the DFT submatrix on rows x columns J is unitary up to scaling,
    in integer arithmetic.

    That holds iff |rows| = |J| and h_J vanishes at the difference of every
    two rows, so iff Phi_{N/d} divides J(x) for each d | N that is the gcd of
    some such difference with N (at d = N, a repeated row, never for J
    nonempty).  The ordered pairs of rows that agree mod d number
    P(d) = sum_r c_r (c_r - 1), c_r the rows in residue class r mod d, and
    those whose difference has gcd exactly d number
    E(d) = sum_{d | e | N} mu(e/d) P(e): a difference operator in each prime
    of N on the divisor lattice.  O(|rows| d(N) + sigma(N) omega(N)) steps."""
    N = J.modulus
    if len(rows) != len(J):
        return False
    divisors = proper_divisors(N) + (N,)
    # P(d) per divisor, which the Mobius step turns into E(d) in place
    pairs = {}
    for d in divisors:
        counts = [0] * d
        for r in rows:
            counts[r % d] += 1
        pairs[d] = sum(map(mul, counts, counts)) - len(rows)
    for p, _ in factorize(N):
        for d in divisors:
            if N // d % p == 0:
                pairs[d] -= pairs[d * p]
    return all(_phi_divides(J.members, N // d) for d in divisors if pairs[d])


def _verified_witness(J: IndexSet, rows) -> IndexSet:
    """``rows`` as an IndexSet, after ``_is_witness``; a row set that fails
    it raises AssertionError."""
    if not _is_witness(J, rows):
        raise AssertionError(f"witness {tuple(rows)} failed the witness test for J={J.members}")
    return IndexSet(J.modulus, tuple(rows))


def _spectral_witness(J: IndexSet, zeros) -> IndexSet | None:
    """The least row set holding 0 that makes the DFT submatrix on columns J
    unitary up to scaling, searched on ``zeros``, the zero set of h_J, read
    into one mask; None when there is none.  A witness that fails
    ``_is_witness`` raises AssertionError."""
    rows = _difference_clique(J.modulus, sum(1 << z for z in zeros), len(J))
    return None if rows is None else _verified_witness(J, rows)


def _t1_t2(size: int, S) -> tuple[bool, bool]:
    """Coven and Meyerowitz's conditions (T1, T2) for a set of ``size``
    members of Z_N whose mask polynomial J(x) is divisible by Phi_m exactly
    for the m in S, among the m | N with m > 1.

    (T1): size is the product of Phi_s(1) = p over the powers s of primes p
    in S.  (T2): for prime powers s_1, ..., s_k in S of distinct primes, the
    product s_1 ... s_k is in S.
    """
    by_prime: dict[int, list[int]] = {}
    for s in S:
        f = factorize(s)
        if len(f) == 1:
            by_prime.setdefault(f[0][0], []).append(s)
    t1 = size == math.prod(p ** len(ss) for p, ss in by_prime.items())
    choices = itertools.product(*([1, *ss] for ss in by_prime.values()))
    t2 = all(math.prod(c) in S for c in choices if math.prod(c) > 1)
    return t1, t2


def is_spectral(J: IndexSet) -> SpectralResult:
    """Whether some row set makes the DFT submatrix on columns J unitary up
    to scaling, with the least such row set that holds 0 as its witness.

    At N = p^M, J is spectral iff (T1) holds, that is, iff |J| = p^k where k
    is the number of s = p^j, 1 <= j <= M, with Phi_s | J(x) (Laba, J. London
    Math. Soc. 65, 2002).  So a size that is no power of p is refused before
    any divisibility is tested; otherwise each is one difference-operator
    test, and the witness is the least block {sum_s c_s N/s : 0 <= c_s < p},
    with no zero set and no search.  At any other N the zero set of h_J, read
    off its zero divisors, is searched for a row set, a search that stops at
    CLIQUE_GUARD nodes.  Either witness passes the integer witness test
    ``_is_witness`` or raises AssertionError; the residue guard refuses a
    too-large N before it is factorized.
    """
    N = J.modulus
    if len(J) == 0:
        return SpectralResult(True, IndexSet(N, ()))
    check_residue_guard(N)
    primes = factorize(N)
    if len(primes) != 1:
        witness = _spectral_witness(J, _gcd_classes(N, _zero_divisors(J.members, N)))
        return SpectralResult(witness is not None, witness)
    p, _ = primes[0]
    if p ** valuation(len(J), p) != len(J):
        return SpectralResult(False, None)
    S = _t1_orders(J, p)
    if S is None:
        return SpectralResult(False, None)
    return SpectralResult(True, _verified_witness(J, least_block(p, [N // s for s in S])))


@dataclass(frozen=True)
class ClassVerdict:
    size: int
    zero_divisors: tuple[int, ...]
    spectral: bool
    tiling: bool
    representative: IndexSet
    witness: IndexSet | None
    partner: IndexSet | None

    @property
    def agrees(self) -> bool:
        return self.spectral == self.tiling


@dataclass(frozen=True)
class FugledeReport:
    modulus: int
    max_set_size: int
    bracelet_filtered: bool  # always False; kept in the report's JSON shape
    sets_checked: int
    classes: tuple[ClassVerdict, ...]
    disagreements: tuple[ClassVerdict, ...]


def _least_of_each_row(sizes: np.ndarray, ids: list[np.ndarray]) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct
    (size, id_1, ..., id_D) row; ids are at least -1.

    One stable ``np.unique`` over a mixed-radix int64 key, which is re-ranked
    to its distinct values before a radix product would pass 2^62."""
    import numpy as np

    key = sizes.astype(np.int64)
    radix = int(key.max()) + 1
    for col in ids:
        base = int(col.max()) + 2
        if radix * base > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            radix = int(key.max()) + 1
        key = key * base + (col + 1)
        radix *= base
    _, first = np.unique(key, return_index=True)
    return np.sort(first)


def _class_reps(N: int) -> dict[tuple, int]:
    """Least mask of every (size, divisor flags) class of nonempty sets.

    Translating J by -min(J) keeps its size and zero set and gives a mask no
    larger, so the least mask of every class holds 0: only odd masks are
    scanned.  Masks split into low and high bits, and a mask vanishes at a
    proper divisor d iff the exact residue sums of its low bits and of its
    negated high bits are equal.  Those sums come from ``oracle._limb_sum``,
    whose fingerprints are linear mod 2^64, so equal sums have equal
    fingerprints.  Exact sums get common integer ids only at the lows whose
    fingerprint some negated high shares, which ``oracle._fingerprint_match``
    finds, as it does for the oracle's search; every other low gets id -1,
    which no high has.

    A mask's key depends on each half only through its (popcount, ids) row,
    so each half is cut down to the least half of each distinct row; with
    fewer than _GROUP_LOWS_FROM highs the lows are kept whole, as sorting
    them would cost more than it saves.  The kept highs are then scanned in
    ascending order against the kept lows, in blocks of about _BLOCK keys.
    Rows ascend by high and columns by low, so a key's least position in a
    block, in row-major order, holds its least mask.
    """
    import numpy as np

    from .oracle import _fingerprint_match, _limb_sum

    divisors = proper_divisors(N)
    low_bits = min(N, 16)
    lows = np.arange(1, 1 << low_bits, 2)
    highs = np.arange(1 << (N - low_bits))
    low_ids, high_ids = [], []
    for d in divisors:
        _, _, hits = _fingerprint_match(N, d, lows, highs, low_bits)
        low_sums = _limb_sum(N, d, lows[hits], 0, low_bits, exact=True)
        sums = np.concatenate([low_sums, -_limb_sum(N, d, highs, low_bits, N, exact=True)])
        rows_as_bytes = sums.view(np.dtype((np.void, sums.strides[0])))[:, 0]
        _, ids = np.unique(rows_as_bytes, return_inverse=True)
        # int32 ids halve the bytes the block comparisons read
        ids = ids.astype(np.int32)
        lo_ids = np.full(len(lows), -1, dtype=np.int32)
        lo_ids[hits] = ids[: len(hits)]
        low_ids.append(lo_ids)
        high_ids.append(ids[len(hits) :])
    n_keys = 256 << len(divisors)
    key_dtype = np.min_scalar_type(n_keys - 1)
    bits = [key_dtype.type(1 << (8 + i)) for i in range(len(divisors))]
    low_sizes = np.bitwise_count(lows).astype(key_dtype)
    high_sizes = np.bitwise_count(highs).astype(key_dtype)
    if len(highs) >= _GROUP_LOWS_FROM:
        keep = _least_of_each_row(low_sizes, low_ids)
        lows, low_sizes, low_ids = lows[keep], low_sizes[keep], [ids[keep] for ids in low_ids]
    keep = _least_of_each_row(high_sizes, high_ids)
    highs, high_sizes, high_ids = highs[keep], high_sizes[keep], [ids[keep] for ids in high_ids]
    seen = np.zeros(n_keys, dtype=bool)
    reps: dict[int, int] = {}
    rows = max(1, _BLOCK // len(lows))
    for first in range(0, len(highs), rows):
        block = slice(first, first + rows)
        keys = high_sizes[block, None] + low_sizes
        for lo, hi, bit in zip(low_ids, high_ids, bits):
            keys |= (lo == hi[block, None]) * bit
        keys = keys.ravel()
        fresh = np.flatnonzero(~seen[keys])
        if not fresh.size:
            continue
        at = np.full(n_keys, keys.size)
        np.minimum.at(at, keys[fresh], fresh)
        new = np.flatnonzero(at < keys.size)
        seen[new] = True
        at = at[new]
        masks = highs[first + at // len(lows)] << low_bits | lows[at % len(lows)]
        reps.update(zip(new.tolist(), masks.tolist()))
    return {
        (key & 255, tuple(bool(key >> (8 + i) & 1) for i in range(len(divisors)))): mask
        for key, mask in reps.items()
    }


def _check_class(ctx: ModulusContext, size: int, flags: tuple, reps: dict) -> ClassVerdict:
    N = ctx.N
    D = tuple(d for d, f in zip(proper_divisors(N), flags) if f)
    rep = IndexSet.from_mask(N, reps[size, flags])
    witness = _spectral_witness(rep, _gcd_classes(N, D))
    # partners: the classes of N/size members that vanish wherever this one does not
    covers = [m for (s, f), m in reps.items() if s * size == N and all(map(max, flags, f))]
    partner = IndexSet.from_mask(N, min(covers)) if covers else None
    if partner is not None and not tiles(rep, partner):
        raise AssertionError(
            f"partner {partner.members} fails the convolution check for {rep.members}"
        )
    spectral, tiling = witness is not None, partner is not None
    # the theorems against the search: T1 <=> spectral at N = p^M (Laba), and
    # T1 and T2 => spectral and tiling at every N (Coven-Meyerowitz, Laba)
    t1, t2 = _t1_t2(size, {N // d for d in D})
    if (ctx.is_prime_power and t1 != spectral) or (t1 and t2 and not (spectral and tiling)):
        raise AssertionError(
            f"T1={t1}, T2={t2} disagree with spectral={spectral}, tiling={tiling} "
            f"for {rep.members}"
        )
    return ClassVerdict(size, D, spectral, tiling, rep, witness, partner)


def fuglede_report(ctx: ModulusContext, max_set_size: int | None = None) -> FugledeReport:
    """Exhaustively compare spectrality and tiling over all nonempty sets.

    Sets are grouped into (size, zero-set divisors) classes, on which both
    predicates are constant; each class is decided once, on its least mask.
    Spectral and tiling sets coincide in every cyclic group of order at most
    32, so the expected disagreement list is empty for every N the guard allows.
    """
    N = ctx.N
    check_report_guard(N)
    if max_set_size is None:
        max_set_size = N
    if max_set_size < 0:
        raise ValueError(f"max_set_size must be >= 0, got {max_set_size}")
    sets_checked = sum(math.comb(N, k) for k in range(1, max_set_size + 1))
    reps = _class_reps(N)
    verdicts = tuple(
        _check_class(ctx, size, flags, reps) for size, flags in sorted(reps) if size <= max_set_size
    )
    disagreements = tuple(v for v in verdicts if not v.agrees)
    return FugledeReport(N, max_set_size, False, sets_checked, verdicts, disagreements)
