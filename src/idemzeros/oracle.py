"""Independent ground truth: exhaustive subset search with exact zero tests.

One search answers every query.  The subsets of Z_N with at most ``cap``
members whose root sum vanishes at the least prescribed zero come from a meet
in the middle (Horowitz and Sahni, J. ACM 21, 1974): a mask splits at a limb
boundary near N/2, the masks of each half are built by doubling, and a low
half joins a high half iff its root sum equals the high half's negated sum.
That pass is cached per (N, cap, zero), so searches that share their least
zero share it.  A root sum vanishes at n iff it vanishes at u*n for every unit
u, as the field automorphism w -> w^u maps one to the other, so the rest is
tested once per gcd class on its survivors: each other class that meets the
zeros must vanish and, for an exact zero set, each class that meets the other
indices must not.  A search with no zeros returns the table of every subset
as it is.  A root sum at index n is the exact residue of
sum_j x^(j*n mod N) modulo the N-th cyclotomic polynomial, added up from
subset-sum tables over fixed-width limbs of the mask, cached per (N, n) and
built for all limbs in one doubling, in int16 when a bound on every partial
sum allows and in int64 otherwise.  Next to each table the cache entry holds
its fingerprints: each residue's dot product with fixed odd pseudo-random
weights, wrapped mod 2^64.  The fingerprint is linear, so a vanishing sum has
fingerprint 0 and two halves that cancel have opposite fingerprints; the
fingerprints rule pairs out, and the exact residues decide every pair and
every mask they let through.  One reader, ``_limb_sum``, adds up the tables,
and one match, ``_fingerprint_match``, pairs the fingerprints of two half
tables, for this search and for the Fuglede class scan alike.  No structural
theorem prunes the search: the step per gcd class uses only that
automorphism, nothing from the digit tables, so results stay independent of
the enumeration machinery they validate; the digit tables enter only
``compare_with_theorem``, as the side it checks, whose cached ascending masks
(a read-only int64 array for a long listing up to 62 bits, else a tuple of
Python ints) it compares with the search's as they are.  One
guard, with no override, refuses before any work a search of more than
SEARCH_GUARD subsets, as many as the full search at N = 24 tests;
``compare_with_theorem`` checks it before it expands its divisors into
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

import numpy as np

from .cyclotomic import power_residue_matrix
from .digit_tables import PivotSet, solution_masks
from .errors import GuardExceededError, ModulusMismatchError
from .zn_core import (
    DivisorSpec,
    IndexSet,
    ModulusContext,
    _index_sets,
    expand_zero_spec,
)

SEARCH_GUARD = 1 << 24
# Python's default limit on the digits of an int it prints, and the bit
# length of 10^_PRINTABLE_DIGITS, the least int it does not print
_PRINTABLE_DIGITS = 4300
_UNPRINTABLE_BITS = 14285
_CHUNK = 1 << 16
_LIMB = 8


def _fingerprint_weights(width: int) -> np.ndarray:
    """Odd int64 weights, one per residue column: splitmix64 of the column
    index, computed in uint64, where the products wrap mod 2^64."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return (z ^ z >> np.uint64(31) | np.uint64(1)).view(np.int64)


@lru_cache(maxsize=128)
def _limb_tables(N: int, n: int) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """(low bit, table, fingerprints) per limb of _LIMB mask bits: the exact
    residue sums at index n of every subset of the limb's positions, and each
    sum's dot product with _fingerprint_weights, wrapped mod 2^64; read-only,
    since the cache shares them.

    All limbs are built at once: the residue rows, padded with zero rows to
    whole limbs, are doubled over the _LIMB bits in one (limbs, 2^_LIMB, phi)
    array, and the fingerprints of every limb are its rows' fingerprints
    summed by the bits of each table index, in one matmul.  Entries of the
    last limb past bit N - 1 are never read."""
    rows = power_residue_matrix(N)[(np.arange(N) * n) % N]
    # every partial sum is bounded by the column sums of |rows|
    dtype = np.int16 if np.abs(rows).sum(axis=0).max() < 1 << 15 else np.int64
    limbs = -(-N // _LIMB)
    padded = np.zeros((limbs * _LIMB, rows.shape[1]), dtype=dtype)
    padded[:N] = rows
    padded = padded.reshape(limbs, _LIMB, -1)
    tables = np.zeros((limbs, 1, rows.shape[1]), dtype=dtype)
    for bit in range(_LIMB):
        tables = np.concatenate([tables, tables + padded[:, bit, None]], axis=1)
    bits = np.arange(1 << _LIMB)[:, None] >> np.arange(_LIMB) & 1
    fingerprints = (padded @ _fingerprint_weights(rows.shape[1])) @ bits.T
    tables.setflags(write=False)
    fingerprints.setflags(write=False)
    return tuple(zip(range(0, N, _LIMB), tables, fingerprints))


def _limb_sum(
    N: int, n: int, masks: np.ndarray, start: int, stop: int, *, exact: bool
) -> np.ndarray:
    """Per mask, the exact residue sums at index n (``exact``) or their
    fingerprints, added over the limbs at bits [start, stop) and read at the
    mask's bits there; masks hold bit ``start`` at bit 0.  The one reader of
    the limb tables, for ``_vanishes`` and the Fuglede class scan alike."""
    limbs = [(lo, table if exact else fp) for lo, table, fp in _limb_tables(N, n)]
    shape, dtype = limbs[0][1].shape[1:], limbs[0][1].dtype
    total = np.zeros((len(masks),) + shape, dtype=dtype)
    for lo, part in limbs:
        if start <= lo < stop:
            total += part[(masks >> (lo - start) & (1 << _LIMB) - 1).astype(np.intp)]
    return total


def _vanishes(N: int, masks: np.ndarray, n: int) -> np.ndarray:
    """Flags: does each mask's root sum vanish at index n?  Chunked over masks.

    A vanishing sum has fingerprint 0, as the fingerprint is linear mod 2^64,
    so the fingerprints, one int64 per limb and mask, rule out most masks; the
    exact sums are added only at masks whose fingerprint is 0, and decide."""
    flags = np.zeros(len(masks), dtype=bool)
    for first in range(0, len(masks), _CHUNK):
        chunk = masks[first : first + _CHUNK]
        candidates = np.flatnonzero(_limb_sum(N, n, chunk, 0, N, exact=False) == 0)
        sums = _limb_sum(N, n, chunk[candidates], 0, N, exact=True)
        flags[first + candidates] = ~sums.any(axis=1)
    return flags


def _fingerprint_match(
    N: int, n: int, lows: np.ndarray, highs: np.ndarray, split: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low fingerprints, negated high fingerprints, hits) at index n, where
    ``lows`` hold bits [0, split) and ``highs`` bits [split, N), shifted down,
    and hits are the ascending indices of the lows whose fingerprint some
    negated high shares.  A mask's root sum vanishes only if its low and
    negated high fingerprints are equal, so no other low can join a high.
    The one match of two half tables, for ``_vanishing`` and the Fuglede
    class scan alike."""
    low_fp = _limb_sum(N, n, lows, 0, split, exact=False)
    high_fp = -_limb_sum(N, n, highs, split, N, exact=False)
    # a one-hash filter with a slot per low, then a binary search of the lows
    # that pass in the sorted high fingerprints
    slots = (1 << len(lows).bit_length()) - 1
    seen = np.zeros(slots + 1, dtype=bool)
    seen[high_fp & slots] = True
    maybe = np.flatnonzero(seen[low_fp & slots])
    ranked = np.sort(high_fp)
    at = np.searchsorted(ranked, low_fp[maybe]).clip(max=len(ranked) - 1)
    hits = maybe[ranked[at] == low_fp[maybe]]
    return low_fp, high_fp, hits


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Members per mask, as int64; masks wider than 62 bits are Python ints."""
    if masks.dtype == object:
        return np.frompyfunc(int.bit_count, 1, 1)(masks).astype(np.int64)
    return np.bitwise_count(masks).astype(np.int64)


@lru_cache(maxsize=3)
def _subset_masks(N: int, cap: int) -> np.ndarray:
    """Ascending masks of the subsets of Z_N with at most ``cap`` members;
    read-only, since the cache shares them.  Its three entries hold the two
    half tables of ``_vanishing`` and the table that the zero-less search
    returns as it is."""
    total = sum(comb(N, k) for k in range(cap + 1))
    # int64 holds bits 0..62; wider masks are Python ints
    masks = np.zeros(total, dtype=np.int64 if N <= 62 else object)
    # int8 sizes suffice: a mask with 128 members comes after 2^127 others
    sizes = np.zeros(total, dtype=np.int8)
    built = min(total, 1)
    for j in range(N):
        grow = sizes[:built] < cap
        new = slice(built, built + np.count_nonzero(grow))
        np.bitwise_or(masks[:built][grow], 1 << j, out=masks[new])
        sizes[new] = sizes[:built][grow] + 1
        built = new.stop
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=64)
def _vanishing(N: int, cap: int, n: int) -> np.ndarray:
    """Ascending masks of the subsets with at most ``cap`` members whose root
    sum vanishes at index n; read-only, since the cache shares them.  Shared
    by every search whose least prescribed zero is n.

    A meet in the middle: a mask splits at a multiple of _LIMB near N/2, so
    ``_limb_sum`` reads each half as it is, and its sum vanishes iff the sum
    of its low bits cancels that of its high bits.  Up to N = _LIMB the high
    half is the one mask 0.  The lows that ``_fingerprint_match`` finds get
    one sortable key each: the high bits of the fingerprint, the popcount and
    the index.  After one sort, a binary search gives each high the run of
    lows with its coarse fingerprint and at most cap - popcount(high)
    members, so the number of pairs is known before any mask is built.  The
    exact sums decide every pair: a high that cancels the first low of its
    run cancels each low with that low's sum, and any other low is added to
    the high on its own.  Pairs are decided in blocks of highs holding about
    _CHUNK pairs, so memory follows the output, not the subset table."""
    split = min(N, _LIMB * -(-N // (2 * _LIMB)))
    lows = _subset_masks(split, min(cap, split))
    highs = _subset_masks(N - split, min(cap, N - split))
    low_fp, high_fp, hits = _fingerprint_match(N, n, lows, highs, split)
    # one sortable key per matched low: the high bits of its fingerprint, its
    # popcount and its index in ``lows``; coarser fingerprints still only rule out
    index_bits = len(lows).bit_length()
    shift = index_bits + cap.bit_length()
    keys = low_fp[hits] >> shift << shift | _popcount(lows[hits]) << index_bits | hits
    keys.sort()
    hits = keys & (1 << index_bits) - 1
    # each high's run: the lows with its coarse fingerprint and popcount at most
    # cap - popcount(high)
    base = high_fp >> shift << shift
    room = (cap - _popcount(highs)) << index_bits | (1 << index_bits) - 1
    start = np.searchsorted(keys, base)
    counts = np.searchsorted(keys, base | room, side="right") - start
    ends = np.cumsum(counts)
    # the first low of each coarse fingerprint stands for the lows with its exact
    # sum, so a high that cancels it decides those pairs at once; any other low
    # (two sums with one coarse fingerprint) is paired and added up on its own
    low_sums = _limb_sum(N, n, lows[hits], 0, split, exact=True)
    high_sums = _limb_sum(N, n, highs, split, N, exact=True)
    agrees = ~(low_sums - low_sums[np.searchsorted(keys, keys >> shift << shift)]).any(axis=1)
    cancels = ~(low_sums[start.clip(max=len(keys) - 1)] + high_sums).any(axis=1)
    cuts = np.searchsorted(ends, np.arange(_CHUNK, ends[-1], _CHUNK), side="right")
    blocks = []
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(highs)]):
        block = counts[a:b]
        if not block.any():
            continue
        hi = np.repeat(np.arange(a, b), block)
        at_low = np.repeat(start[a:b] - np.cumsum(block) + block, block) + np.arange(len(hi))
        keep = agrees[at_low] & cancels[hi]
        other = np.flatnonzero(~agrees[at_low])
        keep[other] = ~(low_sums[at_low[other]] + high_sums[hi[other]]).any(axis=1)
        # pairs ascend by high and, once sorted, by low; within a high the lows
        # come in ascending runs of one popcount, which a stable sort merges
        pairs = np.sort(hi[keep] * len(lows) + hits[at_low[keep]], kind="stable")
        high, low = highs[pairs // len(lows)], lows[pairs % len(lows)]
        if N > 62:
            high, low = high.astype(object), low.astype(object)
        blocks.append(high << split | low)
    masks = np.concatenate(blocks)
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=64)
def _search(N: int, zeros: tuple[int, ...], mode: str, cap: int) -> np.ndarray:
    """Ascending masks of the subsets with at most ``cap`` members and the
    prescribed zeros; read-only, since the cache shares them.

    A sum of N-th roots vanishes at n iff it vanishes at u*n for every unit u,
    since J(w^(u*n)) is the image of J(w^n) under the field automorphism
    w -> w^u; so one index is tested per gcd class: its least prescribed
    zero, else its divisor d (0 for the class of N).  The least zero comes
    from ``_vanishing``; each other class that meets the zeros is tested on
    its survivors, and in exact mode each class that meets the other indices
    must not vanish.  A class that a prescribed set splits is both, so
    nothing survives it."""
    tested = {gcd(n, N): n for n in sorted(zeros, reverse=True)}
    required = sorted(tested.values())
    masks = _vanishing(N, cap, required.pop(0)) if required else _subset_masks(N, cap)
    for n in required:
        masks = masks[_vanishes(N, masks, n)]
    if mode == "exact-zero-set":
        forbidden = {gcd(n, N) for n in set(range(N)).difference(zeros)}
        for d in sorted(forbidden):
            masks = masks[~_vanishes(N, masks, tested.get(d, d % N))]
    masks.setflags(write=False)
    return masks


def _solution_masks(N, zeros, mode, max_cardinality) -> np.ndarray:
    """The cached search, once the guard has passed; it runs before any work."""
    if mode not in ("vanish-at-least", "exact-zero-set"):
        raise ValueError(f"unknown mode {mode!r}")
    return _search(N, tuple(zeros), mode, _search_cap(N, max_cardinality))


def _search_cap(N: int, max_cardinality: int | None) -> int:
    """The cap of a search, clipped to N, once it has passed the guard."""
    if max_cardinality is not None and max_cardinality < 0:
        raise ValueError(f"max_cardinality must be >= 0, got {max_cardinality}")
    cap = N if max_cardinality is None else min(max_cardinality, N)
    # only where 2^N > SEARCH_GUARD can a search exceed it
    if N >= SEARCH_GUARD.bit_length():
        total = _subset_count(N, cap)
        if isinstance(total, str) or total > SEARCH_GUARD:
            raise GuardExceededError(
                f"{total} subsets up to cardinality {cap} exceeds the search guard"
            )
    return cap


def _subset_count(N: int, cap: int) -> int | str:
    """The number of subsets of Z_N with at most ``cap`` members, for the
    guard's message: the exact total while Python can print it, and otherwise
    the text "more than 2^b", summed no further; the full search is the text
    "2^N".  So the count's time is bounded by the digit limit, not by N."""
    if cap == N:
        return f"2^{N}"
    total = term = 1
    for k in range(cap):
        term = term * (N - k) // (k + 1)  # C(N, k + 1)
        total += term
        # a total with fewer bits than 10^_PRINTABLE_DIGITS prints and one
        # with more never does; only one of its length builds the power, per
        # call, as a module-level bound this size raised the peak RSS of
        # processes that never count
        bits = total.bit_length()
        if bits > _UNPRINTABLE_BITS or (
            bits == _UNPRINTABLE_BITS and total >= 10**_PRINTABLE_DIGITS
        ):
            return f"more than 2^{(total - 1).bit_length() - 1}"
    return total


def brute_force_solutions(
    N: int,
    zeros: IndexSet,
    mode: str = "vanish-at-least",
    max_cardinality: int | None = None,
) -> list[IndexSet]:
    """All J with the prescribed zeros (mode vanish-at-least) or with exactly
    the prescribed zero set (mode exact-zero-set), lexicographic order.  A
    zero set of another modulus is refused, never read modulo N."""
    if zeros.modulus != N:
        raise ModulusMismatchError(f"zero set modulus {zeros.modulus} != N={N}")
    masks = _solution_masks(N, zeros.members, mode, max_cardinality)
    return list(_index_sets(N, masks))


@dataclass(frozen=True)
class ComparisonReport:
    modulus: int
    mc: tuple[int, ...]
    max_cardinality: int
    oracle_count: int
    theorem_count: int
    only_oracle: tuple[IndexSet, ...]
    only_theorem: tuple[IndexSet, ...]

    @property
    def passed(self) -> bool:
        return not self.only_oracle and not self.only_theorem


def compare_with_theorem(
    ctx: ModulusContext,
    mc: PivotSet,
    max_cardinality: int | None = None,
) -> ComparisonReport:
    """Symmetric difference between the brute-force solution set and the
    digit-table enumeration, over subsets up to the cardinality cap.  The
    search guard is checked before the zero spec is expanded into indices."""
    cap = ctx.N if max_cardinality is None else max_cardinality
    spec = DivisorSpec.of(ctx.N, (ctx.p**l for l in mc))
    search_cap = _search_cap(ctx.N, cap)
    zeros = expand_zero_spec(spec)
    oracle_side = _search(ctx.N, zeros.members, "vanish-at-least", search_cap)
    theorem_side = solution_masks(ctx, mc, cap)
    # both sides ascending; a tuple compares as Python ints, with no array
    # made of it, and only a difference becomes index sets
    if type(theorem_side) is tuple:
        same = tuple(oracle_side.tolist()) == theorem_side
    else:
        same = np.array_equal(oracle_side, theorem_side)
    only_oracle = only_theorem = ()
    if not same:
        o, t = set(oracle_side.tolist()), set(map(int, theorem_side))
        only_oracle = tuple(_index_sets(ctx.N, o - t))
        only_theorem = tuple(_index_sets(ctx.N, t - o))
    return ComparisonReport(
        ctx.N,
        tuple(mc.columns),
        cap,
        len(oracle_side),
        len(theorem_side),
        only_oracle,
        only_theorem,
    )
