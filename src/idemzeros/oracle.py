"""Independent ground truth: exhaustive subset search with exact zero tests.

One search answers every query.  It builds the mask of every subset of Z_N
with at most ``cap`` members by doubling over the N positions, once per
(N, cap), then keeps the masks whose root sum vanishes at each prescribed
zero and, for an exact zero set, at no other index.  The pass over the full
table for the least zero is cached apart, so searches that share their least
zero share that pass, and searches with other least zeros share the table;
the other zeros, and the exact-mode indices, are tested on its survivors.  A
root sum at index n is the exact residue of sum_j x^(j*n mod N) modulo the
N-th cyclotomic polynomial, added up from subset-sum tables over fixed-width
limbs of the mask, cached per (N, n) and built for all limbs in one doubling,
in int16 when a bound on every partial sum allows and in int64 otherwise.
Next to each table the cache entry holds its fingerprints: each residue's dot
product with fixed odd pseudo-random weights, wrapped mod 2^64.  The
fingerprint is linear, so a vanishing sum has fingerprint 0; the fingerprints
are added first, one int64 per limb and mask, and the exact residues only at
masks whose fingerprint is 0, which they decide.  One reader, ``_limb_sum``,
adds up the tables for this search and for the Fuglede class scan alike.  No
structural theorem prunes the search, so results stay independent of the
enumeration machinery they validate; the digit tables enter only
``compare_with_theorem``, as the side it checks.  One guard, with no
override, refuses before any work a search of more than SEARCH_GUARD
subsets, as many as the full search at N = 24 tests; ``compare_with_theorem``
checks it before it expands its divisors into indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cyclotomic import power_residue_matrix
from .digit_tables import PivotSet, solution_masks
from .errors import GuardExceededError
from .zn_core import (
    DivisorSpec,
    IndexSet,
    ModulusContext,
    _index_sets,
    expand_zero_spec,
)

SEARCH_GUARD = 1 << 24
# Python's default limit on the digits of an int it prints
_PRINTABLE_DIGITS = 4300
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


@lru_cache(maxsize=1)
def _subset_masks(N: int, cap: int) -> np.ndarray:
    """Ascending masks of the subsets of Z_N with at most ``cap`` members;
    read-only, since the cache shares them.  Built once per (N, cap) for the
    passes of every least zero, and for the zero-less search, which returns
    it as it is."""
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
    sum vanishes at index n; read-only, since the cache shares them.  The one
    pass over the full subset table, shared by every search whose least
    prescribed zero is n; the table itself is built once per (N, cap) for
    every n."""
    masks = _subset_masks(N, cap)
    masks = masks[_vanishes(N, masks, n)]
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=64)
def _search(N: int, zeros: tuple[int, ...], mode: str, cap: int) -> np.ndarray:
    """Ascending masks of the subsets with at most ``cap`` members and the
    prescribed zeros; read-only, since the cache shares them.  The least zero
    comes from ``_vanishing``; every other zero, and in exact mode every other
    index, is tested on its survivors."""
    rest = sorted(zeros)
    masks = _vanishing(N, cap, rest.pop(0)) if rest else _subset_masks(N, cap)
    for n in rest:
        masks = masks[_vanishes(N, masks, n)]
    if mode == "exact-zero-set":
        for n in range(N):
            if n not in zeros:
                masks = masks[~_vanishes(N, masks, n)]
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
    # built per call: a module-level bound this size raised the peak RSS of
    # processes that never count, through where it landed on the heap
    unprintable = 10**_PRINTABLE_DIGITS
    total = term = 1
    for k in range(cap):
        term = term * (N - k) // (k + 1)  # C(N, k + 1)
        total += term
        if total >= unprintable:
            return f"more than 2^{(total - 1).bit_length() - 1}"
    return total


def brute_force_solutions(
    N: int,
    zeros: IndexSet,
    mode: str = "vanish-at-least",
    max_cardinality: int | None = None,
) -> list[IndexSet]:
    """All J with the prescribed zeros (mode vanish-at-least) or with exactly
    the prescribed zero set (mode exact-zero-set), lexicographic order."""
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
    masks = solution_masks(ctx, mc, cap)
    theorem_side = np.fromiter(masks, dtype=oracle_side.dtype, count=len(masks))
    theorem_side.sort()
    only_oracle = only_theorem = ()
    # both sides ascending; only a difference becomes Python ints and index sets
    if not np.array_equal(oracle_side, theorem_side):
        o, t = set(oracle_side.tolist()), set(theorem_side.tolist())
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
