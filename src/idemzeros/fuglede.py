"""Tiling checks, tiling-partner search, spectral witnesses, and the
spectral-vs-tiling agreement report.

A set J tiles Z_N with K iff the integer convolution of the indicators is the
all-ones signal; equivalently |J||K| = N and the zero sets of the two
idempotents jointly cover all nonzero indices, so partners come from the
oracle's size-exact solution query at size N/|J|.  The convolution check
itself, ``tiles``, is pure set combinatorics; it lives in ``zn_core`` and is
re-exported here.  J is spectral iff some equally-sized row set I has all
pairwise differences inside the zero set of h_J, which makes the
corresponding square DFT submatrix unitary up to scaling; one routine finds
such an I and checks its Gram matrix.

The exhaustive report classifies index sets by (size, zero-set divisors); both
predicates are constant on such classes, so each class is decided once, on its
least mask, and a class tiles iff some class of the complementary size
vanishes at every divisor it does not.  A translate of a set by minus its
least member has the same class and a mask no larger, so only the masks that
hold 0 are scanned.  A mask vanishes at a divisor iff the exact residue sums
of its low and high bits cancel.  Those sums and their 64-bit fingerprints
come from the oracle's one reader of its limb tables.  Fingerprints rule out the low halves
that no high half can cancel, exact integer ids are built only for the
rest, and those exact sums decide every flag.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GuardExceededError
from .fourier import idempotent_from_spectrum, zero_set
from .oracle import _limb_sum, _sized_solution_masks
from .zn_core import (
    DivisorSpec,
    IndexSet,
    ModulusContext,
    _index_sets,
    expand_zero_spec,
    proper_divisors,
    tiles,
)

REPORT_GUARD_N = 32


def check_report_guard(N: int) -> None:
    """GuardExceededError when N is past the report guard; a check of N alone,
    so callers can make it before they factorize N."""
    if N > REPORT_GUARD_N:
        raise GuardExceededError(f"N={N} exceeds the report guard {REPORT_GUARD_N}")


def _exact_zero_members(J: IndexSet) -> tuple[int, ...]:
    return zero_set(idempotent_from_spectrum(J), mode="exact").zero_set.members


def find_tiling_partners(J: IndexSet, max_results: int | None = None) -> Iterator[IndexSet]:
    """Partners K with 1_J * 1_K = all-ones, lexicographic order.

    Candidates are the sets of N/|J| members whose idempotent vanishes
    wherever h_J does not, away from 0, from the size-exact solution query;
    each is re-verified by the integer convolution.  At most ``max_results``
    partners are yielded; a negative limit raises ValueError.
    """
    if max_results is not None and max_results < 0:
        raise ValueError(f"max_results must be nonnegative, got {max_results}")
    N = J.modulus
    if len(J) == 0 or N % len(J) != 0:
        return
    size = N // len(J)
    zeros = set(_exact_zero_members(J))
    required = tuple(n for n in range(1, N) if n not in zeros)
    candidates = _index_sets(N, _sized_solution_masks(N, required, (size,)))
    yield from itertools.islice((K for K in candidates if tiles(J, K)), max_results)


@dataclass(frozen=True)
class SpectralResult:
    spectral: bool
    witness: IndexSet | None


def _difference_clique(N: int, zeros: set[int], size: int) -> tuple[int, ...] | None:
    """A size-element subset of Z_N containing 0 whose pairwise differences all
    lie in ``zeros``, or None.  Plain backtracking with a count bound."""

    def extend(clique: list[int], cands: list[int]) -> tuple[int, ...] | None:
        if len(clique) == size:
            return tuple(clique)
        if len(clique) + len(cands) < size:
            return None
        for i, v in enumerate(cands):
            rest = [u for u in cands[i + 1 :] if (u - v) % N in zeros]
            clique.append(v)
            found = extend(clique, rest)
            if found:
                return found
            clique.pop()
        return None

    return extend([0], sorted(z for z in zeros if z != 0))


def _spectral_witness(J: IndexSet, zeros) -> IndexSet | None:
    """A row set making the DFT submatrix on columns J unitary up to scaling,
    found among the differences in ``zeros``, the zero set of h_J; None when
    there is none.  A witness that fails the Gram check raises AssertionError."""
    N, size = J.modulus, len(J)
    rows = _difference_clique(N, set(zeros), size)
    if rows is None:
        return None
    M = np.exp(-2j * np.pi * np.outer(rows, J.members) / N)
    if not np.allclose(M.conj().T @ M, size * np.eye(size), atol=1e-9):
        raise AssertionError(f"witness {rows} failed the Gram check for J={J.members}")
    return IndexSet(N, rows)


def is_spectral(J: IndexSet) -> SpectralResult:
    """Search for a row set making the DFT submatrix on columns J unitary."""
    if len(J) == 0:
        return SpectralResult(True, IndexSet(J.modulus, ()))
    witness = _spectral_witness(J, _exact_zero_members(J))
    return SpectralResult(witness is not None, witness)


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


def _class_reps(N: int) -> dict[tuple, int]:
    """Least mask of every (size, divisor flags) class of nonempty sets.

    Translating J by -min(J) keeps its size and zero set and gives a mask no
    larger, so the least mask of every class holds 0: only odd masks are
    scanned.  Masks split into low and high bits, and a mask vanishes at a
    proper divisor d iff the exact residue sums of its low bits and of its
    negated high bits are equal.  Those sums come from ``oracle._limb_sum``,
    whose fingerprints are linear mod 2^64, so equal sums have equal
    fingerprints.  Exact sums get common integer ids only at the lows whose
    fingerprint some negated high shares; every other low gets id -1, which
    no high has.
    """
    divisors = proper_divisors(N)
    low_bits = min(N, 16)
    lows = np.arange(1, 1 << low_bits, 2)
    highs = np.arange(1 << (N - low_bits))
    low_ids, high_ids = [], []
    for d in divisors:
        low_fp = _limb_sum(N, d, lows, 0, low_bits, exact=False)
        high_fp = -_limb_sum(N, d, highs, low_bits, N, exact=False)
        hits = np.flatnonzero(np.isin(low_fp, high_fp))
        low_sums = _limb_sum(N, d, lows[hits], 0, low_bits, exact=True)
        sums = np.concatenate([low_sums, -_limb_sum(N, d, highs, low_bits, N, exact=True)])
        rows_as_bytes = sums.view(np.dtype((np.void, sums.strides[0])))[:, 0]
        _, ids = np.unique(rows_as_bytes, return_inverse=True)
        # int32 ids halve the bytes the per-high comparisons read
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
    seen = np.zeros(n_keys, dtype=bool)
    reps: dict[int, int] = {}
    for high in range(len(highs)):
        keys = low_sizes + high_sizes[high]
        for lo, hi, bit in zip(low_ids, high_ids, bits):
            keys |= (lo == hi[high]) * bit
        present = np.zeros(n_keys, dtype=bool)
        present[keys] = True
        # Masks grow with ``high``, so a key's first chunk holds its least mask.
        new = np.flatnonzero(present & ~seen)
        seen[new] = True
        for key in new.tolist():
            reps[key] = high << low_bits | int(lows[np.argmax(keys == key)])
    return {
        (key & 255, tuple(bool(key >> (8 + i) & 1) for i in range(len(divisors)))): mask
        for key, mask in reps.items()
    }


def _check_class(ctx: ModulusContext, size: int, flags: tuple, reps: dict) -> ClassVerdict:
    N = ctx.N
    D = tuple(d for d, f in zip(proper_divisors(N), flags) if f)
    zeros = set(expand_zero_spec(DivisorSpec.of(N, D)).members)
    rep = IndexSet.from_mask(N, reps[size, flags])
    witness = _spectral_witness(rep, zeros)
    # partners: the classes of N/size members that vanish wherever this one does not
    covers = [m for (s, f), m in reps.items() if s * size == N and all(map(max, flags, f))]
    partner = IndexSet.from_mask(N, min(covers)) if covers else None
    if partner is not None and not tiles(rep, partner):
        raise AssertionError(
            f"partner {partner.members} fails the convolution check for {rep.members}"
        )
    return ClassVerdict(size, D, witness is not None, partner is not None, rep, witness, partner)


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
