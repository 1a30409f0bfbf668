"""Base-p digit tables, pivot columns, conforming tables, and the solution
machinery for prescribed zero sets at prime-power modulus.

Column j of a row holds the coefficient of p^j, so the leftmost digit is the
1's place.  A table is *conforming* when its row count is p^|pivot columns|.
Solutions to the zero-set problem for divisors p^mc are exactly the index sets
whose digit table partitions into disjoint conforming tables with pivot set
mc_star(mc); this module provides the membership test (with certificate), the
complete enumerator, and the explicit constructor.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import DigitChoiceError, NonPrimePowerError, PreconditionError
from .zn_core import DivisorSpec, IndexSet, ModulusContext


@dataclass(frozen=True)
class PivotSet:
    columns: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for c in self.columns:
            if not prev < c or c < 0:
                raise ValueError(f"pivot columns must be sorted and >= 0: {self.columns}")
            prev = c

    @classmethod
    def of(cls, columns) -> "PivotSet":
        return cls(tuple(sorted(set(columns))))

    @classmethod
    def from_divisors(cls, ctx: ModulusContext, divisors) -> "PivotSet":
        """Columns l of the proper divisors p^l of a prime-power modulus."""
        spec = DivisorSpec.of(ctx.N, divisors)
        p = ctx.p
        columns = []
        for d in spec.divisors:
            l = 0
            while d > 1:
                d //= p
                l += 1
            columns.append(l)
        return cls.of(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)


@dataclass(frozen=True)
class DigitTable:
    p: int
    M: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            if len(row) != self.M or any(not 0 <= d < self.p for d in row):
                raise ValueError(f"bad digit row {row} for p={self.p}, M={self.M}")
            if row in seen:
                raise ValueError(f"duplicate row {row}")
            seen.add(row)


class ConformingTable(DigitTable):
    """A digit table validated to have exactly p^|pivot columns| rows."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.rows) != self.p ** len(pivot_columns(self)):
            raise ValueError("row count does not match p^|pivot columns|")


def _digits(value: int, p: int, M: int) -> tuple[int, ...]:
    out = []
    for _ in range(M):
        out.append(value % p)
        value //= p
    return tuple(out)


def _value(row: Sequence[int], p: int) -> int:
    v = 0
    for d in reversed(row):
        v = v * p + d
    return v


def from_index_set(ctx: ModulusContext, J: IndexSet) -> DigitTable:
    """Digit table of a nonempty index set, rows in lexicographic order."""
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    if not J.members:
        raise PreconditionError("index set must be nonempty")
    rows = sorted(_digits(i, ctx.p, ctx.M) for i in J.members)
    return DigitTable(ctx.p, ctx.M, tuple(rows))


def to_index_set(t: DigitTable) -> IndexSet:
    return IndexSet.of(t.p**t.M, (_value(r, t.p) for r in t.rows))


def pivot_columns(t: DigitTable) -> PivotSet:
    """Columns where some pair of rows first differs."""
    if not t.rows:
        raise PreconditionError("digit table needs at least one row")
    cols = set()
    for a, b in itertools.combinations(t.rows, 2):
        for j in range(t.M):
            if a[j] != b[j]:
                cols.add(j)
                break
    return PivotSet.of(cols)


def mc_star(M: int, mc: PivotSet) -> PivotSet:
    """Reflected pivot set {M - l - 1 : l in mc}; an involution."""
    if any(not 0 <= l < M for l in mc):
        raise ValueError(f"pivot columns {mc.columns} out of range for M={M}")
    return PivotSet.of(M - l - 1 for l in mc)


def is_conforming(t: DigitTable) -> bool:
    return len(t.rows) == t.p ** len(pivot_columns(t))


def decompose(t: DigitTable) -> tuple[tuple[int, ...], tuple[ConformingTable, ...]]:
    """Split a conforming table at its first pivot into p conforming blocks.

    Returns the constant pre-pivot digit prefix and the p blocks, ordered by
    their digit at the first pivot column; each block keeps all M columns.
    """
    if not is_conforming(t):
        raise PreconditionError("table is not conforming")
    mc = pivot_columns(t)
    if not mc.columns:
        raise PreconditionError("table has no pivot columns to split at")
    l0 = mc.columns[0]
    prefix = t.rows[0][:l0]
    blocks = []
    rows = sorted(t.rows)
    for b in range(t.p):
        block_rows = tuple(r for r in rows if r[l0] == b)
        blocks.append(ConformingTable(t.p, t.M, block_rows))
    return prefix, tuple(blocks)


@lru_cache(maxsize=None)
def _conforming_element_sets(p: int, M: int, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All element sets of conforming tables over Z_{p^M} with pivot set exactly
    ``cols``, each as a sorted member tuple; sorted by member tuple."""
    if M == 0:
        return ((0,),) if not cols else ()
    if not cols:
        return tuple((x,) for x in range(p**M))
    l = cols[0]
    sub = _conforming_element_sets(p, M - l - 1, tuple(c - l - 1 for c in cols[1:]))
    step = p**l
    shift = p ** (l + 1)
    out = []
    for a in range(step):
        for combo in itertools.product(sub, repeat=p):
            out.append(
                tuple(
                    sorted(
                        a + j * step + shift * e
                        for j, s in enumerate(combo)
                        for e in s
                    )
                )
            )
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _conforming_block_masks(p: int, M: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    masks = []
    for elems in _conforming_element_sets(p, M, cols):
        masks.append(sum(1 << e for e in elems))
    return tuple(masks)


def generate_conforming(
    ctx: ModulusContext, mcs: PivotSet, choices, prefix: int = 0
) -> ConformingTable:
    """Build a conforming table with pivot set ``mcs`` from explicit digit choices.

    For a singleton pivot {l}, ``choices`` is a p-tuple of offsets, each a
    multiple of p^{l+1}; row j is prefix + j*p^l + choices[j].  For larger
    pivot sets, ``choices`` is a p-tuple of (offset, sub_choices) pairs, the
    offset covering the constant digits between this pivot and the next.
    """
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    p, M = ctx.p, ctx.M
    elements = _generate_elements(p, M, tuple(mcs.columns), choices, prefix)
    rows = tuple(sorted(_digits(e, p, M) for e in elements))
    try:
        table = ConformingTable(p, M, rows)
    except ValueError as exc:
        raise DigitChoiceError(str(exc)) from exc
    if pivot_columns(table).columns != tuple(mcs.columns):
        raise DigitChoiceError(
            f"choices produce pivot columns {pivot_columns(table).columns}, "
            f"wanted {tuple(mcs.columns)}"
        )
    return table


def _generate_elements(p, M, cols, choices, prefix):
    if not cols:
        if choices not in (None, ()):
            raise DigitChoiceError("no choices allowed for an empty pivot set")
        if not 0 <= prefix < p**M:
            raise DigitChoiceError(f"prefix {prefix} out of range")
        return [prefix]
    l = cols[0]
    if not 0 <= prefix < p**l:
        raise DigitChoiceError(f"prefix {prefix} must use only columns below {l}")
    if len(choices) != p:
        raise DigitChoiceError(f"need exactly {p} digit choices, got {len(choices)}")
    out = []
    for j, child in enumerate(choices):
        if len(cols) == 1:
            b = child
            if b % p ** (l + 1) != 0 or not 0 <= b < p**M:
                raise DigitChoiceError(
                    f"offset {b} must be a multiple of {p ** (l + 1)} below {p ** M}"
                )
            out.append(prefix + j * p**l + b)
        else:
            b, sub_choices = child
            l_next = cols[1]
            if b % p ** (l + 1) != 0 or not 0 <= b < p**l_next:
                raise DigitChoiceError(
                    f"offset {b} must be a multiple of {p ** (l + 1)} below {p ** l_next}"
                )
            sub = _generate_elements(
                p, M - l_next, tuple(c - l_next for c in cols[1:]), sub_choices, 0
            )
            base = prefix + j * p**l + b
            out.extend(base + (p**l_next) * e for e in sub)
    return out


@dataclass(frozen=True)
class SolutionCheck:
    ok: bool
    certificate: tuple[IndexSet, ...] | None


def is_solution(ctx: ModulusContext, J: IndexSet, mc: PivotSet) -> SolutionCheck:
    """Decide whether J solves the zero-set problem for divisors p^mc.

    True iff the rows of J's digit table partition into disjoint conforming
    tables, each with pivot set mc_star(mc); the certificate is one such
    partition.
    """
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    star = mc_star(ctx.M, mc)
    if not J.members:
        return SolutionCheck(True, ())
    block_size = ctx.p ** len(mc)
    if len(J) % block_size != 0:
        return SolutionCheck(False, None)
    target = J.mask
    blocks = [m for m in _conforming_block_masks(ctx.p, ctx.M, star.columns) if m & target == m]
    by_min: dict[int, list[int]] = {}
    for m in blocks:
        by_min.setdefault(_lowest_bit(m), []).append(m)
    dead: set[int] = set()

    def search(remaining: int, picked: list[int]) -> bool:
        if remaining == 0:
            return True
        if remaining in dead:
            return False
        x = _lowest_bit(remaining)
        for m in by_min.get(x, ()):
            if m & remaining == m:
                picked.append(m)
                if search(remaining & ~m, picked):
                    return True
                picked.pop()
        dead.add(remaining)
        return False

    picked: list[int] = []
    if search(target, picked):
        cert = tuple(IndexSet.from_mask(ctx.N, m) for m in picked)
        return SolutionCheck(True, cert)
    return SolutionCheck(False, None)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _solution_masks(ctx: ModulusContext, mc: PivotSet, max_cardinality: int) -> list[int]:
    """All masks of disjoint unions of conforming blocks with pivot set mc_star(mc).

    DFS over unions with strictly increasing block minima; a state is revisited
    only when reached with a smaller anchor, which guarantees completeness
    while emitting each union once.
    """
    star = mc_star(ctx.M, mc)
    blocks = _conforming_block_masks(ctx.p, ctx.M, star.columns)
    block_size = ctx.p ** len(mc)
    ordered = sorted(blocks, key=_lowest_bit)
    mins = [_lowest_bit(m) for m in ordered]
    triples = list(zip(ordered, mins, [m.bit_count() for m in ordered]))
    best_anchor: dict[int, int] = {0: -1}
    stack = [(0, -1, 0)]
    while stack:
        union, anchor, size = stack.pop()
        if best_anchor[union] < anchor or size + block_size > max_cardinality:
            continue
        start = bisect.bisect_right(mins, anchor)
        for m, lo, sz in triples[start:]:
            if m & union or size + sz > max_cardinality:
                continue
            u2 = union | m
            prev = best_anchor.get(u2)
            if prev is not None and prev <= lo:
                continue
            best_anchor[u2] = lo
            stack.append((u2, lo, size + sz))
    return list(best_anchor)


def enumerate_solutions(
    ctx: ModulusContext, mc: PivotSet, max_cardinality: int | None = None
) -> Iterator[IndexSet]:
    """Every solution for divisors p^mc with |J| <= max_cardinality, each once,
    in lexicographic order of sorted members.  Includes the empty set."""
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    if max_cardinality is None:
        max_cardinality = ctx.N
    members = sorted(
        (tuple(i for i in range(ctx.N) if m >> i & 1)
         for m in _solution_masks(ctx, mc, max_cardinality)),
    )
    for t in members:
        yield IndexSet(ctx.N, t)


def singleton_multiset_check(ctx: ModulusContext, J: IndexSet, l: int) -> bool:
    """Check the balanced-residue structure of a singleton-divisor solution.

    Precondition: 0 in J and every member is a multiple of p^{l'-1} where
    l' = M - l.  True iff, reduced mod p^{l'}, the members hit 0 and every
    nonzero multiple of p^{l'-1} with one common multiplicity.
    """
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    if not 0 <= l < ctx.M:
        raise PreconditionError(f"pivot exponent {l} out of range for M={ctx.M}")
    lprime = ctx.M - l
    unit = ctx.p ** (lprime - 1)
    if 0 not in J.members:
        raise PreconditionError("index set must be translated so that 0 is a member")
    if any(i % unit for i in J.members):
        raise PreconditionError(f"all members must be multiples of {unit}")
    dprime = ctx.p**lprime
    counts: dict[int, int] = {}
    for i in J.members:
        counts[i % dprime] = counts.get(i % dprime, 0) + 1
    residues = {a * unit for a in range(ctx.p)}
    if set(counts) != residues:
        return False
    return len(set(counts.values())) == 1
