"""Base-p digit tables, pivot columns, conforming tables, and the solution
machinery for prescribed zero sets at prime-power modulus.

Column j of a row holds the coefficient of p^j, so the leftmost digit is the
1's place.  A table is *conforming* when its row count is p^|pivot columns|.
Solutions to the zero-set problem for divisors p^mc are exactly the index sets
whose digit table partitions into disjoint conforming tables with pivot set
mc_star(mc); this module provides the membership test (with certificate), the
complete enumerator, the explicit constructor, and the least block, which is
the least nonempty solution and the spectral witness of Laba's T1.

Both the test and the enumerator walk the base-p residue tree one digit at a
time: a set splits into p fibers by its lowest digit, and each fiber's
quotient recurses with the pivot columns shifted down by one.  At a pivot
column the fibers must hold equally many blocks, and the i-th blocks of the p
fibers join into one block; at any other column the fibers are independent.
The test takes the columns below a pivot in one step, as residue classes, so
it recurses once per pivot, not once per digit.  Certificates list their
blocks by least member.  The enumerator joins the fibers' masks as lists of
Python ints while a join makes at most _ARRAY_JOIN_MIN masks; a larger join,
up to 62 bits, is one int64 outer OR, so a long listing is an array, with no
list of all its masks.  The masks of one (p, M, mc*, cap) are sorted once,
into a tuple of Python ints or a read-only int64 array, and kept in a
``zn_core._priced_cache`` of at most ENUMERATION_GUARD mask bits, so the
oracle's comparison and repeated listings share them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import (
    DigitChoiceError,
    GuardExceededError,
    ModulusMismatchError,
    NonPrimePowerError,
    PreconditionError,
)
from .zn_core import (
    ENUMERATION_GUARD,
    DivisorSpec,
    IndexSet,
    ModulusContext,
    _index_sets,
    _priced_cache,
    valuation,
)

if TYPE_CHECKING:
    import numpy as np


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
        # read before the loop, so that a composite N raises with no divisors
        p = ctx.p
        return cls.of([valuation(d, p) for d in spec.divisors])

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
    """Columns where some pair of rows first differs.

    Two rows first differ at column j iff they share their first j digits and
    not their first j + 1, so j is a pivot iff the rows have more distinct
    (j+1)-digit prefixes than j-digit prefixes: a residue tree node splits.
    """
    if not t.rows:
        raise PreconditionError("digit table needs at least one row")
    prefixes = [len({row[:j] for row in t.rows}) for j in range(t.M + 1)]
    return PivotSet.of(j for j in range(t.M) if prefixes[j + 1] > prefixes[j])


def mc_star(M: int, mc: PivotSet) -> PivotSet:
    """Reflected pivot set {M - l - 1 : l in mc}; an involution."""
    if mc.columns and mc.columns[-1] >= M:
        raise ValueError(f"pivot columns {mc.columns} out of range for M={M}")
    # the columns are ascending, distinct and >= 0, so their reflections,
    # read backwards, are too
    return PivotSet(tuple(M - l - 1 for l in reversed(mc.columns)))


def least_block(p: int, places) -> list[int]:
    """The least conforming block with pivot place values ``places``, distinct
    powers of p: every sum of d * u over u in places, 0 <= d < p, ascending.
    Solutions are unions of blocks, so the least size is one block.  Zeroing
    the off-pivot digits maps any block onto this one and lowers every
    member, so no block comes before it."""
    digits = [range(0, p * unit, unit) for unit in places]
    return sorted(map(sum, itertools.product(*digits)))


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


# A join of more masks than this is one int64 outer OR.  One join from two
# lists breaks even near 64 masks, but a fold of a few hundred masks made as
# arrays ran slower than as lists: each array join or concatenation has a
# fixed cost of about 2 us, felt by calls of tens of microseconds.
_ARRAY_JOIN_MIN = 256


@dataclass(frozen=True)
class SolutionCheck:
    ok: bool
    certificate: tuple[IndexSet, ...] | None


def is_solution(ctx: ModulusContext, J: IndexSet, mc: PivotSet) -> SolutionCheck:
    """Decide whether J solves the zero-set problem for divisors p^mc.

    True iff the rows of J's digit table partition into disjoint conforming
    tables, each with pivot set mc_star(mc); the certificate is one such
    partition, its blocks listed by least member.
    """
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    if J.modulus != ctx.N:
        raise ModulusMismatchError(f"set modulus {J.modulus} != N={ctx.N}")
    blocks = _split(list(J.members), ctx.p, mc_star(ctx.M, mc).columns)
    if blocks is None:
        return SolutionCheck(False, None)
    # each block is a sorted sub-list of J's validated members
    return SolutionCheck(True, tuple(IndexSet._unchecked(ctx.N, tuple(b)) for b in blocks))


def _split(members: list[int], p: int, cols: tuple[int, ...]) -> list[list[int]] | None:
    """Partition the sorted ``members`` into conforming blocks with pivot set
    ``cols``, listed by least member; None when no such partition exists.

    Taking out any one block leaves the fiber counts equal, so the blocks of
    each fiber can be joined in any order and the split never backtracks.
    The columns below the first pivot split the members into independent
    residue classes mod p^cols[0] at once, so the recursion goes one level
    per pivot only, and each level divides the members by p: its depth is
    at most log_p |members| + 1, whatever the number of digits.
    """
    if not members:
        return []
    if not cols:
        return [[x] for x in members]
    unit = p ** cols[0]
    classes: dict[int, list[int]] = {}
    for x in members:
        classes.setdefault(x % unit, []).append(x // unit)
    rest = tuple(c - cols[0] - 1 for c in cols[1:])
    blocks = []
    for r, quotients in classes.items():
        # the pivot column: the p fibers hold equally many members, and the
        # i-th blocks of the fibers join into one
        fibers: list[list[int]] = [[] for _ in range(p)]
        for x in quotients:
            fibers[x % p].append(x // p)
        if len({len(f) for f in fibers}) > 1:
            return None
        subs = [_split(f, p, rest) for f in fibers]
        if any(sub is None for sub in subs):
            return None
        blocks += [
            sorted(r + unit * (p * e + j) for j, b in enumerate(row) for e in b)
            for row in zip(*subs)
        ]
    if cols[0] == 0:
        return blocks
    return sorted(blocks, key=lambda b: b[0])


def solution_masks(
    ctx: ModulusContext, mc: PivotSet, max_cardinality: int | None = None
) -> tuple[int, ...] | np.ndarray:
    """Masks of every solution for divisors p^mc with |J| <= max_cardinality,
    ascending.  Includes the empty set (mask 0).  A read-only int64 array when
    some join of ``_union_masks`` made one, and otherwise a tuple of Python
    ints; either is shared by every call with the same p, M, mc and cap
    clipped to N, through a cache priced at N bits per mask.

    Raises GuardExceededError when the joins would build more than
    ENUMERATION_GUARD mask bits; the guard is charged join by join, so the
    refusal comes once the joins before it are built.  Raises ValueError on
    a negative cap.
    """
    if not ctx.is_prime_power:
        raise NonPrimePowerError(f"N={ctx.N} is not a prime power")
    if max_cardinality is not None and max_cardinality < 0:
        raise ValueError(f"max_cardinality must be >= 0, got {max_cardinality}")
    cap = ctx.N if max_cardinality is None else min(max_cardinality, ctx.N)
    return _ascending_masks(ctx.p, ctx.M, mc_star(ctx.M, mc).columns, cap)


@_priced_cache(lambda masks, p, M, cols, cap: len(masks) * p**M)
def _ascending_masks(
    p: int, M: int, cols: tuple[int, ...], cap: int
) -> tuple[int, ...] | np.ndarray:
    """The masks of ``_union_masks`` as one ascending tuple or read-only
    int64 array, which the cache shares."""
    by_size = _union_masks(p, M, cols, cap)
    # every size has its list, or every size its array; size 0 is always there
    if type(by_size[0]) is list:
        return tuple(sorted(itertools.chain.from_iterable(by_size.values())))
    import numpy as np

    masks = np.concatenate(list(by_size.values()))
    masks.sort()
    masks.setflags(write=False)
    return masks


def enumerate_solutions(
    ctx: ModulusContext, mc: PivotSet, max_cardinality: int | None = None
) -> Iterator[IndexSet]:
    """The solutions of ``solution_masks`` as index sets, in lexicographic
    order of sorted members.  Includes the empty set.

    The masks of ``solution_masks``, built under its guard or taken from its
    cache, are put in member order before the first set is yielded; each
    member tuple and ``IndexSet`` is built only when the caller asks for the
    next one.
    """
    yield from _index_sets(ctx.N, solution_masks(ctx, mc, max_cardinality))


def _union_masks(
    p: int, M: int, cols: tuple[int, ...], cap: int
) -> dict[int, list[int] | np.ndarray]:
    """Masks of the disjoint unions of conforming blocks with pivot set ``cols``
    over Z_{p^M} with at most ``cap`` members, keyed by member count.

    The split of ``is_solution`` in reverse, from the highest digit down: the
    unions on a residue class are the products of its p fibers' unions, each
    shifted into place, with equal fiber sizes at a pivot column.  A join of
    more than _ARRAY_JOIN_MIN masks, and so any join with an array, is one
    int64 outer OR up to 62 bits; smaller joins, and all past 62 bits, are
    lists of Python ints.  The parts of a size that has an array part are
    joined by one concatenation per shift.  Once a join made an array, every
    size's masks are returned as an int64 array.
    """
    N = p**M
    built = 0
    arrays = False

    def join(
        masks: list[int] | np.ndarray, fiber: list[int] | np.ndarray, shift: int
    ) -> list[int] | np.ndarray:
        nonlocal built, arrays
        count = len(masks) * len(fiber)
        built += count
        if built * N > ENUMERATION_GUARD:
            raise GuardExceededError(
                f"enumeration needs more than {ENUMERATION_GUARD // N} masks of {N} bits; "
                "lower max_cardinality or impose more divisors"
            )
        if count > _ARRAY_JOIN_MIN and N <= 62:
            import numpy as np

            arrays = True
            masks, fiber = np.asarray(masks, np.int64), np.asarray(fiber, np.int64)
            return (masks[:, None] | fiber << shift).ravel()
        shifted = [x << shift for x in fiber]
        return [m | x for m in masks for x in shifted]

    # a class below the highest digit has one element: it is empty or full
    by_size = {s: [s] for s in (0, 1) if s <= cap}
    for col in reversed(range(M)):
        shifts = [j * p**col for j in range(p)]
        if col in cols:
            joined = {}
            for t, fiber in by_size.items():
                if p * t <= cap:
                    masks = [0]
                    for shift in shifts:
                        masks = join(masks, fiber, shift)
                    joined[p * t] = masks
        else:
            joined = {0: [0]}
            for shift in shifts:
                grown: dict[int, list[int] | np.ndarray | tuple] = {}
                for s, masks in joined.items():
                    for t, fiber in by_size.items():
                        if s + t <= cap:
                            # a first part is kept as it is and a list extends
                            # a list; with an array, a tuple gathers the parts
                            part = join(masks, fiber, shift)
                            have = grown.setdefault(s + t, part)
                            if have is part:
                                continue
                            if type(have) is list is type(part):
                                have.extend(part)
                            elif type(have) is tuple:
                                grown[s + t] = (*have, part)
                            else:
                                grown[s + t] = (have, part)
                joined = grown
                if arrays:
                    import numpy as np

                    # each size's gathered parts are joined once, in order
                    for s, masks in joined.items():
                        if type(masks) is tuple:
                            joined[s] = np.concatenate(masks, dtype=np.int64)
        by_size = joined
    if arrays:
        import numpy as np

        return {s: np.asarray(masks, np.int64) for s, masks in by_size.items()}
    return by_size
