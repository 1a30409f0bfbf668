"""Arithmetic and combinatorics on Z_N: gcd classes, divisor specs, bracelets
and the exact-cover tiling check.

All values here are immutable; an ``IndexSet`` stores its members as a strictly
sorted tuple so that set equality is plain sequence equality and output is
deterministic.  Everything here is plain Python except long mask listings,
which load numpy when they first run: they are put in order with one argsort
and turned into member tuples a chunk at a time, each distinct high half of
the listing and each distinct low half of a chunk once, one tuple join per
mask.  A mask becomes its members one byte at a time; one wider than 64 bits
is read once with to_bytes, so its decoding time is linear in its width.
Listings that are kept for reuse go in a ``_priced_cache``, which prices each
entry in bits and holds at most ENUMERATION_GUARD bits, the bound of one
listing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import compress
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    GuardExceededError,
    InvalidDivisorError,
    ModulusMismatchError,
    NonPrimePowerError,
)

if TYPE_CHECKING:
    import numpy as np


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n >= 1."""
    if n < 1 or p < 2:
        raise ValueError(f"valuation needs n >= 1 and p >= 2, got n={n}, p={p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# Mask bits (masks times N) that one listing may build, and that the listings
# cached by ``_priced_cache`` may hold in all.
ENUMERATION_GUARD = 1 << 25


def _priced_cache(price):
    """Decorator: a cache of a function's results by its arguments whose
    entries, priced at ``price(result, *args)`` bits each, hold at most
    ENUMERATION_GUARD bits in all; the least recently used go first, and a
    result priced past the bound on its own is not kept.  Entries are shared,
    so they must be immutable or read-only.  ``cache_bits()`` gives the held
    total and ``cache_clear()`` empties the cache."""

    def decorate(fn):
        entries: dict = {}  # arguments -> (result, bits), least recent first
        held = 0

        @wraps(fn)
        def cached(*args):
            nonlocal held
            entry = entries.pop(args, None)
            if entry is None:
                result = fn(*args)
                entry = result, price(result, *args)
                if entry[1] > ENUMERATION_GUARD:
                    return result
                held += entry[1]
                while held > ENUMERATION_GUARD:
                    held -= entries.pop(next(iter(entries)))[1]
            entries[args] = entry
            return entry[0]

        def cache_clear():
            nonlocal held
            entries.clear()
            held = 0

        cached.cache_bits = lambda: held
        cached.cache_clear = cache_clear
        return cached

    return decorate


# The largest trial divisor factorize may test, with no override: n is
# factorized whenever its part made of primes above it is below its square.
FACTOR_GUARD = 1 << 20


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((prime, exponent), ...), ascending primes.

    Trial division; GuardExceededError when it would test a divisor past
    FACTOR_GUARD, as for two prime factors above it or one above its square."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    N = n
    out = []
    d = 2
    while d * d <= n:
        if d > FACTOR_GUARD:
            raise GuardExceededError(
                f"N={N}: factorizing needs trial divisors past the factor guard {FACTOR_GUARD}"
            )
        if n % d == 0:
            e = valuation(n, d)
            n //= d**e
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def proper_divisors(n: int) -> tuple[int, ...]:
    """Divisors of n below n itself (includes 1 for n > 1), ascending, built
    from the prime factorization of n."""
    divisors = [1]
    for p, e in factorize(n):
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return tuple(sorted(divisors)[:-1])


@dataclass(frozen=True)
class ModulusContext:
    N: int
    factorization: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, N: int) -> "ModulusContext":
        if N < 1:
            raise ValueError(f"modulus must be positive, got {N}")
        return cls(N, factorize(N))

    @property
    def is_prime_power(self) -> bool:
        return len(self.factorization) == 1

    @property
    def p(self) -> int:
        if not self.is_prime_power:
            raise NonPrimePowerError(f"N={self.N} is not a prime power")
        return self.factorization[0][0]

    @property
    def M(self) -> int:
        if not self.is_prime_power:
            raise NonPrimePowerError(f"N={self.N} is not a prime power")
        return self.factorization[0][1]


_ByteTable = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _byte_table(k: int) -> _ByteTable:
    """Maps a byte to its set bit positions offset by 8k; built by doubling
    over the byte's 8 bits."""
    rows = [()]
    for i in range(8 * k, 8 * k + 8):
        rows += [row + (i,) for row in rows]
    return tuple(rows)


@lru_cache(maxsize=None)
def _byte_tables(modulus: int) -> tuple[_ByteTable, ...]:
    """The byte tables that cover a mask with bits in [0, modulus)."""
    return tuple(_byte_table(k) for k in range((modulus + 7) // 8))


def _mask_members(mask: int, tables: tuple[_ByteTable, ...]) -> tuple[int, ...]:
    """Set bit positions of a nonnegative mask that ``tables`` covers,
    ascending: one table lookup per byte."""
    members = ()
    for table in tables:
        if not mask:
            break
        members += table[mask & 255]
        mask >>= 8
    return members


def _wide_mask_members(mask: int, tables: tuple[_ByteTable, ...]) -> tuple[int, ...]:
    """``_mask_members`` with the mask read once with to_bytes, not shifted
    once per byte, and only its nonzero bytes looked up: time linear in the
    mask's width."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    members = []
    for k in compress(range(len(data)), data):
        members += tables[k][data[k]]
    return tuple(members)


# Up to this many bytes, one 64-bit word, shifting a mask a byte at a time
# beats reading it with to_bytes: 0.2 against 0.6 us at 16 bits, even at 64,
# and 5-40 times slower from 1,000 bits on, as each shift copies the mask.
_SHIFT_BYTES_MAX = 8


def _decoder(tables: tuple[_ByteTable, ...]):
    """The member decoder for masks that ``tables`` covers."""
    return _mask_members if len(tables) <= _SHIFT_BYTES_MAX else _wide_mask_members


@dataclass(frozen=True, order=True, slots=True)
class IndexSet:
    """A finite subset of Z_N, stored as a strictly sorted member tuple."""

    modulus: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not isinstance(self.members, tuple):
            object.__setattr__(self, "members", tuple(self.members))
        prev = -1
        for m in self.members:
            if not prev < m < self.modulus:
                raise ValueError(
                    f"members must be strictly sorted residues mod {self.modulus}: {self.members}"
                )
            prev = m

    @classmethod
    def _unchecked(cls, modulus: int, members: tuple[int, ...]) -> "IndexSet":
        """A set whose members the library built as a strictly increasing tuple
        of residues in [0, modulus); skips the validation of __post_init__."""
        s = object.__new__(cls)
        _set_modulus(s, modulus)
        _set_members(s, members)
        return s

    @classmethod
    def of(cls, modulus: int, members: Iterable[int]) -> "IndexSet":
        return cls(modulus, tuple(sorted({m % modulus for m in members})))

    @classmethod
    def from_mask(cls, modulus: int, mask: int) -> "IndexSet":
        """Members are the set bits of ``mask``, joined one byte at a time."""
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if mask < 0 or mask >> modulus:
            raise ValueError(f"mask {mask} has bits outside [0, {modulus})")
        tables = _byte_tables(modulus)
        return cls._unchecked(modulus, _decoder(tables)(mask, tables))

    @property
    def mask(self) -> int:
        return sum(1 << m for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, item: int) -> bool:
        return item in self.members

    def to_json(self) -> dict:
        return {"N": self.modulus, "members": list(self.members)}

    @classmethod
    def from_json(cls, obj: dict) -> "IndexSet":
        return cls.of(int(obj["N"]), obj["members"])


# The slot descriptors write a frozen set's fields without its __setattr__.
_set_modulus = IndexSet.__dict__["modulus"].__set__
_set_members = IndexSet.__dict__["members"].__set__


@lru_cache(maxsize=None)
def _reversed_bytes() -> np.ndarray:
    """Each byte's 8 bits in reverse order, as a uint8 lookup table."""
    import numpy as np

    return np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)

# Up to this many masks, sorting member tuples beats the fixed cost of numpy.
# Most listings are this short: 76%, 96% and 99% of those that the benchmark
# workloads oracle-grid, fuglede-sweep and query-mix make.
_TUPLE_SORT_MAX = 128

# Masks go through numpy this many at a time, so that no second list of all
# of them is held while the sets are yielded.
_YIELD_CHUNK = 4096


def _lex_ranks(modulus: int, masks: np.ndarray) -> np.ndarray:
    """Rank of each int64 mask's member tuple in lexicographic order of all
    subsets of Z_modulus, for modulus <= 62.

    The rank is popcount(m) + rev(~m & (2^top - 1)), where top is m's highest
    set bit and rev maps bit b to bit modulus - 1 - b: the empty tuple, the
    prefixes of m's tuple, and the 2^(modulus - 1 - c) tuples that branch off
    at each non-member c below top come first.  With r = rev(m), whose lowest
    set bit is top's image, it equals 2^modulus + popcount(m) - r - (r & -r),
    and 0 for the empty set; no float is involved.
    """
    import numpy as np

    r = _reversed_bytes()[masks.view(np.uint8)].view(np.uint64).byteswap()
    r = (r >> np.uint64(64 - modulus)).astype(np.int64)
    ranks = (1 << modulus) + np.bitwise_count(masks).astype(np.int64) - r - (r & -r)
    ranks[masks == 0] = 0
    return ranks


def _index_sets(
    modulus: int, masks: np.ndarray | list[int] | tuple[int, ...] | set[int]
) -> Iterator[IndexSet]:
    """The masks as index sets, in lexicographic order of sorted members.

    ``masks`` is a list, a tuple, a set or an array; the arrays of the oracle
    and the tuples and arrays of ``digit_tables.solution_masks`` pass as they
    are, and none is written to.  Up to 62 bits, more than _TUPLE_SORT_MAX
    masks go into an int64 array, unless they are one already, and are
    ordered by ``_lex_ranks`` with one argsort.  Each mask is split at bit
    h = ceil(modulus / 2); each distinct low half of a _YIELD_CHUNK of
    ordered masks, and each distinct high half of the listing, kept across
    chunks, becomes a member tuple once, and a mask's members are its low
    tuple plus its high tuple.  Wider or fewer masks sort their member
    tuples.  Each ``IndexSet`` is built only when the caller asks for the
    next one.  Raises ValueError, before yielding, when a mask has bits
    outside [0, modulus).  Only the int64 route loads numpy.
    """
    if not len(masks):
        return
    is_array = not isinstance(masks, (list, tuple, set))
    lo, hi = (masks.min(), masks.max()) if is_array else (min(masks), max(masks))
    if lo < 0 or int(hi) >> modulus:
        raise ValueError(f"masks have bits outside [0, {modulus})")
    tables = _byte_tables(modulus)
    new, set_modulus, set_members = object.__new__, _set_modulus, _set_members
    if modulus > 62 or len(masks) <= _TUPLE_SORT_MAX:
        # Python ints: a byte lookup on a numpy scalar is slower
        masks = masks.tolist() if is_array else masks
        decode = _decoder(tables)
        for members in sorted(decode(mask, tables) for mask in masks):
            s = new(IndexSet)
            set_modulus(s, modulus)
            set_members(s, members)
            yield s
        return
    import numpy as np

    if not is_array:
        # rebinding drops this frame's reference to the input sequence
        masks = np.fromiter(masks, np.int64, len(masks))
    masks = masks[np.argsort(_lex_ranks(modulus, masks))]
    h = (modulus + 1) // 2
    # member order scatters the high halves over every chunk, so each is
    # decoded once per listing and kept; the low halves come in runs
    decoded: dict[int, tuple[int, ...]] = {}
    for start in range(0, len(masks), _YIELD_CHUNK):
        chunk = masks[start : start + _YIELD_CHUNK]
        lows, low_ids = np.unique(chunk & ((1 << h) - 1), return_inverse=True)
        highs, high_ids = np.unique(chunk >> h, return_inverse=True)
        low = [_mask_members(m, tables) for m in lows.tolist()]
        high = [
            decoded[m] if m in decoded else decoded.setdefault(m, _mask_members(m << h, tables))
            for m in highs.tolist()
        ]
        # One set per step, not a chunk's worth at once: a batch of
        # thousands of new objects sets off full GC collections that walk
        # every tuple the caller holds.
        for members in map(
            add, map(low.__getitem__, low_ids.tolist()), map(high.__getitem__, high_ids.tolist())
        ):
            s = new(IndexSet)
            set_modulus(s, modulus)
            set_members(s, members)
            yield s


@dataclass(frozen=True)
class DivisorSpec:
    """A set of proper divisors of N, selecting the zero classes to impose."""

    modulus: int
    divisors: tuple[int, ...]

    def __post_init__(self):
        prev = 0
        for d in self.divisors:
            if not prev < d < self.modulus or self.modulus % d != 0:
                raise InvalidDivisorError(
                    f"{d} is not a proper divisor of {self.modulus}"
                )
            prev = d

    @classmethod
    def of(cls, modulus: int, divisors: Iterable[int]) -> "DivisorSpec":
        return cls(modulus, tuple(sorted(set(divisors))))


@lru_cache(maxsize=64)
def _gcd_table(N: int) -> tuple[int, ...]:
    """gcd(n, N) for n in [0, N), so gcd(0, N) = N: the gcd class of every index."""
    return tuple(math.gcd(n, N) for n in range(N))


def _gcd_classes(N: int, divisors: Iterable[int]) -> tuple[int, ...]:
    """The union of the gcd classes of ``divisors``, ascending."""
    divisors = set(divisors)
    table = _gcd_table(N) if divisors else ()
    return tuple(n for n, g in enumerate(table) if g in divisors)


def gcd_class(ctx: ModulusContext, k: int) -> IndexSet:
    """Residues i in Z_N with gcd(i, N) = k.  k = N is allowed and yields {0}."""
    if k < 1 or ctx.N % k != 0:
        raise InvalidDivisorError(f"{k} does not divide N={ctx.N}")
    return IndexSet._unchecked(ctx.N, _gcd_classes(ctx.N, (k,)))


def expand_zero_spec(spec: DivisorSpec) -> IndexSet:
    """Disjoint union of the gcd classes of all divisors in the spec."""
    return IndexSet._unchecked(spec.modulus, _gcd_classes(spec.modulus, spec.divisors))


def translate(s: IndexSet, k: int) -> IndexSet:
    """Shift every member by -k mod N."""
    return IndexSet.of(s.modulus, ((i - k) % s.modulus for i in s.members))


def reverse(s: IndexSet) -> IndexSet:
    """Negate every member mod N."""
    return IndexSet.of(s.modulus, ((-i) % s.modulus for i in s.members))


def bracelet(s: IndexSet) -> frozenset[IndexSet]:
    """Orbit of s under all translations and the reversal map.

    The orbit holds up to 2N sets, which are priced at N bits each against
    ENUMERATION_GUARD: GuardExceededError before any work past it, from
    N = 4097 on."""
    N = s.modulus
    if 2 * N * N > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"N={N}: the bracelet orbit holds up to {2 * N} sets of {N} bits, "
            f"past the enumeration guard {ENUMERATION_GUARD} bits"
        )
    rev = reverse(s)
    orbit = set()
    for k in range(s.modulus):
        orbit.add(translate(s, k))
        orbit.add(translate(rev, k))
    return frozenset(orbit)


def canonical_bracelet_rep(s: IndexSet) -> IndexSet:
    """Lexicographically smallest member sequence over the bracelet of s.

    The least sequence contains 0, so it is one of the 2|s| translates that
    move a member of s or of -s to 0.  Each is a rotation of the sorted
    members minus that member mod N, which is sorted already.
    """
    N, members = s.modulus, s.members
    if not members:
        return s
    # -s sorted: 0 stays first, then N - m for the other members in reverse
    negated = members[:1] if members[0] == 0 else ()
    negated += tuple(N - m for m in reversed(members) if m)
    least = min(
        tuple(x - m for x in seq[i:]) + tuple(x - m + N for x in seq[:i])
        for seq in (members, negated)
        for i, m in enumerate(seq)
    )
    return IndexSet._unchecked(N, least)


def tiles(J: IndexSet, K: IndexSet) -> bool:
    """Exact-cover check: every residue has exactly one representation j + k.

    Once |J||K| = N there are N sums, so by pigeonhole they are distinct mod N
    iff they take N values."""
    if J.modulus != K.modulus:
        raise ModulusMismatchError(f"moduli differ: {J.modulus} != {K.modulus}")
    N = J.modulus
    if len(J) * len(K) != N:
        return False
    return len({(j + k) % N for j in J.members for k in K.members}) == N
