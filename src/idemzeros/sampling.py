"""Multicoset sampling-pattern design and an exact discrete alias simulation.

A signal with unit-width spectral fragments at integer offsets F is sampled
with offsets J inside a period of length N.  Aliases cancel exactly when the
idempotent built from J vanishes on all pairwise fragment differences; the
simulation discretizes the spectrum to R bins per unit and checks this on a
circular grid of N*R bins.  It reads only the |F|*R fragment bins, gathered
once for every shift, so it costs O(N*|F|*R) besides one inverse FFT for h;
a simulation of more than SIMULATION_GUARD gathered bins is refused before
any work.

The design is the least nonempty J, by size, then members, whose idempotent
vanishes on the pairwise fragment differences.  At N = p^M it is one
conforming block of the digit tables, built as it is; elsewhere the oracle's
search runs at each size in turn.  A period past SIMULATION_GUARD, which no
simulation admits, is refused before the design starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

import numpy as np

from .digit_tables import PivotSet, least_block, mc_star
from .errors import GuardExceededError, ModulusMismatchError, PreconditionError
from .fourier import Idempotent, idempotent_from_spectrum
from .oracle import _popcount, _solution_masks
from .zn_core import IndexSet, ModulusContext, _index_sets

SIMULATION_GUARD = 1 << 24


@dataclass(frozen=True)
class FragmentSet:
    fragments: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for f in self.fragments:
            if not prev < f or f < 0:
                raise ValueError(f"fragments must be sorted non-negative: {self.fragments}")
            prev = f

    @classmethod
    def of(cls, fragments: Iterable[int]) -> "FragmentSet":
        return cls(tuple(sorted(set(fragments))))


@dataclass(frozen=True)
class SamplingPattern:
    modulus: int
    offsets: IndexSet

    def __post_init__(self):
        if self.offsets.modulus != self.modulus:
            raise ModulusMismatchError(
                f"offset modulus {self.offsets.modulus} != {self.modulus}"
            )


@dataclass(frozen=True)
class DiscreteSimulation:
    oversampling: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.oversampling < 1:
            raise PreconditionError(f"oversampling must be >= 1, got {self.oversampling}")


@dataclass(frozen=True)
class DesignResult:
    pattern: SamplingPattern
    idempotent: Idempotent
    rate: int  # samples per unit time


@dataclass(frozen=True)
class SimulationReport:
    max_error: float
    alias_energy: dict[int, float] = field(compare=False)

    @property
    def alias_free(self) -> bool:
        return all(e < 1e-18 for e in self.alias_energy.values())


def required_zero_set(F: FragmentSet, N: int) -> IndexSet:
    """Pairwise fragment differences mod N; the zeros the pattern must realize."""
    if not F.fragments:
        raise PreconditionError("fragment set must be nonempty")
    if N <= max(F.fragments) + 1:
        raise PreconditionError(f"period N={N} must exceed max fragment + 1")
    diffs = {
        (a - b) % N for a in F.fragments for b in F.fragments if a != b
    }
    return IndexSet.of(N, diffs)


def design_pattern(F: FragmentSet, N: int) -> DesignResult:
    """Smallest nonempty J whose idempotent vanishes on all fragment differences.

    Ties break lexicographically.  A period past SIMULATION_GUARD, which no
    simulation admits, is refused once it is factorized, before the design
    starts; the factor guard bounds that step.  At N = p^M, J is the
    least block with pivot columns mc*(mc), mc read off the gcds of the
    required zeros.  Elsewhere J has at least |F| members, as the vectors
    (w^{jf})_{j in J} are pairwise orthogonal, and Z_N is a pattern, so the
    oracle's search, capped at each size from |F| to N, keeps the first size
    that has one.  Only the chosen J becomes an index set.
    """
    required = required_zero_set(F, N)
    ctx = ModulusContext.of(N)
    if N > SIMULATION_GUARD:
        raise GuardExceededError(f"period N={N} exceeds the simulation guard {SIMULATION_GUARD}")
    if ctx.is_prime_power:
        mc = PivotSet.from_divisors(ctx, {gcd(n, N) for n in required.members})
        block = least_block(ctx.p, [ctx.p**c for c in mc_star(ctx.M, mc)])
        best = IndexSet._unchecked(N, tuple(block))
    else:
        for size in range(len(F.fragments), N + 1):
            masks = _solution_masks(N, required.members, "vanish-at-least", size)
            if len(masks := masks[_popcount(masks) == size]):
                break
        best = next(_index_sets(N, masks))
    return DesignResult(SamplingPattern(N, best), idempotent_from_spectrum(best), len(best))


def _fragment_bins(F: FragmentSet, R: int) -> np.ndarray:
    return np.concatenate([np.arange(k * R, (k + 1) * R) for k in F.fragments])


def simulate(
    F: FragmentSet, pattern: SamplingPattern, sim: DiscreteSimulation
) -> SimulationReport:
    """Sample a random fragmented spectrum with the pattern and reconstruct.

    The sampled spectrum is the idempotent-weighted sum of the base spectrum
    over all N circular shifts of R bins; fragment bins divided by h(0) must
    reproduce the original when the pattern's zero set covers the fragment
    differences.  Only the fragment bins are read: one gather gives an
    N x |F|*R array whose row k holds them shifted by k*R, and the sum and
    the alias energies are taken over its rows.  GuardExceededError, before
    any random draw, when that array would exceed SIMULATION_GUARD entries.
    """
    N, R = pattern.modulus, sim.oversampling
    if not F.fragments:
        raise PreconditionError("fragment set must be nonempty")
    if N <= max(F.fragments) + 1:
        raise ModulusMismatchError(f"pattern period {N} too small for fragments {F.fragments}")
    if not pattern.offsets.members:
        raise PreconditionError("pattern has no sample offsets")
    width = len(F.fragments) * R
    if N * width > SIMULATION_GUARD:
        raise GuardExceededError(
            f"{N * width} shifted fragment bins exceed the simulation guard"
        )
    grid = N * R
    bins = _fragment_bins(F, R)
    rng = np.random.default_rng(sim.seed)
    spectrum = np.zeros(grid, dtype=complex)
    spectrum[bins] = rng.standard_normal(len(bins)) + 1j * rng.standard_normal(len(bins))
    h = idempotent_from_spectrum(pattern.offsets)
    hvals = h.time_domain().values
    # row k holds the fragment bins of the spectrum shifted by k*R
    rows = spectrum[(bins - R * np.arange(N)[:, None]) % grid]
    sampled = np.zeros(len(bins), dtype=complex)
    for k in range(N):
        sampled += hvals[k] * rows[k]
    recovered = sampled / hvals[0]
    max_error = float(np.max(np.abs(recovered - rows[0])))
    energies = np.sum(np.abs(rows) ** 2, axis=1)
    alias_energy = {k: float(abs(hvals[k]) ** 2 * energies[k]) for k in range(1, N)}
    return SimulationReport(max_error, alias_energy)
