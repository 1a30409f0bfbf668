"""DFT conventions, idempotent construction and zero-set computation.

Convention: the forward transform carries no 1/N factor, the inverse does.
An idempotent built from a spectrum indicator set J therefore satisfies
h(0) = |J|/N.  ``dft`` and ``idft`` are numpy's FFT and inverse FFT, which
follow it, so no N x N matrix is built, and h's values are one inverse FFT
of J's indicator array.
Zero sets are exact by default: h_J vanishes on the gcd class of a divisor
d iff the N/d-th cyclotomic polynomial divides the sum of x^(j mod N/d) over
J, which ``_zero_divisors`` decides by difference operators in Python ints.
Float mode, which reads h's values, is the independent route that
cross-checks it.  ``circular_convolution`` stays the direct sum of N^2
terms, the definition, and refuses an N past its guard.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cyclotomic import check_residue_guard
from .errors import GuardExceededError, ModulusMismatchError
from .zn_core import DivisorSpec, IndexSet, _gcd_classes, factorize, proper_divisors

if TYPE_CHECKING:
    import numpy as np

# float comparisons count a DFT value or h(n) this close to its target as equal
TOL = 1e-9
# terms the direct circular convolution may sum, N^2 at N = 4096
CONVOLUTION_GUARD = 1 << 24


@dataclass(frozen=True)
class Signal:
    modulus: int
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.values) != self.modulus:
            raise ModulusMismatchError(
                f"signal length {len(self.values)} != modulus {self.modulus}"
            )

    @classmethod
    def of(cls, values) -> "Signal":
        vals = tuple(complex(v) for v in values)
        return cls(len(vals), vals)

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        return np.array(self.values, dtype=complex)


@dataclass(frozen=True)
class Idempotent:
    """The idempotent whose DFT is the 0/1 indicator of ``spectrum``."""

    spectrum: IndexSet

    @property
    def modulus(self) -> int:
        return self.spectrum.modulus

    def evaluate(self, n: int) -> complex:
        N = self.modulus
        return sum(
            (cmath.exp(2j * cmath.pi * j * n / N) for j in self.spectrum), 0j
        ) / N

    def time_domain(self) -> Signal:
        """h at every n: one inverse FFT of J's indicator array."""
        import numpy as np

        indicator = np.zeros(self.modulus, dtype=complex)
        indicator[list(self.spectrum.members)] = 1
        return Signal(self.modulus, tuple(np.fft.ifft(indicator).tolist()))


@dataclass(frozen=True)
class ZeroSetReport:
    zero_set: IndexSet
    zero_divisors: DivisorSpec
    structure_ok: bool


def dft(x: Signal) -> Signal:
    import numpy as np

    return Signal(x.modulus, tuple(np.fft.fft(x.to_numpy())))


def idft(x: Signal) -> Signal:
    import numpy as np

    return Signal(x.modulus, tuple(np.fft.ifft(x.to_numpy()).tolist()))


def idempotent_from_spectrum(J: IndexSet) -> Idempotent:
    return Idempotent(J)


def is_idempotent(x: Signal) -> bool:
    """True iff every DFT value of x is within TOL of 0 or 1."""
    import numpy as np

    spec = dft(x).to_numpy()
    return bool(np.all(np.minimum(np.abs(spec), np.abs(spec - 1)) < TOL))


def circular_convolution(x: Signal, y: Signal) -> Signal:
    """The direct sum (x * y)(n) = sum_m x(m) y(n - m), the definition that
    idempotence is checked against; N^2 terms past CONVOLUTION_GUARD are
    refused with GuardExceededError before any work."""
    if x.modulus != y.modulus:
        raise ModulusMismatchError(f"moduli differ: {x.modulus} != {y.modulus}")
    N = x.modulus
    if N * N > CONVOLUTION_GUARD:
        raise GuardExceededError(
            f"N={N}: {N * N} terms exceed the convolution guard {CONVOLUTION_GUARD}"
        )
    import numpy as np

    a, b = x.to_numpy(), y.to_numpy()
    out = np.array([np.sum(a * b[(n - np.arange(N)) % N]) for n in range(N)])
    return Signal(N, tuple(out))


def _phi_divides(members, m: int) -> bool:
    """Whether Phi_m divides sum_{j in members} x^(j mod m).

    In Z[x]/(x^m - 1) the product of x^(m/p) - 1 over the primes p | m is
    divisible by every Phi_e with e | m, e < m, and not by Phi_m, so Phi_m
    divides the sum iff the count vector of the members mod m becomes all
    zeros under c <- c - roll(c, m/p), once for each p.  At m = 1 this says
    that the sum is empty.  Python ints, O(len(members) + m * omega(m))."""
    counts = [0] * m
    for j in members:
        counts[j % m] += 1
    for p, _ in factorize(m):
        s = m // p
        counts = [a - b for a, b in zip(counts, counts[-s:] + counts[:-s])]
    return not any(counts)


def _zero_divisors(members, N: int) -> tuple[int, ...]:
    """The d | N, ascending, whose gcd class h_J vanishes on, J the ``members``:
    Phi_{N/d} divides the sum of x^(j mod N/d) over J, at d = N iff J = {}."""
    vanishing = tuple(d for d in proper_divisors(N) if _phi_divides(members, N // d))
    return vanishing if members else vanishing + (N,)


def zero_set(h: Idempotent, mode: str = "exact") -> ZeroSetReport:
    """Zero set of h, its divisor part, and the gcd-class structure check.

    The zero set of a nonzero idempotent is a disjoint union of gcd classes;
    the zero idempotent (empty spectrum) additionally vanishes at 0, which has
    no class below N, so 0 is accounted for separately in the structure check.
    Exact mode builds its zero set from whole classes, so there the check
    holds by construction; it is a real check of float mode.

    Exact mode takes the divisors from ``_zero_divisors``, O(|J| + m omega(m))
    per divisor at m = N/d, after the residue guard.  Float mode reads a zero
    wherever |h(n)| < TOL on ``Idempotent.time_domain``.
    """
    N = h.modulus
    J = h.spectrum.members
    if mode == "exact":
        check_residue_guard(N)
        zeros = _gcd_classes(N, _zero_divisors(J, N))
    elif mode == "float":
        zeros = tuple(n for n, v in enumerate(h.time_domain().values) if abs(v) < TOL)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    members = set(zeros)
    divs = [d for d in proper_divisors(N) if d in members]
    classes = set(divs)
    if not J:
        classes.add(N)
    structure_ok = zeros == _gcd_classes(N, classes)
    return ZeroSetReport(IndexSet(N, zeros), DivisorSpec(N, tuple(divs)), structure_ok)
