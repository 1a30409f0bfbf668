"""Convolution idempotents on Z_N with prescribed zero sets.

Core objects: index sets and their bracelets (zn_core), exact root-of-unity
arithmetic (cyclotomic), idempotents and zero sets (fourier), Ramanujan sums
(ramanujan), the digit-table characterization and enumeration for prime-power
moduli (digit_tables), an exhaustive oracle (oracle), multicoset sampling
design (sampling), and tiling/spectral checks (fuglede).

zn_core, cyclotomic, ramanujan and digit_tables load with the package;
fourier, fuglede, oracle and sampling load on first use of one of their
names.  oracle and sampling import numpy when they load, fourier and fuglede
only inside the functions that compute with it, so ``import idemzeros`` does
not import numpy.
"""

import importlib as _importlib

from .digit_tables import (
    ConformingTable,
    DigitTable,
    PivotSet,
    SolutionCheck,
    decompose,
    enumerate_solutions,
    from_index_set,
    generate_conforming,
    is_conforming,
    is_solution,
    mc_star,
    pivot_columns,
    to_index_set,
)
from .errors import DomainError
from .ramanujan import (
    annihilation_check,
    gcd_class_exponential_sum,
    ramanujan_direct,
    ramanujan_mobius,
    ramanujan_prime_power,
)
from .zn_core import (
    DivisorSpec,
    IndexSet,
    ModulusContext,
    bracelet,
    canonical_bracelet_rep,
    expand_zero_spec,
    gcd_class,
    proper_divisors,
    reverse,
    tiles,
    translate,
)

# the names each lazily loaded module exports, resolved by __getattr__
_LAZY = {
    "fourier": (
        "Idempotent",
        "Signal",
        "ZeroSetReport",
        "circular_convolution",
        "dft",
        "idempotent_from_spectrum",
        "idft",
        "is_idempotent",
        "zero_set",
    ),
    "fuglede": (
        "FugledeReport",
        "SpectralResult",
        "find_tiling_partners",
        "fuglede_report",
        "is_spectral",
    ),
    "oracle": ("ComparisonReport", "brute_force_solutions", "compare_with_theorem"),
    "sampling": (
        "DesignResult",
        "DiscreteSimulation",
        "FragmentSet",
        "SamplingPattern",
        "SimulationReport",
        "design_pattern",
        "required_zero_set",
        "simulate",
    ),
}
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        # importing a submodule binds it on the package
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_ORIGIN)
)
