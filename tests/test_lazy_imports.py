"""numpy loads only where a computation needs it.

The exact-integer subcommands and their error paths must run without numpy,
and the package's exported names must stay the same whether they load eagerly
or on first use.
"""

import json
import subprocess
import sys

import pytest

import idemzeros

# Runs the CLI in-process, then reports its exit code and whether numpy loaded.
PROBE = (
    "import json, sys\n"
    "from idemzeros.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write(json.dumps([code, 'numpy' in sys.modules]))\n"
)


def _error(message: str) -> list[dict]:
    return [{"code": "invalid-value", "message": message}]


def _sets(N: int, *members: list[int]) -> list[dict]:
    return [{"N": N, "members": list(m)} for m in members]


NUMPY_FREE = [
    (("bracelet", "rep", "--N", "12", "--set", "1,5"), 0, _sets(12, [0, 4])),
    (("bracelet", "orbit", "--N", "4", "--set", "0,1"), 0, _sets(4, [0, 1], [0, 3], [1, 2], [2, 3])),
    (
        ("zeroset", "check", "--N", "4", "--divisors", "2", "--set", "0,1"),
        0,
        [{"solution": True, "certificate": [[0, 1]]}],
    ),
    (
        ("zeroset", "table", "--N", "8", "--set", "0,3"),
        0,
        [{"p": 2, "M": 3, "rows": [[0, 0, 0], [1, 1, 0]]}],
    ),
    (
        ("zeroset", "enumerate", "--N", "4", "--divisors", "2"),
        0,
        _sets(4, [], [0, 1], [0, 1, 2, 3], [0, 3], [1, 2], [2, 3]),
    ),
    (
        ("zeroset", "enumerate", "--N", "4", "--bracelet-reps"),
        0,
        _sets(4, [], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 2]),
    ),
    (
        ("ramanujan", "eval", "--q", "4", "--k", "0..2", "--format", "json"),
        0,
        [{"q": 4, "k": 0, "value": 2}, {"q": 4, "k": 1, "value": 0}, {"q": 4, "k": 2, "value": -2}],
    ),
    (("fuglede", "tiles", "--N", "4", "--J", "0,1", "--K", "0,2"), 0, [{"tiles": True}]),
    (("fuglede", "tiles", "--N", "6", "--J", "0,1", "--K", "0,2"), 0, [{"tiles": False}]),
    # T1 at N = p^M, and the search over the exact zero set at N = 12
    (("fuglede", "spectral", "--N", "16", "--J", "0,1,8,9"), 0, [{"spectral": True, "witness": [0, 1, 8, 9]}]),
    (("fuglede", "spectral", "--N", "12", "--J", "0,1,2"), 0, [{"spectral": True, "witness": [0, 4, 8]}]),
    (
        ("fuglede", "partners", "--N", "16", "--J", "0,1,8,9", "--max-results", "2"),
        0,
        _sets(16, [0, 2, 4, 6], [0, 2, 4, 14]),
    ),
    (
        ("fuglede", "partners", "--N", "48", "--J", "0,1,2,3", "--max-results", "1"),
        0,
        _sets(48, range(0, 48, 4)),
    ),
    # error paths, including those of subcommands that compute with numpy
    (("bracelet", "rep", "--N", "0", "--set", "1"), 1, _error("modulus must be positive, got 0")),
    (
        ("zeroset", "check", "--N", "8", "--set", "9"),
        1,
        _error("members [9] lie outside [0, 8)"),
    ),
    (("ramanujan", "eval", "--q", "4", "--k", "5..2"), 1, _error("empty range 5..2")),
    (
        ("oracle", "solve", "--N", "4", "--zeros", "9"),
        1,
        _error("members [9] lie outside [0, 4)"),
    ),
    (("fuglede", "spectral", "--N", "0", "--J", "1"), 1, _error("modulus must be positive, got 0")),
    (("fuglede", "report", "--N", "0"), 1, _error("modulus must be positive, got 0")),
]


def _probe(args) -> tuple[int, list, bool]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args], capture_output=True, text=True
    )
    code, numpy_loaded = json.loads(proc.stderr)
    return code, [json.loads(line) for line in proc.stdout.splitlines()], numpy_loaded


@pytest.mark.parametrize("args, code, stdout", NUMPY_FREE, ids=[" ".join(a) for a, _, _ in NUMPY_FREE])
def test_exact_subcommands_run_without_numpy(args, code, stdout):
    assert _probe(args) == (code, stdout, False)


def test_numeric_subcommands_load_numpy():
    # the class scan behind the report sums residues in numpy arrays
    code, out, numpy_loaded = _probe(("fuglede", "report", "--N", "2"))
    assert (code, numpy_loaded) == (0, True)
    assert [(c["size"], c["zero_divisors"]) for c in out[0]["classes"]] == [(1, []), (2, [1])]


def test_package_import_leaves_numpy_unloaded():
    check = "import sys, idemzeros, idemzeros.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check]).returncode == 0


def test_large_report_leaves_numpy_ma_unloaded():
    # at N = 23 the class scan matches fingerprints against 128 highs;
    # np.isin would sort that many through np.unique, which loads numpy.ma
    check = (
        "import sys\n"
        "from idemzeros.fuglede import fuglede_report\n"
        "from idemzeros.zn_core import ModulusContext\n"
        "fuglede_report(ModulusContext.of(23))\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    assert subprocess.run([sys.executable, "-c", check]).returncode == 0


EXPORTS = [
    "ComparisonReport", "ConformingTable", "DesignResult", "DigitTable",
    "DiscreteSimulation", "DivisorSpec", "DomainError", "FragmentSet",
    "FugledeReport", "Idempotent", "IndexSet", "ModulusContext", "PivotSet",
    "SamplingPattern", "Signal", "SimulationReport", "SolutionCheck",
    "SpectralResult", "ZeroSetReport", "annihilation_check", "bracelet",
    "brute_force_solutions", "canonical_bracelet_rep", "circular_convolution",
    "compare_with_theorem", "cyclotomic", "decompose", "design_pattern", "dft",
    "digit_tables", "enumerate_solutions", "errors", "expand_zero_spec",
    "find_tiling_partners", "fourier", "from_index_set", "fuglede",
    "fuglede_report", "gcd_class", "gcd_class_exponential_sum",
    "generate_conforming", "idempotent_from_spectrum", "idft", "is_conforming",
    "is_idempotent", "is_solution", "is_spectral", "mc_star", "oracle",
    "pivot_columns", "proper_divisors", "ramanujan", "ramanujan_direct",
    "ramanujan_mobius", "ramanujan_prime_power", "required_zero_set", "reverse",
    "sampling", "simulate", "tiles", "to_index_set", "translate", "zero_set",
    "zn_core",
]  # fmt: skip


def test_exports_are_pinned():
    assert idemzeros.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(idemzeros))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from idemzeros import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(idemzeros, name), name
    from idemzeros import fourier, fuglede, zn_core

    assert namespace["zero_set"] is fourier.zero_set
    assert namespace["tiles"] is zn_core.tiles is fuglede.tiles
    with pytest.raises(AttributeError):
        idemzeros.no_such_name
