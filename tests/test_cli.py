import argparse
import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
import time

import pytest

from idemzeros import zn_core
from idemzeros.cli import build_parser, main
from idemzeros.digit_tables import PivotSet, enumerate_solutions
from idemzeros.sampling import FragmentSet, design_pattern
from idemzeros.zn_core import ModulusContext, canonical_bracelet_rep, proper_divisors


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "idemzeros", *args],
        capture_output=True,
        text=True,
    )


def lines(proc: subprocess.CompletedProcess) -> list[str]:
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize(
    "N, digest",
    [
        (25, "71da216ef87c998a6bc8babe98ee42973f3cd630fa7d2d3739d00026f1ecf9e5"),
        (26, "f3148c13d78be099d4792e256e8edf01020608767c5a18451a684c1ea4245012"),
    ],
)
def test_fuglede_report_pinned_where_the_high_half_spans_two_limbs(N, digest, capsys):
    # the class scan's high half holds bits 16..N-1, which span two 8-bit limbs
    assert main(["fuglede", "report", "--N", str(N)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_zeroset_enumerate_pinned_across_chunks(capsys):
    # 65,536 sets in 16 chunks of the listing, each decoded by its two halves
    assert main(["zeroset", "enumerate", "--N", "16"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 << 16
    digest = "25e39a19340dbba7bd6d96f301df5ee48cbd125965bcee4df5c227979cd9a995"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_zeroset_enumerate_golden():
    proc = run_cli("zeroset", "enumerate", "--N", "4", "--divisors", "2")
    assert proc.returncode == 0
    got = [json.loads(line) for line in lines(proc)]
    assert got == [
        {"N": 4, "members": []},
        {"N": 4, "members": [0, 1]},
        {"N": 4, "members": [0, 1, 2, 3]},
        {"N": 4, "members": [0, 3]},
        {"N": 4, "members": [1, 2]},
        {"N": 4, "members": [2, 3]},
    ]


def test_zeroset_check():
    proc = run_cli("zeroset", "check", "--N", "4", "--divisors", "2", "--set", "0,1")
    assert json.loads(proc.stdout) == {"solution": True, "certificate": [[0, 1]]}
    proc = run_cli("zeroset", "check", "--N", "4", "--divisors", "2", "--set", "0,2")
    assert json.loads(proc.stdout) == {"solution": False, "certificate": None}


def test_zeroset_table_export():
    proc = run_cli("zeroset", "table", "--N", "8", "--set", "0,3")
    assert json.loads(proc.stdout) == {"p": 2, "M": 3, "rows": [[0, 0, 0], [1, 1, 0]]}


def test_oracle_solve_n6_exact_empty():
    proc = run_cli("oracle", "solve", "--N", "6", "--zeros", "2,3,4", "--mode", "exact")
    assert proc.returncode == 0
    assert lines(proc) == []


def test_ramanujan_eval_csv():
    proc = run_cli("ramanujan", "eval", "--q", "4", "--k", "0..4")
    assert lines(proc) == ["4,0,2", "4,1,0", "4,2,-2", "4,3,0", "4,4,2"]


def test_sampling_design_json():
    proc = run_cli("sampling", "design", "--fragments", "0,2", "--N", "4")
    obj = json.loads(proc.stdout)
    assert obj["J"] == [0, 1]
    assert obj["rate"] == 2
    assert abs(obj["h"][0][0] - 0.5) < 1e-12
    assert abs(obj["h"][1][0] - 0.25) < 1e-12 and abs(obj["h"][1][1] - 0.25) < 1e-12


@pytest.mark.parametrize("N", [48, 49, 50])
def test_sampling_design_streams_the_whole_line(N, capsys):
    # h goes out isqrt(N) values at a time: at N = 48 in 8 chunks of 6, at 49
    # in 7 of 7, and at 50 with one value past the last full chunk; the line is
    # the one json.dumps, or the csv join of str, gives the whole object
    result = design_pattern(FragmentSet.of([0, 1]), N)
    obj = {
        "J": list(result.pattern.offsets.members),
        "N": N,
        "rate": result.rate,
        "h": [[v.real, v.imag] for v in result.idempotent.time_domain().values],
    }
    csv = ",".join(f"{k}={v}" for k, v in obj.items())
    for fmt, line in (("json", json.dumps(obj)), ("csv", csv)):
        assert main(["sampling", "design", "--fragments", "0,1", "--N", str(N), "--format", fmt]) == 0
        assert capsys.readouterr().out == line + "\n"


def test_sampling_simulate_seeded():
    args = (
        "sampling", "simulate", "--fragments", "0,2", "--N", "4",
        "--J", "0,1", "--seed", "3", "--oversample", "8",
    )
    obj = json.loads(run_cli(*args).stdout)
    assert obj["alias_free"] is True
    assert obj["max_error"] <= 1e-9


def test_fuglede_commands():
    proc = run_cli("fuglede", "tiles", "--N", "4", "--J", "0,1", "--K", "0,2")
    assert json.loads(proc.stdout) == {"tiles": True}
    proc = run_cli("fuglede", "spectral", "--N", "4", "--J", "0,1,2")
    assert json.loads(proc.stdout) == {"spectral": False, "witness": None}
    proc = run_cli("fuglede", "partners", "--N", "4", "--J", "0,1")
    assert [json.loads(l)["members"] for l in lines(proc)] == [[0, 2], [1, 3]]
    proc = run_cli("fuglede", "report", "--N", "4")
    assert json.loads(proc.stdout)["disagreements"] == 0


def test_fuglede_spectral_prints_the_empty_witness(capsys):
    # the empty set is spectral with the empty row set, which is falsy but
    # no missing witness
    assert main(["fuglede", "spectral", "--N", "4", "--J", ""]) == 0
    assert capsys.readouterr().out == '{"spectral": true, "witness": []}\n'


def test_bracelet_commands():
    proc = run_cli("bracelet", "rep", "--N", "8", "--set", "0,5")
    assert json.loads(proc.stdout) == {"N": 8, "members": [0, 3]}
    proc = run_cli("bracelet", "orbit", "--N", "4", "--set", "0,1")
    assert len(lines(proc)) == 4


@pytest.mark.parametrize("N", [8, 9, 16])
def test_bracelet_reps_match_unfiltered_rule(N, capsys):
    # the CLI skips sets without 0; the rule it must match tests every set
    ctx = ModulusContext.of(N)
    divisors = proper_divisors(N)
    for k in range(len(divisors) + 1):
        for chosen in itertools.combinations(divisors, k):
            text = ",".join(map(str, chosen))
            assert main(["zeroset", "enumerate", "--N", str(N), "--divisors", text, "--bracelet-reps"]) == 0
            mc = PivotSet.from_divisors(ctx, chosen)
            want = [J for J in enumerate_solutions(ctx, mc) if canonical_bracelet_rep(J) == J]
            assert want[0].members == ()
            assert capsys.readouterr().out == "".join(f"{json.dumps(J.to_json())}\n" for J in want)


def test_csv_format():
    proc = run_cli("zeroset", "enumerate", "--N", "4", "--divisors", "1", "--format", "csv")
    assert lines(proc) == ["4,", "4,0 1 2 3", "4,0 2", "4,1 3"]


def test_determinism_byte_identical():
    args = ("zeroset", "enumerate", "--N", "8", "--divisors", "2,4")
    assert run_cli(*args).stdout == run_cli(*args).stdout
    args = ("sampling", "simulate", "--fragments", "0,1", "--N", "4", "--J", "0,1,2,3", "--seed", "9")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_domain_error_exit_1():
    proc = run_cli("zeroset", "enumerate", "--N", "6", "--divisors", "2")
    assert proc.returncode == 1
    obj = json.loads(proc.stdout)
    assert obj["code"] == "non-prime-power" and "message" in obj
    proc = run_cli("zeroset", "enumerate", "--N", "8", "--divisors", "3")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["code"] == "invalid-divisor"


@pytest.mark.parametrize(
    "args",
    [
        ("bracelet", "rep", "--N", "0", "--set", "1"),
        ("fuglede", "spectral", "--N", "0", "--J", "1"),
        ("oracle", "solve", "--N", "4", "--zeros", "9"),
        ("ramanujan", "eval", "--q", "4", "--k", "5..2"),
    ],
)
def test_invalid_input_is_an_error_object(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert set(json.loads(proc.stdout)) == {"code", "message"}
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("zeroset", "enumerate", "--N", "8", "--max-size", "-1"),
        ("oracle", "solve", "--N", "8", "--zeros", "4", "--max-size", "-1"),
        ("oracle", "compare", "--N", "8", "--divisors", "4", "--max-size", "-2"),
        ("fuglede", "report", "--N", "8", "--max-size", "-1"),
    ],
)
def test_negative_max_size_is_invalid(args, capsys):
    assert main(list(args)) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["code"] == "invalid-value" and ">= 0" in obj["message"]


@pytest.mark.parametrize(
    "args",
    [
        ("sampling", "simulate", "--fragments", "0", "--N", "100000", "--J", "0",
         "--oversample", "100000"),
        ("oracle", "solve", "--N", "20000", "--zeros", "1", "--max-size", "19999"),
        ("ramanujan", "eval", "--q", "1000000", "--k", "1"),
        ("fuglede", "spectral", "--N", "1000000000000", "--J", "0"),
        ("fuglede", "partners", "--N", "1000000000000", "--J", "0"),
    ],
)
def test_guard_refusals_are_error_objects(args, capsys, monkeypatch):
    # a simulation, zero set or root sum that passed its guard would fail
    # here, at the random draw, at the divisor tests or at the power residues
    import numpy as np
    from idemzeros import cyclotomic, fourier
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("simulated"))
    monkeypatch.setattr(fourier, "proper_divisors", lambda N: pytest.fail("divisors tested"))
    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", lambda N: pytest.fail("summed"))
    assert main(list(args)) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["code"] == "guard-exceeded" and obj["message"].endswith(" guard")


@pytest.mark.parametrize(
    "args",
    [
        ("sampling", "design", "--fragments", "0,2", "--N", "4", "--strategy", "oracle"),
        ("oracle", "solve", "--N", "25", "--zeros", "5", "--override-guard"),
        ("zeroset", "check", "--N", "4", "--divisors", "2", "--set", "0,1", "--seed", "3"),
    ],
)
def test_removed_flags_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_partners_max_results_bounds():
    proc = run_cli("fuglede", "partners", "--N", "8", "--J", "0", "--max-results", "0")
    assert proc.returncode == 0 and proc.stdout == ""
    proc = run_cli("fuglede", "partners", "--N", "8", "--J", "0", "--max-results", "-1")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["code"] == "invalid-value"
    assert set(json.loads(proc.stdout)) == {"code", "message"}


def test_usage_error_exit_2():
    assert run_cli("nonsense").returncode == 2
    assert run_cli("zeroset", "enumerate").returncode == 2


def test_report_guard_refuses_before_factorizing(capsys, monkeypatch):
    # 2^61 - 1 is prime, so trial division would run for minutes; the message
    # is the library's own
    from idemzeros.fuglede import fuglede_report
    from idemzeros.errors import GuardExceededError

    N = (1 << 61) - 1
    with pytest.raises(GuardExceededError) as refused:
        fuglede_report(ModulusContext(N, ((N, 1),)))
    monkeypatch.setattr(zn_core, "factorize", lambda n: pytest.fail("factorized"))
    start = time.perf_counter()
    assert main(["fuglede", "report", "--N", str(N)]) == 1
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == {
        "code": "guard-exceeded",
        "message": str(refused.value),
    }


_MERSENNE_127 = str((1 << 127) - 1)


@pytest.mark.parametrize(
    "args",
    [
        ("zeroset", "table", "--N", _MERSENNE_127, "--set", "0"),
        ("zeroset", "check", "--N", _MERSENNE_127, "--set", "0"),
        ("zeroset", "enumerate", "--N", _MERSENNE_127),
        ("oracle", "compare", "--N", _MERSENNE_127),
        ("sampling", "design", "--fragments", "0,2", "--N", _MERSENNE_127),
    ],
)
def test_large_prime_modulus_is_refused_at_once(args, capsys):
    # 2^127 - 1 is prime: trial division to its square root would never end
    start = time.perf_counter()
    assert main(list(args)) == 1
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == {
        "code": "guard-exceeded",
        "message": f"N={_MERSENNE_127}: factorizing needs trial divisors past the factor guard 1048576",
    }


def test_zeroset_at_twelve_hundred_digits(capsys):
    # the digit split goes one level per pivot, not one per digit column
    N, half = 1 << 1200, 1 << 1199
    assert main(["zeroset", "check", "--N", str(N), "--divisors", "1", "--set", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"solution": False, "certificate": None}
    assert main(["zeroset", "check", "--N", str(N), "--divisors", "1", "--set", f"0,{half}"]) == 0
    assert json.loads(capsys.readouterr().out) == {"solution": True, "certificate": [[0, half]]}
    assert main(["zeroset", "table", "--N", str(N), "--set", f"3,{half}"]) == 0
    rows = [[0] * 1199 + [1], [1, 1] + [0] * 1198]
    assert json.loads(capsys.readouterr().out) == {"p": 2, "M": 1200, "rows": rows}


def test_long_bracelet_orbit_is_refused(capsys):
    assert main(["bracelet", "orbit", "--N", "200000", "--set", "0"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "code": "guard-exceeded",
        "message": "N=200000: the bracelet orbit holds up to 400000 sets of 200000 bits, "
        "past the enumeration guard 33554432 bits",
    }


class _FirstLines(io.StringIO):
    """A stdout that stops the caller once it holds ``count`` lines."""

    class Enough(Exception):
        pass

    def __init__(self, count: int):
        super().__init__()
        self.count = count

    def write(self, text: str) -> int:
        written = super().write(text)
        if self.getvalue().count("\n") >= self.count:
            raise self.Enough
        return written


@pytest.mark.parametrize(
    "fmt, first",
    [("csv", ["4,0,2", "4,1,0", "4,2,-2"]), ("json", ['{"q": 4, "k": 0, "value": 2}'])],
)
def test_ramanujan_range_streams(fmt, first):
    # 10^15 + 1 values of k: the range must not be built before the first line
    out = _FirstLines(len(first))
    with contextlib.redirect_stdout(out), pytest.raises(_FirstLines.Enough):
        main(["ramanujan", "eval", "--q", "4", "--k", "0..1000000000000000", "--format", fmt])
    assert out.getvalue().splitlines() == first


@pytest.mark.parametrize(
    "argv",
    [
        ("ramanujan", "eval", "--q", "4", "--k", "0..1000000000000000"),
        ("zeroset", "enumerate", "--N", "27", "--max-size", "5"),
    ],
)
def test_closed_stdout_ends_quietly(argv):
    # the reader takes two lines and closes the pipe: exit 1, no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "idemzeros", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() and proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=5) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


# (group, action) -> its options in --help order, each with
# (default, required, choices, type); -h is left out, and type None reads a string
STR, INT = None, int
FORMAT = ("json", False, ("json", "csv"), STR)
N_OPT = ("--N", (None, True, None, INT))
OPTIONS = {
    ("zeroset", "enumerate"): [
        ("--format", FORMAT), N_OPT, ("--divisors", ("", False, None, STR)),
        ("--max-size", (None, False, None, INT)), ("--bracelet-reps", (False, False, None, STR)),
    ],
    ("zeroset", "check"): [
        ("--format", FORMAT), N_OPT, ("--divisors", ("", False, None, STR)),
        ("--set", (None, True, None, STR)),
    ],
    ("zeroset", "table"): [("--format", FORMAT), N_OPT, ("--set", (None, True, None, STR))],
    ("oracle", "solve"): [
        ("--format", FORMAT), N_OPT, ("--zeros", ("", False, None, STR)),
        ("--mode", ("at-least", False, ("exact", "at-least"), STR)),
        ("--max-size", (None, False, None, INT)),
    ],
    ("oracle", "compare"): [
        ("--format", FORMAT), N_OPT, ("--divisors", ("", False, None, STR)),
        ("--max-size", (None, False, None, INT)),
    ],
    ("ramanujan", "eval"): [
        ("--format", ("csv", False, ("json", "csv"), STR)),
        ("--q", (None, True, None, INT)), ("--k", (None, True, None, STR)),
    ],
    ("sampling", "design"): [
        ("--format", FORMAT), ("--fragments", (None, True, None, STR)), N_OPT,
    ],
    ("sampling", "simulate"): [
        ("--format", FORMAT), ("--fragments", (None, True, None, STR)), N_OPT,
        ("--J", (None, True, None, STR)), ("--oversample", (16, False, None, INT)),
        ("--seed", (0, False, None, INT)),
    ],
    ("fuglede", "tiles"): [
        ("--format", FORMAT), N_OPT, ("--J", (None, True, None, STR)),
        ("--K", (None, True, None, STR)),
    ],
    ("fuglede", "partners"): [
        ("--format", FORMAT), N_OPT, ("--J", (None, True, None, STR)),
        ("--max-results", (None, False, None, INT)),
    ],
    ("fuglede", "spectral"): [("--format", FORMAT), N_OPT, ("--J", (None, True, None, STR))],
    ("fuglede", "report"): [
        ("--format", FORMAT), N_OPT, ("--max-size", (None, False, None, INT)),
    ],
    ("bracelet", "orbit"): [("--format", FORMAT), N_OPT, ("--set", (None, True, None, STR))],
    ("bracelet", "rep"): [("--format", FORMAT), N_OPT, ("--set", (None, True, None, STR))],
}  # fmt: skip


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_subcommand_options_are_pinned():
    got = {}
    for group, group_parser in _subcommands(build_parser()).items():
        for action, parser in _subcommands(group_parser).items():
            got[group, action] = [
                (a.option_strings[-1], (a.default, a.required, a.choices, a.type))
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            ]
    assert got == OPTIONS
