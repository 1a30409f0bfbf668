import itertools
import json
import subprocess
import sys

import pytest

from idemzeros.cli import main
from idemzeros.digit_tables import PivotSet, enumerate_solutions
from idemzeros.zn_core import ModulusContext, canonical_bracelet_rep, proper_divisors


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "idemzeros", *args],
        capture_output=True,
        text=True,
    )


def lines(proc: subprocess.CompletedProcess) -> list[str]:
    return proc.stdout.strip().splitlines()


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
    ],
)
def test_guard_refusals_are_error_objects(args, capsys, monkeypatch):
    # a simulation or root sum that passed its guard would fail here, at the
    # random draw or at the sum
    import numpy as np
    from idemzeros import ramanujan
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("simulated"))
    monkeypatch.setattr(ramanujan, "root_sum", lambda *args: pytest.fail("summed"))
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
