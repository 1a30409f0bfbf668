import importlib.util
import json
import sys
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name: str, *args: str) -> list[dict]:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *args])
    module.main()
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_sampling_sweep_through_the_oracle(monkeypatch, capsys):
    # 12 and 30 are not prime powers, so their designs come from the exhaustive
    # oracle; 30 is past its full-search guard
    records = run_script(
        monkeypatch, capsys, "sampling_sweep", "--fragments", "0,2", "0,1,3", "--periods", "8,12,30"
    )
    designs = [row for r in records for row in r.get("designs", [])]
    assert [row["N"] for row in designs] == [8, 12, 30, 8, 12, 30]
    assert not any("error" in row for row in designs)


def test_sampling_sweep_defaults(monkeypatch, capsys):
    # every default fragment set designs at every default period, composite
    # periods up to 64 included
    records = run_script(monkeypatch, capsys, "sampling_sweep")
    designs = [r for r in records if "designs" in r]
    assert [r["fragments"] for r in designs] == [[0, 2], [0, 1, 3], [0, 3, 5]]
    periods = [4, 8, 9, 12, 16, 18, 20, 24, 27, 30, 32, 36, 40, 48, 60, 64]
    for r in designs:
        feasible = [N for N in periods if N > max(r["fragments"]) + 1]
        assert [row["N"] for row in r["designs"]] == feasible
        assert not any("error" in row for row in r["designs"])


def test_fuglede_scan(monkeypatch, capsys):
    records = run_script(monkeypatch, capsys, "fuglede_scan", "--moduli", "4,8,12")
    assert [r["N"] for r in records] == [4, 8, 12]
    assert all(r["disagreements"] == 0 for r in records)
