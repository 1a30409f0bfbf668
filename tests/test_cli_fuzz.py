"""In-process fuzzing of the CLI over small arguments: every call ends with
exit 0, exit 1 and one {code, message} object, or an argparse usage error."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from idemzeros import cli

moduli = st.integers(min_value=-1, max_value=16).map(str)
member_lists = st.lists(st.integers(min_value=-2, max_value=18), max_size=5).map(
    lambda xs: ",".join(map(str, xs))
)
sizes = st.integers(min_value=-1, max_value=6).map(str)
k_values = member_lists | st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(
    lambda r: f"{r[0]}..{r[1]}"
)


@st.composite
def argvs(draw):
    N = draw(moduli)
    command = draw(
        st.sampled_from(
            [
                ["zeroset", "enumerate", "--N", N, "--divisors", draw(member_lists),
                 "--max-size", draw(sizes)],
                ["zeroset", "check", "--N", N, "--divisors", draw(member_lists),
                 "--set", draw(member_lists)],
                ["zeroset", "table", "--N", N, "--set", draw(member_lists)],
                ["oracle", "solve", "--N", N, "--zeros", draw(member_lists),
                 "--mode", draw(st.sampled_from(["exact", "at-least"])),
                 "--max-size", draw(sizes)],
                ["oracle", "compare", "--N", N, "--divisors", draw(member_lists),
                 "--max-size", draw(sizes)],
                ["ramanujan", "eval", "--q", N, "--k", draw(k_values)],
                ["sampling", "design", "--fragments", draw(member_lists), "--N", N],
                ["sampling", "simulate", "--fragments", draw(member_lists), "--N", N,
                 "--J", draw(member_lists), "--oversample", str(draw(st.integers(-2, 4)))],
                ["fuglede", "tiles", "--N", N, "--J", draw(member_lists),
                 "--K", draw(member_lists)],
                ["fuglede", "partners", "--N", N, "--J", draw(member_lists),
                 "--max-results", draw(sizes)],
                ["fuglede", "spectral", "--N", N, "--J", draw(member_lists)],
                ["fuglede", "report", "--N", N, "--max-size", draw(sizes)],
                ["bracelet", draw(st.sampled_from(["rep", "orbit"])), "--N", N,
                 "--set", draw(member_lists)],
            ]
        )
    )
    return command + draw(st.sampled_from([[], ["--format", "csv"]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
def test_cli_exit_codes(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert code in (0, 1), argv
    if code == 1:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, argv
        assert set(json.loads(lines[0])) == {"code", "message"}, argv
