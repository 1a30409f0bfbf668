"""Command-line surface: every library operation behind one binary.

Output is machine readable (JSON lines by default, CSV on request) and
deterministic given the flags; ``sampling simulate``, the only subcommand
that draws random numbers, takes them from ``--seed``.  Domain errors print a
structured {code, message} object and exit 1; argparse usage errors exit 2.
A reader that closes stdout early ends the call quietly, with exit 1.

Each action has one handler, and each option that several actions share is
declared once, in a parent parser they list.

The exact-integer subcommands (``zeroset``, ``bracelet``, ``ramanujan eval``
and ``fuglede tiles``, ``partners`` and ``spectral``) run without numpy.
``oracle``, ``sampling`` and the ``fuglede`` actions other than ``tiles``
import their module inside the handler, after the arguments are validated;
numpy loads there for ``oracle``, ``sampling`` and ``fuglede report``.
``fuglede report`` checks its guard before it factorizes N.  The residue guard lives in
``cyclotomic``, where power residues are built, and refuses ``ramanujan eval``,
``fuglede spectral`` and ``partners`` at a too-large N before any work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .digit_tables import PivotSet, enumerate_solutions, from_index_set, is_solution
from .errors import DomainError
from .ramanujan import ramanujan_direct
from .zn_core import IndexSet, ModulusContext, bracelet, canonical_bracelet_rep, tiles


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _modulus(N: int) -> int:
    if N < 1:
        raise ValueError(f"modulus must be positive, got {N}")
    return N


def _index_set(N: int, text: str) -> IndexSet:
    """A comma list of members of Z_N, each already in [0, N)."""
    _modulus(N)
    members = _int_list(text)
    outside = [m for m in members if not 0 <= m < N]
    if outside:
        raise ValueError(f"members {outside} lie outside [0, {N})")
    return IndexSet.of(N, members)


def _k_values(text: str) -> tuple[int, ...] | range:
    """Either a comma list '0,3,7' or a nonempty inclusive range '0..128',
    kept as a range so that a long one is never held in memory."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        if lo > hi:
            raise ValueError(f"empty range {text}")
        return range(lo, hi + 1)
    return _int_list(text)


def _emit_set(s: IndexSet, fmt: str) -> None:
    if fmt == "csv":
        print(f"{s.modulus},{' '.join(map(str, s.members))}")
    else:
        print(json.dumps(s.to_json()))


def _line(obj: dict, fmt: str) -> str:
    if fmt == "csv":
        return ",".join(f"{k}={v}" for k, v in obj.items())
    return json.dumps(obj)


def _emit(obj: dict, fmt: str) -> None:
    print(_line(obj, fmt))


def _zeroset_enumerate(args) -> None:
    ctx = ModulusContext.of(args.N)
    mc = PivotSet.from_divisors(ctx, _int_list(args.divisors))
    for J in enumerate_solutions(ctx, mc, max_cardinality=args.max_size):
        # a nonempty canonical rep contains 0, so only such J can be one
        if args.bracelet_reps and J.members and (
            J.members[0] != 0 or canonical_bracelet_rep(J) != J
        ):
            continue
        _emit_set(J, args.format)


def _zeroset_check(args) -> None:
    ctx = ModulusContext.of(args.N)
    mc = PivotSet.from_divisors(ctx, _int_list(args.divisors))
    check = is_solution(ctx, _index_set(args.N, args.set), mc)
    blocks = None if check.certificate is None else [list(b.members) for b in check.certificate]
    _emit({"solution": check.ok, "certificate": blocks}, args.format)


def _zeroset_table(args) -> None:
    ctx = ModulusContext.of(args.N)
    table = from_index_set(ctx, _index_set(args.N, args.set))
    _emit({"p": table.p, "M": table.M, "rows": [list(r) for r in table.rows]}, args.format)


def _oracle_solve(args) -> None:
    mode = {"exact": "exact-zero-set", "at-least": "vanish-at-least"}[args.mode]
    zeros = _index_set(args.N, args.zeros)
    from .oracle import brute_force_solutions

    for J in brute_force_solutions(args.N, zeros, mode, args.max_size):
        _emit_set(J, args.format)


def _oracle_compare(args) -> None:
    ctx = ModulusContext.of(args.N)
    mc = PivotSet.from_divisors(ctx, _int_list(args.divisors))
    from .oracle import compare_with_theorem

    report = compare_with_theorem(ctx, mc, args.max_size)
    _emit(
        {
            "N": report.modulus,
            "oracle_count": report.oracle_count,
            "theorem_count": report.theorem_count,
            "only_oracle": [list(s.members) for s in report.only_oracle],
            "only_theorem": [list(s.members) for s in report.only_theorem],
            "passed": report.passed,
        },
        args.format,
    )


def _ramanujan_eval(args) -> None:
    for k in _k_values(args.k):
        value = ramanujan_direct(args.q, k)
        if args.format == "json":
            print(json.dumps({"q": args.q, "k": k, "value": value}))
        else:
            print(f"{args.q},{k},{value}")


def _sampling_design(args) -> None:
    fragments = _int_list(args.fragments)
    from .sampling import FragmentSet, design_pattern

    result = design_pattern(FragmentSet.of(fragments), args.N)
    h = result.idempotent.time_domain().values
    obj = {"J": list(result.pattern.offsets.members), "N": args.N, "rate": result.rate, "h": []}
    # the line that _emit prints with all of h, written isqrt(N) values at a
    # time, each chunk in the bytes that json.dumps or str gives it in the list
    head, tail = _line(obj, args.format).rsplit("[]", 1)
    dumps = json.dumps if args.format == "json" else str
    step = math.isqrt(len(h))
    sys.stdout.write(head + "[")
    for first in range(0, len(h), step):
        pairs = [[v.real, v.imag] for v in h[first : first + step]]
        sys.stdout.write((", " if first else "") + dumps(pairs)[1:-1])
    sys.stdout.write("]" + tail + "\n")


def _sampling_simulate(args) -> None:
    fragments = _int_list(args.fragments)
    from .sampling import DiscreteSimulation, FragmentSet, SamplingPattern, simulate

    F = FragmentSet.of(fragments)
    pattern = SamplingPattern(args.N, _index_set(args.N, args.J))
    report = simulate(F, pattern, DiscreteSimulation(oversampling=args.oversample, seed=args.seed))
    _emit(
        {
            "max_error": report.max_error,
            "alias_energy": {str(k): v for k, v in sorted(report.alias_energy.items())},
            "alias_free": report.alias_free,
        },
        args.format,
    )


def _fuglede_tiles(args) -> None:
    J = _index_set(args.N, args.J)
    _emit({"tiles": tiles(J, _index_set(args.N, args.K))}, args.format)


def _fuglede_partners(args) -> None:
    J = _index_set(args.N, args.J)
    from .fuglede import find_tiling_partners

    for K in find_tiling_partners(J, args.max_results):
        _emit_set(K, args.format)


def _fuglede_spectral(args) -> None:
    J = _index_set(args.N, args.J)
    from .fuglede import is_spectral

    result = is_spectral(J)
    witness = None if result.witness is None else list(result.witness.members)
    _emit({"spectral": result.spectral, "witness": witness}, args.format)


def _fuglede_report(args) -> None:
    N = _modulus(args.N)
    from .fuglede import check_report_guard, fuglede_report

    # refuse before the trial division that ModulusContext.of runs on N
    check_report_guard(N)
    report = fuglede_report(ModulusContext.of(N), args.max_size)
    _emit(
        {
            "N": report.modulus,
            "max_set_size": report.max_set_size,
            "bracelet_filtered": report.bracelet_filtered,
            "sets_checked": report.sets_checked,
            "classes": [
                {
                    "size": v.size,
                    "zero_divisors": list(v.zero_divisors),
                    "spectral": v.spectral,
                    "tiling": v.tiling,
                }
                for v in report.classes
            ],
            "disagreements": len(report.disagreements),
        },
        args.format,
    )


def _bracelet_orbit(args) -> None:
    for member in sorted(bracelet(_index_set(args.N, args.set)), key=lambda t: t.members):
        _emit_set(member, args.format)


def _bracelet_rep(args) -> None:
    _emit_set(canonical_bracelet_rep(_index_set(args.N, args.set)), args.format)


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one option shared by several actions."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    json_format, csv_format = (
        _option("--format", choices=("json", "csv"), default=default) for default in ("json", "csv")
    )
    N = _option("--N", type=int, required=True)
    divisors = _option("--divisors", default="")
    max_size = _option("--max-size", type=int, default=None)
    set_ = _option("--set", required=True)
    J = _option("--J", required=True)
    fragments = _option("--fragments", required=True)

    parser = argparse.ArgumentParser(
        prog="idemzeros",
        description="Idempotents on Z_N with prescribed zero sets.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def group(name: str, summary: str):
        actions = top.add_parser(name, help=summary).add_subparsers(dest="action", required=True)

        def action(name: str, func, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
            # the parents' options come first, in the order listed, as --help shows them
            sub = actions.add_parser(name, parents=parents)
            sub.set_defaults(func=func)
            return sub

        return action

    zeroset = group("zeroset", "digit-table enumeration and checks")
    zeroset("enumerate", _zeroset_enumerate, json_format, N, divisors, max_size).add_argument(
        "--bracelet-reps", action="store_true"
    )
    zeroset("check", _zeroset_check, json_format, N, divisors, set_)
    zeroset("table", _zeroset_table, json_format, N, set_)

    oracle = group("oracle", "exhaustive brute-force search")
    solve = oracle("solve", _oracle_solve, json_format, N)
    solve.add_argument("--zeros", default="")
    solve.add_argument("--mode", choices=("exact", "at-least"), default="at-least")
    solve.add_argument("--max-size", type=int, default=None)
    oracle("compare", _oracle_compare, json_format, N, divisors, max_size)

    ramanujan = group("ramanujan", "Ramanujan sums")
    ev = ramanujan("eval", _ramanujan_eval, csv_format)
    ev.add_argument("--q", type=int, required=True)
    ev.add_argument("--k", required=True, help="comma list or inclusive range a..b")

    sampling = group("sampling", "multicoset pattern design")
    sampling("design", _sampling_design, json_format, fragments, N)
    simulate = sampling("simulate", _sampling_simulate, json_format, fragments, N, J)
    simulate.add_argument("--oversample", type=int, default=16)
    simulate.add_argument("--seed", type=int, default=0)

    fuglede = group("fuglede", "tiling and spectral checks")
    fuglede("tiles", _fuglede_tiles, json_format, N, J).add_argument("--K", required=True)
    fuglede("partners", _fuglede_partners, json_format, N, J).add_argument(
        "--max-results", type=int, default=None
    )
    fuglede("spectral", _fuglede_spectral, json_format, N, J)
    fuglede("report", _fuglede_report, json_format, N, max_size)

    bracelets = group("bracelet", "dihedral orbits of index sets")
    bracelets("orbit", _bracelet_orbit, json_format, N, set_)
    bracelets("rep", _bracelet_rep, json_format, N, set_)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            args.func(args)
        except DomainError as exc:
            print(json.dumps({"code": exc.code, "message": str(exc)}))
            return 1
        except ValueError as exc:
            print(json.dumps({"code": "invalid-value", "message": str(exc)}))
            return 1
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the
        # interpreter's last flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
