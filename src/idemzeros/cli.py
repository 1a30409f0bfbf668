"""Command-line surface: every library operation behind one binary.

Output is machine readable (JSON lines by default, CSV on request) and
deterministic given the flags; ``sampling simulate``, the only subcommand
that draws random numbers, takes them from ``--seed``.  Domain errors print a
structured {code, message} object and exit 1; argparse usage errors exit 2.

The exact-integer subcommands (``zeroset``, ``bracelet``, ``ramanujan eval``
and ``fuglede tiles``) run without numpy.  ``oracle``, ``sampling`` and the
other ``fuglede`` actions import their module inside the handler, after the
arguments are validated, so that is when numpy loads.
"""

from __future__ import annotations

import argparse
import json
import sys

from .digit_tables import PivotSet, enumerate_solutions, from_index_set, is_solution
from .errors import DomainError
from .ramanujan import ramanujan_direct
from .zn_core import (
    IndexSet,
    ModulusContext,
    bracelet,
    canonical_bracelet_rep,
    tiles,
)


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _index_set(N: int, text: str) -> IndexSet:
    """A comma list of members of Z_N, each already in [0, N)."""
    if N < 1:
        raise ValueError(f"modulus must be positive, got {N}")
    members = _int_list(text)
    outside = [m for m in members if not 0 <= m < N]
    if outside:
        raise ValueError(f"members {outside} lie outside [0, {N})")
    return IndexSet.of(N, members)


def _k_values(text: str) -> tuple[int, ...]:
    """Either a comma list '0,3,7' or a nonempty inclusive range '0..128'."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        if lo > hi:
            raise ValueError(f"empty range {text}")
        return tuple(range(lo, hi + 1))
    return _int_list(text)


def _emit_set(s: IndexSet, fmt: str) -> None:
    if fmt == "csv":
        print(f"{s.modulus},{' '.join(map(str, s.members))}")
    else:
        print(json.dumps(s.to_json()))


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(f"{k}={v}" for k, v in obj.items()))
    else:
        print(json.dumps(obj))


def _cmd_zeroset(args) -> int:
    ctx = ModulusContext.of(args.N)
    if args.action == "enumerate":
        mc = PivotSet.from_divisors(ctx, _int_list(args.divisors))
        for J in enumerate_solutions(ctx, mc, max_cardinality=args.max_size):
            # a nonempty canonical rep contains 0, so only such J can be one
            if args.bracelet_reps and J.members and (
                J.members[0] != 0 or canonical_bracelet_rep(J) != J
            ):
                continue
            _emit_set(J, args.format)
        return 0
    if args.action == "check":
        mc = PivotSet.from_divisors(ctx, _int_list(args.divisors))
        J = _index_set(args.N, args.set)
        check = is_solution(ctx, J, mc)
        _emit(
            {
                "solution": check.ok,
                "certificate": (
                    [list(b.members) for b in check.certificate]
                    if check.certificate is not None
                    else None
                ),
            },
            args.format,
        )
        return 0
    table = from_index_set(ctx, _index_set(args.N, args.set))
    _emit({"p": table.p, "M": table.M, "rows": [list(r) for r in table.rows]}, args.format)
    return 0


def _cmd_oracle(args) -> int:
    if args.action == "solve":
        mode = {"exact": "exact-zero-set", "at-least": "vanish-at-least"}[args.mode]
        zeros = _index_set(args.N, args.zeros)
        from .oracle import brute_force_solutions

        for J in brute_force_solutions(args.N, zeros, mode, args.max_size):
            _emit_set(J, args.format)
        return 0
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
    return 0


def _cmd_ramanujan(args) -> int:
    for k in _k_values(args.k):
        value = ramanujan_direct(args.q, k)
        if args.format == "json":
            print(json.dumps({"q": args.q, "k": k, "value": value}))
        else:
            print(f"{args.q},{k},{value}")
    return 0


def _cmd_sampling(args) -> int:
    fragments = _int_list(args.fragments)
    from .sampling import (
        DiscreteSimulation,
        FragmentSet,
        SamplingPattern,
        design_pattern,
        simulate,
    )

    F = FragmentSet.of(fragments)
    if args.action == "design":
        result = design_pattern(F, args.N)
        h = result.idempotent.time_domain().values
        _emit(
            {
                "J": list(result.pattern.offsets.members),
                "N": args.N,
                "rate": result.rate,
                "h": [[v.real, v.imag] for v in h],
            },
            args.format,
        )
        return 0
    pattern = SamplingPattern(args.N, _index_set(args.N, args.J))
    sim = DiscreteSimulation(oversampling=args.oversample, seed=args.seed)
    report = simulate(F, pattern, sim)
    _emit(
        {
            "max_error": report.max_error,
            "alias_energy": {str(k): v for k, v in sorted(report.alias_energy.items())},
            "alias_free": report.alias_free,
        },
        args.format,
    )
    return 0


def _cmd_fuglede(args) -> int:
    if args.action == "tiles":
        J = _index_set(args.N, args.J)
        K = _index_set(args.N, args.K)
        _emit({"tiles": tiles(J, K)}, args.format)
        return 0
    if args.action == "partners":
        J = _index_set(args.N, args.J)
        from .fuglede import find_tiling_partners

        for K in find_tiling_partners(J, args.max_results):
            _emit_set(K, args.format)
        return 0
    if args.action == "spectral":
        J = _index_set(args.N, args.J)
        from .fuglede import is_spectral

        result = is_spectral(J)
        _emit(
            {
                "spectral": result.spectral,
                "witness": list(result.witness.members) if result.witness else None,
            },
            args.format,
        )
        return 0
    ctx = ModulusContext.of(args.N)
    from .fuglede import fuglede_report

    report = fuglede_report(ctx, args.max_size)
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
    return 0


def _cmd_bracelet(args) -> int:
    s = _index_set(args.N, args.set)
    if args.action == "rep":
        _emit_set(canonical_bracelet_rep(s), args.format)
        return 0
    for member in sorted(bracelet(s), key=lambda t: t.members):
        _emit_set(member, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    def _common(default_format: str = "json") -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        return p

    common = _common()

    parser = argparse.ArgumentParser(
        prog="idemzeros",
        description="Idempotents on Z_N with prescribed zero sets.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    zs = top.add_parser("zeroset", help="digit-table enumeration and checks").add_subparsers(
        dest="action", required=True
    )
    enum = zs.add_parser("enumerate", parents=[common])
    enum.add_argument("--N", type=int, required=True)
    enum.add_argument("--divisors", default="")
    enum.add_argument("--max-size", type=int, default=None)
    enum.add_argument("--bracelet-reps", action="store_true")
    enum.set_defaults(func=_cmd_zeroset)
    check = zs.add_parser("check", parents=[common])
    check.add_argument("--N", type=int, required=True)
    check.add_argument("--divisors", default="")
    check.add_argument("--set", required=True)
    check.set_defaults(func=_cmd_zeroset)
    table = zs.add_parser("table", parents=[common])
    table.add_argument("--N", type=int, required=True)
    table.add_argument("--set", required=True)
    table.set_defaults(func=_cmd_zeroset)

    orc = top.add_parser("oracle", help="exhaustive brute-force search").add_subparsers(
        dest="action", required=True
    )
    solve = orc.add_parser("solve", parents=[common])
    solve.add_argument("--N", type=int, required=True)
    solve.add_argument("--zeros", default="")
    solve.add_argument("--mode", choices=("exact", "at-least"), default="at-least")
    solve.add_argument("--max-size", type=int, default=None)
    solve.set_defaults(func=_cmd_oracle)
    cmp_ = orc.add_parser("compare", parents=[common])
    cmp_.add_argument("--N", type=int, required=True)
    cmp_.add_argument("--divisors", default="")
    cmp_.add_argument("--max-size", type=int, default=None)
    cmp_.set_defaults(func=_cmd_oracle)

    ram = top.add_parser("ramanujan", help="Ramanujan sums").add_subparsers(
        dest="action", required=True
    )
    ev = ram.add_parser("eval", parents=[_common(default_format="csv")])
    ev.add_argument("--q", type=int, required=True)
    ev.add_argument("--k", required=True, help="comma list or inclusive range a..b")
    ev.set_defaults(func=_cmd_ramanujan)

    smp = top.add_parser("sampling", help="multicoset pattern design").add_subparsers(
        dest="action", required=True
    )
    des = smp.add_parser("design", parents=[common])
    des.add_argument("--fragments", required=True)
    des.add_argument("--N", type=int, required=True)
    des.set_defaults(func=_cmd_sampling)
    simp = smp.add_parser("simulate", parents=[common])
    simp.add_argument("--fragments", required=True)
    simp.add_argument("--N", type=int, required=True)
    simp.add_argument("--J", required=True)
    simp.add_argument("--oversample", type=int, default=16)
    simp.add_argument("--seed", type=int, default=0)
    simp.set_defaults(func=_cmd_sampling)

    fug = top.add_parser("fuglede", help="tiling and spectral checks").add_subparsers(
        dest="action", required=True
    )
    til = fug.add_parser("tiles", parents=[common])
    til.add_argument("--N", type=int, required=True)
    til.add_argument("--J", required=True)
    til.add_argument("--K", required=True)
    til.set_defaults(func=_cmd_fuglede)
    par = fug.add_parser("partners", parents=[common])
    par.add_argument("--N", type=int, required=True)
    par.add_argument("--J", required=True)
    par.add_argument("--max-results", type=int, default=None)
    par.set_defaults(func=_cmd_fuglede)
    spc = fug.add_parser("spectral", parents=[common])
    spc.add_argument("--N", type=int, required=True)
    spc.add_argument("--J", required=True)
    spc.set_defaults(func=_cmd_fuglede)
    rep = fug.add_parser("report", parents=[common])
    rep.add_argument("--N", type=int, required=True)
    rep.add_argument("--max-size", type=int, default=None)
    rep.set_defaults(func=_cmd_fuglede)

    brc = top.add_parser("bracelet", help="dihedral orbits of index sets").add_subparsers(
        dest="action", required=True
    )
    orb = brc.add_parser("orbit", parents=[common])
    orb.add_argument("--N", type=int, required=True)
    orb.add_argument("--set", required=True)
    orb.set_defaults(func=_cmd_bracelet)
    crep = brc.add_parser("rep", parents=[common])
    crep.add_argument("--N", type=int, required=True)
    crep.add_argument("--set", required=True)
    crep.set_defaults(func=_cmd_bracelet)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(json.dumps({"code": exc.code, "message": str(exc)}))
        return 1
    except ValueError as exc:
        print(json.dumps({"code": "invalid-value", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
