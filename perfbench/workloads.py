"""The three workloads: inputs made from the seed, the timed library calls,
the CLI calls, and the checks run on every output.

Each workload object runs inside a worker process that imported ``idemzeros``
from the checkout.  Library calls go through module attributes at call time,
so the wrappers of a traced run see them.  Checks run outside the timed
calls, with tracing off.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import math
import random
import resource
import subprocess
import sys
import time

import numpy as np

import checks
from tracing import subsets_up_to

import idemzeros.cyclotomic  # noqa: F401  (imported so every layer is loaded)
import idemzeros.digit_tables as digit_tables
import idemzeros.fourier as fourier
import idemzeros.fuglede as fuglede
import idemzeros.oracle as oracle
import idemzeros.ramanujan as ramanujan
import idemzeros.sampling as sampling
import idemzeros.zn_core as zn_core

# Seconds a CLI call may take; the two calls that currently never end are
# stopped at this limit and counted as failed.
CLI_TIMEOUT_S = 60.0
UNBOUNDED_TIMEOUT_S = 1.5
SOLUTION_SAMPLE = 4  # solutions per grid item whose exact zero set is checked

PRIME_POWERS = tuple(n for n in range(2, 129) if checks.factor_prime_power(n))
COMPOSITES = tuple(n for n in range(2, 21) if not checks.factor_prime_power(n))
MODULI = PRIME_POWERS + COMPOSITES
GRID = {4: None, 8: None, 9: None, 16: None, 25: 6, 27: 6}
FUGLEDE_MODULI = (4, 8, 9, 16, 23)
MAX_BLOCKS = 1000  # is_solution inputs whose conforming-block list stays small


def n_blocks(p: int, M: int, cols: tuple[int, ...]) -> int:
    """Number of conforming tables over Z_{p^M} with pivot columns ``cols``."""
    if not cols:
        return p**M
    l = cols[0]
    return p**l * n_blocks(p, M - l - 1, tuple(c - l - 1 for c in cols[1:])) ** p


def pivot_subsets(M: int):
    for r in range(M + 1):
        yield from itertools.combinations(range(M), r)


def divisor_arg(N: int, mc) -> str:
    p, _ = checks.factor_prime_power(N)
    return ",".join(str(p**l) for l in mc)


def csv_ints(xs) -> str:
    return ",".join(map(str, xs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recorder:
    """Latencies, CLI results, problems and failures of one worker."""

    def __init__(self, tracer, traced: bool, env: dict):
        self.tracer = tracer
        self.traced = traced
        self.env = env
        self.latencies: list[tuple[str, float, bool]] = []  # (key, seconds, repeat)
        self.cli_s: list[list] = []  # [key, seconds or None when the call failed]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._pending: list[tuple] = []

    def op(self, fn, *args, key: str, repeat=False, **kwargs):
        """One timed library call; the result must be fully materialised.

        ``key`` names the call: repeated executions of one call share it, and
        the metrics use each key's best time.  ``repeat`` marks an extra
        execution inside a pass, with the process's caches already warm;
        ``sweep_s`` leaves those out.
        """
        tr = self.tracer
        tr.op = len(self.latencies)
        tr.active = self.traced
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            tr.active = False
            self.latencies.append((key, t1 - t0, repeat))
            self.attempted += 1

    def cli(self, args, validate, timeout=CLI_TIMEOUT_S, known_fault=False, key=None) -> None:
        """One ``idemzeros`` subprocess, timed from spawn to exit.  ``key``
        names the call as for ``op``; by default calls are numbered in order,
        which names them alike in every pass of a batch workload.

        ``validate(rc, stdout, stderr)`` returns problem strings; it runs in
        ``settle``, after the timed work, because it may call the library.
        """
        self.attempted += 1
        cmd = [sys.executable, "-m", "idemzeros", *map(str, args)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            proc = None
        seconds = time.perf_counter() - t0
        self.cli_s.append([f"cli{len(self.cli_s)}" if key is None else key, seconds])
        self._pending.append((len(self.cli_s) - 1, args, proc, validate, known_fault))

    def settle(self) -> None:
        """Validate the CLI calls made so far.

        A known fault that still misbehaves, or any other call that times out
        or exits non-zero, counts as failed and leaves no latency sample
        (None).  Output that differs from the library's answer is a
        correctness problem.
        """
        for idx, args, proc, validate, known_fault in self._pending:
            problems = ["no result within the time limit"] if proc is None else (
                validate(proc.returncode, proc.stdout, proc.stderr)
            )
            if known_fault:
                failed = bool(problems)
            else:
                failed = proc is None or proc.returncode != 0
                if failed:
                    detail = problems if proc is None else proc.stderr[-300:]
                    print(f"cli {args} failed: {detail}", file=sys.stderr)
                else:
                    self.problems.extend(f"cli {args}: {p}" for p in problems)
            if failed:
                self.failed += 1
                self.cli_s[idx][1] = None
        self._pending.clear()

    def result(self, **extra) -> dict:
        return {
            "latencies": self.latencies,
            "cli_s": self.cli_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "n_problems": len(self.problems),
            "peak_rss_mb": peak_rss_mb(),
            **extra,
        }


# -- CLI validation helpers ------------------------------------------------


def json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def expect_lines(expected):
    """Validator: stdout is exactly these JSON objects, one per line.
    ``expected`` is the list, or a function computing it from the library."""

    def validate(rc, stdout, stderr):
        want = expected() if callable(expected) else expected
        try:
            got = json_lines(stdout)
        except json.JSONDecodeError:
            return [f"unparsable output {stdout[:200]!r}"]
        return [] if got == want else [f"output {got[:3]} != library {want[:3]}"]

    return validate


def set_lines(sets, N) -> list:
    return [{"N": N, "members": list(s)} for s in sets]


def error_object(rc, stdout, stderr) -> list:
    """Exit 1 with a {code, message} object on stdout and no traceback."""
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if rc != 1:
        return [f"exit {rc}, expected 1"]
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON object"]
    if not isinstance(obj, dict) or set(obj) != {"code", "message"}:
        return [f"error object {obj!r}"]
    return []


# A non-solution (residue counts mod 3 are 20, 21, 19) whose cover search does
# not end; a solution would be decided in about 1.7 s.
FAULT_SET_243 = tuple(sorted(random.Random(1).sample(range(243), 60)))


def check_243(rc, stdout, stderr) -> list:
    """The guarded error, or the correct verdict for divisor 81 = 3^4."""
    if rc != 0:
        return error_object(rc, stdout, stderr)
    try:
        obj = json.loads(stdout)
        return checks.check_is_solution(243, (4,), FAULT_SET_243, obj["solution"], obj["certificate"])
    except (json.JSONDecodeError, KeyError, TypeError):
        return ["unparsable verdict"]


# Calls that currently fail every time; inputs do not depend on the seed.
FAULT_CALLS = (
    (("bracelet", "rep", "--N", "0", "--set", "1"), error_object, CLI_TIMEOUT_S),
    (("fuglede", "spectral", "--N", "0", "--J", "1"), error_object, CLI_TIMEOUT_S),
    (("oracle", "solve", "--N", "4", "--zeros", "9"), error_object, CLI_TIMEOUT_S),
    (("ramanujan", "eval", "--q", "4", "--k", "5..2"), error_object, CLI_TIMEOUT_S),
    (("zeroset", "enumerate", "--N", "32"), error_object, UNBOUNDED_TIMEOUT_S),
    (
        ("zeroset", "check", "--N", "243", "--divisors", "81", "--set", csv_ints(FAULT_SET_243)),
        check_243,
        UNBOUNDED_TIMEOUT_S,
    ),
)


# -- library answers in the CLI's output shape -----------------------------


def lib_enumerate(N, mc):
    ctx = zn_core.ModulusContext.of(N)
    sols = digit_tables.enumerate_solutions(ctx, digit_tables.PivotSet.of(mc))
    return set_lines((J.members for J in sols), N)


def lib_compare(N, mc):
    ctx = zn_core.ModulusContext.of(N)
    rep = oracle.compare_with_theorem(ctx, digit_tables.PivotSet.of(mc), None)
    return [
        {
            "N": rep.modulus,
            "oracle_count": rep.oracle_count,
            "theorem_count": rep.theorem_count,
            "only_oracle": [list(s.members) for s in rep.only_oracle],
            "only_theorem": [list(s.members) for s in rep.only_theorem],
            "passed": rep.passed,
        }
    ]


def lib_report(N):
    rep = fuglede.fuglede_report(zn_core.ModulusContext.of(N))
    return [
        {
            "N": rep.modulus,
            "max_set_size": rep.max_set_size,
            "bracelet_filtered": rep.bracelet_filtered,
            "sets_checked": rep.sets_checked,
            "classes": [
                {
                    "size": v.size,
                    "zero_divisors": list(v.zero_divisors),
                    "spectral": v.spectral,
                    "tiling": v.tiling,
                }
                for v in rep.classes
            ],
            "disagreements": len(rep.disagreements),
        }
    ]


def lib_spectral(N, J):
    res = fuglede.is_spectral(zn_core.IndexSet.of(N, J))
    return [{"spectral": res.spectral, "witness": list(res.witness.members) if res.witness else None}]


def lib_partners(N, J, max_results):
    Ks = fuglede.find_tiling_partners(zn_core.IndexSet.of(N, J), max_results)
    return set_lines((K.members for K in Ks), N)


def lib_tiles(N, J, K):
    return [{"tiles": fuglede.tiles(zn_core.IndexSet.of(N, J), zn_core.IndexSet.of(N, K))}]


# -- seeded inputs ---------------------------------------------------------


def random_set(rng: random.Random, N: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(N), rng.randint(lo, min(hi, N)))))


def digit_tile(rng: random.Random, N: int) -> tuple[int, ...]:
    """A translate of {sum_s d_s p^s : s in S} for random digit positions S;
    such a set tiles Z_N with the digits outside S."""
    p, M = checks.factor_prime_power(N)
    S = [s for s in range(M) if rng.random() < 0.5] or [rng.randrange(M)]
    a = rng.randrange(N)
    return tuple(
        sorted((a + sum(d * p**s for d, s in zip(ds, S))) % N
               for ds in itertools.product(range(p), repeat=len(S)))
    )


def solution_candidate(rng: random.Random, N: int, mc) -> tuple[int, tuple, tuple[int, ...]]:
    """A disjoint union of translates of the product set for mc (a solution),
    with one member moved half of the time."""
    p, M = checks.factor_prime_power(N)
    block = [
        sum(d * p ** (M - l - 1) for d, l in zip(ds, mc))
        for ds in itertools.product(range(p), repeat=len(mc))
    ]
    J: set[int] = set()
    for _ in range(rng.randint(1, max(1, min(4, N // len(block))))):
        for _attempt in range(8):
            a = rng.randrange(N)
            b = {(a + x) % N for x in block}
            if not b & J:
                J |= b
                break
    if rng.random() < 0.5 and len(J) < N:
        J.remove(rng.choice(sorted(J)))
        J.add(rng.choice(sorted(set(range(N)) - J)))
    return N, mc, tuple(sorted(J))


def fragments(rng: random.Random) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(4), rng.choice((2, 3)))))


# -- passes ----------------------------------------------------------------


def digest(obj) -> str:
    """Stable fingerprint of a pass's outputs, compared across passes."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def spread(jobs: list, weights: list[float]) -> dict[int, list]:
    """Assign jobs to slots (after call i) evenly by cumulative weight, an
    estimate of elapsed time, so that CLI calls are sampled across the whole
    pass rather than in one burst."""
    total = sum(weights)
    out: dict[int, list] = {}
    acc, slot = 0.0, 0
    for k, job in enumerate(jobs):
        target = total * (k + 1) / (len(jobs) + 1)
        while slot < len(weights) - 1 and acc + weights[slot] < target:
            acc += weights[slot]
            slot += 1
        out.setdefault(slot, []).append(job)
    return out


# -- oracle-grid -----------------------------------------------------------


class OracleGrid:
    """compare_with_theorem and a full enumerate_solutions on the criterion-2 grid.

    Every pass makes the same calls in the same order; the parent takes each
    call's best time over the passes.  Pass 0 checks every output; later
    passes must reproduce its digest.
    """

    tail_pct = 88  # 88 calls per pass: 10.6 beyond p88
    REPEATS = 6
    CLI_REPEATS = 3

    def __init__(self, seed: int, pass_index: int):
        self.seed = seed
        self.full_checks = pass_index == 0
        self.check_rng = random.Random(f"oracle-grid/{seed}/checks")
        self.items = [
            (N, mc, N if cap is None else cap, cap)
            for N, cap in GRID.items()
            for mc in pivot_subsets(checks.factor_prime_power(N)[1])
        ]

    def prepare(self) -> None:
        pass

    def expected(self, N: int, mc, cap: int, universe: dict) -> np.ndarray:
        """The benchmark's own solution masks for (N, mc) up to ``cap``."""
        if N not in universe:
            p, M = checks.factor_prime_power(N)
            masks = checks.subset_masks(N, cap)
            universe[N] = (masks, checks.level_vanish_table(p, M, masks))
        masks, levels = universe[N]
        keep = np.ones(len(masks), dtype=bool)
        for l in mc:
            keep &= levels[l]
        return np.sort(masks[keep])

    def cli_jobs(self) -> list:
        """Two ``oracle compare`` and two ``zeroset enumerate`` calls on
        seeded grid items with N <= 9, validated against the library; each
        runs CLI_REPEATS times per pass, so that its best time is sampled
        across the pass."""
        rng = random.Random(f"oracle-grid/{self.seed}/cli")
        small = [(N, mc) for N, mc, _, _ in self.items if N <= 9]
        jobs = [
            (["oracle", "compare", "--N", N, "--divisors", divisor_arg(N, mc)],
             expect_lines(lambda N=N, mc=mc: lib_compare(N, mc)), f"compare {N} {mc}")
            for N, mc in rng.sample(small, 2)
        ]
        jobs += [
            (["zeroset", "enumerate", "--N", N, "--divisors", divisor_arg(N, mc)],
             expect_lines(lambda N=N, mc=mc: lib_enumerate(N, mc)), f"enumerate {N} {mc}")
            for N, mc in rng.sample(small, 2)
        ]
        return jobs * self.CLI_REPEATS

    def calls(self, rec: Recorder, N: int, mc, cap_arg, repeat: bool = False):
        ctx = zn_core.ModulusContext.of(N)
        pivots = digit_tables.PivotSet.of(mc)
        rep = rec.op(oracle.compare_with_theorem, ctx, pivots, max_cardinality=cap_arg,
                     key=f"compare {N} {mc}", repeat=repeat)
        sols = rec.op(
            lambda: [
                J.members
                for J in digit_tables.enumerate_solutions(ctx, pivots, max_cardinality=cap_arg)
            ],
            key=f"enumerate {N} {mc}",
            repeat=repeat,
        )
        return rep, sols

    def run(self, rec: Recorder) -> dict:
        # Subsets searched is a fair proxy for each item's time.
        weights = [subsets_up_to(N, cap) for N, _, cap, _ in self.items]
        jobs = spread(self.cli_jobs(), weights)
        # The light items (N <= 9, and N = 16 with |mc| >= 2) take milliseconds
        # and hold the median call; they run again, warm, at REPEATS points
        # spread over the pass, so that their best times are sampled in time.
        light = [it for it in self.items if it[0] <= 9 or (it[0] == 16 and len(it[1]) >= 2)]
        repeats = spread(list(range(self.REPEATS)), weights)
        universe: dict = {}
        outputs = []
        for i, (N, mc, cap, cap_arg) in enumerate(self.items):
            rep, sols = self.calls(rec, N, mc, cap_arg)
            summary = {
                "passed": rep.passed,
                "oracle_count": rep.oracle_count,
                "theorem_count": rep.theorem_count,
                "only_oracle": len(rep.only_oracle),
                "only_theorem": len(rep.only_theorem),
            }
            outputs.append((N, mc, summary, digest(sols)))
            if self.full_checks:
                rec.problems += checks.check_grid_item(
                    N, mc, cap, summary, sols, self.expected(N, mc, cap, universe)
                )
                p, _ = checks.factor_prime_power(N)
                divisors = [p**l for l in mc]
                for J in self.check_rng.sample(sols, min(SOLUTION_SAMPLE, len(sols))):
                    z = fourier.zero_set(fourier.idempotent_from_spectrum(zn_core.IndexSet(N, J)))
                    rec.problems += checks.check_zero_set_contains(N, J, z.zero_set.members, divisors)
            del sols
            for args, validate, key in jobs.get(i, ()):
                rec.cli(args, validate, key=key)
            for _ in repeats.get(i, ()):
                for N2, mc2, _, cap2 in light:
                    self.calls(rec, N2, mc2, cap2, repeat=True)
        rec.settle()
        return rec.result(digest=digest(outputs))


# -- fuglede-sweep ---------------------------------------------------------


def report_call(ctx):
    """fuglede_report through its current signature; moduli above 20 need the
    bracelet filter while the signature still has it."""
    kwargs = {}
    if ctx.N > 20 and "bracelet_filter" in inspect.signature(fuglede.fuglede_report).parameters:
        kwargs["bracelet_filter"] = True
    return fuglede.fuglede_report(ctx, **kwargs)


class FugledeSweep:
    """fuglede_report per modulus, then is_spectral and one tiling partner
    for each class representative.  Passes as in OracleGrid."""

    tail_pct = 95  # 5 reports + 2 x 114 classes = 233 calls per pass: 11.7 beyond p95

    def __init__(self, seed: int, pass_index: int):
        self.full_checks = pass_index == 0
        self.check_rng = random.Random(f"fuglede-sweep/{seed}/checks")
        self.cli_rng = random.Random(f"fuglede-sweep/{seed}/cli")

    def prepare(self) -> None:
        pass

    def drill(self, rec: Recorder, N: int, cls: dict, repeat: bool = False):
        """The two follow-up queries on one class representative."""
        J = zn_core.IndexSet(N, cls["rep"])
        key = f"{N}/{cls['size']}/{cls['zero_divisors']}"
        spectral = rec.op(fuglede.is_spectral, J, key=f"spectral {key}", repeat=repeat)
        partners = rec.op(
            lambda: [K.members for K in fuglede.find_tiling_partners(J, 1)],
            key=f"partners {key}",
            repeat=repeat,
        )
        return spectral.spectral, partners

    def run(self, rec: Recorder) -> dict:
        drill_N = self.cli_rng.choice(FUGLEDE_MODULI)
        outputs, all_classes = [], []
        for N in FUGLEDE_MODULI:
            ctx = zn_core.ModulusContext.of(N)
            rep = rec.op(report_call, ctx, key=f"report {N}")
            classes = [
                {
                    "size": v.size,
                    "zero_divisors": tuple(v.zero_divisors),
                    "spectral": v.spectral,
                    "tiling": v.tiling,
                    "rep": v.representative.members,
                    "witness": v.witness.members if v.witness is not None else None,
                    "partner": v.partner.members if v.partner is not None else None,
                }
                for v in rep.classes
            ]
            all_classes += [(N, cls) for cls in classes]
            for cls in classes:
                spectral, partners = self.drill(rec, N, cls)
                outputs.append((N, cls, spectral, partners))
                if self.full_checks:
                    rec.problems += checks.check_drilldown(N, cls, spectral, partners)
            report = {
                "classes": classes,
                "disagreements": len(rep.disagreements),
                "sets_checked": rep.sets_checked,
            }
            outputs.append((N, report["disagreements"], report["sets_checked"]))
            if self.full_checks:
                sample = [self.check_rng.randrange(1, 1 << N) for _ in range(200)]
                keys = None
                if N <= 16:
                    keys = checks.class_keys(N, np.arange(1, 1 << N, dtype=np.int64))
                rec.problems += checks.check_fuglede_report(N, report, sample, keys)
            if N <= 9:
                rec.cli(["fuglede", "report", "--N", N], expect_lines(lambda N=N: lib_report(N)))
        # The drill-down queries take milliseconds in all; repeating them
        # around the last CLI calls gives each one several samples in time.
        for args, validate in self.drill_cli_jobs(drill_N, [c for n, c in all_classes if n == drill_N]):
            for N, cls in all_classes:
                self.drill(rec, N, cls, repeat=True)
            rec.cli(args, validate)
        for N, cls in all_classes:
            self.drill(rec, N, cls, repeat=True)
        rec.settle()
        return rec.result(digest=digest(outputs))

    def drill_cli_jobs(self, N: int, classes: list) -> list:
        """``fuglede spectral``, ``partners`` and ``tiles`` on seeded classes
        of one seeded modulus."""
        J = self.cli_rng.choice(classes)["rep"]
        tiling = self.cli_rng.choice([c for c in classes if c["tiling"]])
        T, K = tiling["rep"], tiling["partner"]
        return [
            (["fuglede", "spectral", "--N", N, "--J", csv_ints(J)],
             expect_lines(lambda: lib_spectral(N, J))),
            (["fuglede", "partners", "--N", N, "--J", csv_ints(J), "--max-results", 2],
             expect_lines(lambda: lib_partners(N, J, 2))),
            (["fuglede", "tiles", "--N", N, "--J", csv_ints(T), "--K", csv_ints(K)],
             expect_lines(lambda: lib_tiles(N, T, K))),
        ]


# -- query-mix -------------------------------------------------------------


SOLUTION_PAIRS = tuple(
    (N, mc)
    for N in PRIME_POWERS
    for mc in pivot_subsets(checks.factor_prime_power(N)[1])
    if n_blocks(
        checks.factor_prime_power(N)[0],
        checks.factor_prime_power(N)[1],
        tuple(sorted(checks.factor_prime_power(N)[1] - l - 1 for l in mc)),
    )
    <= MAX_BLOCKS
)
SPECTRAL_MODULI = tuple(n for n in PRIME_POWERS if 4 <= n <= 32)
# Above 16 a small J has a huge partner search (N = 27, |J| = 3: 0.3 s), which
# would make the stream's total depend on the seed.
PARTNER_MODULI = tuple(n for n in PRIME_POWERS if 4 <= n <= 16)
DESIGN_MODULI = tuple(sorted(n for n in MODULI if 4 <= n <= 16))
FRAGMENT_SETS = tuple(
    F for r in (2, 3) for F in itertools.combinations(range(4), r)
)
DESIGN_PAIRS = tuple((F, N) for F in FRAGMENT_SETS for N in DESIGN_MODULI if N > max(F) + 1)


class QueryMix:
    """A seeded stream of small library queries plus one CLI call per
    subcommand and the known-fault calls.  A pass is one warm worker running
    one round; every pass runs the same round, and pass 0 checks its outputs."""

    tail_pct = 99  # QUERIES_PER_ROUND best-of-passes latencies: 30 beyond p99
    QUERIES_PER_ROUND = 3000

    def __init__(self, seed: int, pass_index: int):
        self.full_checks = pass_index == 0
        self.rng = random.Random(f"query-mix/{seed}")

    def prepare(self) -> None:
        """Warm-up pass over the same moduli and inputs shapes as the stream."""
        for N in MODULI:
            fourier.zero_set(fourier.idempotent_from_spectrum(zn_core.IndexSet.of(N, [0, 1])))
            ramanujan.ramanujan_direct(N, 1)
            zn_core.canonical_bracelet_rep(zn_core.IndexSet.of(N, [0, 1]))
        for N, mc in SOLUTION_PAIRS:
            ctx = zn_core.ModulusContext.of(N)
            digit_tables.is_solution(ctx, zn_core.IndexSet.of(N, [0]), digit_tables.PivotSet.of(mc))
        for N in SPECTRAL_MODULI:
            fuglede.is_spectral(zn_core.IndexSet.of(N, [0, 1]))
        for N in PARTNER_MODULI:
            list(fuglede.find_tiling_partners(zn_core.IndexSet.of(N, [0])))
        for F, N in DESIGN_PAIRS:
            sampling.design_pattern(sampling.FragmentSet.of(F), N)

    # Each generator returns (call, check) where check(result) -> problems.
    # The i-th query of a kind takes the i-th modulus (or pair) of that kind's
    # list, cyclically, so every round holds the same number of queries per
    # modulus and its cost does not swing with the seed; the seed draws the
    # sets, fragments and arguments.

    def q_is_solution(self, rng, i):
        N, mc, J = solution_candidate(rng, *SOLUTION_PAIRS[i % len(SOLUTION_PAIRS)])
        ctx, Jset, piv = zn_core.ModulusContext.of(N), zn_core.IndexSet(N, J), digit_tables.PivotSet.of(mc)

        def check(res):
            cert = None if res.certificate is None else [b.members for b in res.certificate]
            return checks.check_is_solution(N, mc, J, res.ok, cert)

        return (lambda: digit_tables.is_solution(ctx, Jset, piv)), check

    def q_zero_set(self, rng, i):
        N = MODULI[i % len(MODULI)]
        J = random_set(rng, N, 1, 12)
        Jset = zn_core.IndexSet(N, J)

        def check(res):
            return checks.check_zero_set(
                N, J, res.zero_set.members, res.zero_divisors.divisors, res.structure_ok
            )

        return (lambda: fourier.zero_set(fourier.idempotent_from_spectrum(Jset))), check

    def q_ramanujan(self, rng, i):
        q = MODULI[i % len(MODULI)]
        k = rng.randrange(10**6)

        def check(value):
            closed = math.prod(
                ramanujan.ramanujan_prime_power(p, m, k) for p, m in zn_core.factorize(q)
            )
            return checks.check_ramanujan(q, k, value, closed, ramanujan.ramanujan_mobius(q, k))

        return (lambda: ramanujan.ramanujan_direct(q, k)), check

    def q_spectral(self, rng, i):
        N = SPECTRAL_MODULI[i % len(SPECTRAL_MODULI)]
        J = random_set(rng, N, 1, 4)
        Jset = zn_core.IndexSet(N, J)

        def check(res):
            w = res.witness.members if res.witness is not None else None
            return checks.check_spectral(N, J, res.spectral, w)

        return (lambda: fuglede.is_spectral(Jset)), check

    def q_partners(self, rng, i):
        N = PARTNER_MODULI[i % len(PARTNER_MODULI)]
        sizes = [d for d in range(2, N) if N % d == 0]
        if rng.random() < 0.5 or not sizes:
            J = digit_tile(rng, N)
        else:
            J = tuple(sorted(rng.sample(range(N), rng.choice(sizes))))
        Jset = zn_core.IndexSet(N, J)
        return (
            (lambda: [K.members for K in fuglede.find_tiling_partners(Jset)]),
            lambda Ks: checks.check_partners(N, J, Ks),
        )

    def q_design(self, rng, i):
        F, N = DESIGN_PAIRS[i % len(DESIGN_PAIRS)]
        sim_seed = rng.randrange(1 << 16)
        Fset = sampling.FragmentSet.of(F)

        def call():
            design = sampling.design_pattern(Fset, N)
            sim = sampling.simulate(Fset, design.pattern, sampling.DiscreteSimulation(8, sim_seed))
            return design, sim

        def check(res):
            design, sim = res
            return checks.check_design(N, F, design.pattern.offsets.members, sim.max_error)

        return call, check

    def q_bracelet(self, rng, i):
        N = MODULI[i % len(MODULI)]
        S = random_set(rng, N, 1, 8)
        Sset = zn_core.IndexSet(N, S)
        return (
            (lambda: zn_core.canonical_bracelet_rep(Sset)),
            lambda rep: checks.check_bracelet_rep(N, S, rep.members),
        )

    def cli_calls(self, rng):
        """One call per subcommand, each with its validator."""
        calls = []
        N = rng.choice((4, 8, 9))
        mc = rng.choice(list(pivot_subsets(checks.factor_prime_power(N)[1])))
        calls.append((["zeroset", "enumerate", "--N", N, "--divisors", divisor_arg(N, mc)],
                      expect_lines(lib_enumerate(N, mc))))
        N, mc, J = solution_candidate(rng, *rng.choice([pm for pm in SOLUTION_PAIRS if pm[0] <= 27]))
        res = digit_tables.is_solution(
            zn_core.ModulusContext.of(N), zn_core.IndexSet(N, J), digit_tables.PivotSet.of(mc)
        )
        cert = None if res.certificate is None else [list(b.members) for b in res.certificate]
        calls.append((["zeroset", "check", "--N", N, "--divisors", divisor_arg(N, mc), "--set", csv_ints(J)],
                      expect_lines([{"solution": res.ok, "certificate": cert}])))
        N = rng.choice(PARTNER_MODULI)
        J = random_set(rng, N, 1, 8)
        t = digit_tables.from_index_set(zn_core.ModulusContext.of(N), zn_core.IndexSet(N, J))
        calls.append((["zeroset", "table", "--N", N, "--set", csv_ints(J)],
                      expect_lines([{"p": t.p, "M": t.M, "rows": [list(r) for r in t.rows]}])))
        N = rng.choice((6, 8, 9, 10, 12))
        divs = [d for d in range(1, N) if N % d == 0 and rng.random() < 0.5] or [1]
        zeros = sorted(z for d in divs for z in checks.gcd_class(N, d))
        mode = rng.choice(("exact", "at-least"))
        sols = oracle.brute_force_solutions(
            N, zn_core.IndexSet(N, zeros), {"exact": "exact-zero-set", "at-least": "vanish-at-least"}[mode]
        )
        calls.append((["oracle", "solve", "--N", N, "--zeros", csv_ints(zeros), "--mode", mode],
                      expect_lines(set_lines((J.members for J in sols), N))))
        N = rng.choice((4, 8, 9))
        mc = rng.choice(list(pivot_subsets(checks.factor_prime_power(N)[1])))
        calls.append((["oracle", "compare", "--N", N, "--divisors", divisor_arg(N, mc)],
                      expect_lines(lib_compare(N, mc))))
        q, a = rng.choice(MODULI), rng.randrange(200)
        want = "".join(f"{q},{k},{ramanujan.ramanujan_direct(q, k)}\n" for k in range(a, a + 6))
        calls.append((["ramanujan", "eval", "--q", q, "--k", f"{a}..{a + 5}"],
                      lambda rc, out, err, want=want: [] if out == want else [f"csv {out!r}"]))
        F = fragments(rng)
        N = rng.choice([n for n in DESIGN_MODULI if n > max(F) + 1])
        d = sampling.design_pattern(sampling.FragmentSet.of(F), N)
        h = d.idempotent.time_domain().values
        calls.append((["sampling", "design", "--fragments", csv_ints(F), "--N", N],
                      expect_lines([{"J": list(d.pattern.offsets.members), "N": N, "rate": d.rate,
                                     "h": [[v.real, v.imag] for v in h]}])))
        J = d.pattern.offsets.members if rng.random() < 0.5 else random_set(rng, N, 1, N)
        seed = rng.randrange(1000)
        sim = sampling.simulate(sampling.FragmentSet.of(F), sampling.SamplingPattern(N, zn_core.IndexSet(N, J)),
                                sampling.DiscreteSimulation(oversampling=8, seed=seed))
        calls.append((["sampling", "simulate", "--fragments", csv_ints(F), "--N", N, "--J", csv_ints(J),
                       "--seed", seed, "--oversample", 8],
                      expect_lines([{"max_error": sim.max_error,
                                     "alias_energy": {str(k): v for k, v in sorted(sim.alias_energy.items())},
                                     "alias_free": sim.alias_free}])))
        N = rng.choice(PARTNER_MODULI)
        J = digit_tile(rng, N)
        comps = checks.tiling_complements(N, J)
        K = rng.choice(comps) if comps and rng.random() < 0.5 else random_set(rng, N, 1, N // 2)
        calls.append((["fuglede", "tiles", "--N", N, "--J", csv_ints(J), "--K", csv_ints(K)],
                      expect_lines(lib_tiles(N, J, K))))
        N = rng.choice([n for n in PARTNER_MODULI if n <= 16])
        J = digit_tile(rng, N)
        calls.append((["fuglede", "partners", "--N", N, "--J", csv_ints(J), "--max-results", 3],
                      expect_lines(lib_partners(N, J, 3))))
        N = rng.choice(SPECTRAL_MODULI)
        J = random_set(rng, N, 1, 4)
        calls.append((["fuglede", "spectral", "--N", N, "--J", csv_ints(J)], expect_lines(lib_spectral(N, J))))
        N = rng.choice((4, 8, 9))
        calls.append((["fuglede", "report", "--N", N], expect_lines(lib_report(N))))
        N = rng.choice([n for n in MODULI if n <= 20])
        S = zn_core.IndexSet(N, random_set(rng, N, 1, 6))
        orbit = sorted(zn_core.bracelet(S), key=lambda t: t.members)
        calls.append((["bracelet", "orbit", "--N", N, "--set", csv_ints(S.members)],
                      expect_lines(set_lines((t.members for t in orbit), N))))
        N = rng.choice(MODULI)
        S = zn_core.IndexSet(N, random_set(rng, N, 1, 8))
        rep = zn_core.canonical_bracelet_rep(S)
        calls.append((["bracelet", "rep", "--N", N, "--set", csv_ints(S.members)],
                      expect_lines(set_lines([rep.members], N))))
        return calls

    def run(self, rec: Recorder) -> dict:
        """One round: the queries in a seeded order, with the CLI calls spread
        evenly among them."""
        kinds = (
            self.q_is_solution,
            self.q_zero_set,
            self.q_ramanujan,
            self.q_spectral,
            self.q_partners,
            self.q_design,
            self.q_bracelet,
        )
        queries = [kinds[j % len(kinds)](self.rng, j // len(kinds)) for j in range(self.QUERIES_PER_ROUND)]
        self.rng.shuffle(queries)
        calls = [(args, validate, CLI_TIMEOUT_S, False) for args, validate in self.cli_calls(self.rng)]
        calls += [(args, validate, timeout, True) for args, validate, timeout in FAULT_CALLS]
        jobs = spread(list(enumerate(calls)), [1.0] * len(queries))
        results = []
        for i, (call, _check) in enumerate(queries):
            results.append(rec.op(call, key=f"q{i}"))
            for k, (args, validate, timeout, known_fault) in jobs.get(i, ()):
                rec.cli(args, validate, timeout=timeout, known_fault=known_fault, key=f"c{k}")
        rec.settle()
        if self.full_checks:
            for (_call, check), res in zip(queries, results):
                rec.problems += check(res)
        return rec.result(digest=digest(results))


WORKLOADS = {"oracle-grid": OracleGrid, "fuglede-sweep": FugledeSweep, "query-mix": QueryMix}
