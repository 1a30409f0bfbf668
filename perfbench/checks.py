"""Independent correctness checks for the benchmark's outputs.

Nothing here calls the digit-table machinery or the oracle under test.
Vanishing of root-of-unity sums at prime-power moduli is decided exactly by
the fiber rule: for q = p^k, a sum of q-th roots of unity with exponent
counts c vanishes iff c[r + t*p^(k-1)] does not depend on t, because the
minimal polynomial of w_q is sum_t x^(t*p^(k-1)).  Composite moduli (N <= 20
here) use a float DFT with a wide gap between "zero" and "nonzero".

Every check returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FLOAT_ZERO = 1e-9
FLOAT_AMBIGUOUS = 1e-6


def factor_prime_power(N: int) -> tuple[int, int] | None:
    """(p, M) with N = p^M, or None when N is not a prime power."""
    for p in range(2, N + 1):
        if N % p == 0:
            M = 0
            while N % p == 0:
                N //= p
                M += 1
            return (p, M) if N == 1 else None
    return None


def vanishes_at_level(p: int, M: int, members, l: int) -> bool:
    """Exact: does sum_j w_{p^M}^{j n} vanish for every n with v_p(n) = l < M?"""
    q = p ** (M - l)
    f = q // p
    counts = [0] * q
    for j in members:
        counts[j % q] += 1
    return all(
        len({counts[r + t * f] for t in range(p)}) == 1 for r in range(f)
    )


def _valuation(p: int, n: int) -> int:
    l = 0
    while n % p == 0:
        n //= p
        l += 1
    return l


def zero_set_exact(N: int, members) -> tuple[int, ...]:
    """Zero set of the idempotent with spectrum ``members`` on Z_N.

    Exact for prime powers (fiber rule); for other N a float DFT whose values
    must sit clearly on one side of the zero threshold.
    """
    members = tuple(members)
    if not members:
        return tuple(range(N))
    pm = factor_prime_power(N)
    if pm is not None:
        p, M = pm
        levels = [vanishes_at_level(p, M, members, l) for l in range(M)]
        return tuple(n for n in range(1, N) if levels[_valuation(p, n)])
    if N > 20:
        raise ValueError(f"float zero test is only trusted for N <= 20, got {N}")
    k = np.arange(N)
    vals = np.exp(2j * np.pi * np.outer(k, np.array(members)) / N).sum(axis=1)
    mags = np.abs(vals)
    if np.any((mags > FLOAT_ZERO) & (mags < FLOAT_AMBIGUOUS)):
        raise ValueError(f"ambiguous float zero test at N={N} for {members}")
    return tuple(int(n) for n in np.flatnonzero(mags <= FLOAT_ZERO))


def gcd_class(N: int, d: int) -> tuple[int, ...]:
    return tuple(i for i in range(N) if math.gcd(i, N) == d)


def zero_divisors(N: int, zeros) -> tuple[int, ...]:
    """Proper divisors d of N whose gcd class lies in the zero set."""
    zs = set(zeros)
    return tuple(d for d in range(1, N) if N % d == 0 and d in zs)


def tiles_by_convolution(N: int, J, K) -> bool:
    """1_J * 1_K == all-ones on Z_N, by an FFT-free circular convolution."""
    a = np.zeros(N, dtype=np.int64)
    b = np.zeros(N, dtype=np.int64)
    a[list(J)] = 1
    b[list(K)] = 1
    full = np.convolve(a, b)
    circ = full[:N].copy()
    circ[: len(full) - N] += full[N:]
    return bool(np.all(circ == 1))


def bracelet_orbit(N: int, members) -> list[tuple[int, ...]]:
    """All translates of the set and of its negation, as sorted tuples."""
    out = []
    for base in (members, [(-m) % N for m in members]):
        for k in range(N):
            out.append(tuple(sorted((m - k) % N for m in base)))
    return out


def pivot_columns(p: int, M: int, members) -> tuple[int, ...]:
    """Digit columns (1's place first) where some pair of members first differs."""
    cols = set()
    rows = [[(m // p**j) % p for j in range(M)] for m in members]
    for a, b in itertools.combinations(rows, 2):
        for j in range(M):
            if a[j] != b[j]:
                cols.add(j)
                break
    return tuple(sorted(cols))


def spectral_witness_ok(N: int, J, witness) -> bool:
    """The DFT submatrix on rows ``witness`` and columns J is sqrt(|J|)-unitary."""
    if len(witness) != len(J):
        return False
    M = np.exp(-2j * np.pi * np.outer(np.array(witness), np.array(J)) / N)
    gram = M.conj().T @ M
    return bool(np.allclose(gram, len(J) * np.eye(len(J)), atol=1e-9))


def has_difference_set(N: int, zeros, size: int) -> bool:
    """Is there a size-element set containing 0 with all differences in zeros?"""
    zs = set(zeros)
    cands = sorted(z for z in zs if z)

    def extend(chosen, pool):
        if len(chosen) == size:
            return True
        for i, v in enumerate(pool):
            if extend(chosen + [v], [u for u in pool[i + 1 :] if (u - v) % N in zs]):
                return True
        return False

    return extend([0], cands)


# -- oracle-grid -----------------------------------------------------------


def subset_masks(N: int, cap: int) -> np.ndarray:
    """Every subset of Z_N with at most ``cap`` members, as int64 bit masks."""
    if cap >= N:
        return np.arange(1 << N, dtype=np.int64)
    out = [0]
    for k in range(1, cap + 1):
        out.extend(sum(1 << i for i in c) for c in itertools.combinations(range(N), k))
    return np.array(out, dtype=np.int64)


def level_vanish_table(p: int, M: int, masks: np.ndarray) -> list[np.ndarray]:
    """For each level l < M, whether each mask's sum vanishes at v_p(n) = l."""
    N = p**M
    table = []
    for l in range(M):
        q = p ** (M - l)
        f = q // p
        residue_masks = [
            sum(1 << j for j in range(N) if j % q == e) for e in range(q)
        ]
        counts = [np.bitwise_count(masks & np.int64(rm)) for rm in residue_masks]
        ok = np.ones(len(masks), dtype=bool)
        for r in range(f):
            for t in range(1, p):
                ok &= counts[r + t * f] == counts[r]
        table.append(ok)
    return table


def check_grid_item(
    N: int,
    mc: tuple[int, ...],
    cap: int,
    report: dict,
    solutions: list[tuple[int, ...]],
    expected_masks: np.ndarray,
) -> list[str]:
    """Theorem = oracle for one (N, mc), both checked against the fiber rule.

    ``report`` holds the library comparison (passed, oracle_count,
    theorem_count, only_oracle, only_theorem); ``solutions`` is the full
    enumeration; ``expected_masks`` the benchmark's own solution set as a
    sorted mask array.
    """
    where = f"oracle-grid N={N} mc={mc}"
    problems = []
    p, _ = factor_prime_power(N)
    if not report["passed"] or report["only_oracle"] or report["only_theorem"]:
        problems.append(f"{where}: theorem and oracle differ")
    n = len(expected_masks)
    if report["oracle_count"] != n or report["theorem_count"] != n:
        problems.append(
            f"{where}: counts oracle={report['oracle_count']} "
            f"theorem={report['theorem_count']} expected={n}"
        )
    if len(solutions) != n:
        problems.append(f"{where}: enumeration has {len(solutions)} sets, expected {n}")
    if any(a >= b for a, b in zip(solutions, solutions[1:])):
        problems.append(f"{where}: enumeration not strictly lexicographic")
    block = p ** len(mc)
    for J in solutions:
        if len(J) > cap or len(J) % block:
            problems.append(f"{where}: |J|={len(J)} breaks the cap or p^|mc| law")
            break
    got = np.sort(np.array([sum(1 << j for j in J) for J in solutions], dtype=np.int64))
    if not np.array_equal(got, expected_masks):
        missing = len(np.setdiff1d(expected_masks, got))
        extra = len(np.setdiff1d(got, expected_masks))
        problems.append(f"{where}: {missing} solutions missing, {extra} extra")
    return problems


def check_zero_set_contains(N: int, J, zeros, divisors) -> list[str]:
    """The exact zero set of h_J contains every prescribed gcd class."""
    zs = set(zeros)
    for d in divisors:
        if not set(gcd_class(N, d)) <= zs:
            return [f"N={N} J={tuple(J)}: zero set misses gcd class {d}"]
    return []


# -- fuglede-sweep ---------------------------------------------------------


def class_keys(N: int, masks: np.ndarray) -> set[tuple[int, tuple[int, ...]]]:
    """(size, zero divisors) of every mask, by the fiber rule."""
    p, M = factor_prime_power(N)
    codes = np.bitwise_count(masks).astype(np.int64)
    for l, ok in enumerate(level_vanish_table(p, M, masks)):
        codes |= ok.astype(np.int64) << (8 + l)
    return {
        (int(c) & 255, tuple(p**l for l in range(M) if int(c) >> (8 + l) & 1))
        for c in np.unique(codes)
    }


def check_fuglede_report(N: int, report: dict, sample_masks, expected_keys=None) -> list[str]:
    """Class keys, representatives, verdicts, partners and witnesses.

    ``report`` has ``classes`` (dicts with size, zero_divisors, spectral,
    tiling, rep, witness, partner), ``disagreements`` and ``sets_checked``.
    Every random mask in ``sample_masks`` must fall into a reported class;
    ``expected_keys``, when given, is the complete set of class keys.
    """
    where = f"fuglede-sweep N={N}"
    problems = []
    p, M = factor_prime_power(N)
    if report["disagreements"]:
        problems.append(f"{where}: {report['disagreements']} disagreements")
    if report["sets_checked"] not in (-1, (1 << N) - 1):
        problems.append(f"{where}: sets_checked={report['sets_checked']}")
    keys = set()
    for c in report["classes"]:
        key = (c["size"], tuple(c["zero_divisors"]))
        if key in keys:
            problems.append(f"{where}: class {key} reported twice")
        keys.add(key)
        rep = c["rep"]
        zdivs = zero_divisors(N, zero_set_exact(N, rep))
        if len(rep) != c["size"] or zdivs != tuple(c["zero_divisors"]):
            problems.append(f"{where}: representative {rep} does not match class {key}")
        if c["spectral"] != c["tiling"]:
            problems.append(f"{where}: class {key} spectral={c['spectral']} tiling={c['tiling']}")
        if c["tiling"] != (c["partner"] is not None):
            problems.append(f"{where}: class {key} tiling flag without matching partner")
        if c["partner"] is not None and not tiles_by_convolution(N, rep, c["partner"]):
            problems.append(f"{where}: partner {c['partner']} does not tile {rep}")
        if c["spectral"] != (c["witness"] is not None):
            problems.append(f"{where}: class {key} spectral flag without matching witness")
        if c["witness"] is not None and not spectral_witness_ok(N, rep, c["witness"]):
            problems.append(f"{where}: witness {c['witness']} fails the Gram check")
    for mask in sample_masks:
        members = [i for i in range(N) if mask >> i & 1]
        key = (len(members), zero_divisors(N, zero_set_exact(N, members)))
        if key not in keys:
            problems.append(f"{where}: random set {members} falls in no reported class {key}")
            break
    if expected_keys is not None and keys != expected_keys:
        problems.append(
            f"{where}: {len(expected_keys - keys)} classes missing, {len(keys - expected_keys)} extra"
        )
    return problems


def check_drilldown(N: int, cls: dict, spectral: bool, partners) -> list[str]:
    """Per-class follow-up queries agree with the report and tile exactly."""
    where = f"fuglede-sweep N={N} class ({cls['size']}, {tuple(cls['zero_divisors'])})"
    problems = []
    if spectral != cls["spectral"]:
        problems.append(f"{where}: is_spectral={spectral} but report says {cls['spectral']}")
    if bool(partners) != cls["tiling"]:
        problems.append(f"{where}: partner search disagrees with the tiling flag")
    for K in partners:
        if not tiles_by_convolution(N, cls["rep"], K):
            problems.append(f"{where}: partner {K} does not tile {cls['rep']}")
    return problems


# -- query-mix -------------------------------------------------------------


def check_is_solution(N: int, mc: tuple[int, ...], J, ok: bool, certificate) -> list[str]:
    """Verdict = exact vanishing at every p^l, l in mc; certificate partitions J
    into blocks of p^|mc| members whose pivot columns are M - l - 1."""
    p, M = factor_prime_power(N)
    where = f"is_solution N={N} mc={mc} J={tuple(J)}"
    truth = all(vanishes_at_level(p, M, J, l) for l in mc)
    if ok != truth:
        return [f"{where}: verdict {ok}, exact zero set says {truth}"]
    if not ok:
        return [] if certificate is None else [f"{where}: certificate on a non-solution"]
    if certificate is None:
        return [f"{where}: no certificate"]
    flat = sorted(m for b in certificate for m in b)
    if flat != sorted(J):
        return [f"{where}: certificate does not partition J"]
    star = tuple(sorted(M - l - 1 for l in mc))
    for b in certificate:
        if len(b) != p ** len(mc) or pivot_columns(p, M, b) != star:
            return [f"{where}: certificate block {tuple(b)} is not conforming"]
    return []


def check_zero_set(N: int, J, zeros, divisors, structure_ok: bool) -> list[str]:
    want = zero_set_exact(N, J)
    if tuple(zeros) != want:
        return [f"zero_set N={N} J={tuple(J)}: got {tuple(zeros)}, expected {want}"]
    if tuple(divisors) != zero_divisors(N, want):
        return [f"zero_set N={N} J={tuple(J)}: divisor part {tuple(divisors)}"]
    if not structure_ok:
        return [f"zero_set N={N} J={tuple(J)}: structure check failed"]
    return []


def ramanujan_reference(q: int, k: int) -> int:
    """c_q(k) by multiplicativity over prime powers, each by its closed form."""
    out = 1
    n = q
    p = 2
    while n > 1:
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            if k % p ** (m - 1):
                return 0
            out *= -(p ** (m - 1)) if k % p**m else p**m - p ** (m - 1)
        p += 1
    return out


def check_ramanujan(q: int, k: int, direct: int, closed: int, mobius: int) -> list[str]:
    ref = ramanujan_reference(q, k)
    if not direct == closed == mobius == ref:
        return [f"ramanujan q={q} k={k}: direct={direct} closed={closed} mobius={mobius} ref={ref}"]
    return []


def check_spectral(N: int, J, spectral: bool, witness) -> list[str]:
    where = f"is_spectral N={N} J={tuple(J)}"
    zeros = zero_set_exact(N, J)
    if spectral:
        if witness is None or 0 not in witness:
            return [f"{where}: spectral without a witness containing 0"]
        if any((a - b) % N not in zeros for a in witness for b in witness if a != b):
            return [f"{where}: witness differences leave the zero set"]
        if not spectral_witness_ok(N, J, witness):
            return [f"{where}: witness fails the Gram check"]
        return []
    if has_difference_set(N, zeros, len(J)):
        return [f"{where}: reported non-spectral but a witness exists"]
    return []


def tiling_complements(N: int, J) -> list[tuple[int, ...]]:
    """Every K with 1_J * 1_K = all-ones, by exact cover with translates of J."""
    J = sorted(J)
    if not J or N % len(J):
        return []
    out = []

    def cover(covered: int, ks: list[int]) -> None:
        if covered == (1 << N) - 1:
            out.append(tuple(sorted(ks)))
            return
        x = ((~covered) & (covered + 1)).bit_length() - 1
        for j in J:
            k = (x - j) % N
            block = sum(1 << ((i + k) % N) for i in J)
            if not block & covered:
                cover(covered | block, ks + [k])

    cover(0, [])
    return sorted(set(out))


def check_partners(N: int, J, partners) -> list[str]:
    """The partner list is exactly the set of tiling complements, each
    re-checked by convolution."""
    where = f"find_tiling_partners N={N} J={tuple(J)}"
    for K in partners:
        if not tiles_by_convolution(N, J, K):
            return [f"{where}: partner {tuple(K)} does not tile"]
    want = tiling_complements(N, J)
    if [tuple(K) for K in partners] != want:
        return [f"{where}: {len(partners)} partners, expected {len(want)}"]
    return []


def check_design(N: int, fragments, J, max_error: float) -> list[str]:
    where = f"design N={N} F={tuple(fragments)}"
    required = {(a - b) % N for a in fragments for b in fragments if a != b}
    zeros = set(zero_set_exact(N, J))
    if not J or not required <= zeros:
        return [f"{where}: pattern {tuple(J)} does not vanish on {sorted(required)}"]
    if not max_error <= 1e-9:
        return [f"{where}: reconstruction error {max_error}"]
    return []


def check_bracelet_rep(N: int, S, rep) -> list[str]:
    want = min(bracelet_orbit(N, S)) if S else ()
    if tuple(rep) != want:
        return [f"bracelet N={N} S={tuple(S)}: rep {tuple(rep)}, expected {want}"]
    return []
