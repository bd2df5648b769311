"""Machine checks for every stated bound, identity, and conjecture.

Single-n checks evaluate one integer exactly, through the same integer
predicates the range scans apply to each kernel row; scan_* functions sweep
ranges and return ScanReports. A report that comes back "verified" is
bounded evidence for the scanned range only, never a proof, and its notes
say so in fixed wording.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .core import (
    Factorization,
    HypothesisViolation,
    Inapplicable,
    _rank_row,
    divisor_list_of,
    is_prime,
    next_prime_above,
    primes_upto,
    rank_sums,
)
from .scanner import CHUNK_SIZE_DEFAULT, register_task, run_scan
from .sigma import is_perfect_square, k_ratio, parity_sums_int, profile

BOUNDED_EVIDENCE = (
    "bounded evidence only: exhaustive scan of the stated range; "
    "no claim is made beyond it"
)

PAIRING_ALPHA_GRID = (-2, -1, 0, 1, 2, 3)


@dataclass
class ScanReport:
    """Outcome of one range check: verified, violated, or inapplicable.

    `applicable` counts what the check tested:
    - upper-bound, sigma-bounds: the non-squares n in [2, hi];
    - lower-bound: the perfect squares n in [4, hi];
    - pairing: the n with prime integer k and tau(n) <= 8;
    - conjecture-1: the n >= 2 with integer k;
    - conjecture-2: the n with prime integer k;
    - conjecture-3: the distinct k classes among n = 1 and the squares, not
      the n checked (314 classes for the 316 such n up to 10^5). A class held
      by several n is one violation whose `n` is its second member; the full
      member list appears only in the `actual` text;
    - multiplier: the samples drawn;
    - prime-power-distinct, unit-fraction: the prime powers p^a, a even, in [4, hi].
    """

    check: str
    lo: int
    hi: int
    status: str
    violations: list[dict] = field(default_factory=list)
    elapsed_ms: int = 0
    config: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    applicable: int = 0


def _finish(check, lo, hi, violations, applicable, config, notes, t0) -> ScanReport:
    if applicable == 0:
        status = "inapplicable"
    elif violations:
        status = "violated"
    else:
        status = "verified"
    return ScanReport(
        check=check,
        lo=lo,
        hi=hi,
        status=status,
        violations=violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        config=config,
        notes=[*notes, BOUNDED_EVIDENCE],
        applicable=applicable,
    )


# ---------------------------------------------------------------------------
# single-n checks


def _upper_bound_holds(d2, se, so):
    """k < d_2 + 1/d_2, cross-multiplied."""
    return se * d2 < so * (d2 * d2 + 1)


def _lower_bound_verdict(d2, se, so):
    """(k >= d_2/(d_2^2 + 1), k = d_2/(d_2^2 + 1)), cross-multiplied."""
    lhs = se * (d2 * d2 + 1)
    rhs = so * d2
    return lhs >= rhs, lhs == rhs


_CHAIN_CLAUSES = ("sigma_e_lower", "sigma_e_upper", "reciprocal_lower", "reciprocal_upper",
                  "combined_lower", "combined_upper")
_TAU_CLAUSES = {2: ("prime_case",), 4: ("tau4_bullet",), 6: ("tau6_bullet",)}


def _sigma_bounds_holds(n, tau, se, so):
    """The bound chain at a non-square n, each clause cross-multiplied, in the
    order of _CHAIN_CLAUSES and then _TAU_CLAUSES[tau]. A tuple, not a dict:
    range scans test every n and build the dict only when a clause fails.

    Exact for the Fraction statement: so = n sigma_{e,-1}, because with tau
    even n/d_i = d_{tau+1-i} maps even ranks onto odd ones.
    """
    low = tau - 2 + n  # sigma_e >= low
    high4 = (tau + 2) * n  # 4 sigma_e <= high4
    rec4 = (tau - 2) * n + 4  # 1/sigma_{e,-1} >= 4n/rec4
    holds = (
        low <= se,  # sigma_e_lower
        4 * se <= high4,  # sigma_e_upper
        4 * so <= rec4,  # reciprocal_lower
        so >= tau - 1,  # reciprocal_upper
        4 * low * so <= rec4 * se,  # combined_lower
        4 * (tau - 1) * se <= high4 * so,  # combined_upper
    )
    if tau == 2:  # prime_case: k = n
        return holds + (se == n * so,)
    if tau == 4:  # tau4_bullet: 2 <= k <= n/4
        return holds + (2 * so <= se and 4 * se <= n * so,)
    if tau == 6:  # tau6_bullet: (n+4)/(n+1) <= k <= 2n/5
        return holds + ((n + 4) * so <= (n + 1) * se and 5 * se <= 2 * n * so,)
    return holds


def _sigma_bounds_clauses(n, tau, se, so):
    names = _CHAIN_CLAUSES + _TAU_CLAUSES.get(tau, ())
    return dict(zip(names, _sigma_bounds_holds(n, tau, se, so)))


def check_upper_bound(n: int) -> bool:
    """k(n) < d_2 + 1/d_2 for non-square n >= 2, compared exactly."""
    if n < 2 or is_perfect_square(n):
        raise Inapplicable(f"upper bound is stated for non-squares >= 2, got {n}")
    _, _, d2, se, so, _ = _rank_row(divisor_list_of(n))
    return _upper_bound_holds(d2, se, so)


@dataclass(frozen=True)
class LowerBoundResult:
    """Bound outcome for a perfect square, with the equality case called out."""

    n: int
    holds: bool
    equality: bool

    def __bool__(self) -> bool:
        return self.holds


def check_lower_bound(n: int) -> LowerBoundResult:
    """k(n) >= d_2/(d_2^2 + 1) for perfect squares n >= 4; equality iff n = p^2."""
    if n < 4 or not is_perfect_square(n):
        raise Inapplicable(f"lower bound is stated for perfect squares >= 4, got {n}")
    _, _, d2, se, so, _ = _rank_row(divisor_list_of(n))
    return LowerBoundResult(n, *_lower_bound_verdict(d2, se, so))


@dataclass(frozen=True)
class SigmaBoundsResult:
    """Per-clause outcomes for the sigma_e / reciprocal / combined bound chain.

    The tau = 4 clause "2 <= k <= n/4" is advisory: it fails at n = 6, so it
    is reported but never folded into core_ok.
    """

    n: int
    tau: int
    clauses: dict[str, bool]

    @property
    def core_ok(self) -> bool:
        return all(ok for name, ok in self.clauses.items() if name != "tau4_bullet")

    def __bool__(self) -> bool:
        return self.core_ok


def check_sigma_bounds(n: int) -> SigmaBoundsResult:
    """Exact evaluation of the bound chain on sigma_e, 1/sigma_{e,-1}, and k."""
    if n < 2 or is_perfect_square(n):
        raise Inapplicable(f"sigma bounds are stated for non-squares >= 2, got {n}")
    _, tau, _, se, so, _ = _rank_row(divisor_list_of(n))
    return SigmaBoundsResult(n, tau, _sigma_bounds_clauses(n, tau, se, so))


def check_multiplier(n: int, p: int, a: int) -> bool:
    """k(n * p^a) = k(n) when p is prime, p > n, and tau(n) is even.

    n = 1 is inapplicable: k(1) = 0 is degenerate (no even-rank divisors to
    scale), and indeed k(p^a) = p != 0. Perfect squares are inapplicable too:
    with tau(n) odd the appended divisor blocks alternate rank parity, and
    the identity genuinely fails (e.g. k(9*11) = 113/43 != k(9) = 3/10).
    """
    if n == 1:
        raise Inapplicable("n = 1 has k = 0; the multiplier identity needs n >= 2")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if is_perfect_square(n):
        raise Inapplicable(
            f"the multiplier identity needs tau(n) even; {n} is a perfect square"
        )
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p <= n:
        raise HypothesisViolation(f"multiplier hypothesis needs p > n, got p={p} <= n={n}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    return k_ratio(n * p**a) == k_ratio(n)


def check_multiplier_chain(n: int, m_factorization: Factorization) -> bool:
    """k(n*m) = k(n) under the chained hypothesis base < p_i at every step."""
    if n == 1:
        raise Inapplicable("n = 1 has k = 0; the multiplier identity needs n >= 2")
    if is_perfect_square(n):
        raise Inapplicable(
            f"the multiplier identity needs tau(n) even; {n} is a perfect square"
        )
    base = n
    ok = True
    for i, (p, e) in enumerate(m_factorization.factors, start=1):
        if p <= base:
            raise HypothesisViolation(
                f"chain hypothesis fails at step {i}: prime {p} <= accumulated {base}",
                index=i,
            )
        ok = check_multiplier(base, p, e) and ok
        base *= p**e
    return ok and k_ratio(n * m_factorization.n) == k_ratio(n)


def check_upper_bound_optimality(p: int, q_list: list[int]) -> bool:
    """k(p^2 q) = p + (q - p^3)/(pq + p^2 + 1) for primes q > p^2, the sequence
    strictly increasing and below p + 1/p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    ks = []
    for q in q_list:
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        if q <= p * p:
            raise ValueError(f"optimality remark needs q > p^2, got q={q} <= {p * p}")
        expected = p + Fraction(q - p**3, p * q + p * p + 1)
        if k_ratio(p * p * q) != expected:
            return False
        ks.append(expected)
    limit = p + Fraction(1, p)
    increasing = all(a < b for a, b in zip(ks, ks[1:]))
    below = all(k < limit for k in ks)
    return increasing and below


def check_pairing(n: int) -> bool:
    """For prime-integer k = p and tau(n) <= 8: d_{2j} = p d_{2j-1} for all j,
    and sigma_{e,a}(n) = p^a sigma_{o,a}(n) exactly for a in -2..3."""
    _, tau, d2, se, so, paired = _rank_row(divisor_list_of(n))
    k = Fraction(se, so)
    if k.denominator != 1 or not is_prime(k.numerator):
        raise Inapplicable(f"pairing is stated for prime integer k, got k({n}) = {k}")
    if tau > 8:
        raise Inapplicable(f"pairing theorem covers tau <= 8, got tau({n}) = {tau}")
    p = k.numerator
    if not (paired and p == d2):  # d_2j = p d_2j-1 for all j, j = 1 included
        return False
    for alpha in PAIRING_ALPHA_GRID:
        sums = parity_sums_int(n, alpha)
        if sums.sigma_e != Fraction(p) ** alpha * sums.sigma_o:
            return False
    return True


def extend_with_prime(n: int, q: int) -> int:
    """Extend a prime-k, tau = 6 number by a prime q > n; returns qn after
    verifying tau(qn) = 12, the rank pairing, and the exact divisor interleaving
    [d_1..d_6, q d_1..q d_6]."""
    prof = profile(n)
    if prof.tau != 6:
        raise Inapplicable(f"extension needs tau(n) = 6, got tau({n}) = {prof.tau}")
    k = prof.k
    if k.denominator != 1 or not is_prime(k.numerator):
        raise Inapplicable(f"extension needs prime integer k, got k({n}) = {k}")
    if not is_prime(q):
        raise HypothesisViolation(f"q must be prime, got {q}")
    if q <= n:
        raise HypothesisViolation(f"extension needs q > n, got q={q} <= n={n}")
    p = k.numerator
    qn = q * n
    divs = divisor_list_of(qn)
    expected = list(prof.divisors) + [q * d for d in prof.divisors]
    if len(divs) != 12 or divs != expected:
        raise ArithmeticError(f"divisors of {qn} do not interleave as expected")
    if any(divs[i + 1] != p * divs[i] for i in range(0, 12, 2)):
        raise ArithmeticError(f"rank pairing fails on {qn}")
    return qn


def check_unit_fraction_gap(p: int, l: int) -> bool:
    """k(p^l) = (p^{l+1} - p)/(p^{l+2} - 1) for even l, trapped in
    [p/(p^2+1), 1/p) and never a unit fraction."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if l < 2 or l % 2:
        raise ValueError(f"l must be even and >= 2, got {l}")
    k = k_ratio(p**l)
    formula = Fraction(p ** (l + 1) - p, p ** (l + 2) - 1)
    floor_bound = Fraction(p, p * p + 1)
    return (
        k == formula
        and floor_bound <= k < Fraction(1, p)
        and Fraction(1, p + 1) < floor_bound
        and k.numerator > 1
    )


# ---------------------------------------------------------------------------
# chunk tasks for the range scanners


def _upper_bound_chunk(lo, hi, params):
    violations = []
    applicable = 0
    for n, tau, d2, se, so, paired in rank_sums(range(max(lo, 2), hi + 1)):
        if tau % 2:  # tau is odd exactly for perfect squares
            continue
        applicable += 1
        if not _upper_bound_holds(d2, se, so):
            violations.append({
                "n": n,
                "expected": f"k < {d2}+1/{d2}",
                "actual": f"k={se}/{so}",
            })
    return {"violations": violations, "applicable": applicable}


def _squares(lo, hi):
    """The perfect squares in [lo, hi], ascending."""
    return (r * r for r in range(isqrt(lo - 1) + 1, isqrt(hi) + 1))


def _lower_bound_chunk(lo, hi, params):
    violations = []
    applicable = 0
    for n, tau, d2, se, so, paired in rank_sums(_squares(max(lo, 4), hi)):
        applicable += 1
        holds, equality = _lower_bound_verdict(d2, se, so)
        if not holds:
            violations.append({
                "n": n,
                "expected": f"k >= {d2}/{d2 * d2 + 1}",
                "actual": f"k={se}/{so}",
            })
        elif equality != (tau == 3):
            why = "equality" if equality else "strict inequality"
            violations.append({
                "n": n,
                "expected": "equality exactly when n is a prime squared",
                "actual": f"{why} with tau={tau}",
            })
    return {"violations": violations, "applicable": applicable}


def _sigma_bounds_chunk(lo, hi, params):
    violations = []
    tau4_failures = []
    applicable = 0
    for n, tau, d2, se, so, paired in rank_sums(range(max(lo, 2), hi + 1)):
        if tau % 2:  # tau is odd exactly for perfect squares
            continue
        applicable += 1
        if all(_sigma_bounds_holds(n, tau, se, so)):
            continue
        clauses = _sigma_bounds_clauses(n, tau, se, so)
        bad = [name for name, ok in clauses.items() if not ok and name != "tau4_bullet"]
        if bad:
            violations.append({
                "n": n,
                "expected": "bound chain holds",
                "actual": "failed clauses: " + ",".join(bad),
            })
        if not clauses.get("tau4_bullet", True):
            tau4_failures.append(n)
    return {"violations": violations, "applicable": applicable, "tau4_failures": tau4_failures}


def _pairing_chunk(lo, hi, params):
    violations = []
    applicable = 0
    tau_cap = params.get("tau_cap")
    for n, tau, d2, se, so, paired in rank_sums(range(max(lo, 2), hi + 1)):
        if se % so:
            continue
        p = se // so
        # d_2 is prime, so trial division runs only for conjecture-1 counterexamples
        if p < 2 or not (p == d2 or is_prime(p)):
            continue
        if tau_cap is not None and tau > tau_cap:
            continue
        applicable += 1
        if not (paired and p == d2):  # d_2j = p d_2j-1 for all j, j = 1 included
            violations.append({
                "n": n,
                "expected": f"d_2j = {p} d_2j-1 for all j",
                "actual": f"divisors {divisor_list_of(n)}",
            })
        # no power-identity grid: with the divisors paired as (d, p d), sigma_e,a =
        # p^a sigma_o,a holds term by term for every a (check_pairing still evaluates it)
    return {"violations": violations, "applicable": applicable}


def _conjecture1_chunk(lo, hi, params):
    violations = []
    applicable = 0
    for n, tau, d2, se, so, paired in rank_sums(range(max(lo, 2), hi + 1)):
        if se % so:
            continue
        applicable += 1
        k = se // so
        if k != d2:
            violations.append({
                "n": n, "expected": f"k = d_2 = {d2}", "actual": f"k={k}",
            })
        if n % 2 == 0 and k != 2:
            violations.append({
                "n": n, "expected": "even index ratio numbers have k = 2", "actual": f"k={k}",
            })
        if n % 2 and tau % 4 == 2 and n % 3 == 0 and k != 3:
            violations.append({
                "n": n,
                "expected": "odd n with tau = 2 mod 4 and 3 | n has k = 3",
                "actual": f"k={k}",
            })
    return {"violations": violations, "applicable": applicable}


def _conjecture3_chunk(lo, hi, params):
    # domain: n = 1 and the perfect squares, the only integers with k < 1
    seen: dict[str, list[int]] = {}
    for n, tau, d2, se, so, paired in rank_sums(_squares(lo, hi)):
        g = gcd(se, so)
        seen.setdefault(f"{se // g}/{so // g}", []).append(n)
    return {"seen": seen}


_TALLY = {"violations": [], "applicable": 0}
register_task("upper_bound", _upper_bound_chunk, _TALLY)
register_task("lower_bound", _lower_bound_chunk, _TALLY)
register_task("sigma_bounds", _sigma_bounds_chunk, {**_TALLY, "tau4_failures": []})
register_task("pairing", _pairing_chunk, _TALLY)
register_task("conjecture1", _conjecture1_chunk, _TALLY)
register_task("conjecture3", _conjecture3_chunk, {"seen": {}})
register_task("conjecture2", _pairing_chunk, _TALLY)  # the pairing sweep with no tau cap


# ---------------------------------------------------------------------------
# range scanners


def _scan_violations(check, task, limit, params, workers, chunk_size, checkpoint,
                     max_chunks, notes=(), config_extra=None):
    t0 = time.perf_counter()
    lo = 1
    state = run_scan(task, lo, limit, params, workers=workers, chunk_size=chunk_size,
                     checkpoint=checkpoint, max_chunks=max_chunks)
    # "sieve_limit" is kept so that pinned output bytes stay identical
    config = {"check": check, "lo": lo, "hi": limit, "chunk_size": chunk_size,
              "sieve_limit": max(limit, 2), **params, **(config_extra or {})}
    notes = list(notes)
    if state.get("tau4_failures"):
        hits = state["tau4_failures"]
        notes.append(
            "advisory tau=4 clause '2 <= k <= n/4' fails for "
            f"{len(hits)} n (first: {hits[:5]}); reported per clause, not as a violation"
        )
    return _finish(check, lo, limit, state["violations"], state["applicable"],
                   config, notes, t0)


def scan_upper_bound(limit: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
                     checkpoint: str | None = None, max_chunks: int | None = None) -> ScanReport:
    """k(n) < d_2 + 1/d_2 over all non-squares in [2, limit]."""
    return _scan_violations("upper-bound", "upper_bound", limit, {}, workers,
                            chunk_size, checkpoint, max_chunks)


def scan_lower_bound(limit: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
                     checkpoint: str | None = None, max_chunks: int | None = None) -> ScanReport:
    """k(n) >= d_2/(d_2^2+1) over squares in [4, limit], equality iff n = p^2."""
    return _scan_violations("lower-bound", "lower_bound", limit, {}, workers,
                            chunk_size, checkpoint, max_chunks)


def scan_sigma_bounds(limit: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
                      checkpoint: str | None = None, max_chunks: int | None = None) -> ScanReport:
    """Bound chain over all non-squares in [2, limit]; tau=4 bullet is advisory."""
    return _scan_violations("sigma-bounds", "sigma_bounds", limit, {}, workers,
                            chunk_size, checkpoint, max_chunks)


def scan_pairing(limit: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
                 checkpoint: str | None = None, max_chunks: int | None = None) -> ScanReport:
    """Rank pairing, which implies the power identity, for prime-k, tau <= 8 numbers."""
    return _scan_violations("pairing", "pairing", limit, {"tau_cap": 8}, workers,
                            chunk_size, checkpoint, max_chunks,
                            config_extra={"power_identity": True})


def scan_conjecture1(limit: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
                     checkpoint: str | None = None, max_chunks: int | None = None) -> ScanReport:
    """Integral k implies k = d_2 (plus the even/odd specializations)."""
    return _scan_violations(
        "conjecture-1", "conjecture1", limit, {}, workers, chunk_size, checkpoint,
        max_chunks, notes=["n = 1 (k = 0) is excluded: d_2(1) does not exist"],
    )


def scan_conjecture2(limit: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
                     checkpoint: str | None = None, max_chunks: int | None = None) -> ScanReport:
    """Rank pairing for every prime-k number up to limit, no tau bound."""
    return _scan_violations("conjecture-2", "conjecture2", limit, {"tau_cap": None}, workers,
                            chunk_size, checkpoint, max_chunks,
                            config_extra={"power_identity": False})


def scan_conjecture3(limit: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
                     checkpoint: str | None = None, max_chunks: int | None = None) -> ScanReport:
    """Every k < 1 class holds at most one n (domain: perfect squares and 1)."""
    t0 = time.perf_counter()
    state = run_scan("conjecture3", 1, limit, workers=workers, chunk_size=chunk_size,
                     checkpoint=checkpoint, max_chunks=max_chunks)
    violations = []
    for key, members in state["seen"].items():
        if len(members) > 1:
            violations.append({
                "n": members[1],
                "expected": f"k = {key} held only by {members[0]}",
                "actual": f"shared by {members}",
            })
    # "sieve_limit" is kept so that pinned output bytes stay identical
    config = {"check": "conjecture-3", "lo": 1, "hi": limit, "chunk_size": chunk_size,
              "sieve_limit": max(limit, 2)}
    notes = ["domain restricted to perfect squares and n = 1, the only integers with k < 1"]
    return _finish("conjecture-3", 1, limit, violations, len(state["seen"]),
                   config, notes, t0)


def scan_multiplier(n_max: int = 1000, samples: int = 500, exponents=(1, 2, 3),
                    seed: int = 2) -> ScanReport:
    """Seeded random-sample check that k(n p^a) = k(n) for the first prime p > n."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    violations = []
    for _ in range(samples):
        n = rng.randint(2, n_max)
        while is_perfect_square(n):  # identity is stated for tau(n) even
            n = rng.randint(2, n_max)
        p = next_prime_above(n)
        a = rng.choice(exponents)
        k = k_ratio(n)
        k2 = k_ratio(n * p**a)
        if k2 != k:
            violations.append({
                "n": n,
                "expected": f"k({n}*{p}^{a}) = k({n}) = {k}",
                "actual": str(k2),
            })
    config = {"check": "multiplier", "lo": 2, "hi": n_max, "samples": samples,
              "exponents": list(exponents), "seed": seed}
    return _finish("multiplier", 2, n_max, violations, samples, config, [], t0)


def scan_prime_power_distinct(limit: int) -> ScanReport:
    """k(p^a) pairwise distinct over even a >= 2 with p^a <= limit."""
    if limit < 4:
        raise ValueError(f"need limit >= 4, got {limit}")
    t0 = time.perf_counter()
    seen: dict[Fraction, int] = {}
    violations = []
    applicable = 0
    for p in primes_upto(isqrt(limit)):
        a = 2
        while p**a <= limit:
            n = p**a
            applicable += 1
            k = k_ratio(n)
            if k in seen:
                violations.append({
                    "n": n,
                    "expected": f"k distinct from k({seen[k]})",
                    "actual": f"k={k} shared",
                })
            else:
                seen[k] = n
            a += 2
    config = {"check": "prime-power-distinct", "lo": 4, "hi": limit}
    return _finish("prime-power-distinct", 4, limit, violations, applicable, config, [], t0)


def scan_unit_fraction(limit: int) -> ScanReport:
    """Unit-fraction gap for every p^l <= limit with even l."""
    if limit < 4:
        raise ValueError(f"need limit >= 4, got {limit}")
    t0 = time.perf_counter()
    violations = []
    applicable = 0
    for p in primes_upto(isqrt(limit)):
        l = 2
        while p**l <= limit:
            applicable += 1
            if not check_unit_fraction_gap(p, l):
                violations.append({
                    "n": p**l,
                    "expected": f"k({p}^{l}) in [p/(p^2+1), 1/p) and not a unit fraction",
                    "actual": str(k_ratio(p**l)),
                })
            l += 2
    config = {"check": "unit-fraction", "lo": 4, "hi": limit}
    return _finish("unit-fraction", 4, limit, violations, applicable, config, [], t0)
