"""Machine checks for every stated bound, identity, and conjecture.

Each dense rule (upper bound, sigma-bounds chain, conjecture 1, rank pairing)
is written once, in arithmetic that means the same on int64 columns and on
Python ints: a range scan evaluates it on a kernel block's columns for its
mask and on the Python ints of each flagged row for the re-check, and a
single-n check on the row of one integer, exactly at any size. scan_*
functions sweep ranges and return ScanReports. A report that comes back
"verified" is bounded evidence for the scanned range only, never a proof, and
its notes say so in fixed wording.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from math import isqrt
from operator import or_

from .core import (
    Factorization,
    HypothesisViolation,
    Inapplicable,
    _class_key,
    _rank_row,
    _violation,
    block_rows,
    divisor_list_of,
    is_prime,
    next_prime_above,
    primes_upto,
    rank_blocks,
)
from .scanner import CHUNK_FLAGS, CHUNK_SIZE_DEFAULT, register_task, run_scan
from .sigma import is_perfect_square, k_ratio, profile

BOUNDED_EVIDENCE = (
    "bounded evidence only: exhaustive scan of the stated range; "
    "no claim is made beyond it"
)

PAIRING_TAU_CAP = 8  # the pairing theorem covers tau(n) <= 8

_MULTIPLIER_EXPONENTS = (1, 2, 3)  # the a of each sample's n p^a


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


def _finish(check, lo, hi, violations, applicable, t0, notes=(), **config) -> ScanReport:
    """The report of `check` over [lo, hi]; its config starts with check, lo and hi."""
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
        config={"check": check, "lo": lo, "hi": hi, **config},
        notes=[*notes, BOUNDED_EVIDENCE],
        applicable=applicable,
    )


# ---------------------------------------------------------------------------
# single-n checks


def _upper_bound_fails(d2, se, so):
    """Where k < d_2 + 1/d_2, that is se d2 < so (d2^2 + 1), is false; tested as that
    inequality divided by d2 >= 1."""
    # so d2 < 2**50 below KERNEL_BOUND: d2 < 2**16 unless n is prime, and then so = 1
    return se - so * d2 > (so - 1) // d2


def _lower_bound_verdict(d2, se, so):
    """(k >= d_2/(d_2^2 + 1), k = d_2/(d_2^2 + 1)), cross-multiplied."""
    lhs = se * (d2 * d2 + 1)
    rhs = so * d2
    return lhs >= rhs, lhs == rhs


_CHAIN_CLAUSES = ("sigma_e_lower", "sigma_e_upper", "reciprocal_lower", "reciprocal_upper",
                  "combined_lower", "combined_upper")
_TAU_CLAUSES = {2: "prime_case", 4: "tau4_bullet", 6: "tau6_bullet"}
_FAILS_CLAUSES = (*_CHAIN_CLAUSES[:4], *_TAU_CLAUSES.values())  # what _sigma_bounds_fails tests


def _sigma_bounds_fails(n, tau, se, so):
    """Where each clause of the bound chain is false, in the order of _FAILS_CLAUSES;
    each tau clause is false wherever tau is not its own.

    Exact for the Fraction statement: so = n sigma_{e,-1}, because with tau even
    n/d_i = d_{tau+1-i} maps even ranks onto odd ones. Each tau clause compares k
    with an n-sized bound, so it is tested by division. One clause at a time: a
    mask ORs each into the last before the next is computed, which keeps fewer of
    a block's arrays alive at once.
    """
    # below KERNEL_BOUND the linear sides stay below 1602 * 2**31 < 2**42, and the
    # tau clauses' below 6 * 2**34 < 2**37
    yield tau - 2 + n > se  # sigma_e_lower
    yield 4 * se > (tau + 2) * n  # sigma_e_upper
    yield 4 * so > (tau - 2) * n + 4  # reciprocal_lower
    yield so < tau - 1  # reciprocal_upper
    yield (tau == 2) & ((se % so != 0) | (se // so != n))  # prime_case: se = n so
    yield (tau == 4) & ((2 * so > se) | ((4 * se + so - 1) // so > n))  # 4 se <= n so
    # tau6_bullet: (n + 4) so <= (n + 1) se, as 3 so <= (n + 1) (se - so); 5 se <= 2 n so
    yield (tau == 6) & ((se - so < (3 * so + n) // (n + 1)) | ((5 * se + so - 1) // so > 2 * n))


def _sigma_bounds_clauses(n, tau, se, so):
    """The bound chain at a non-square n in Python ints, clause name -> holds:
    _CHAIN_CLAUSES and then _TAU_CLAUSES[tau]. combined_lower and combined_upper
    are cross-multiplied; their products can pass 2**64, and the masks need
    neither: they are the products of sigma_e_lower with reciprocal_lower and of
    sigma_e_upper with reciprocal_upper, whose sides are all nonnegative."""
    fails = dict(zip(_FAILS_CLAUSES, _sigma_bounds_fails(n, tau, se, so)))
    holds = {name: not fails[name] for name in _CHAIN_CLAUSES[:4]}
    holds["combined_lower"] = 4 * (tau - 2 + n) * so <= ((tau - 2) * n + 4) * se
    holds["combined_upper"] = 4 * (tau - 1) * se <= (tau + 2) * n * so
    if tau in _TAU_CLAUSES:
        holds[_TAU_CLAUSES[tau]] = not fails[_TAU_CLAUSES[tau]]
    return holds


def _conjecture1_fails(n, tau, d2, k):
    """Where each of conjecture 1's statements is false at integer k: k = d_2; k = 2
    for even n; k = 3 for odd n with tau = 2 mod 4 and 3 | n, that is n = 3 mod 6."""
    return (k != d2), (n % 2 == 0) & (k != 2), (n % 6 == 3) & (tau % 4 == 2) & (k != 3)


def _pairing_fails(k, d2, paired):
    """Where d_2j = k d_2j-1 fails for some j, at integer k: paired says whether
    d_2j = d_2 d_2j-1 for all j, and j = 1 asks k = d_2."""
    return (k != d2) | (paired == 0)


def check_upper_bound(n: int) -> bool:
    """k(n) < d_2 + 1/d_2 for non-square n >= 2, compared exactly."""
    if n < 2 or is_perfect_square(n):
        raise Inapplicable(f"upper bound is stated for non-squares >= 2, got {n}")
    _, _, d2, se, so, _ = _rank_row(divisor_list_of(n))
    return not _upper_bound_fails(d2, se, so)


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


def _multiplier_domain(n):
    """Refuse an n outside the multiplier identity's domain, n >= 2 with tau(n) even.

    n = 1 is inapplicable: k(1) = 0 is degenerate (no even-rank divisors to
    scale), and indeed k(p^a) = p != 0. Perfect squares are inapplicable too:
    with tau(n) odd the appended divisor blocks alternate rank parity, and
    the identity genuinely fails (e.g. k(9*11) = 113/43 != k(9) = 3/10).
    n < 1 comes first: 0 is a perfect square, and isqrt words its own refusal of n < 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        raise Inapplicable("n = 1 has k = 0; the multiplier identity needs n >= 2")
    if is_perfect_square(n):
        raise Inapplicable(f"the multiplier identity needs tau(n) even; {n} is a perfect square")


def check_multiplier(n: int, p: int, a: int) -> bool:
    """k(n * p^a) = k(n) when p is prime, p > n, and tau(n) is even (n >= 2)."""
    _multiplier_domain(n)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p <= n:
        raise HypothesisViolation(f"multiplier hypothesis needs p > n, got p={p} <= n={n}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    return k_ratio(n * p**a) == k_ratio(n)


def check_multiplier_chain(n: int, m_factorization: Factorization) -> bool:
    """k(n*m) = k(n) under the chained hypothesis base < p_i at every step."""
    _multiplier_domain(n)
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
    """For prime-integer k = p and tau(n) <= 8: d_{2j} = p d_{2j-1} for all j, which
    gives sigma_{e,a}(n) = p^a sigma_{o,a}(n) for every a, term by term."""
    _, tau, d2, se, so, paired = _rank_row(divisor_list_of(n))
    k = Fraction(se, so)
    if k.denominator != 1 or not is_prime(k.numerator):
        raise Inapplicable(f"pairing is stated for prime integer k, got k({n}) = {k}")
    if tau > PAIRING_TAU_CAP:
        raise Inapplicable(f"pairing theorem covers tau <= {PAIRING_TAU_CAP}, got tau({n}) = {tau}")
    return not _pairing_fails(k.numerator, d2, paired)


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


# The dense checks test every n of a kernel block with exact int64 masks: one
# flags the rows the check counts as applicable, one the rows that may break
# it. The second evaluates the check's rule on the block's int64 columns, and
# each row it flags goes to the row function, which evaluates the same rule on
# Python ints before any becomes a violation. Each int64 bound in a rule holds
# for n < KERNEL_BOUND = 2**31, where tau(n) <= 1600 and sigma(n) < 2**34.


_TALLY = {"violations": [], "applicable": 0}


def _dense_check(name, masks, check_row, empty=_TALLY, pairs=False):
    """Register `name` as a dense check. Per kernel block of [max(lo, 2), hi], with
    (counted, suspect) = masks(*block), its chunk adds the rows `counted` flags to
    `applicable` and passes each row `suspect` flags to check_row(fragment, *row), in
    Python ints. A block has the `paired` column only if `pairs`."""
    def chunk(lo, hi):
        fragment = copy.deepcopy(empty)
        for block in rank_blocks(max(lo, 2), hi, pairs=pairs):
            counted, suspect = masks(*block)
            fragment["applicable"] += int(counted.sum())
            for row in block_rows(block, suspect.nonzero()[0]):
                check_row(fragment, *row)
            del block, counted, suspect  # before rank_blocks walks the next: never hold two
        return fragment

    register_task(name, chunk, empty)


def _upper_bound_masks(n, tau, d2, se, so):
    """The non-squares, and those where the upper bound is false."""
    non_square = tau % 2 == 0
    return non_square, non_square & _upper_bound_fails(d2, se, so)


def _sigma_bounds_masks(n, tau, d2, se, so):
    """The non-squares, and those where a clause of _sigma_bounds_clauses is false."""
    non_square = tau % 2 == 0
    return non_square, non_square & reduce(or_, _sigma_bounds_fails(n, tau, se, so))


def _conjecture1_masks(n, tau, d2, se, so):
    """Integer k, and integer k that breaks one of conjecture 1's three statements."""
    integer = se % so == 0  # so >= 1
    return integer, integer & reduce(or_, _conjecture1_fails(n, tau, d2, se // so))


def _pairing_masks(n, tau, d2, se, so, paired, tau_cap):
    """Prime k = d_2, and the other integer k >= 2 or unpaired rows, within tau_cap.

    d_2 is prime, so k = d_2 is a prime k. Any other k is a conjecture-1
    counterexample, left to trial division in the re-check.
    """
    k = se // so  # so >= 1
    integer = (se % so == 0) & (k >= 2)
    if tau_cap is not None:
        integer &= tau <= tau_cap
    return integer & (k == d2), integer & _pairing_fails(k, d2, paired)


def _upper_bound_row(fragment, n, tau, d2, se, so):
    if _upper_bound_fails(d2, se, so):
        fragment["violations"].append(_violation(n, f"k < {d2}+1/{d2}", f"k={se}/{so}"))


def _sigma_bounds_row(fragment, n, tau, d2, se, so):
    clauses = _sigma_bounds_clauses(n, tau, se, so)
    bad = [name for name, ok in clauses.items() if not ok and name != "tau4_bullet"]
    if bad:
        fragment["violations"].append(
            _violation(n, "bound chain holds", "failed clauses: " + ",".join(bad)))
    if not clauses.get("tau4_bullet", True):
        fragment["tau4_failures"].append(n)


def _pairing_row(fragment, n, tau, d2, se, so, paired):
    # no power-identity grid: with the divisors paired as (d, p d), sigma_e,a =
    # p^a sigma_o,a holds term by term for every a
    p = se // so
    if p != d2:
        if not is_prime(p):
            return
        fragment["applicable"] += 1
    if _pairing_fails(p, d2, paired):
        fragment["violations"].append(
            _violation(n, f"d_2j = {p} d_2j-1 for all j", f"divisors {divisor_list_of(n)}"))


def _conjecture1_row(fragment, n, tau, d2, se, so):
    k = se // so
    statements = (f"k = d_2 = {d2}", "even index ratio numbers have k = 2",
                  "odd n with tau = 2 mod 4 and 3 | n has k = 3")
    for fails, expected in zip(_conjecture1_fails(n, tau, d2, k), statements):
        if fails:
            fragment["violations"].append(_violation(n, expected, f"k={k}"))


def _squares(lo, hi):
    """The rows of the perfect squares in [lo, hi], ascending, by the single-n path:
    factorize factors each square through its root."""
    return (_rank_row(divisor_list_of(r * r)) for r in range(isqrt(lo - 1) + 1, isqrt(hi) + 1))


def _lower_bound_chunk(lo, hi):
    violations = []
    applicable = 0
    for n, tau, d2, se, so, paired in _squares(max(lo, 4), hi):
        applicable += 1
        holds, equality = _lower_bound_verdict(d2, se, so)
        if not holds:
            violations.append(_violation(n, f"k >= {d2}/{d2 * d2 + 1}", f"k={se}/{so}"))
        elif equality != (tau == 3):
            why = "equality" if equality else "strict inequality"
            violations.append(_violation(n, "equality exactly when n is a prime squared",
                                         f"{why} with tau={tau}"))
    return {"violations": violations, "applicable": applicable}


def _conjecture3_chunk(lo, hi):
    # domain: n = 1 and the perfect squares, the only integers with k < 1
    seen: dict[str, list[int]] = {}
    for n, tau, d2, se, so, paired in _squares(lo, hi):
        seen.setdefault(_class_key(se, so), []).append(n)
    return {"seen": seen}


_dense_check("upper-bound", _upper_bound_masks, _upper_bound_row)
register_task("lower-bound", _lower_bound_chunk, _TALLY)
_dense_check("sigma-bounds", _sigma_bounds_masks, _sigma_bounds_row,
             {**_TALLY, "tau4_failures": []})
_dense_check("pairing", partial(_pairing_masks, tau_cap=PAIRING_TAU_CAP), _pairing_row,
             pairs=True)
_dense_check("conjecture-1", _conjecture1_masks, _conjecture1_row)
_dense_check("conjecture-2", partial(_pairing_masks, tau_cap=None), _pairing_row, pairs=True)
register_task("conjecture-3", _conjecture3_chunk, {"seen": {}})


# ---------------------------------------------------------------------------
# range scanners; the chunked ones pass their keyword `flags`, any of
# scanner.CHUNK_FLAGS, on to run_scan


def _tally(state):
    return state["violations"], state["applicable"], []


def _range_check(check, limit, flags, tally=_tally, notes=(), **config):
    """Run the task registered under `check` over [1, limit] and report it;
    `tally(state)` gives the violations, the applicable count and further notes."""
    t0 = time.perf_counter()
    state = run_scan(check, 1, limit, **flags)
    violations, applicable, more_notes = tally(state)
    # "sieve_limit" is kept so that pinned output bytes stay identical
    return _finish(check, 1, limit, violations, applicable, t0, [*notes, *more_notes],
                   chunk_size=flags.get("chunk_size", CHUNK_SIZE_DEFAULT),
                   sieve_limit=max(limit, 2), **config)


def scan_upper_bound(limit: int, **flags) -> ScanReport:
    """k(n) < d_2 + 1/d_2 over all non-squares in [2, limit]."""
    return _range_check("upper-bound", limit, flags)


def scan_lower_bound(limit: int, **flags) -> ScanReport:
    """k(n) >= d_2/(d_2^2+1) over squares in [4, limit], equality iff n = p^2."""
    return _range_check("lower-bound", limit, flags)


def _sigma_bounds_tally(state):
    hits = state["tau4_failures"]
    notes = [
        "advisory tau=4 clause '2 <= k <= n/4' fails for "
        f"{len(hits)} n (first: {hits[:5]}); reported per clause, not as a violation"
    ] if hits else []
    return state["violations"], state["applicable"], notes


def scan_sigma_bounds(limit: int, **flags) -> ScanReport:
    """Bound chain over all non-squares in [2, limit]; tau=4 bullet is advisory."""
    return _range_check("sigma-bounds", limit, flags, tally=_sigma_bounds_tally)


def scan_pairing(limit: int, **flags) -> ScanReport:
    """Rank pairing, which implies the power identity, for prime-k, tau <= 8 numbers."""
    return _range_check("pairing", limit, flags, tau_cap=PAIRING_TAU_CAP, power_identity=True)


def scan_conjecture1(limit: int, **flags) -> ScanReport:
    """Integral k implies k = d_2 (plus the even/odd specializations)."""
    return _range_check("conjecture-1", limit, flags,
                        notes=["n = 1 (k = 0) is excluded: d_2(1) does not exist"])


def scan_conjecture2(limit: int, **flags) -> ScanReport:
    """Rank pairing for every prime-k number up to limit, no tau bound."""
    return _range_check("conjecture-2", limit, flags, tau_cap=None, power_identity=False)


def _conjecture3_tally(state):
    """One violation per k class held by more than one n; applicable counts the classes."""
    violations = [_violation(members[1], f"k = {key} held only by {members[0]}",
                             f"shared by {members}")
                  for key, members in state["seen"].items() if len(members) > 1]
    return violations, len(state["seen"]), []


def scan_conjecture3(limit: int, **flags) -> ScanReport:
    """Every k < 1 class holds at most one n (domain: perfect squares and 1)."""
    return _range_check(
        "conjecture-3", limit, flags, tally=_conjecture3_tally,
        notes=["domain restricted to perfect squares and n = 1, the only integers with k < 1"],
    )


def scan_multiplier(n_max: int = 1000, samples: int = 500, seed: int = 2) -> ScanReport:
    """Seeded random-sample check that k(n p^a) = k(n) for the first prime p > n."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    if samples < 0:
        raise ValueError(f"need samples >= 0, got {samples}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    violations = []
    for _ in range(samples):
        n = rng.randint(2, n_max)
        while is_perfect_square(n):  # identity is stated for tau(n) even
            n = rng.randint(2, n_max)
        p = next_prime_above(n)
        a = rng.choice(_MULTIPLIER_EXPONENTS)
        if not check_multiplier(n, p, a):
            violations.append(_violation(n, f"k({n}*{p}^{a}) = k({n}) = {k_ratio(n)}",
                                         str(k_ratio(n * p**a))))
    return _finish("multiplier", 2, n_max, violations, samples, t0,
                   samples=samples, exponents=list(_MULTIPLIER_EXPONENTS), seed=seed)


def _even_prime_powers(limit):
    """The (p, a) with p prime, a >= 2 even and p^a <= limit, by p and then a."""
    if limit < 4:
        raise ValueError(f"need limit >= 4, got {limit}")
    powers = []
    for p in primes_upto(isqrt(limit)):
        a = 2
        while p**a <= limit:
            powers.append((p, a))
            a += 2
    return powers


def scan_prime_power_distinct(limit: int) -> ScanReport:
    """k(p^a) pairwise distinct over even a >= 2 with p^a <= limit."""
    t0 = time.perf_counter()
    powers = _even_prime_powers(limit)
    seen: dict[Fraction, int] = {}
    violations = []
    for p, a in powers:
        n = p**a
        k = k_ratio(n)
        if k in seen:
            violations.append(_violation(n, f"k distinct from k({seen[k]})", f"k={k} shared"))
        else:
            seen[k] = n
    return _finish("prime-power-distinct", 4, limit, violations, len(powers), t0)


def scan_unit_fraction(limit: int) -> ScanReport:
    """Unit-fraction gap for every p^l <= limit with even l."""
    t0 = time.perf_counter()
    powers = _even_prime_powers(limit)
    violations = []
    for p, l in powers:
        if not check_unit_fraction_gap(p, l):
            expected = f"k({p}^{l}) in [p/(p^2+1), 1/p) and not a unit fraction"
            violations.append(_violation(p**l, expected, str(k_ratio(p**l))))
    return _finish("unit-fraction", 4, limit, violations, len(powers), t0)


# check -> (scanner, the settings it takes as keywords): all `verify <check>` reads
# beyond its limit; `scan N` runs conjecture-N. A chunked check takes run_scan's.
CHECKS = {
    "upper-bound": (scan_upper_bound, CHUNK_FLAGS),
    "lower-bound": (scan_lower_bound, CHUNK_FLAGS),
    "sigma-bounds": (scan_sigma_bounds, CHUNK_FLAGS),
    "multiplier": (scan_multiplier, ("samples", "seed")),
    "pairing": (scan_pairing, CHUNK_FLAGS),
    "prime-power-distinct": (scan_prime_power_distinct, ()),
    "unit-fraction": (scan_unit_fraction, ()),
    "conjecture-1": (scan_conjecture1, CHUNK_FLAGS),
    "conjecture-2": (scan_conjecture2, CHUNK_FLAGS),
    "conjecture-3": (scan_conjecture3, CHUNK_FLAGS),
}
