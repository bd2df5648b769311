import dataclasses
import sys
from fractions import Fraction
from functools import partial
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divrank import (
    HypothesisViolation,
    Inapplicable,
    check_lower_bound,
    check_multiplier,
    check_multiplier_chain,
    check_pairing,
    check_sigma_bounds,
    check_unit_fraction_gap,
    check_upper_bound,
    check_upper_bound_optimality,
    extend_with_prime,
    factorize,
    k_ratio,
    profile,
    scan_conjecture1,
    scan_conjecture2,
    scan_conjecture3,
    scan_lower_bound,
    scan_multiplier,
    scan_pairing,
    scan_prime_power_distinct,
    scan_sigma_bounds,
    scan_unit_fraction,
    scan_upper_bound,
)
from divrank import cli, core, theorems
from divrank.classify import enumerate_index_ratio, scan_range
from divrank.core import is_prime, rank_blocks, rank_sums
from divrank.scanner import _TASKS, CHUNK_SIZE_DEFAULT
from divrank.theorems import BOUNDED_EVIDENCE, _sigma_bounds_clauses
from conftest import ORACLE_LIMIT, oracle_divisors, oracle_k

# Oracle-verified counterexamples to the published pairing claim and the
# three conjectures (each re-derivable from n alone; see also the scans
# below, which must find exactly these and nothing else in range).
PAIRING_BREAKERS_1E4 = [2431]                  # k=7 prime, tau=8, d2=11
CONJ1_VIOLATIONS_1E4 = [2431, 8569]            # k=7 vs d2=11; k=9 vs d2=11
CONJ3_COLLISIONS_1E4 = {Fraction(108, 481): [1225, 3025]}


def _paper_sigma_bounds(n, tau, se, so, rec):
    """The bound chain at a non-square n as the paper states it, in Fractions;
    `rec` is 1/sigma_{e,-1}."""
    k = Fraction(se, so)
    clauses = {
        "sigma_e_lower": Fraction(tau - 2 + n) <= se,
        "sigma_e_upper": se <= Fraction((tau + 2) * n, 4),
        "reciprocal_lower": Fraction(4 * n, (tau - 2) * n + 4) <= rec,
        "reciprocal_upper": rec <= Fraction(n, tau - 1),
        "combined_lower": Fraction(4 * (tau - 2 + n), (tau - 2) * n + 4) <= k,
        "combined_upper": k <= Fraction(n * (tau + 2), 4 * (tau - 1)),
    }
    if tau == 2:
        clauses["prime_case"] = k == n
    elif tau == 4:
        clauses["tau4_bullet"] = 2 <= k <= Fraction(n, 4)
    elif tau == 6:
        clauses["tau6_bullet"] = Fraction(n + 4, n + 1) <= k <= Fraction(2 * n, 5)
    return clauses


def _oracle_k_and_d2(divs):
    return Fraction(sum(divs[1::2]), sum(divs[0::2])), divs[1]


class TestUpperBound:
    def test_examples(self):
        assert check_upper_bound(12)    # 9/5 < 5/2
        assert check_upper_bound(7)     # p < p + 1/p
        assert check_upper_bound(15)    # 3 < 10/3

    def test_inapplicable(self):
        with pytest.raises(Inapplicable):
            check_upper_bound(36)
        with pytest.raises(Inapplicable):
            check_upper_bound(1)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_holds_everywhere_sampled(self, n):
        r = int(n**0.5)
        if r * r == n or (r + 1) ** 2 == n:
            return
        assert check_upper_bound(n)

    def test_verdict_matches_fraction_statement_to_1e4(self, oracle_div_lists):
        for n in range(2, ORACLE_LIMIT + 1):
            divs = oracle_div_lists[n]
            if len(divs) % 2:
                continue
            k, d2 = _oracle_k_and_d2(divs)
            assert check_upper_bound(n) == (k < d2 + Fraction(1, d2)), n

    def test_scan_small(self):
        report = scan_upper_bound(10_000)
        assert report.status == "verified"
        assert report.violations == []
        assert report.applicable == 9999 - 99  # minus the squares in [2, 10^4]
        assert BOUNDED_EVIDENCE in report.notes


class TestUpperBoundOptimality:
    def test_p2_small_qs(self):
        assert check_upper_bound_optimality(2, [5, 7, 11, 13])

    def test_p3_q11(self):
        assert k_ratio(99) == Fraction(113, 43)
        assert check_upper_bound_optimality(3, [11])

    def test_frozen_value(self):
        assert k_ratio(20) == 2 + Fraction(5 - 8, 15) == Fraction(9, 5)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            check_upper_bound_optimality(2, [3])

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            check_upper_bound_optimality(4, [17])
        with pytest.raises(ValueError):
            check_upper_bound_optimality(2, [9])


class TestLowerBound:
    def test_equality_at_nine(self):
        r = check_lower_bound(9)
        assert r.holds and r.equality    # 3/10 == 3/(9+1)

    def test_strict_at_16(self):
        r = check_lower_bound(16)
        assert r.holds and not r.equality

    def test_strict_at_36(self):
        r = check_lower_bound(36)
        assert r.holds and not r.equality

    def test_inapplicable(self):
        with pytest.raises(Inapplicable):
            check_lower_bound(12)
        with pytest.raises(Inapplicable):
            check_lower_bound(1)

    def test_fields_match_fraction_statement_on_squares_to_1e4(self, oracle_div_lists):
        for r in range(2, isqrt(ORACLE_LIMIT) + 1):
            n = r * r
            k, d2 = _oracle_k_and_d2(oracle_div_lists[n])
            bound = Fraction(d2, d2 * d2 + 1)
            result = check_lower_bound(n)
            assert (result.holds, result.equality) == (k >= bound, k == bound), n

    def test_scan_equality_iff_prime_square(self):
        report = scan_lower_bound(100_000)
        assert report.status == "verified"
        assert report.violations == []
        assert report.applicable == 316 - 1  # squares 4..100000


class TestSigmaBounds:
    def test_n6_core_holds_bullet_fails(self):
        r = check_sigma_bounds(6)
        assert r.core_ok
        assert r.clauses["tau4_bullet"] is False

    def test_n12_all_clauses(self):
        r = check_sigma_bounds(12)
        assert r.core_ok
        assert r.clauses["tau6_bullet"] is True

    def test_prime_case(self):
        r = check_sigma_bounds(13)
        assert r.clauses["prime_case"] is True

    def test_inapplicable_for_squares(self):
        with pytest.raises(Inapplicable):
            check_sigma_bounds(16)

    @given(st.integers(min_value=2, max_value=10**5))
    @settings(max_examples=200, deadline=None)
    def test_core_chain_sampled(self, n):
        r = int(n**0.5)
        if r * r == n:
            return
        assert check_sigma_bounds(n).core_ok

    def test_clauses_match_fraction_statement_to_1e4(self, oracle_div_lists):
        for n in range(2, ORACLE_LIMIT + 1):
            divs = oracle_div_lists[n]
            if len(divs) % 2:
                continue
            rec = 1 / sum(Fraction(1, d) for d in divs[1::2])
            paper = _paper_sigma_bounds(n, len(divs), sum(divs[1::2]), sum(divs[0::2]), rec)
            r = check_sigma_bounds(n)
            assert r.tau == len(divs)
            assert list(r.clauses.items()) == list(paper.items()), n

    def test_each_clause_matches_fraction_statement_where_it_fails(self):
        # at real n every clause but tau4_bullet holds, so the test above cannot
        # tell them apart; arbitrary sums make each clause fail, at equality too
        for n in (6, 12):
            for tau in (2, 4, 6, 8):
                for se in range(1, 4 * n):
                    for so in range(1, 2 * n):
                        got = _sigma_bounds_clauses(n, tau, se, so)
                        paper = _paper_sigma_bounds(n, tau, se, so, Fraction(n, so))
                        assert list(got.items()) == list(paper.items()), (n, tau, se, so)

    def test_scan_reports_tau4_advisory(self):
        report = scan_sigma_bounds(10_000)
        assert report.status == "verified"
        assert any("tau=4" in note and "[6]" in note for note in report.notes)


class TestMultiplier:
    def test_examples(self):
        assert check_multiplier(6, 7, 1)      # k(42) = 2
        assert check_multiplier(12, 13, 2)    # k(2028) = 9/5

    def test_rejects_small_p(self):
        with pytest.raises(HypothesisViolation):
            check_multiplier(6, 5, 1)

    def test_n1_inapplicable(self):
        with pytest.raises(Inapplicable):
            check_multiplier(1, 2, 3)

    def test_square_inapplicable(self):
        # appended divisor blocks alternate rank parity when tau(n) is odd
        assert k_ratio(9 * 11) == Fraction(113, 43) != k_ratio(9)
        with pytest.raises(Inapplicable):
            check_multiplier(9, 11, 1)
        with pytest.raises(Inapplicable):
            check_multiplier_chain(100, factorize(101))

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            check_multiplier(6, 9, 1)

    def test_chain_examples(self):
        assert check_multiplier_chain(3, factorize(25 * 101))    # 3 < 5, 75 < 101
        assert check_multiplier_chain(2, factorize(3))

    def test_chain_violation_identifies_step(self):
        with pytest.raises(HypothesisViolation) as exc:
            check_multiplier_chain(6, factorize(5))
        assert exc.value.index == 1
        with pytest.raises(HypothesisViolation) as exc:
            check_multiplier_chain(3, factorize(5 * 7))  # 3*5=15 > 7 at step 2
        assert exc.value.index == 2

    def test_sampled_scan(self):
        report = scan_multiplier(n_max=1000, samples=500, seed=2)
        assert report.status == "verified"
        assert report.applicable == 500
        assert report.config["seed"] == 2

    def test_scan_deterministic_in_seed(self):
        a = scan_multiplier(samples=50, seed=11)
        b = scan_multiplier(samples=50, seed=11)
        assert a.violations == b.violations == []


class TestPairing:
    def test_examples(self):
        assert check_pairing(15)   # [1,3,5,15]: 3=3*1, 15=3*5
        assert check_pairing(2)
        assert check_pairing(8)    # [1,2,4,8]: 2=2*1, 8=2*4

    def test_inapplicable_non_prime_k(self):
        with pytest.raises(Inapplicable):
            check_pairing(30)      # k = 47/25

    def test_inapplicable_large_tau(self):
        with pytest.raises(Inapplicable):
            check_pairing(90)      # k = 2 but tau = 12

    def test_published_claim_fails_at_2431(self):
        # k(2431) = 7 is prime with tau = 8, yet d_2 = 11: the tau <= 8
        # pairing claim has a counterexample (see README)
        assert oracle_k(2431) == 7
        assert oracle_divisors(2431)[1] == 11
        assert check_pairing(2431) is False

    def test_scan_finds_exactly_2431_below_1e4(self):
        report = scan_pairing(10_000)
        assert report.status == "violated"
        assert sorted({v["n"] for v in report.violations}) == PAIRING_BREAKERS_1E4

    def test_large_tau_example_pairs_under_conjecture_scan(self):
        # 2^11 has tau = 12 (outside the tau <= 8 claim) yet pairs perfectly
        prof = profile(2048)
        assert prof.k == 2
        assert all(prof.divisors[i + 1] == 2 * prof.divisors[i]
                   for i in range(0, prof.tau, 2))


class TestExtendWithPrime:
    def test_75_by_79(self):
        assert k_ratio(75) == 3
        assert extend_with_prime(75, 79) == 5925

    def test_63_not_applicable(self):
        assert k_ratio(63) == Fraction(75, 29)
        with pytest.raises(Inapplicable):
            extend_with_prime(63, 67)

    def test_45_not_applicable(self):
        with pytest.raises(Inapplicable):
            extend_with_prime(45, 47)    # k = 19/7

    def test_q_too_small(self):
        with pytest.raises(HypothesisViolation):
            extend_with_prime(75, 73)

    def test_q_composite(self):
        with pytest.raises(HypothesisViolation):
            extend_with_prime(75, 77)


class TestPrimePowerDistinct:
    def test_to_100(self):
        report = scan_prime_power_distinct(100)
        assert report.status == "verified"
        assert report.applicable == 7    # 4, 16, 64, 9, 81, 25, 49

    def test_vacuous_at_4(self):
        report = scan_prime_power_distinct(4)
        assert report.status == "verified"
        assert report.applicable == 1

    def test_known_distinct_pair(self):
        assert k_ratio(4) == Fraction(2, 5)
        assert k_ratio(9) == Fraction(3, 10)
        assert k_ratio(4) != k_ratio(9)

    def test_rejects_small_limit(self):
        with pytest.raises(ValueError):
            scan_prime_power_distinct(3)


class TestUnitFractionGap:
    def test_examples(self):
        assert check_unit_fraction_gap(3, 2)     # 3/10 < 1/3
        assert check_unit_fraction_gap(2, 2)     # equality at the floor
        assert check_unit_fraction_gap(2, 4)     # 10/21 == 30/63

    def test_rejects_odd_l(self):
        with pytest.raises(ValueError):
            check_unit_fraction_gap(2, 3)

    def test_scan(self):
        report = scan_unit_fraction(10**6)
        assert report.status == "verified"

    def test_formula_matches_closed_expression(self):
        assert k_ratio(16) == Fraction(2**5 - 2, 2**6 - 1) == Fraction(10, 21)


class TestConjectureScans:
    def test_conjecture1_violations_1e4(self):
        report = scan_conjecture1(10_000)
        assert report.status == "violated"
        assert [v["n"] for v in report.violations] == CONJ1_VIOLATIONS_1E4
        # the corollaries that are actual theorems never fire
        assert all("d_2" in v["expected"] for v in report.violations)

    def test_conjecture1_verified_below_first_counterexample(self):
        report = scan_conjecture1(2430)
        assert report.status == "verified"

    def test_conjecture1_violations_reverify_from_n(self):
        for v in scan_conjecture1(10_000).violations:
            n = v["n"]
            k = oracle_k(n)
            assert k.denominator == 1
            assert k != oracle_divisors(n)[1]

    def test_conjecture2_violations_1e4(self):
        report = scan_conjecture2(10_000)
        assert report.status == "violated"
        assert [v["n"] for v in report.violations] == PAIRING_BREAKERS_1E4

    def test_conjecture2_violations_reverify_from_n(self):
        for v in scan_conjecture2(100_000).violations:
            divs = oracle_divisors(v["n"])
            k = oracle_k(v["n"])
            assert k.denominator == 1
            p = k.numerator
            assert any(divs[i + 1] != p * divs[i] for i in range(0, len(divs), 2))

    def test_conjecture3_collisions_1e4(self):
        report = scan_conjecture3(10_000)
        assert report.status == "violated"
        assert len(report.violations) == 1
        ((k, pair),) = CONJ3_COLLISIONS_1E4.items()
        assert report.violations[0]["n"] == pair[1]
        assert oracle_k(pair[0]) == oracle_k(pair[1]) == k

    def test_conjecture3_verified_below_first_collision(self):
        report = scan_conjecture3(3000)
        assert report.status == "verified"
        assert any("perfect squares" in note for note in report.notes)

    def test_restartable_at_any_boundary(self, tmp_path):
        from divrank import ScanInterrupted

        straight = scan_conjecture1(6000, chunk_size=512)
        path = str(tmp_path / "c1.ck")
        with pytest.raises(ScanInterrupted):
            scan_conjecture1(6000, chunk_size=512, checkpoint=path, max_chunks=5)
        resumed = scan_conjecture1(6000, chunk_size=512, checkpoint=path)
        assert resumed.violations == straight.violations
        assert resumed.applicable == straight.applicable

    def test_chunk_split_invariance(self):
        a = scan_conjecture2(4000, chunk_size=333)
        b = scan_conjecture2(4000, chunk_size=1 << 16)
        assert a.violations == b.violations

    def test_bounded_evidence_wording_everywhere(self):
        for report in (scan_conjecture1(100), scan_conjecture2(100),
                       scan_conjecture3(100), scan_upper_bound(100)):
            assert BOUNDED_EVIDENCE in report.notes

    def test_worker_invariance(self):
        a = scan_conjecture1(30_000, chunk_size=4096)
        b = scan_conjecture1(30_000, workers=2, chunk_size=4096)
        assert a.violations == b.violations
        assert a.applicable == b.applicable


class TestReportShape:
    def test_status_vocabulary(self):
        assert scan_upper_bound(100).status == "verified"
        assert scan_conjecture1(10_000).status == "violated"

    def test_inapplicable_when_nothing_qualifies(self):
        report = scan_lower_bound(3)    # no squares >= 4
        assert report.status == "inapplicable"
        assert report.applicable == 0

    def test_config_echo(self):
        report = scan_upper_bound(500, chunk_size=128)
        assert report.config["check"] == "upper-bound"
        assert report.config["hi"] == 500
        assert report.config["chunk_size"] == 128
        assert report.config["sieve_limit"] == 500


def _untimed(result):
    return dataclasses.replace(result, elapsed_ms=0) if hasattr(result, "elapsed_ms") else result


class TestWithoutSpfTable:
    """Range scans sieve d_2 per block and squares factor by trial division."""

    def test_refuses_hi_at_the_kernel_bound_before_any_chunk(self, tmp_path):
        # a one-chunk budget: a scan that started would pause, not raise
        checkpoint = tmp_path / "ub.ck"
        with pytest.raises(ValueError, match=str(2**31)):
            scan_upper_bound(2**31, checkpoint=str(checkpoint), max_chunks=1)
        assert not checkpoint.exists()

    def test_lower_bound_above_the_old_sieve_ceiling(self):
        report = scan_lower_bound(10**8)
        assert (report.status, report.applicable) == ("verified", 9999)

    def test_conjecture3_above_the_old_sieve_ceiling(self):
        far = [v for v in scan_conjecture3(10**8).violations if v["n"] <= 10**5]
        assert far == scan_conjecture3(10**5).violations

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_scan_builds_a_table(self, monkeypatch, capsys, workers):
        # several chunks each, so that two workers really fork a pool; the
        # fork copies the patched modules into the workers
        chunked = {"workers": workers, "chunk_size": 2500}
        flags = ["--max", "10000", "--workers", str(workers), "--chunk-size", "2500"]

        def command(*argv):
            return lambda: (cli.main(list(argv)), capsys.readouterr())

        scans = {
            "upper-bound": lambda: scan_upper_bound(10**4, **chunked),
            "lower-bound": lambda: scan_lower_bound(10**4, **chunked),
            "pairing": lambda: scan_pairing(10**4, **chunked),
            "conjecture-3": lambda: scan_conjecture3(10**4, **chunked),
            "scan_range": lambda: scan_range(1, 10**4, **chunked),
            # takes no chunk size: two default chunks
            "irn": lambda: enumerate_index_ratio(CHUNK_SIZE_DEFAULT + 10**4, workers=workers),
            "irn csv": command("irn", "--format", "csv", "--max", "10000",
                               "--workers", str(workers)),
            # json: the bytes carry no timing
            "sigma-bounds": command("verify", "sigma-bounds", "--format", "json", *flags),
            "conjecture-1": command("scan", "1", "--format", "json", *flags),
            "conjecture-2": command("scan", "2", "--format", "json", *flags),
            # not chunked scans: they refuse the chunk flags
            "multiplier": command("verify", "multiplier", "--format", "json", "--max", "10000"),
            "prime-power-distinct": command("verify", "prime-power-distinct",
                                            "--format", "json", "--max", "10000"),
            "unit-fraction": command("verify", "unit-fraction", "--format", "json",
                                     "--max", "10000"),
            "profile": command("profile", "10000", "--format", "json"),
            "table --k": command("table", "--k", "2", "--k", "3", "--format", "json", *flags),
        }
        expected = {name: _untimed(scan()) for name, scan in scans.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("a command built an SPF table")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "divrank" and hasattr(module, "build_spf_sieve"):
                monkeypatch.setattr(module, "build_spf_sieve", refuse)
        for name, scan in scans.items():
            assert _untimed(scan()) == expected[name], name


# ---------------------------------------------------------------------------
# the dense checks' int64 masks against the exact Python predicates


DENSE_CHECKS = ("upper-bound", "sigma-bounds", "conjecture-1", "conjecture-2", "pairing")
MASKS = {
    "upper-bound": theorems._upper_bound_masks,
    "sigma-bounds": theorems._sigma_bounds_masks,
    "conjecture-1": theorems._conjecture1_masks,
    "conjecture-2": partial(theorems._pairing_masks, tau_cap=None),
    "pairing": partial(theorems._pairing_masks, tau_cap=theorems.PAIRING_TAU_CAP),
}


# sigma_e next to which a verdict changes, from (n, tau, d_2, sigma_o); the
# sigma-bounds clauses have their own edges below
SE_EDGES = {
    "any": lambda n, tau, d2, so: so * d2 // 3,
    "prime": lambda n, tau, d2, so: n,
    "upper bound": lambda n, tau, d2, so: so * d2 + (so - 1) // d2,
    "k = d_2": lambda n, tau, d2, so: so * d2,
    "k = 2": lambda n, tau, d2, so: 2 * so,
    "k = 3": lambda n, tau, d2, so: 3 * so,
    "k = n": lambda n, tau, d2, so: n * so,
}


# (tau, (sigma_o, sigma_e) from (n, m)): rows exactly on an edge of the
# clause _TAU_CLAUSES[tau]
TAU_EDGES = {
    "k = n": (2, lambda n, m: (m, n * m)),
    "k = 2": (4, lambda n, m: (m, 2 * m)),
    "k = n/4": (4, lambda n, m: (4 * m, n * m)),
    "k = 1": (6, lambda n, m: (m, m)),
    "k = (n+4)/(n+1)": (6, lambda n, m: ((n + 1) * m, (n + 4) * m)),
    "k = 2n/5": (6, lambda n, m: (5 * m, 2 * n * m)),
}


def _python_masks(n, tau, d2, se, so, paired):
    """What each check's (counted, suspect) masks must say of one row, from the
    Python predicates on Python ints."""
    k, rest = divmod(se, so)
    non_square = tau % 2 == 0
    out = {
        "upper-bound": (non_square,
                        non_square and not theorems._upper_bound_holds(d2, se, so)),
        "sigma-bounds": (non_square,
                         non_square and not all(theorems._sigma_bounds_holds(n, tau, se, so))),
        "conjecture-1": (rest == 0, rest == 0 and (
            k != d2 or (n % 2 == 0 and k != 2)
            or (n % 2 == 1 and tau % 4 == 2 and n % 3 == 0 and k != 3))),
    }
    for name, cap in (("conjecture-2", None), ("pairing", theorems.PAIRING_TAU_CAP)):
        within = rest == 0 and k >= 2 and (cap is None or tau <= cap)
        out[name] = (within and k == d2, within and (k != d2 or not paired))
    return out


def _assert_masks_exact(block):
    """Both masks of each check equal their predicates on every row of `block`."""
    flagged = {name: [mask.tolist() for mask in masks(*block)] for name, masks in MASKS.items()}
    for i, row in enumerate(zip(*(column.tolist() for column in block))):
        for name, want in _python_masks(*row).items():
            assert (flagged[name][0][i], flagged[name][1][i]) == want, (name, row)


def _reference(rows):
    """Each dense check's (violating n, applicable) by Python predicates alone."""
    out = {name: ([], 0) for name in DENSE_CHECKS}

    def add(name, n, violated):
        bad, count = out[name]
        out[name] = (bad + [n] * violated, count + 1)

    for n, tau, d2, se, so, paired in rows:
        if n < 2:
            continue
        if tau % 2 == 0:
            add("upper-bound", n, not theorems._upper_bound_holds(d2, se, so))
            clauses = theorems._sigma_bounds_clauses(n, tau, se, so)
            add("sigma-bounds", n, any(not ok for name, ok in clauses.items()
                                       if name != "tau4_bullet"))
        k, rest = divmod(se, so)
        if rest == 0:
            add("conjecture-1", n, (k != d2) + (n % 2 == 0 and k != 2)
                + (n % 2 == 1 and tau % 4 == 2 and n % 3 == 0 and k != 3))
            if k >= 2 and (k == d2 or is_prime(k)):  # d_2 is prime (tests/test_core.py)
                add("conjecture-2", n, not (paired and k == d2))
                if tau <= theorems.PAIRING_TAU_CAP:
                    add("pairing", n, not (paired and k == d2))
    return out


def _chunks(lo, hi):
    """Each dense check's (violating n, applicable) from its chunk task."""
    frags = {name: _TASKS[name][0](lo, hi) for name in DENSE_CHECKS}
    return {name: ([v["n"] for v in frag["violations"]], frag["applicable"])
            for name, frag in frags.items()}


class TestDenseMasks:
    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_window_matches_python_predicates(self, lo, width):
        hi = lo + width
        for block in rank_blocks(lo, hi):
            _assert_masks_exact(block)
        assert _chunks(lo, hi) == _reference(rank_sums(lo, hi))

    def test_window_ending_below_the_kernel_bound(self, monkeypatch):
        lo, hi = core.KERNEL_BOUND - 2**16, core.KERNEL_BOUND - 1
        blocks = list(rank_blocks(lo, hi))
        n, tau, d2 = blocks[-1][:3]
        assert (n[-1], tau[-1], d2[-1]) == (hi, 2, hi)  # 2^31 - 1 is prime: d_2 = n
        for block in blocks:
            _assert_masks_exact(block)
        rows = [row for block in blocks for row in zip(*(c.tolist() for c in block))]
        # the chunk tasks read the blocks walked above
        monkeypatch.setattr(theorems, "rank_blocks", lambda a, b: iter(blocks))
        found = _chunks(lo, hi)
        assert found == _reference(rows)
        assert {name: len(found[name][0]) for name in DENSE_CHECKS} == {
            "upper-bound": 0, "sigma-bounds": 0, "conjecture-1": 3, "conjecture-2": 3,
            "pairing": 0}

    @pytest.mark.parametrize("n, tau", [(1396755360, 1536), (2095133040, 1600)])
    def test_highly_composite_n_near_the_bound(self, n, tau):
        # tau and sigma(n)/n (5.24 and 5.20 here) near their largest below 2^31: the
        # values that bound the masks' sums and products
        block = next(rank_blocks(n - 64, n + 64))
        at = 64
        assert (block[0][at], block[1][at]) == (n, tau)
        assert block[4][at] + block[3][at] > 5 * n
        _assert_masks_exact(block)

    @given(st.integers(min_value=2, max_value=core.KERNEL_BOUND - 1),
           st.one_of(st.sampled_from([2, 4, 6]), st.integers(min_value=1, max_value=800).map(
               lambda half: 2 * half)),
           st.integers(min_value=1, max_value=2**34), st.integers(min_value=1, max_value=2**16 - 1),
           st.integers(min_value=-3, max_value=3), st.sampled_from(sorted(SE_EDGES)),
           st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_masks_at_clause_edges(self, n, tau, so, d2, nudge, edge, paired):
        """Values within the kernel's bounds, sigma_e placed next to one clause's edge."""
        se = SE_EDGES[edge](n, tau, d2, so)
        if se >= 2**34:  # keep sigma_e, like sigma(n), below 2^34
            so = max(1, so * 2**33 // se)
            se = SE_EDGES[edge](n, tau, d2, so)
        se = max(1, se + nudge)
        if edge == "prime":  # d_2 = n only where n is prime, and then sigma_o = 1
            d2, so = n, 1
        block = (np.array([n]), np.array([tau]), np.array([d2], dtype=np.int32),
                 np.array([se]), np.array([so]), np.array([paired]))
        _assert_masks_exact(block)

    @given(st.integers(min_value=4, max_value=core.KERNEL_BOUND - 1),
           st.integers(min_value=1, max_value=800).map(lambda half: 2 * half),
           st.sampled_from(theorems._CHAIN_CLAUSES[:4]), st.integers(min_value=-2, max_value=2))
    @settings(max_examples=500, deadline=None)
    def test_chain_term_at_each_clause_edge(self, n, tau, clause, nudge):
        """One linear clause at its edge, sigma_e and sigma_o inside the others' bounds."""
        se_range = (tau - 2 + n, (tau + 2) * n // 4)
        so_range = (tau - 1, ((tau - 2) * n + 4) // 4)
        se, so = sum(se_range) // 2, sum(so_range) // 2
        if clause.startswith("sigma_e"):
            se = se_range[clause.endswith("upper")] + nudge
        else:
            so = max(1, so_range[clause.endswith("lower")] + nudge)
        holds = theorems._sigma_bounds_holds(n, tau, se, so)
        n_, tau_, se_, so_ = (np.array([value]) for value in (n, tau, se, so))
        assert theorems._chain_fails(n_, tau_, se_, so_).tolist() == [not all(holds[:6])]

    @given(st.one_of(st.integers(min_value=2, max_value=1000),
                     st.integers(min_value=2, max_value=core.KERNEL_BOUND - 1)),
           st.integers(min_value=1, max_value=2**20), st.integers(min_value=-1, max_value=1),
           st.sampled_from(sorted(TAU_EDGES)))
    @settings(max_examples=500, deadline=None)
    def test_tau_clause_term_at_its_edges(self, n, m, nudge, edge):
        tau, place = TAU_EDGES[edge]
        so, se = place(n, m)
        if se >= 2**34 or so >= 2**34:  # keep both, like sigma(n), below 2^34
            m = max(1, m * 2**33 // max(se, so))
            so, se = place(n, m)
        se = max(1, se + nudge)
        holds = theorems._sigma_bounds_holds(n, tau, se, so)
        n_, tau_, se_, so_ = (np.array([value]) for value in (n, tau, se, so))
        assert theorems._tau_clause_fails(n_, tau_, se_, so_).tolist() == [not holds[6]]

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**6),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_linear_clauses_imply_the_combined_ones(self, n, tau, data):
        # why _chain_fails needs no term for combined_lower and combined_upper
        low, high4, rec4 = tau - 2 + n, (tau + 2) * n, (tau - 2) * n + 4
        assume(low <= high4 // 4 and tau - 1 <= rec4 // 4 and rec4 // 4 >= 1)
        se = data.draw(st.integers(min_value=max(low, 1), max_value=high4 // 4))
        so = data.draw(st.integers(min_value=max(tau - 1, 1), max_value=rec4 // 4))
        holds = theorems._sigma_bounds_holds(n, tau, se, so)
        assert all(holds[:4])
        assert holds[4] and holds[5]
