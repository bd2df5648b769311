from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divrank
from divrank import (
    Factorization,
    divisors_sorted,
    factorize,
    format_rational,
    is_prime,
    parse_rational,
    rational_of,
)
from divrank import core, theorems
from divrank.core import rank_sums
from conftest import ORACLE_LIMIT, oracle_divisors, oracle_factorize


class TestFactorize:
    def test_unit_is_empty(self):
        assert factorize(1) == Factorization(1, ())

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_11025(self):
        assert factorize(11025).factors == ((3, 2), (5, 2), (7, 2))

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-5)

    def test_against_oracle_small(self):
        for n in range(1, 2000):
            assert factorize(n).factors == oracle_factorize(n)

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, n):
        f = factorize(n)
        product = 1
        for p, e in f.factors:
            assert e >= 1
            assert is_prime(p)
            product *= p**e
        assert product == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(set(primes))


class TestFactorizeSquare:
    """A perfect square is factored through its root."""

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, r):
        assert factorize(r * r).factors == oracle_factorize(r * r)

    def test_primes_below_the_root_of_the_kernel_bound(self):
        primes = [p for p in range(isqrt(2**31), 46_000, -1) if is_prime(p)][:5]
        assert primes[0] == 46337
        for p in primes:
            assert factorize(p * p).factors == oracle_factorize(p * p) == ((p, 2),)

    def test_square_near_1e12(self):
        # trial division of n itself would run to 10^6; the root's stops near 10^3
        p = 999_983
        assert is_prime(p)
        assert factorize(p * p).factors == oracle_factorize(p * p) == ((p, 2),)


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        for name in divrank.__all__:
            assert hasattr(divrank, name), name
        namespace = {}
        exec("from divrank import *", namespace)
        assert set(divrank.__all__) <= namespace.keys()

    def test_spf_table_is_not_exported(self):
        for name in ("SpfSieve", "SieveMemoryError", "build_spf_sieve"):
            assert name not in divrank.__all__
            assert not hasattr(divrank, name)


class TestDivisorsSorted:
    def test_unit(self):
        assert divisors_sorted(factorize(1)) == [1]

    def test_twelve(self):
        assert divisors_sorted(factorize(12)) == [1, 2, 3, 4, 6, 12]

    def test_36(self):
        assert divisors_sorted(factorize(36)) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_against_oracle_exhaustively(self, oracle_div_lists):
        for n in range(1, ORACLE_LIMIT + 1):
            assert divisors_sorted(factorize(n)) == oracle_div_lists[n]

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_complement_symmetry(self, n):
        divs = divisors_sorted(factorize(n))
        tau = len(divs)
        f = factorize(n)
        assert tau == f.tau
        for i in range(tau):
            assert divs[i] * divs[tau - 1 - i] == n

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, n):
        assert divisors_sorted(factorize(n)) == oracle_divisors(n)


def _oracle_pairing(d):
    return len(d) % 2 == 0 and all(d[j + 1] == d[1] * d[j] for j in range(0, len(d), 2))


def _oracle_rank_sums(ns, div_lists):
    # d_2 does not exist at n = 1, so it is left out of the comparison there
    rows = []
    for n in ns:
        d = div_lists[n]
        rows.append((n, len(d), d[1] if n > 1 else None, sum(d[1::2]), sum(d[0::2]),
                     _oracle_pairing(d)))
    return rows


def _kernel(ns):
    return [(n, tau, d2 if n > 1 else None, se, so, paired)
            for n, tau, d2, se, so, paired in rank_sums(ns[0], ns[-1])]


windows = st.integers(min_value=1, max_value=ORACLE_LIMIT).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(min_value=lo, max_value=ORACLE_LIMIT)))


class TestRankSums:
    @given(st.integers(min_value=1, max_value=ORACLE_LIMIT),
           st.integers(min_value=0, max_value=1500))
    @settings(max_examples=60, deadline=None)
    def test_window_matches_oracle(self, oracle_div_lists, lo, width):
        ns = range(lo, min(lo + width, ORACLE_LIMIT) + 1)
        assert _kernel(ns) == _oracle_rank_sums(ns, oracle_div_lists)

    @given(windows)
    @settings(max_examples=60, deadline=None)
    def test_squares_match_oracle(self, oracle_div_lists, window):
        # the rows the lower-bound and conjecture-3 scans read, by the single-n path
        lo, hi = window
        squares = [r * r for r in range(isqrt(lo - 1) + 1, isqrt(hi) + 1)]
        rows = [(n, tau, d2 if n > 1 else None, se, so, paired)
                for n, tau, d2, se, so, paired in theorems._squares(lo, hi)]
        assert rows == _oracle_rank_sums(squares, oracle_div_lists)

    @given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=0, max_value=3 * 10**4))
    @settings(max_examples=40, deadline=None)
    def test_squares_match_the_block_kernel(self, lo, width):
        hi = lo + width
        odd_tau = [row for row in rank_sums(lo, hi) if row[1] % 2]
        assert list(theorems._squares(lo, hi)) == odd_tau

    def test_squares_below_the_kernel_bound_match_the_block_kernel(self):
        # 46340^2 and 46339^2, the two largest squares below 2^31
        lo, hi = core.KERNEL_BOUND - 2**18, core.KERNEL_BOUND - 1
        odd_tau = [row for row in rank_sums(lo, hi) if row[1] % 2]
        assert [row[0] for row in odd_tau] == [46339**2, 46340**2]
        assert list(theorems._squares(lo, hi)) == odd_tau

    def test_every_n_in_one_call(self, oracle_div_lists):
        # one range of 10^4 fits one walk block; test_window_of_three_blocks crosses two seams
        assert ORACLE_LIMIT <= core._BLOCK
        ns = range(1, ORACLE_LIMIT + 1)
        assert _kernel(ns) == _oracle_rank_sums(ns, oracle_div_lists)

    def test_window_of_three_blocks_matches_trial_division(self):
        # starts off the block grid, so the range is walked as blocks of _BLOCK n
        # from its own first n, and the last block holds one n
        lo = 3 * core._BLOCK // 2 + 1
        ns = range(lo, lo + 2 * core._BLOCK + 1)
        assert 16 * isqrt(ns[-1]) < core._BLOCK
        assert [len(block[0]) for block in core.rank_blocks(ns[0], ns[-1])] == [
            core._BLOCK, core._BLOCK, 1]
        expected = []
        for n in ns:
            d = divisors_sorted(factorize(n))
            expected.append((n, len(d), d[1], sum(d[1::2]), sum(d[0::2]), _oracle_pairing(d)))
        assert list(rank_sums(ns[0], ns[-1])) == expected

    def test_far_window_matches_divisor_expansion(self):
        # one walk block of 2^14 n, converted to Python ints in two parts
        hi = 2**24 - 1
        ns = range(hi - 2**14 + 1, hi + 1)
        expected = []
        for n in ns:
            d = divisors_sorted(factorize(n))
            expected.append((n, len(d), d[1], sum(d[1::2]), sum(d[0::2]), _oracle_pairing(d)))
        assert list(rank_sums(ns[0], ns[-1])) == expected

    def test_window_below_the_kernel_bound_matches_trial_division(self):
        # no SPF table reaches this far: the block sieves its own d_2
        ns = range(core.KERNEL_BOUND - 2**10, core.KERNEL_BOUND)
        expected = []
        for n in ns:
            d = divisors_sorted(factorize(n))
            expected.append((n, len(d), d[1], sum(d[1::2]), sum(d[0::2]), _oracle_pairing(d)))
        assert list(rank_sums(ns[0], ns[-1])) == expected

    def test_refuses_n_beyond_int32(self):
        with pytest.raises(ValueError):
            list(rank_sums(2**31 - 2, 2**31))

    def test_reciprocal_sum_is_odd_rank_sum_for_non_squares(self, oracle_div_lists):
        # n/d_i = d_{tau+1-i} maps even ranks onto odd ones when tau is even
        for n in range(2, ORACLE_LIMIT + 1):
            d = oracle_div_lists[n]
            if len(d) % 2 == 0:
                assert sum(n // e for e in d[1::2]) == sum(d[0::2]), n


class TestRational:
    def test_reduces(self):
        assert rational_of(18, 10) == Fraction(9, 5)
        assert format_rational(rational_of(18, 10)) == "9/5"

    def test_zero(self):
        q = rational_of(0, 7)
        assert (q.numerator, q.denominator) == (0, 1)
        assert format_rational(q) == "0"

    def test_already_reduced(self):
        assert format_rational(rational_of(33, 58)) == "33/58"

    def test_integer_display_drops_denominator(self):
        assert format_rational(rational_of(4, 2)) == "2"

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            rational_of(1, 0)

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            rational_of(-1, 2)
        with pytest.raises(ValueError):
            rational_of(1, -2)

    @pytest.mark.parametrize("text", ["abc", "1/0", "-3/4", "1.5", "3/", "/5", ""])
    def test_parse_rejects_junk(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_parse_examples(self):
        assert parse_rational("9/5") == Fraction(9, 5)
        assert parse_rational("2") == Fraction(2)
        assert parse_rational("18/10") == Fraction(9, 5)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_parse_render_round_trip(self, num, den):
        q = rational_of(num, den)
        assert parse_rational(format_rational(q)) == q
