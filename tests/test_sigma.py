import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrank import (
    AlphaZeroError,
    is_perfect_square,
    k_ratio,
    parity_sums_int,
    parity_sums_real,
    prime_power_closed_form,
    profile,
    tau_parity,
)
from conftest import ORACLE_LIMIT, oracle_parity_sums, oracle_sigma_alpha

ALPHA_GRID = (-2, -1, 1, 2, 3)


class TestParitySumsInt:
    def test_12(self):
        s = parity_sums_int(12, 1)
        assert (s.sigma_e, s.sigma_o) == (18, 10)

    def test_16(self):
        s = parity_sums_int(16, 1)
        assert (s.sigma_e, s.sigma_o) == (10, 21)

    def test_unit(self):
        s = parity_sums_int(1, 1)
        assert (s.sigma_e, s.sigma_o) == (0, 1)

    def test_negative_alpha_exact(self):
        s = parity_sums_int(9, -1)
        assert (s.sigma_e, s.sigma_o) == (Fraction(1, 3), Fraction(10, 9))

    def test_alpha_zero_counts(self):
        s = parity_sums_int(36, 0)
        assert (s.sigma_e, s.sigma_o) == (4, 5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parity_sums_int(0, 1)
        with pytest.raises(TypeError):
            parity_sums_int(12, 1.5)

    def test_splits_classical_sigma_exhaustively(self, oracle_div_lists):
        for alpha in ALPHA_GRID:
            for n in range(1, ORACLE_LIMIT + 1):
                divs = oracle_div_lists[n]
                s = parity_sums_int(n, alpha)
                assert s.sigma_e + s.sigma_o == oracle_sigma_alpha(divs, alpha), (n, alpha)

    def test_matches_oracle_positions(self, oracle_div_lists):
        for n in range(1, 3000):
            s = parity_sums_int(n, 1)
            assert (s.sigma_e, s.sigma_o) == oracle_parity_sums(oracle_div_lists[n], 1)


class TestSquareDichotomy:
    def test_exhaustive(self, oracle_div_lists):
        for n in range(2, ORACLE_LIMIT + 1):
            s = parity_sums_int(n, 1)
            tau = len(oracle_div_lists[n])
            if is_perfect_square(n):
                assert tau % 2 == 1
                assert s.sigma_e < s.sigma_o
            else:
                assert tau % 2 == 0
                assert s.sigma_e > s.sigma_o


class TestComplementPairing:
    def test_exhaustive(self, oracle_div_lists):
        # d -> n/d swaps rank parity on non-squares and preserves it on squares
        for n in range(2, ORACLE_LIMIT + 1):
            s1 = parity_sums_int(n, 1)
            sm1 = parity_sums_int(n, -1)
            if is_perfect_square(n):
                assert s1.sigma_e == n * sm1.sigma_e
                assert s1.sigma_o == n * sm1.sigma_o
            else:
                assert s1.sigma_o == n * sm1.sigma_e
                assert s1.sigma_e == n * sm1.sigma_o


class TestKRatio:
    @pytest.mark.parametrize("n,expected", [
        (36, Fraction(33, 58)),
        (45, Fraction(19, 7)),
        (11025, Fraction(7109, 15862)),
        (12, Fraction(9, 5)),
        (1, Fraction(0)),
    ])
    def test_table_values(self, n, expected):
        assert k_ratio(n) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97, 9973])
    def test_primes(self, p):
        assert k_ratio(p) == Fraction(p)

    def test_profile_consistency(self):
        for n in (1, 12, 36, 45, 9999):
            prof = profile(n)
            assert prof.k == k_ratio(n)
            assert prof.tau == len(prof.divisors)
            assert prof.sigma_e + prof.sigma_o == sum(prof.divisors)


class TestTauParity:
    @pytest.mark.parametrize("n,expected", [(36, (4, 5)), (12, (3, 3)), (1, (0, 1))])
    def test_examples(self, n, expected):
        assert tau_parity(n) == expected

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_sums_to_tau(self, n):
        te, to = tau_parity(n)
        s = parity_sums_int(n, 0)
        assert (te, to) == (s.sigma_e, s.sigma_o)
        if is_perfect_square(n):
            assert te == to - 1
        else:
            assert te == to


class TestPrimePowerClosedForm:
    @pytest.mark.parametrize("p,l,alpha,expected", [
        (2, 3, 1, (10, 5)),
        (2, 2, 1, (2, 5)),
        (3, 2, 1, (3, 10)),
    ])
    def test_frozen_values(self, p, l, alpha, expected):
        s = prime_power_closed_form(p, l, alpha)
        assert (s.sigma_e, s.sigma_o) == expected

    def test_rejects_alpha_zero(self):
        with pytest.raises(AlphaZeroError):
            prime_power_closed_form(2, 3, 0)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            prime_power_closed_form(4, 2, 1)

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            prime_power_closed_form(2, 0, 1)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("l", range(1, 7))
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_equals_direct_sums(self, p, l, alpha):
        s = prime_power_closed_form(p, l, alpha)
        direct = parity_sums_int(p**l, alpha)
        assert (s.sigma_e, s.sigma_o) == (direct.sigma_e, direct.sigma_o)


class TestParitySumsReal:
    def test_counts(self):
        assert parity_sums_real(12, 0.0) == (3.0, 3.0)

    def test_matches_exact_at_one(self):
        assert parity_sums_real(12, 1.0) == (18.0, 10.0)

    def test_half_power(self):
        se, so = parity_sums_real(4, 0.5)
        assert se == pytest.approx(math.sqrt(2), rel=1e-12)
        assert so == pytest.approx(3.0, rel=1e-12)

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            parity_sums_real(12, 1 + 2j)

    def test_agrees_with_exact_path_exhaustively(self):
        for n in range(1, ORACLE_LIMIT + 1):
            for alpha in (-2, -1, 0, 1, 2, 3):
                se, so = parity_sums_real(n, float(alpha))
                s = parity_sums_int(n, alpha)
                assert se == pytest.approx(float(s.sigma_e), rel=1e-9)
                assert so == pytest.approx(float(s.sigma_o), rel=1e-9)
