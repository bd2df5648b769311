import ast
import re
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divrank
from divrank import (
    Factorization,
    divisors_sorted,
    factorize,
    is_prime,
    parse_rational,
    rational_of,
)
from divrank import core, theorems
from divrank.classify import _class_key
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


class TestIsPrime:
    def test_against_oracle(self):
        for n in range(-4, 10**4 + 1):
            assert is_prime(n) == (oracle_factorize(n) == ((n, 1),))

    @pytest.mark.parametrize("n, prime", [
        *[(p, True) for p in (2**31 - 1, 2**31 + 11, 46337, 999983, 10**12 + 39)],
        (2**31 + 1, False),
        *[(c, False) for c in (561, 1105, 41041, 825265)],  # Carmichael numbers
        (46337**2, False), (2 * (2**31 - 1), False),
    ])
    def test_far_values_against_oracle(self, n, prime):
        assert is_prime(n) == prime == (oracle_factorize(n) == ((n, 1),))


@pytest.mark.parametrize("n", [0, -4])
@pytest.mark.parametrize("entry", [
    divrank.factorize, divrank.divisor_list_of, divrank.k_ratio, divrank.profile,
    divrank.tau_parity, partial(divrank.parity_sums_int, alpha=1),
    partial(divrank.parity_sums_real, alpha=1.0), divrank.is_index_ratio,
    divrank.check_pairing,
], ids=lambda entry: getattr(entry, "__name__", None) or entry.func.__name__)
def test_single_n_entry_points_refuse_n_below_1_in_one_message(entry, n):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        entry(n)


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


PUBLIC_NAMES = [
    "AlphaZeroError", "CheckpointError", "DivisorProfile", "Factorization", "GkTable",
    "HypothesisViolation", "Inapplicable", "LowerBoundResult", "ParitySums",
    "RangeOverlapError", "ScanInterrupted", "ScanReport", "SigmaBoundsResult",
    "check_lower_bound", "check_multiplier", "check_multiplier_chain", "check_pairing",
    "check_sigma_bounds", "check_unit_fraction_gap", "check_upper_bound",
    "check_upper_bound_optimality", "divisor_list_of", "divisors_sorted",
    "enumerate_index_ratio", "extend_with_prime", "factorize", "is_index_ratio",
    "is_perfect_square", "is_prime", "k_ratio", "members_of_k", "merge_tables",
    "parity_sums_int", "parity_sums_real", "parse_rational", "prime_power_closed_form",
    "profile", "rational_of", "scan_conjecture1", "scan_conjecture2", "scan_conjecture3",
    "scan_lower_bound", "scan_multiplier", "scan_pairing", "scan_prime_power_distinct",
    "scan_range", "scan_sigma_bounds", "scan_unit_fraction", "scan_upper_bound", "tau_parity",
]


class TestPublicSurface:
    def test_names_are_pinned_and_listed_once(self):
        assert divrank.__all__ == PUBLIC_NAMES
        source = Path(divrank.__file__).read_text()
        for name in PUBLIC_NAMES:
            assert len(re.findall(rf"\b{name}\b", source)) == 1, name
            assert name in vars(divrank), name  # bound at import, not looked up on use
        assert "__getattr__" not in vars(divrank)

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


# the divrank modules each module may import: every import points down this list
# (cli and the package __init__, at the top, may import any)
LAYERS = {
    "core": set(),
    "scanner": {"core"},
    "sigma": {"core"},
    "classify": {"core", "scanner", "sigma"},
    "theorems": {"core", "scanner", "sigma"},
}


def divrank_imports(tree):
    """The divrank modules that a module's syntax tree imports, anywhere in it: the
    name after "divrank." of each dotted name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # a relative import is inside divrank
            module = ".".join(filter(None, ["divrank" * bool(node.level), node.module]))
            names = [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        yield from (name.split(".")[1] for name in names if name.startswith("divrank."))


def test_imports_point_down_the_layers():
    sources = {path.stem: path for path in Path(divrank.__file__).parent.glob("*.py")}
    assert sources.keys() == LAYERS.keys() | {"cli", "__init__"}
    for module, allowed in LAYERS.items():
        imported = set(divrank_imports(ast.parse(sources[module].read_text())))
        assert imported <= allowed, (module, imported - allowed)


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


def _expansion(pairs):
    """Every divisor as one product of prime powers, sorted: no library expansion."""
    return sorted(prod(p**k for (p, _), k in zip(pairs, ks))
                  for ks in product(*(range(e + 1) for _, e in pairs)))


def _oracle_row(n):
    """The rank_blocks row of n from oracle_factorize and _expansion."""
    d = _expansion(oracle_factorize(n))
    return n, len(d), d[1] if n > 1 else 1, sum(d[1::2]), sum(d[0::2]), _oracle_pairing(d)


class TestSingleNPastTheKernelBound:
    """factorize, divisor_list_of and the squares' rows need no kernel bound."""

    @pytest.mark.parametrize("r", [
        46_349, 65_537, 999_979,  # prime roots
        2**19, 3**12, 97**3, 997**2,  # prime-power roots
        510_510, 720_720, 999_999,  # composite roots
        991 * 997, 2 * 499_979,  # the largest prime of the root is above n^(1/4)
    ])
    def test_squares_up_to_1e12(self, r):
        n = r * r
        pairs = oracle_factorize(n)
        assert factorize(n).factors == pairs
        assert core.divisor_list_of(n) == divisors_sorted(factorize(n)) == _expansion(pairs)
        assert list(theorems._squares(n, n)) == [_oracle_row(n)]

    def test_highly_composite_near_1e12(self):
        n = 963_761_198_400  # 2^6 3^4 5^2 7 11 13 17 19 23
        divs = core.divisor_list_of(n)
        assert len(divs) == factorize(n).tau == 6720
        assert divs == divisors_sorted(factorize(n)) == _expansion(oracle_factorize(n))
        assert core._rank_row(divs) == _oracle_row(n)

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_divisor_list_of_expands_factorize(self, n):
        assert core.divisor_list_of(n) == divisors_sorted(factorize(n))

    def test_squares_straddling_the_kernel_bound(self):
        # the squares tasks walk no block, so _squares itself stops at no bound
        lo, hi = core.KERNEL_BOUND - 2**20, core.KERNEL_BOUND + 2**20
        rows = list(theorems._squares(lo, hi))
        assert rows[0][0] < core.KERNEL_BOUND < rows[-1][0]
        assert rows == [_oracle_row(r * r) for r in range(isqrt(lo - 1) + 1, isqrt(hi) + 1)]


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


def _rows(lo, hi):
    """Every kernel row with pairs over [lo, hi], in order: each rank_blocks block
    through block_rows. The kernel's rows without pairs must be their first five columns."""
    rows = [row for block in core.rank_blocks(lo, hi, pairs=True)
            for row in core.block_rows(block)]
    assert [row for block in core.rank_blocks(lo, hi) for row in core.block_rows(block)] == [
        row[:5] for row in rows]
    return rows


def _kernel(ns):
    return [(n, tau, d2 if n > 1 else None, se, so, paired)
            for n, tau, d2, se, so, paired in _rows(ns[0], ns[-1])]


windows = st.integers(min_value=1, max_value=ORACLE_LIMIT).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(min_value=lo, max_value=ORACLE_LIMIT)))

# the first kernel block of [5e6, 5.04e6] is 16 isqrt(5.04e6) = 35,904 n wide
WIDE_LO, WIDE = 5_000_000, 35_904


@cache
def _wide_block():
    """That block, and the row of each of its n by trial division."""
    block = next(core.rank_blocks(WIDE_LO, WIDE_LO + 40_000, pairs=True))
    return block, [core._rank_row(core.divisor_list_of(n)) for n in range(WIDE_LO, WIDE_LO + WIDE)]


wide_indices = st.sets(st.integers(min_value=0, max_value=WIDE - 1), max_size=3000)
index_subsets = st.one_of(
    wide_indices.map(sorted),
    # more than _BLOCK indices, so that the conversion crosses its seam
    wide_indices.map(lambda drop: sorted(set(range(WIDE)) - drop)),
)


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
        odd_tau = [row for row in _rows(lo, hi) if row[1] % 2]
        assert list(theorems._squares(lo, hi)) == odd_tau

    def test_squares_below_the_kernel_bound_match_the_block_kernel(self):
        # 46340^2 and 46339^2, the two largest squares below 2^31
        lo, hi = core.KERNEL_BOUND - 2**18, core.KERNEL_BOUND - 1
        odd_tau = [row for row in _rows(lo, hi) if row[1] % 2]
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
        assert _rows(ns[0], ns[-1]) == expected

    def test_far_window_matches_divisor_expansion(self):
        # one walk block of 2^14 n, converted to Python ints in one part (block_rows takes 2^15)
        hi = 2**24 - 1
        ns = range(hi - 2**14 + 1, hi + 1)
        expected = []
        for n in ns:
            d = divisors_sorted(factorize(n))
            expected.append((n, len(d), d[1], sum(d[1::2]), sum(d[0::2]), _oracle_pairing(d)))
        assert _rows(ns[0], ns[-1]) == expected

    def test_window_below_the_kernel_bound_matches_trial_division(self):
        # no SPF table reaches this far: the block sieves its own d_2
        ns = range(core.KERNEL_BOUND - 2**10, core.KERNEL_BOUND)
        expected = []
        for n in ns:
            d = divisors_sorted(factorize(n))
            expected.append((n, len(d), d[1], sum(d[1::2]), sum(d[0::2]), _oracle_pairing(d)))
        assert _rows(ns[0], ns[-1]) == expected

    @given(index_subsets)
    @settings(max_examples=40, deadline=None)
    def test_block_rows_at_sorted_indices(self, at):
        block, expected = _wide_block()
        assert list(core.block_rows(block, np.array(at, dtype=np.intp))) == [
            expected[i] for i in at]

    def test_block_rows_every_row_in_order(self):
        block, expected = _wide_block()
        assert len(block[0]) == WIDE > core._BLOCK
        rows = list(core.block_rows(block))
        assert rows == expected
        assert {tuple(map(type, row)) for row in rows} == {(int,) * 5 + (bool,)}
        # the columns the G_k task converts: n, sigma_e and sigma_o
        n, tau, d2, se, so, paired = block
        assert list(core.block_rows((n, se, so))) == [(m, e, o) for m, _, _, e, o, _ in expected]

    def test_refuses_n_beyond_int32(self):
        for pairs in (False, True):
            with pytest.raises(ValueError):
                list(core.rank_blocks(2**31 - 2, 2**31, pairs))

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (2**31 - 1, 2**31 - 1)])
    def test_edges_match_trial_division(self, lo, hi):
        # n = 1 counts its root twice; 2^31 - 1 is the largest n the kernel takes
        assert _rows(lo, hi) == [_oracle_row(n) for n in range(lo, hi + 1)]

    def test_reciprocal_sum_is_odd_rank_sum_for_non_squares(self, oracle_div_lists):
        # n/d_i = d_{tau+1-i} maps even ranks onto odd ones when tau is even
        for n in range(2, ORACLE_LIMIT + 1):
            d = oracle_div_lists[n]
            if len(d) % 2 == 0:
                assert sum(n // e for e in d[1::2]) == sum(d[0::2]), n


class TestRational:
    def test_reduces(self):
        assert rational_of(18, 10) == Fraction(9, 5)
        assert _class_key(18, 10) == "9/5"

    def test_zero(self):
        q = rational_of(0, 7)
        assert (q.numerator, q.denominator) == (0, 1)
        assert _class_key(q.numerator, q.denominator) == "0"

    def test_already_reduced(self):
        assert _class_key(33, 58) == "33/58"

    def test_integer_display_drops_denominator(self):
        assert _class_key(4, 2) == "2"

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
        assert parse_rational(_class_key(num, den)) == q
