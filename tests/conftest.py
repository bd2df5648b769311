"""Shared fixtures and independent oracles.

The oracles never touch the library's factorization/sieve/expansion paths:
divisors come from testing every candidate for divisibility, factorizations
from naive stepwise division. Everything downstream (parity sums, k) is
computed directly from those lists with exact arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

ORACLE_LIMIT = 10_000


def oracle_divisors(n):
    """Every m in 1..n tested for n % m == 0."""
    m = np.arange(1, n + 1, dtype=np.int64)
    return [int(d) for d in m[n % m == 0]]


def oracle_factorize(n):
    """(prime, exponent) pairs by dividing out every d = 2, 3, 4, ... in turn."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def oracle_parity_sums(divs, alpha=1):
    """Rank-parity power sums straight off a divisor list."""
    if alpha >= 0:
        return (sum(d**alpha for d in divs[1::2]),
                sum(d**alpha for d in divs[0::2]))
    a = -alpha
    return (sum(Fraction(1, d**a) for d in divs[1::2]),
            sum(Fraction(1, d**a) for d in divs[0::2]))


def oracle_k(n):
    se, so = oracle_parity_sums(oracle_divisors(n))
    return Fraction(se, so)


def oracle_sigma_alpha(divs, alpha):
    """Classical divisor power sum over the whole list."""
    if alpha >= 0:
        return sum(d**alpha for d in divs)
    a = -alpha
    return sum(Fraction(1, d**a) for d in divs)


@pytest.fixture(scope="session")
def oracle_div_lists():
    """Brute-force divisor lists for every n <= ORACLE_LIMIT."""
    lists = [None] * (ORACLE_LIMIT + 1)
    for n in range(1, ORACLE_LIMIT + 1):
        lists[n] = oracle_divisors(n)
    return lists


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
