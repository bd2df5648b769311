"""Exact integer substrate: factorization, SPF sieve, ordered divisors, rationals.

All arithmetic uses Python's arbitrary-precision integers, so divisor sums
can never overflow or wrap. The one exception is the block rank-sum kernel,
which works in int64 only for n < KERNEL_BOUND = 2**31, where none of its
values can reach 2**63. Range scans sieve what they need per block, and
single-n calls factor by trial division. Rationals are stdlib
``fractions.Fraction``, which is always in canonical reduced form with a
positive denominator and renders as "num/den" (eliding "/1").
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

DEFAULT_SIEVE_MEMORY_BYTES = 512 * 1024 * 1024


class SieveMemoryError(MemoryError):
    """Requested sieve limit exceeds the configured memory budget."""


class Inapplicable(ValueError):
    """Input lies outside the domain a check is stated for."""


class HypothesisViolation(ValueError):
    """A theorem hypothesis fails; `index` names the failing step when chained."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class AlphaZeroError(ValueError):
    """alpha = 0 makes the closed form's denominator vanish; use tau counts."""


class RangeOverlapError(ValueError):
    """Tables to merge cover overlapping or non-adjacent ranges."""


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt or was written under a different configuration."""


class ScanInterrupted(RuntimeError):
    """A chunk-budgeted scan stopped early; state was saved to `checkpoint`."""

    def __init__(self, checkpoint, last_n):
        super().__init__(f"scan interrupted after n={last_n}; checkpoint saved to {checkpoint}")
        self.checkpoint = checkpoint
        self.last_n = last_n


@dataclass(frozen=True)
class Factorization:
    """n together with its (prime, exponent) pairs, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def tau(self) -> int:
        t = 1
        for _, e in self.factors:
            t *= e + 1
        return t


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    m = n + 1
    if m <= 2:
        return 2
    if m % 2 == 0:
        m += 1
    while not is_prime(m):
        m += 2
    return m


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit via a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division; empty for n = 1."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factors.append((p, e))
        d += 6
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


class SpfSieve:
    """Immutable smallest-prime-factor table for 2 <= m <= limit.

    Safe to share across workers; lookups are O(1) and factorization via
    the table is O(log n).
    """

    def __init__(self, limit: int, table: array):
        self.limit = limit
        self._table = table

    def smallest_factor(self, m: int) -> int:
        if not 2 <= m <= self.limit:
            raise ValueError(f"query {m} outside sieve range [2, {self.limit}]")
        return self._table[m]

    def is_prime(self, m: int) -> bool:
        return m >= 2 and self._table[m] == m

    def factorize(self, n: int) -> Factorization:
        if n < 1:
            raise ValueError(f"factorize requires n >= 1, got {n}")
        if n > self.limit:
            return factorize(n)
        spf = self._table
        factors = []
        m = n
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return Factorization(n, tuple(factors))


def build_spf_sieve(limit: int, memory_budget: int = DEFAULT_SIEVE_MEMORY_BYTES) -> SpfSieve:
    """Smallest-prime-factor table up to `limit` (vectorized construction).

    Raises SieveMemoryError when the table would exceed `memory_budget` bytes.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    # int32 table plus a transient numpy copy during construction
    needed = 8 * (limit + 1)
    if needed > memory_budget:
        raise SieveMemoryError(
            f"sieve to {limit} needs about {needed} bytes, over the {memory_budget}-byte budget; "
            "raise memory_budget to allow it"
        )
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[2::2] = 2
    for p in range(3, isqrt(limit) + 1, 2):
        if spf[p] == 0:
            view = spf[p * p :: 2 * p]
            view[view == 0] = p
    # remaining zeros at odd positions are primes above sqrt(limit)
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    table = array("i")
    table.frombytes(spf.astype(np.int32, copy=False).tobytes())
    return SpfSieve(limit, table)


_BLOCK = 8192  # rows converted to Python ints at a time: bounds the kernel's int lists

# the block kernel's int64 arithmetic is exact only below this n, and range scans stop here
KERNEL_BOUND = 2**31


def rank_sums(ns):
    """(n, tau, d_2, sigma_e, sigma_o, paired) for each n of `ns`.

    The one kernel behind every range scan: sigma_e/sigma_o sum the divisors of
    even/odd rank, d_2 is the smallest prime factor (1 at n = 1, which has no
    second divisor), and `paired` says d_2j = d_2 d_2j-1 for every j (never for
    a square). A `range` goes through the block walk over small divisors, every
    n < KERNEL_BOUND; any other iterable (the squares of the lower-bound and
    conjecture-3 scans) factors each n by trial division and expands its list.
    """
    if isinstance(ns, range) and ns.step == 1:
        # the walk makes about 16 numpy calls per d <= isqrt(hi), so a block of
        # 16 isqrt(hi) n or more keeps that overhead near one call per n
        width = max(_BLOCK, 16 * isqrt(max(ns.stop - 1, 0)))
        for a in range(ns.start, ns.stop, width):
            yield from _block_rank_sums(a, min(a + width, ns.stop) - 1)
        return
    for n in ns:
        yield _rank_row(divisor_list_of(n))


def _rank_row(divs):
    """The rank_sums row of the n whose ascending divisor list is `divs`."""
    tau = len(divs)
    d2 = divs[1] if tau > 1 else 1
    paired = tau % 2 == 0 and all(divs[i + 1] == d2 * divs[i] for i in range(0, tau, 2))
    return divs[-1], tau, d2, sum(divs[1::2]), sum(divs[0::2]), paired


def _block_rank_sums(a, b):
    """rank_sums rows for [a, b] from one ascending walk over d <= isqrt(b).

    d_2 is sieved per block (the segmented sieve of Bays & Hudson, BIT 17,
    1977): the primes p <= isqrt(b), largest first, overwrite their multiples
    from max(p^2, a), so each n ends with its smallest prime factor, or n
    itself when it is 1 or prime.

    Each d updates the n it divides with d^2 <= n, so every n sees its small
    divisors in rank order c = 1, 2, ... The large divisor n/d_c has rank
    tau + 1 - c, so once tau = 2c - [n square] is known, the signed sums
    S1 = sum (-1)^(c+1) d and S2 = sum (-1)^(c+1) n/d give
    sigma_o - sigma_e = S1 - S2 (tau even) or S1 + S2 (tau odd). Pairing only
    needs the small half: n/d maps pair (2j-1, 2j) onto (tau+1-2j, tau+2-2j)
    with the same ratio, and the middle pair of tau = 2 mod 4 is n = d_2 d_c^2.
    """
    if b >= KERNEL_BOUND:
        raise ValueError(f"block kernel covers n < {KERNEL_BOUND}, got {b}")
    # int64 is exact below 2**31: sigma(n) < 2**37 and d_2 d_c^2 <= n^2 < 2**62
    w = b - a + 1
    d2 = np.arange(a, b + 1, dtype=np.int64)
    for p in reversed(primes_upto(isqrt(b))):
        d2[max(p * p, -(-a // p) * p) - a :: p] = p
    count = np.zeros(w, dtype=np.int64)
    sign = np.ones(w, dtype=np.int64)
    s1 = np.zeros(w, dtype=np.int64)
    s2 = np.zeros(w, dtype=np.int64)
    total = np.zeros(w, dtype=np.int64)
    last = np.ones(w, dtype=np.int64)
    paired = np.ones(w, dtype=bool)
    for d in range(1, isqrt(b) + 1):
        first = -(-max(a, d * d) // d) * d
        if first > b:
            continue
        view = slice(first - a, w, d)
        q = np.arange(first // d, b // d + 1, dtype=np.int64)
        g = sign[view]
        s1[view] += g * d
        s2[view] += g * q
        total[view] += q + d
        count[view] += 1
        # g = -1 marks an even rank c: d_c must be d_2 d_(c-1)
        paired[view] &= (g > 0) | (d2[view] * last[view] == d)
        last[view] = d
        g *= -1  # g is a view: this flips sign[view] for the next rank
    roots = np.arange(isqrt(a - 1) + 1, isqrt(b) + 1, dtype=np.int64)
    at = roots * roots - a
    square = np.zeros(w, dtype=bool)
    square[at] = True
    # the root was also counted as its own complement; sign[at] is minus its sign
    s2[at] += sign[at] * roots
    total[at] -= roots
    tau = 2 * count - square
    diff = np.where(square, s1 + s2, s1 - s2)
    middle = (tau % 4 == 2) & (d2 * last * last != np.arange(a, b + 1, dtype=np.int64))
    paired &= ~square & ~middle
    sigma_e = (total - diff) // 2
    sigma_o = (total + diff) // 2
    for i in range(0, w, _BLOCK):
        rows = slice(i, i + _BLOCK)
        yield from zip(range(a + i, min(a + i + _BLOCK, b + 1)), tau[rows].tolist(),
                       d2[rows].tolist(), sigma_e[rows].tolist(), sigma_o[rows].tolist(),
                       paired[rows].tolist())


def divisors_sorted(f: Factorization) -> list[int]:
    """Ascending list of all divisors of f.n (mixed-radix expansion, then sort)."""
    divs = [1]
    for p, e in f.factors:
        base = len(divs)
        pk = 1
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in divs[:base])
    divs.sort()
    return divs


def divisor_list_of(n: int) -> list[int]:
    """Ascending divisors of n."""
    return divisors_sorted(factorize(n))


def rational_of(num: int, den: int = 1) -> Fraction:
    """Canonical nonnegative rational num/den; rejects den = 0 and negatives."""
    if den == 0:
        raise ValueError("denominator must be nonzero")
    if den < 0 or num < 0:
        raise ValueError(f"rational must be nonnegative with den >= 1, got {num}/{den}")
    return Fraction(num, den)


_RATIONAL_RE = re.compile(r"^\s*(\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or "num" into a canonical Fraction."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return rational_of(num, den)


def format_rational(q: Fraction) -> str:
    """Canonical "num/den" rendering, "/den" elided when den = 1."""
    return str(q)
