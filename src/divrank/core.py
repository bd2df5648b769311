"""Exact integer substrate: factorization, ordered divisors, the rank-sum kernel, rationals.

All arithmetic uses Python's arbitrary-precision integers, so divisor sums
can never overflow or wrap. The one exception is the block rank-sum kernel,
`rank_blocks`, which hands out numpy arrays (int64 sums, int32 d_2) and works
only for n < KERNEL_BOUND = 2**31, where none of its values can outgrow its
dtype; the dense range checks test those arrays with int64 masks bounded the
same way. numpy is imported on the kernel's first block (or by a pooled scan
before it forks its workers), not with the module, so commands that touch no
block (profile, and the multiplier, unit-fraction, prime-power-distinct,
lower-bound and conjecture 3 checks) never load it. The block range scans
sieve what they need per block; single-n calls, the squares scans' among them,
factor by trial division. Rationals are stdlib ``fractions.Fraction``, which is
always in canonical reduced form with a positive denominator and renders as
"num/den" (eliding "/1").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


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
    """Prime factorization by trial division; empty for n = 1.

    A perfect square r^2 is factored through r, its exponents doubled: trial
    division of r^2 itself would run up to the largest prime of r.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    r = isqrt(n)
    if r > 1 and r * r == n:
        return Factorization(n, tuple((p, 2 * e) for p, e in factorize(r).factors))
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


# kept only for perfbench's setup_s until ROADMAP item 1 re-points that metric;
# importing divrank loads no numpy, so this import inside the function is what
# keeps setup_s timing numpy's import together with the sieve
def build_spf_sieve(limit: int):
    """Smallest-prime-factor table for 0 <= m <= `limit` as an int32 numpy array."""
    import numpy as np

    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[2::2] = 2
    for p in range(3, isqrt(limit) + 1, 2):
        if spf[p] == 0:
            view = spf[p * p :: 2 * p]
            view[view == 0] = p
    # remaining zeros at odd positions are primes above sqrt(limit)
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    return spf


# the walk's block floor in n: dense-verify's peak RSS (35.5 MB with 8192-n
# blocks) reads 37.0 MB at 32,768 n and 39.2 MB at 65,536, which runs no faster
_BLOCK = 1 << 15

# the block kernel's int64 arithmetic is exact only below this n, and range scans stop here
KERNEL_BOUND = 2**31


def rank_blocks(lo, hi):
    """(n, tau, d_2, sigma_e, sigma_o, paired) as arrays over [lo, hi], block by block.

    sigma_e/sigma_o sum the divisors of even/odd rank, d_2 is the smallest prime
    factor (1 at n = 1, which has no second divisor), and `paired` says
    d_2j = d_2 d_2j-1 for every j (never for a square). `paired` is bool, d_2
    int32 and the rest int64; every n must be below KERNEL_BOUND.
    """
    # the walk makes about 25 numpy calls per d <= isqrt(hi), so a block of
    # 16 isqrt(hi) n or more keeps that overhead near two calls per n
    width = max(_BLOCK, 16 * isqrt(max(hi, 0)))
    for a in range(lo, hi + 1, width):
        yield _block_rank_sums(a, min(a + width - 1, hi))


def block_rows(block, at=None):
    """The rows of one rank_blocks block (or of some of its columns) at the indices
    `at`, or every row when `at` is None, as tuples of Python ints and a bool."""
    count = len(block[0]) if at is None else len(at)
    for i in range(0, count, _BLOCK):  # bounds the int lists of a wide block
        part = slice(i, i + _BLOCK) if at is None else at[i : i + _BLOCK]
        yield from zip(*(column[part].tolist() for column in block))


def rank_sums(lo, hi):
    """The rank_blocks rows of each n in [lo, hi], in order, through block_rows."""
    for block in rank_blocks(lo, hi):
        yield from block_rows(block)


def _rank_row(divs):
    """The rank_sums row of the n whose ascending divisor list is `divs`."""
    tau = len(divs)
    d2 = divs[1] if tau > 1 else 1
    paired = tau % 2 == 0 and all(divs[i + 1] == d2 * divs[i] for i in range(0, tau, 2))
    return divs[-1], tau, d2, sum(divs[1::2]), sum(divs[0::2]), paired


def _block_rank_sums(a, b):
    """rank_blocks arrays for [a, b] from one ascending walk over d <= isqrt(b).

    d_2 is sieved per block (the segmented sieve of Bays & Hudson, BIT 17,
    1977): the primes p <= isqrt(b), largest first, overwrite their multiples
    from max(p^2, a), so each n ends with its smallest prime factor, or n
    itself when it is 1 or prime.

    Each d updates the n it divides with d^2 <= n, so every n sees its small
    divisors d_c in rank order c = 1, 2, ..., and a bool tracks the parity of
    c. The walk sums d_c and n/d_c, over all c and over odd c. The large
    divisor n/d_c has rank tau + 1 - c: of the other parity than c when tau is
    even, of the same when n is a square, whose root is then counted twice.
    Pairing only needs the small half: n/d maps pair (2j-1, 2j) onto
    (tau+1-2j, tau+2-2j) with the same ratio, and the middle pair of
    tau = 2 mod 4 is n = d_2 d_c^2.
    """
    import numpy as np  # once loaded, a dict lookup per block

    if b >= KERNEL_BOUND:
        raise ValueError(f"block kernel covers n < {KERNEL_BOUND}, got {b}")
    # each dtype holds its values for n < 2**31: d_2 <= n and d <= isqrt(n) < 2**16
    # in int32; tau <= 1600, so count <= 800 in int16; the sums, all below
    # sigma(n) < 2**34, in int64
    w = b - a + 1
    d2 = np.arange(a, b + 1, dtype=np.int32)
    for p in reversed(primes_upto(isqrt(b))):
        d2[max(p * p, -(-a // p) * p) - a :: p] = p
    count = np.zeros(w, dtype=np.int16)
    odd = np.ones(w, dtype=bool)  # the rank of the next small divisor is odd
    small = np.zeros(w, dtype=np.int64)  # sum of d_c
    small_odd = np.zeros(w, dtype=np.int64)  # sum of d_c over odd c
    large = np.zeros(w, dtype=np.int64)  # sum of n/d_c
    large_odd = np.zeros(w, dtype=np.int64)  # sum of n/d_c over odd c
    last = np.ones(w, dtype=np.int32)
    paired = np.ones(w, dtype=bool)
    for d in range(1, isqrt(b) + 1):
        first = -(-max(a, d * d) // d) * d
        if first > b:
            continue
        view = slice(first - a, w, d)
        q = np.arange(first // d, b // d + 1, dtype=np.int64)
        o = odd[view]
        # an even rank c needs d_c = d_2 d_(c-1), and d_2 d_(c-1) < d^2 < 2**31
        paired[view] &= o | (d2[view] * last[view] == d)
        u, v = small_odd[view], large_odd[view]
        np.add(u, d, out=u, where=o)
        np.add(v, q, out=v, where=o)
        np.logical_not(o, out=o)  # o is a view: this flips odd[view] for the next rank
        small[view] += d
        large[view] += q
        count[view] += 1
        last[view] = d
    roots = np.arange(isqrt(a - 1) + 1, isqrt(b) + 1, dtype=np.int64)
    at = roots * roots - a
    square = np.zeros(w, dtype=bool)
    square[at] = True
    # the large divisors of odd and of even rank: n/d_c over even and over odd c,
    # swapped for the squares
    large -= large_odd
    large[at], large_odd[at] = large_odd[at], large[at]
    sigma_o = np.add(large, small_odd, out=large)
    small -= small_odd
    sigma_e = np.add(large_odd, small, out=large_odd)
    del small, small_odd  # the block's peak memory comes after this
    # a root d_c = n/d_c was counted twice, at rank c; odd[at] says c is even
    sigma_o[at] -= np.where(odd[at], 0, roots)
    sigma_e[at] -= np.where(odd[at], roots, 0)
    n = np.arange(a, b + 1, dtype=np.int64)
    # a non-square has tau = 2 mod 4 iff its count is odd; the middle pair then
    # holds iff n / d_c = d_2 d_c, where d_2 d_c <= n < 2**31
    paired &= ~square & ((count % 2 == 0) | (n // last == d2 * last))
    tau = count.astype(np.int64)
    tau *= 2
    tau -= square
    return n, tau, d2, sigma_e, sigma_o, paired


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
