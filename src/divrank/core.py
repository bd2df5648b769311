"""Exact integer substrate: factorization, ordered divisors, the rank-sum kernel, rationals.

All arithmetic uses Python's arbitrary-precision integers, so divisor sums
can never overflow or wrap. The one exception is the block rank-sum kernel,
`rank_blocks`, which hands out numpy arrays (int64 sums, int32 d_2) and works
only for n < KERNEL_BOUND = 2**31, where none of its values can outgrow its
dtype; the dense range checks test those arrays with int64 masks bounded the
same way. Its walk needs no rank parity for the sums, and walks the rank
pairing only for the two checks that read it. numpy is imported on the
kernel's first block (or by a pooled scan before it forks its workers), not
with the module, so commands that touch no block (profile, and the multiplier,
unit-fraction, prime-power-distinct, lower-bound and conjecture 3 checks) never
load it. The block range scans sieve what they need per block. Single-n calls,
the squares scans' among them, take the (p, e) pairs of one trial-division
helper, `_prime_pairs`, and one flat expansion, `_expand`, which
`divisors_sorted` shares; `divisor_list_of` builds no Factorization (the 6,324
squares up to 4e7: 57 -> 40 ms, BENCH_pr18.json). `_rank_row` gives one n's
kernel row in Python ints. Beside it are the one place that makes a G_k class key,
`_class_key` (of se/so, or `_class_key_of` of a given k), and a counterexample, `_violation`.
Rationals are stdlib ``fractions.Fraction``, always in canonical reduced form
with a positive denominator, which renders as "num/den" (eliding "/1").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


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


def _prime_pairs(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n, primes ascending, by trial division by 2, 3 and
    6k +- 1; [] for n = 1. A perfect square r^2 is factored through r, its exponents
    doubled: trial division of r^2 itself would run up to the largest prime of r.
    It is the n >= 1 guard of every single-n path that checks nothing before it."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = isqrt(n)
    if r > 1 and r * r == n:
        return [(p, 2 * e) for p, e in _prime_pairs(r)]
    pairs = []
    m = n
    pair, d = (2, 3), 5  # then d, d + 2 = 6k -+ 1, stepped past pairs that divide nothing
    while True:
        for p in pair:
            if m % p == 0:
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                pairs.append((p, e))
        while d * d <= m and m % d and m % (d + 2):
            d += 6
        if d * d > m:
            break
        pair, d = (d, d + 2), d + 6
    if m > 1:
        pairs.append((m, 1))
    return pairs


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division (`_prime_pairs`); empty for n = 1."""
    return Factorization(n, tuple(_prime_pairs(n)))


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


def rank_blocks(lo, hi, pairs=False):
    """(n, tau, d_2, sigma_e, sigma_o), and `paired` if `pairs`, as arrays over
    [lo, hi], block by block.

    sigma_e/sigma_o sum the divisors of even/odd rank, d_2 is the smallest prime
    factor (1 at n = 1, which has no second divisor), and `paired` says
    d_2j = d_2 d_2j-1 for every j (never for a square). `paired` is bool, d_2
    int32 and the rest int64; every n must be below KERNEL_BOUND.
    """
    # the walk makes about 10 numpy calls per d <= isqrt(hi), 20 with pairs, so a
    # block of 16 isqrt(hi) n or more keeps that overhead near one call per n
    width = max(_BLOCK, 16 * isqrt(max(hi, 0)))
    for a in range(lo, hi + 1, width):
        yield _block_rank_sums(a, min(a + width - 1, hi), pairs)


def block_rows(block, at=None):
    """The rows of one rank_blocks block, or of arrays drawn from it, at the indices
    `at`, or every row when `at` is None, as tuples of Python ints (`paired` a bool)."""
    count = len(block[0]) if at is None else len(at)
    for i in range(0, count, _BLOCK):  # bounds the int lists of a wide block
        part = slice(i, i + _BLOCK) if at is None else at[i : i + _BLOCK]
        yield from zip(*(column[part].tolist() for column in block))


def _rank_row(divs):
    """The rank_blocks row with pairs, in Python ints, of the n whose divisors are `divs`."""
    tau = len(divs)
    d2 = divs[1] if tau > 1 else 1
    paired = tau % 2 == 0 and all(divs[i + 1] == d2 * divs[i] for i in range(0, tau, 2))
    return divs[-1], tau, d2, sum(divs[1::2]), sum(divs[0::2]), paired


def _class_key(se, so):
    """k = se/so as printed, "num" or "num/den" in lowest terms: the key of a G_k
    class, which chunks, checkpoints and output carry unchanged; no other code makes one."""
    g = gcd(se, so)
    return f"{se // g}/{so // g}" if so != g else str(se // g)


def _class_key_of(k):
    """The class key of k, a Fraction, an int or a text: "18/10" names "9/5"."""
    q = parse_rational(k) if isinstance(k, str) else Fraction(k)
    return _class_key(q.numerator, q.denominator)


_CLASS_KEY = re.compile(r"[0-9]+(?:/[0-9]+)?")  # every key made or resumed: schema's rational
_VIOLATION_KEYS = ("n", "expected", "actual")  # an int, then two texts: schema's violation


def _violation(n, expected, actual):
    """The record of an n that breaks a check: what the check expected, and what it found."""
    return dict(zip(_VIOLATION_KEYS, (n, expected, actual)))


def _block_rank_sums(a, b, pairs=False):
    """rank_blocks arrays for [a, b] from one ascending walk over d <= isqrt(b).

    d_2 is sieved per block (the segmented sieve of Bays & Hudson, BIT 17,
    1977): the primes p <= isqrt(b), largest first, overwrite their multiples
    from max(p^2, a), so each n ends with its smallest prime factor, or n
    itself when it is 1 or prime.

    Each d updates the n it divides with d^2 <= n, so every n sees its m small
    divisors d_c in rank order c = 1, ..., m. The walk keeps m, the sum of
    d_c + n/d_c, and, by x <- y_c - x, the alternating sums of y_c = d_c + n/d_c
    and of y_c = d_c, which end as (-1)^(m+1) sum_c (-1)^(c+1) y_c: no step needs
    the parity of c. The large divisor n/d_c has rank tau + 1 - c. For a
    non-square, tau = 2m gives it the other parity from c, so sigma_o - sigma_e
    alternates d_c - n/d_c. A square r^2 has tau = 2m - 1: n/d_c keeps the parity
    of c, and the root d_m = r is counted twice. sigma_o is then
    (sigma + sigma_o - sigma_e) / 2, exactly. With `pairs` the walk also tracks
    the next rank's parity and the last d_c. Pairing only needs the small half:
    n/d maps pair (2j-1, 2j) onto (tau+1-2j, tau+2-2j) with the same ratio, and
    the middle pair of tau = 2 mod 4 is n = d_2 d_c^2.
    """
    import numpy as np  # once loaded, a dict lookup per block

    if b >= KERNEL_BOUND:
        raise ValueError(f"block kernel covers n < {KERNEL_BOUND}, got {b}")
    # each dtype holds its values for n < 2**31: d_2 <= n and d <= isqrt(n) < 2**16
    # in int32; tau <= 1600, so m <= 800 in int16; in int64, d + n/d <= n + 1,
    # total < sigma(n) + 2**16 < 2**34 + 2**16, |alt|, |alt_small| <= total, and
    # |2 alt_small - alt| <= 3 total
    w = b - a + 1
    d2 = np.arange(a, b + 1, dtype=np.int32)
    for p in reversed(primes_upto(isqrt(b))):
        d2[max(p * p, -(-a // p) * p) - a :: p] = p
    count = np.zeros(w, dtype=np.int16)  # m so far
    total = np.zeros(w, dtype=np.int64)  # sum of d_c + n/d_c
    alt = np.zeros(w, dtype=np.int64)  # alternating sum of d_c + n/d_c
    alt_small = np.zeros(w, dtype=np.int64)  # alternating sum of d_c
    if pairs:
        odd = np.ones(w, dtype=bool)  # the rank of the next small divisor is odd
        last = np.ones(w, dtype=np.int32)
        paired = np.ones(w, dtype=bool)
    for d in range(1, isqrt(b) + 1):
        first = -(-max(a, d * d) // d) * d
        if first > b:
            continue
        view = slice(first - a, w, d)
        plus = np.arange(d + first // d, d + b // d + 1, dtype=np.int64)  # d + n/d
        t, u, v, c = total[view], alt[view], alt_small[view], count[view]
        np.add(t, plus, out=t)
        np.subtract(plus, u, out=u)
        np.subtract(d, v, out=v)
        np.add(c, 1, out=c)
        if pairs:
            o, ok, prev = odd[view], paired[view], last[view]
            # an even rank c needs d_c = d_2 d_(c-1), and d_2 d_(c-1) < d^2 < 2**31
            np.logical_and(ok, o | (d2[view] * prev == d), out=ok)
            np.logical_not(o, out=o)
            prev[...] = d
    roots = np.arange(isqrt(a - 1) + 1, isqrt(b) + 1, dtype=np.int64)
    at = roots * roots - a
    # (-1)^(m+1) (sigma_o - sigma_e): 2 alt_small - alt, or alt - r at a square r^2
    diff = alt_small
    diff *= 2
    diff -= alt
    diff[at] = alt[at] - roots
    del alt  # the block's peak memory comes after this, with n and tau
    np.negative(diff, out=diff, where=count % 2 == 0)  # now sigma_o - sigma_e
    total[at] -= roots  # now sigma
    sigma_o = np.add(total, diff, out=diff)
    sigma_o >>= 1
    sigma_e = np.subtract(total, sigma_o, out=total)
    n = np.arange(a, b + 1, dtype=np.int64)
    tau = count.astype(np.int64)
    tau *= 2
    tau[at] -= 1
    if not pairs:
        return n, tau, d2, sigma_e, sigma_o
    # a non-square has tau = 2 mod 4 iff m is odd; the middle pair then holds
    # iff n / d_m = d_2 d_m, where d_2 d_m <= n < 2**31
    paired[at] = False
    paired &= (count % 2 == 0) | (n // last == d2 * last)
    return n, tau, d2, sigma_e, sigma_o, paired


def _expand(pairs) -> list[int]:
    """Ascending divisors of the n with prime-exponent pairs `pairs`: a flat
    mixed-radix expansion, one prime at a time, then a single sort."""
    divs = [1]
    for p, e in pairs:
        powers = [1]
        for _ in range(e):
            powers.append(powers[-1] * p)
        divs = [d * q for q in powers for d in divs]
    divs.sort()
    return divs


def divisors_sorted(f: Factorization) -> list[int]:
    """Ascending divisors of f.n by `_expand`, the flat expansion divisor_list_of shares."""
    return _expand(f.factors)


def divisor_list_of(n: int) -> list[int]:
    """Ascending divisors of n: `_expand` of its `_prime_pairs`, with no Factorization built."""
    return _expand(_prime_pairs(n))


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
