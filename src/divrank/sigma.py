"""Divisor-rank parity sums.

With d_1 = 1 < d_2 < ... < d_tau(n) = n the ascending divisors of n,
sigma_e,a(n) sums d_i^a over even ranks i and sigma_o,a(n) over odd ranks.
k(n) = sigma_e(n)/sigma_o(n) (at a = 1) drives the G_k classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .core import AlphaZeroError, _rank_row, divisor_list_of, factorize, is_prime


@dataclass(frozen=True)
class ParitySums:
    """sigma_e,alpha(n) and sigma_o,alpha(n); exact ints for alpha >= 0, Fractions below."""

    n: int
    alpha: int
    sigma_e: int | Fraction
    sigma_o: int | Fraction


@dataclass(frozen=True)
class DivisorProfile:
    """Per-integer unit of the scan pipeline: divisors, tau, parity sums, k."""

    n: int
    divisors: tuple[int, ...]
    tau: int
    sigma_e: int
    sigma_o: int
    k: Fraction

    @property
    def is_index_ratio(self) -> bool:
        return self.k.denominator == 1


def is_perfect_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


def parity_sums_int(n: int, alpha: int) -> ParitySums:
    """Exact rank-parity power sums; negative alpha yields exact Fractions."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(alpha, bool) or not isinstance(alpha, int):
        raise TypeError(f"alpha must be an integer, got {alpha!r}")
    divs = divisor_list_of(n)
    if alpha >= 0:
        sig_e = sum(d**alpha for d in divs[1::2])
        sig_o = sum(d**alpha for d in divs[0::2])
    else:
        # common denominator n^|alpha|: 1/d^|a| = (n/d)^|a| / n^|a|, exact since d | n
        a = -alpha
        na = n**a
        sig_e = Fraction(sum((n // d) ** a for d in divs[1::2]), na)
        sig_o = Fraction(sum((n // d) ** a for d in divs[0::2]), na)
    return ParitySums(n, alpha, sig_e, sig_o)


def parity_sums_real(n: int, alpha: float) -> tuple[float, float]:
    """Floating-point rank-parity sums for real alpha (complex is rejected)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(alpha, complex):
        raise TypeError("complex alpha is not supported; only real exponents")
    a = float(alpha)
    divs = divisor_list_of(n)
    return (
        float(sum(d**a for d in divs[1::2])),
        float(sum(d**a for d in divs[0::2])),
    )


def tau_parity(n: int) -> tuple[int, int]:
    """(tau_e, tau_o): divisor counts at even and odd ranks."""
    tau = factorize(n).tau
    return tau // 2, (tau + 1) // 2


def k_ratio(n: int) -> Fraction:
    """k(n) = sigma_e(n)/sigma_o(n) as a canonical Fraction; k(1) = 0."""
    _, _, _, sig_e, sig_o, _ = _rank_row(divisor_list_of(n))
    return Fraction(sig_e, sig_o)


def profile(n: int) -> DivisorProfile:
    """Full DivisorProfile for n."""
    divs = divisor_list_of(n)
    _, tau, _, sig_e, sig_o, _ = _rank_row(divs)
    return DivisorProfile(
        n=n,
        divisors=tuple(divs),
        tau=tau,
        sigma_e=sig_e,
        sigma_o=sig_o,
        k=Fraction(sig_e, sig_o),
    )


def prime_power_closed_form(p: int, l: int, alpha: int) -> ParitySums:
    """Geometric closed form for sigma_e,a(p^l) and sigma_o,a(p^l), alpha != 0.

    Odd l:  sigma_e = p^a (p^{a(l+1)} - 1)/(p^{2a} - 1),  sigma_o = (p^{a(l+1)} - 1)/(p^{2a} - 1)
    Even l: sigma_e = p^a (p^{al} - 1)/(p^{2a} - 1),      sigma_o = (p^{a(l+2)} - 1)/(p^{2a} - 1)
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if isinstance(alpha, bool) or not isinstance(alpha, int):
        raise TypeError(f"alpha must be an integer, got {alpha!r}")
    if alpha == 0:
        raise AlphaZeroError(
            "alpha = 0 makes the denominator p^(2a) - 1 vanish; use tau counts (tau_parity)"
        )
    x = Fraction(p) ** alpha
    denom = x * x - 1
    if l % 2:
        top = x ** (l + 1) - 1
        sig_e = x * top / denom
        sig_o = top / denom
    else:
        sig_e = x * (x**l - 1) / denom
        sig_o = (x ** (l + 2) - 1) / denom
    if alpha > 0:
        # geometric sums of integers; denominators always cancel exactly
        if sig_e.denominator != 1 or sig_o.denominator != 1:
            raise ArithmeticError(f"closed form not integral for p={p}, l={l}, alpha={alpha}")
        sig_e = sig_e.numerator
        sig_o = sig_o.numerator
    return ParitySums(p**l, alpha, sig_e, sig_o)
