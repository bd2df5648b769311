"""Classify ranges of integers into G_k classes keyed by k(n) = sigma_e/sigma_o.

A GkTable maps each canonical rational k to the ascending list of its
members in a range; every n belongs to exactly one class. Index ratio
numbers are the n whose k(n) is a nonnegative integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .core import RangeOverlapError, _rank_row, divisor_list_of, parse_rational, rank_sums
from .scanner import CHUNK_SIZE_DEFAULT, register_task, run_scan


@dataclass
class GkTable:
    """Partition of [lo, hi] into G_k classes; member lists ascend."""

    lo: int
    hi: int
    classes: dict[Fraction, list[int]] = field(default_factory=dict)

    def members(self, k: Fraction) -> list[int]:
        return self.classes.get(k, [])

    def sorted_by_smallest_member(self) -> list[tuple[Fraction, list[int]]]:
        return sorted(self.classes.items(), key=lambda kv: kv[1][0])


def is_index_ratio(n: int) -> bool:
    """True iff sigma_o(n) divides sigma_e(n)."""
    _, _, _, se, so, _ = _rank_row(divisor_list_of(n))
    return se % so == 0


def _gk_chunk(lo, hi, params):
    classes: dict[str, list[int]] = {}
    for n, tau, d2, se, so, paired in rank_sums(range(lo, hi + 1)):
        g = gcd(se, so)
        classes.setdefault(f"{se // g}/{so // g}", []).append(n)
    return {"classes": classes}


def _irn_chunk(lo, hi, params):
    return {"members": [n for n, tau, d2, se, so, paired in rank_sums(range(lo, hi + 1))
                        if se % so == 0]}


register_task("gk", _gk_chunk, {"classes": {}})
register_task("irn", _irn_chunk, {"members": []})


def scan_range(lo: int, hi: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
               checkpoint: str | None = None, max_chunks: int | None = None) -> GkTable:
    """Classify every n in [lo, hi] into its G_k class.

    Deterministic for any worker count; `checkpoint` makes the scan
    resumable and `max_chunks` bounds this call's chunk budget (raising
    ScanInterrupted once state is saved).
    """
    state = run_scan("gk", lo, hi, workers=workers, chunk_size=chunk_size,
                     checkpoint=checkpoint, max_chunks=max_chunks)
    classes = {}
    for key, members in state["classes"].items():
        num, den = key.split("/")
        classes[Fraction(int(num), int(den))] = members
    return GkTable(lo, hi, classes)


def members_of_k(k: Fraction | str, limit: int, workers: int = 1) -> list[int]:
    """All n <= limit with k(n) = k, ascending."""
    if isinstance(k, str):
        k = parse_rational(k)
    table = scan_range(1, limit, workers=workers)
    return table.members(k)


def enumerate_index_ratio(limit: int, workers: int = 1) -> list[int]:
    """Ascending list of all index ratio numbers <= limit."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return run_scan("irn", 1, limit, workers=workers)["members"]


def merge_tables(a: GkTable, b: GkTable) -> GkTable:
    """Union of two tables over disjoint adjacent ranges; empty ranges are identities."""
    if a.lo > a.hi:
        return GkTable(b.lo, b.hi, {k: list(v) for k, v in b.classes.items()})
    if b.lo > b.hi:
        return GkTable(a.lo, a.hi, {k: list(v) for k, v in a.classes.items()})
    first, second = (a, b) if a.lo <= b.lo else (b, a)
    if first.hi >= second.lo:
        raise RangeOverlapError(
            f"ranges [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] overlap"
        )
    if first.hi + 1 != second.lo:
        raise RangeOverlapError(
            f"ranges [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] are not adjacent"
        )
    classes: dict[Fraction, list[int]] = {}
    for key, members in first.classes.items():
        classes[key] = list(members)
    for key, members in second.classes.items():
        classes.setdefault(key, []).extend(members)
    return GkTable(first.lo, second.hi, classes)
