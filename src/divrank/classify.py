"""Classify ranges of integers into G_k classes keyed by k(n) = sigma_e/sigma_o.

A GkTable maps each k, keyed as printed ("2", "9/5") by `_class_key` alone,
to the ascending list of its members in a range; every n belongs to exactly
one class. Index ratio numbers are the n whose k(n) is a nonnegative integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .core import (
    RangeOverlapError,
    _rank_row,
    block_rows,
    divisor_list_of,
    parse_rational,
    rank_blocks,
    rank_sums,
)
from .scanner import CHUNK_SIZE_DEFAULT, register_task, run_scan


@dataclass
class GkTable:
    """Partition of [lo, hi] into G_k classes keyed by the printed k; member lists ascend."""

    lo: int
    hi: int
    classes: dict[str, list[int]] = field(default_factory=dict)

    def members(self, k: Fraction | int | str) -> list[int]:
        """The class of k; a string is parsed first, so "18/10" finds "9/5"."""
        q = parse_rational(k) if isinstance(k, str) else Fraction(k)
        return self.classes.get(_class_key(q.numerator, q.denominator), [])


def is_index_ratio(n: int) -> bool:
    """True iff sigma_o(n) divides sigma_e(n)."""
    _, _, _, se, so, _ = _rank_row(divisor_list_of(n))
    return se % so == 0


def _class_key(se, so):
    """k = se/so as printed, "num" or "num/den" in lowest terms: the key of a G_k
    class, which chunks, checkpoints and output carry unchanged; no other code makes one."""
    g = gcd(se, so)
    return f"{se // g}/{so // g}" if so != g else str(se // g)


def _gk_chunk(lo, hi):
    classes: dict[str, list[int]] = {}
    for n, tau, d2, se, so, paired in rank_sums(lo, hi):
        classes.setdefault(_class_key(se, so), []).append(n)
    return {"classes": classes}


def _irn_chunk(lo, hi):
    """(n, tau, sigma_e, sigma_o) of each index ratio number in [lo, hi]: all that
    `irn` prints, so it never walks the kernel twice."""
    rows = []
    for n, tau, d2, se, so, paired in rank_blocks(lo, hi):
        rows += block_rows((n, tau, se, so), (se % so == 0).nonzero()[0])  # so >= 1
    return {"rows": rows}


register_task("gk", _gk_chunk, {"classes": {}})
register_task("irn", _irn_chunk, {"rows": []})


def scan_range(lo: int, hi: int, *, workers: int = 1, chunk_size: int = CHUNK_SIZE_DEFAULT,
               checkpoint: str | None = None, max_chunks: int | None = None) -> GkTable:
    """Classify every n in [lo, hi] into its G_k class.

    Deterministic for any worker count; `checkpoint` makes the scan
    resumable and `max_chunks` bounds this call's chunk budget (raising
    ScanInterrupted once state is saved). Chunks merge in order and each
    key enters at its smallest member, so the classes come in that order.
    """
    state = run_scan("gk", lo, hi, workers=workers, chunk_size=chunk_size,
                     checkpoint=checkpoint, max_chunks=max_chunks)
    return GkTable(lo, hi, state["classes"])


def members_of_k(k: Fraction | int | str, limit: int, workers: int = 1) -> list[int]:
    """All n <= limit with k(n) = k, ascending."""
    return scan_range(1, limit, workers=workers).members(k)


def enumerate_index_ratio(limit: int, workers: int = 1) -> list[int]:
    """Ascending list of all index ratio numbers <= limit."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return [row[0] for row in run_scan("irn", 1, limit, workers=workers)["rows"]]


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
    classes = {key: list(members) for key, members in first.classes.items()}
    for key, members in second.classes.items():
        classes.setdefault(key, []).extend(members)
    return GkTable(first.lo, second.hi, classes)
