"""Classify ranges of integers into G_k classes keyed by k(n) = sigma_e/sigma_o.

A GkTable maps each k, keyed as printed ("2", "9/5") by `core._class_key` alone,
to the ascending list of its members in a range; every n belongs to exactly
one class. Index ratio numbers are the n whose k(n) is a nonnegative integer.
A chunk groups each kernel block by class with np.gcd and a stable np.lexsort."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    RangeOverlapError,
    _class_key,
    _class_key_of,
    _rank_row,
    block_rows,
    divisor_list_of,
    rank_blocks,
)
from .scanner import merge_fragments, register_task, run_scan


@dataclass
class GkTable:
    """Partition of [lo, hi] into G_k classes keyed by the printed k; member lists ascend."""

    lo: int
    hi: int
    classes: dict[str, list[int]] = field(default_factory=dict)

    def members(self, k: Fraction | int | str) -> list[int]:
        """The class of k; a string is parsed first, so "18/10" finds "9/5"."""
        return self.classes.get(_class_key_of(k), [])


def is_index_ratio(n: int) -> bool:
    """True iff sigma_o(n) divides sigma_e(n)."""
    _, _, _, se, so, _ = _rank_row(divisor_list_of(n))
    return se % so == 0


def _gk_chunk(lo, hi):
    import numpy as np  # not with the module: commands that walk no block never load it
    classes: dict[str, list[int]] = {}
    for n, tau, d2, se, so in rank_blocks(lo, hi):
        g = np.gcd(se, so)
        e, o = se // g, so // g
        order = np.lexsort((o, e))  # stable: members ascend inside each class
        n, e, o = n[order], e[order], o[order]
        start = np.flatnonzero(np.r_[True, (e[1:] != e[:-1]) | (o[1:] != o[:-1]), True])
        runs = np.argsort(n[start[:-1]])  # one run per class, by its first member
        first, members = start[:-1][runs], n.tolist()
        for s, t, num, den in block_rows((first, start[1:][runs], e[first], o[first])):
            classes.setdefault(_class_key(num, den), []).extend(members[s:t])
    return {"classes": classes}


def _irn_chunk(lo, hi):
    """(n, tau, sigma_e, sigma_o) of each index ratio number in [lo, hi]: all that
    `irn` prints, so it never walks the kernel twice."""
    rows = []
    for n, tau, d2, se, so in rank_blocks(lo, hi):
        rows += block_rows((n, tau, se, so), (se % so == 0).nonzero()[0])  # so >= 1
    return {"rows": rows}


register_task("gk", _gk_chunk, {"classes": {}})
register_task("irn", _irn_chunk, {"rows": []})


def scan_range(lo: int, hi: int, **flags) -> GkTable:
    """Classify every n in [lo, hi] into its G_k class; `flags` go to run_scan.

    Deterministic for any worker count; `checkpoint` makes the scan
    resumable and `max_chunks` bounds this call's chunk budget (raising
    ScanInterrupted once state is saved). Chunks merge in order and each
    key enters at its smallest member, so the classes come in that order.
    """
    return GkTable(lo, hi, run_scan("gk", lo, hi, **flags)["classes"])


def members_of_k(k: Fraction | int | str, limit: int, workers: int = 1) -> list[int]:
    """All n <= limit with k(n) = k, ascending."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    key = _class_key_of(k)  # a k that is no rational is refused before the scan
    return scan_range(1, limit, workers=workers).classes.get(key, [])


def enumerate_index_ratio(limit: int, workers: int = 1) -> list[int]:
    """Ascending list of all index ratio numbers <= limit."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return [row[0] for row in run_scan("irn", 1, limit, workers=workers)["rows"]]


def merge_tables(a: GkTable, b: GkTable) -> GkTable:
    """Union of two tables over disjoint adjacent ranges; empty ranges are identities.
    Classes merge in range order, into new lists, as a scan's chunks merge."""
    parts = sorted([t for t in (a, b) if t.lo <= t.hi], key=lambda t: t.lo) or [b]
    for first, second in zip(parts, parts[1:]):
        if first.hi >= second.lo:
            raise RangeOverlapError(f"ranges [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] overlap")
        if first.hi + 1 != second.lo:
            raise RangeOverlapError(
                f"ranges [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] are not adjacent"
            )
    state = {"classes": {}}
    for t in parts:  # merge_fragments adopts a new key's list: hand it a copy
        state = merge_fragments(state, {"classes": {k: list(m) for k, m in t.classes.items()}})
    return GkTable(parts[0].lo, parts[-1].hi, state["classes"])
