"""Classify ranges of integers into G_k classes keyed by k(n) = sigma_e/sigma_o.

A GkTable maps each k, keyed as printed ("2", "9/5") by `core._class_key` alone,
to the ascending list of its members in a range; every n belongs to exactly
one class. Index ratio numbers are the n whose k(n) is a nonnegative integer.
A chunk groups each kernel block by class once, with np.gcd and a stable np.lexsort,
and takes one of two outputs from that grouping: the dict of classes, folded in
process or sent back from a pool worker, or, under a checkpoint, the compact JSON
text of the chunk's log line, written straight from the grouped arrays with one
% template per chunk, without the dict or json.dumps."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    _BLOCK,
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


def _grouped(n, e, o):
    """`n` reordered so that the n of each (e, o) form one run, ascending (the sort
    is stable), and each run's first and stop index, e and o, runs by first n."""
    import numpy as np  # not with the module: commands that walk no block never load it
    order = np.lexsort((o, e))
    n, e, o = n[order], e[order], o[order]
    start = np.flatnonzero(np.r_[True, (e[1:] != e[:-1]) | (o[1:] != o[:-1]), True])
    runs = np.argsort(n[start[:-1]])
    first = start[:-1][runs]
    return n, first, start[1:][runs], e[first], o[first]


def _class_blocks(lo, hi):
    """Each kernel block of [lo, hi] grouped by class: its members and runs, as _grouped
    gives them, of k = e/o reduced by np.gcd."""
    import numpy as np
    for n, tau, d2, se, so in rank_blocks(lo, hi):
        g = np.gcd(se, so)
        yield _grouped(n, se // g, so // g)


def _spans(first, stop):
    """The indices first[0] .. stop[0] - 1, then first[1] .. stop[1] - 1, ..., as one array."""
    import numpy as np
    length = stop - first
    return np.repeat(first - np.cumsum(length) + length, length) + np.arange(length.sum())


_NEXT_CLASS = b'],"%s":['  # the template's text before a class's first member


def _member_text(members, opens):
    """`members` in decimal, each after ",", or after _NEXT_CLASS where `opens` is set."""
    import numpy as np
    digits = np.searchsorted(10 ** np.arange(10), members, side="right")  # n < 2^31 < 10^10
    width = digits + 1 + opens * (len(_NEXT_CLASS) - 1)
    stop = np.cumsum(width)
    text = np.full(stop[-1], ord(","), np.uint8)
    text[(stop - width)[opens, None] + np.arange(len(_NEXT_CLASS))] = list(_NEXT_CLASS)
    for k in range(1, digits.max() + 1):  # the k-th digit from the right of each member
        has = digits >= k
        text[(stop - k)[has]] = 48 + members[has] // 10 ** (k - 1) % 10
    return text.tobytes().decode()


def _gk_text(lo, hi):
    """encode_fragment's bytes of _gk_chunk(lo, hi), from the same grouping: the blocks'
    runs are grouped once more by class, the members written in decimal by numpy, and
    the keys fill one % template; no list or dict of classes is made."""
    import numpy as np
    # each block's members run by run, and each run's size, e and o; runs ascend by first n
    members, sizes, e, o = map(np.concatenate, zip(*(
        (n[_spans(first, stop)], stop - first, e, o)
        for n, first, stop, e, o in _class_blocks(lo, hi))))
    ends = np.cumsum(sizes)
    runs, head, tail, e, o = _grouped(np.arange(len(sizes)), e, o)  # a class's runs, in order
    runs, length = runs[_spans(head, tail)], tail - head
    members = members[_spans(ends[runs] - sizes[runs], ends[runs])]  # class by class
    size = sizes[runs]
    opens = np.zeros(len(members), bool)
    opens[(np.cumsum(size) - size)[np.cumsum(length) - length]] = True  # each class's first
    text = "".join(_member_text(members[i:i + _BLOCK], opens[i:i + _BLOCK])
                   for i in range(0, len(members), _BLOCK))  # bounds the digit arrays
    keys = tuple(map(_class_key, e.tolist(), o.tolist()))
    return ('{"classes":{%s]}}' % text[2:] % keys).encode()


def _gk_chunk(lo, hi, encode=False):
    """The G_k fragment of [lo, hi]: its classes, each key entering at its smallest
    member. With `encode`, the fragment's encode_fragment bytes instead (_gk_text)."""
    if encode:
        return _gk_text(lo, hi)
    classes: dict[str, list[int]] = {}
    for members, first, stop, e, o in _class_blocks(lo, hi):
        members = members.tolist()
        for s, t, num, den in block_rows((first, stop, e, o)):
            classes.setdefault(_class_key(num, den), []).extend(members[s:t])
    return {"classes": classes}


def _irn_chunk(lo, hi):
    """(n, tau, sigma_e, sigma_o) of each index ratio number in [lo, hi]: all that
    `irn` prints, so it never walks the kernel twice."""
    rows = []
    for n, tau, d2, se, so in rank_blocks(lo, hi):
        rows += block_rows((n, tau, se, so), (se % so == 0).nonzero()[0])  # so >= 1
    return {"rows": rows}


register_task("gk", _gk_chunk, {"classes": {}}, encodes=True)
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
