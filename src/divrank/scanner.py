"""Deterministic chunked range scans with optional worker pools and checkpoints.

A scan partitions [lo, hi] into fixed-size contiguous chunks, runs a
registered per-chunk task, and merges fragments in chunk order. Output is
therefore identical for any worker count, and a run interrupted at a chunk
boundary resumes from its checkpoint to the same result. A checkpoint is an
append-only log: a header line, then one line per chunk with its fragment.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os

from .core import KERNEL_BOUND, CheckpointError, ScanInterrupted

CHUNK_SIZE_DEFAULT = 1 << 16
CHECKPOINT_VERSION = 4  # 4: a header line, then one appended line per chunk
_FRAGMENT_KEY = b',"fragment":'  # a chunk line's last key: the fragment's bytes follow it

# name -> (chunk_fn(lo, hi) -> fragment,
#          merge_fn(state, fragment) -> state,
#          empty_fn() -> state); fragments and state are JSON-safe.
# perfbench/traced_cli.py wraps these triples and reads chunk_fn.__module__.
_TASKS: dict[str, tuple] = {}


def merge_fragments(state, frag):
    """Fold a chunk's fragment into the running state, in chunk order.

    Ints add, lists extend, and dicts of lists extend per key.
    """
    for key, value in frag.items():
        if isinstance(value, dict):
            acc = state[key]
            for k, members in value.items():
                acc.setdefault(k, []).extend(members)
        else:
            state[key] += value
    return state


def register_task(name, chunk_fn, empty):
    """`empty` is the task's state before any chunk: every key its fragments carry."""
    _TASKS[name] = (chunk_fn, merge_fragments, lambda: copy.deepcopy(empty))


def _run_chunk(args):
    task, lo, hi = args
    return _TASKS[task][0](lo, hi)


def config_digest(task: str, lo: int, hi: int, chunk_size: int) -> str:
    blob = json.dumps(
        {"task": task, "lo": lo, "hi": hi, "chunk_size": chunk_size},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _chunk_line(last_n, fragment):
    """One chunk's log line, its fragment serialized once and written last, so that
    the digest covers exactly the bytes load_checkpoint reads back."""
    body = json.dumps(fragment, separators=(",", ":")).encode()
    head = json.dumps({"last_n": last_n, "sha256": hashlib.sha256(body).hexdigest()},
                      separators=(",", ":"))
    return b"".join((head[:-1].encode(), _FRAGMENT_KEY, body, b"}\n"))


def _write_synced(path, mode, data):
    with open(path, mode) as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def save_checkpoint(path, task, config_hash, last_n, fragment):
    """Append the chunk ending at `last_n` to the log at `path` with a single write,
    so a kill tears at most that line. A new log appears whole, by rename, with its
    header line: {version, task, config_hash}."""
    line = _chunk_line(last_n, fragment)
    if os.path.exists(path):
        _write_synced(path, "ab", line)
        return
    head = json.dumps({"version": CHECKPOINT_VERSION, "task": task, "config_hash": config_hash},
                      separators=(",", ":"))
    _write_synced(f"{path}.tmp", "wb", head.encode() + b"\n" + line)
    os.replace(f"{path}.tmp", path)


def load_checkpoint(path, task, config_hash, chunk_ends=()):
    """(chunks, state) replayed from the log save_checkpoint appends to, validated.

    Line i + 1 must hold chunk i: a fragment of the task's shape, its digest, and
    as last_n the i-th of `chunk_ends`, the scan's chunk ends in order. An
    unterminated last line is a torn append: once the rest validates, it is cut
    off, and its chunk is recomputed.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    whole = raw.rfind(b"\n") + 1  # the end of the last complete line
    head, _, rest = raw[:whole].partition(b"\n")
    lines = rest.split(b"\n")[:-1]
    try:
        doc = json.loads(head)
    except ValueError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    if doc.get("task") != task:
        raise CheckpointError(f"checkpoint {path} belongs to task {doc.get('task')!r}, not {task!r}")
    if doc.get("config_hash") != config_hash:
        raise CheckpointError(f"checkpoint {path} was written under a different configuration")
    empty_fn = _TASKS[task][2]
    empty, state, chunks, ends = empty_fn(), empty_fn(), 0, iter(chunk_ends)
    for chunks, line in enumerate(lines, 1):
        where = f"checkpoint {path} line {chunks + 1}"
        prefix, key, body = line[:-1].partition(_FRAGMENT_KEY)
        try:
            doc, fragment = json.loads(prefix + b"}"), json.loads(body)
        except ValueError:
            doc = fragment = None
        # type(), not isinstance(): JSON true would pass as the int 1
        if not (key and line.endswith(b"}") and type(doc) is dict
                and doc.keys() == {"last_n", "sha256"} and type(doc["last_n"]) is int
                and _same_shape(fragment, empty)):
            raise CheckpointError(f"{where} has a malformed last_n or fragment")
        # an edited fragment can keep its shape yet change the result (a forged violation)
        if hashlib.sha256(body).hexdigest() != doc["sha256"]:
            raise CheckpointError(f"{where} has a malformed fragment (digest mismatch)")
        expected = next(ends, None)  # a duplicated, skipped or reordered line misses it
        if doc["last_n"] != expected:
            raise CheckpointError(f"{where} ends chunk {chunks} at n={doc['last_n']}, "
                                  f"not at n={expected}: its chunks are out of order")
        state = merge_fragments(state, fragment)
    if whole < len(raw):
        os.truncate(path, whole)
    return chunks, state


def _same_shape(state, empty):
    """`state` has exactly the keys of `empty`, each of the same type; dicts hold lists."""
    if type(state) is not dict or state.keys() != empty.keys():
        return False
    return all(type(value) is type(empty[key]) and
               (type(value) is not dict or all(type(m) is list for m in value.values()))
               for key, value in state.items())


def run_scan(task, lo, hi, *, workers=1, chunk_size=CHUNK_SIZE_DEFAULT,
             checkpoint=None, max_chunks=None):
    """Run a registered task over [lo, hi]; returns the merged final state.

    `max_chunks` bounds the number of chunks processed this call; when the
    budget runs out before hi, state is checkpointed and ScanInterrupted is
    raised. Results are byte-deterministic for any workers/chunk budget split.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi >= KERNEL_BOUND:
        raise ValueError(f"range scans cover n < {KERNEL_BOUND}, got hi = {hi}")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if max_chunks is not None and max_chunks < 1:
        raise ValueError("max_chunks must be >= 1")
    if max_chunks is not None and not checkpoint:
        raise ValueError("max_chunks requires a checkpoint path to resume from")
    _, merge_fn, empty_fn = _TASKS[task]
    digest = config_digest(task, lo, hi, chunk_size)

    def end(a):
        return min(a + chunk_size - 1, hi)

    # chunk starts as a range, sliced and counted without listing a chunk
    starts = range(lo, hi + 1, chunk_size)
    done, state = 0, empty_fn()
    if checkpoint and os.path.exists(checkpoint):
        done, state = load_checkpoint(checkpoint, task, digest, map(end, starts))
    left = starts[done:]  # empty when a resumed scan had finished: it still cleans up
    todo = left if max_chunks is None else left[:max_chunks]

    jobs = ((task, a, end(a)) for a in todo)
    parallel = workers > 1 and len(todo) > 1
    if parallel:  # only a pooled scan loads these
        import multiprocessing

        # imported once before the fork, numpy is inherited by every worker: two
        # workers importing it at once took longer than one import (2-vCPU host)
        import numpy  # noqa: F401
    with multiprocessing.Pool(workers) if parallel else contextlib.nullcontext() as pool:
        frags = pool.imap(_run_chunk, jobs) if parallel else map(_run_chunk, jobs)
        for a, frag in zip(todo, frags):
            state = merge_fn(state, frag)
            if checkpoint:
                save_checkpoint(checkpoint, task, digest, end(a), frag)

    if len(todo) < len(left):
        raise ScanInterrupted(checkpoint, end(todo[-1]))
    if checkpoint and os.path.exists(checkpoint):
        os.remove(checkpoint)
    return state
