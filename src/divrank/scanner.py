"""Deterministic chunked range scans with optional worker pools and checkpoints.

A scan partitions [lo, hi] into fixed-size contiguous chunks, runs a
registered per-chunk task, and merges fragments in chunk order. Output is
therefore identical for any worker count, and a run interrupted at a chunk
boundary resumes from its checkpoint to the same result. A checkpoint is an
append-only log: a header line, written alone before any pool opens, then a
line per chunk; a fresh scan reads, appends to and removes it as a resume does.

With a checkpoint, the process that computes a chunk also encodes its
fragment, once, as the compact JSON its log line holds. run_scan alone folds
fragments into state, the resumed ones first, and only in a call that finishes
the scan: a run that `max_chunks` pauses appends its chunks' lines and decodes
none of them, and load_checkpoint decodes a log's lines only to validate them.

A log's header is checked before any chunk runs, so a log of another version,
task or configuration is refused before any pool opens. The pool then gets the
chunks left, and the resumed lines are decoded and checked while the workers
compute. At most 2 x workers chunks are handed out ahead of the fold.
On any raise, Ctrl-C included, the scan hands out no more chunks, and close()
and join() wait for those in flight; no path calls the pool's terminate().
Workers ignore SIGINT, so only the parent sees Ctrl-C.
"""

from __future__ import annotations

import copy
import json
import os
import re
import threading
from itertools import chain

from .core import _CLASS_KEY, _VIOLATION_KEYS, KERNEL_BOUND, CheckpointError, ScanInterrupted

CHUNK_SIZE_DEFAULT = 1 << 16
CHECKPOINT_VERSION = 4  # 4: a header line, then one appended line per chunk
_FRAGMENT_KEY = b',"fragment":'  # a chunk line's last key: the fragment's bytes follow it

# name -> (chunk_fn(lo, hi) -> fragment,
#          merge_fn(state, fragment) -> state,
#          empty_fn() -> state); fragments and state are JSON-safe. Under a
# checkpoint, _run_chunk encodes chunk_fn's fragment in the process that ran it;
# only run_scan calls merge_fn, on every chunk in order, in a call that finishes.
# perfbench/traced_cli.py wraps these triples and reads chunk_fn.__module__.
_TASKS: dict[str, tuple] = {}


def merge_fragments(state, frag):
    """Fold a chunk's fragment into the running state, in chunk order.

    Ints add, lists extend, and dicts of lists extend per key; a key new to the
    state takes the fragment's list itself, which later fragments extend.
    """
    for key, value in frag.items():
        if isinstance(value, dict):
            acc = state[key]
            for k, members in value.items():
                held = acc.get(k)
                if held is None:
                    acc[k] = members
                else:
                    held.extend(members)
        else:
            state[key] += value
    return state


def register_task(name, chunk_fn, empty):
    """`empty` is the task's state before any chunk: every key its fragments carry."""
    _TASKS[name] = (chunk_fn, merge_fragments, lambda: copy.deepcopy(empty))


def encode_fragment(fragment):
    """The compact JSON bytes of a fragment: the body of its checkpoint line."""
    return json.dumps(fragment, separators=(",", ":")).encode()


def _run_chunk(args):
    """The chunk's fragment; encoded by encode_fragment if `encode`, in the process
    that computed it, so the parent never serializes a fragment."""
    task, lo, hi, encode = args
    fragment = _TASKS[task][0](lo, hi)
    return encode_fragment(fragment) if encode else fragment


def _ignore_sigint():
    """A pool worker's initializer: Ctrl-C reaches only the parent, which stops the pool."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _handed_out(jobs, window, stop):
    """`jobs`, each handed out only once it takes a slot of `window`, which the scan
    gives back as it folds a chunk: at most the window's size run ahead of the fold.
    After `stop` is set, no job is handed out."""
    for job in jobs:
        window.acquire()
        if stop.is_set():
            return
        yield job


def config_digest(task: str, lo: int, hi: int, chunk_size: int) -> str:
    import hashlib  # here and below: a scan without a checkpoint never loads it

    blob = json.dumps(
        {"task": task, "lo": lo, "hi": hi, "chunk_size": chunk_size},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _chunk_line(last_n, body):
    """One chunk's log line, its fragment's encoded `body` written last, so that
    the digest covers exactly the bytes load_checkpoint reads back."""
    import hashlib

    head = json.dumps({"last_n": last_n, "sha256": hashlib.sha256(body).hexdigest()},
                      separators=(",", ":"))
    return b"".join((head[:-1].encode(), _FRAGMENT_KEY, body, b"}\n"))


def _write_synced(path, mode, data):
    with open(path, mode) as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def save_checkpoint(path, last_n, body):
    """Append the chunk ending at `last_n`, its fragment encoded as `body` by
    encode_fragment, to the log _start_log began at `path`: one write and one
    fsync, so a kill tears at most that line."""
    _write_synced(path, "ab", _chunk_line(last_n, body))


def _start_log(path, task, config_hash):
    """Begin the log at `path` before any pool opens, so an unwritable path costs no
    chunk. A missing log is written whole, its header line {version, task, config_hash}
    alone, as PATH.tmp, fsync'd and renamed; an existing one is opened for append."""
    try:
        if os.path.exists(path):
            open(path, "ab").close()
            return
        head = {"version": CHECKPOINT_VERSION, "task": task, "config_hash": config_hash}
        _write_synced(f"{path}.tmp", "wb", json.dumps(head, separators=(",", ":")).encode() + b"\n")
        os.replace(f"{path}.tmp", path)
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write checkpoint {path}: {exc.strerror}") from exc


def load_checkpoint(path, task, config_hash, chunk_ends):
    """(count, fragments) of a log that _start_log began: the number of its chunk
    lines, counted without decoding any, and a one-pass generator of their
    validated fragments, in chunk order.

    The log is read, and its header checked, at the call: a log of another version,
    task or configuration is refused before any chunk runs. Its chunk lines are
    decoded and checked as the generator runs. Line i + 1 must hold chunk i: a
    fragment of the task's shape, its digest, and as last_n the i-th of `chunk_ends`,
    the scan's chunk ends in order. An unterminated last line is a torn append: once
    the rest validates, it is cut off, and its chunk is recomputed.
    """
    import hashlib

    try:
        with open(path, "rb") as fh:
            raw = fh.read()  # each line is cut out of this one buffer, as it is reached
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    whole = raw.rfind(b"\n") + 1  # the end of the last complete line
    first = raw.find(b"\n", 0, whole) + 1  # the first chunk line's start; 0 if none is whole
    try:
        doc = json.loads(raw[:max(first - 1, 0)])
    except ValueError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    if doc.get("task") != task:
        raise CheckpointError(f"checkpoint {path} belongs to task {doc.get('task')!r}, not {task!r}")
    if doc.get("config_hash") != config_hash:
        raise CheckpointError(f"checkpoint {path} was written under a different configuration")
    count = raw.count(b"\n", first, whole)  # a one-line log holds no chunk line

    def fragments():
        empty, ends, line = _TASKS[task][2](), iter(chunk_ends), first
        for chunks in range(1, count + 1):
            where = f"checkpoint {path} line {chunks + 1}"
            stop = raw.index(b"\n", line)
            cut = raw.find(_FRAGMENT_KEY, line, stop - 1)
            doc = fragment = None
            if cut >= 0 and raw.endswith(b"}", line, stop):
                body = raw[cut + len(_FRAGMENT_KEY):stop - 1]
                try:
                    doc, fragment = json.loads(raw[line:cut] + b"}"), json.loads(body)
                except ValueError:
                    pass
            # type(), not isinstance(): JSON true would pass as the int 1
            if not (type(doc) is dict and doc.keys() == {"last_n", "sha256"}
                    and type(doc["last_n"]) is int and _same_shape(fragment, empty)):
                raise CheckpointError(f"{where} has a malformed last_n or fragment")
            # an edited fragment can keep its shape yet change the result (a forged violation)
            if hashlib.sha256(body).hexdigest() != doc["sha256"]:
                raise CheckpointError(f"{where} has a malformed fragment (digest mismatch)")
            expected = next(ends, None)  # a duplicated, skipped or reordered line misses it
            if doc["last_n"] != expected:
                raise CheckpointError(f"{where} ends chunk {chunks} at n={doc['last_n']}, "
                                      f"not at n={expected}: its chunks are out of order")
            yield fragment
            line = stop + 1
        if whole < len(raw):
            os.truncate(path, whole)

    return count, fragments()


# a dict's n keys, joined by spaces, fullmatch this with n - 1 spaces iff each key
# fullmatches core._CLASS_KEY: one pass costs about half as much as one per key
_CLASS_KEYS = re.compile("{0}(?: {0})*".format(_CLASS_KEY.pattern))


def _same_shape(state, empty):
    """`state` has exactly the keys of `empty`, each of the same type. A dict maps keys
    that fullmatch core._CLASS_KEY to lists of ints (a bool is no int here), and
    "violations" lists core._violation records: an int n, then two texts."""
    return type(state) is dict and state.keys() == empty.keys() and all(
        type(value) is type(empty[key]) and
        (type(value) is not dict or not value or
         _CLASS_KEYS.fullmatch(keys := " ".join(value)) and keys.count(" ") < len(value)
         and set(map(type, value.values())) <= {list}
         and set(map(type, chain.from_iterable(value.values()))) <= {int})
        and (key != "violations" or all(type(v) is dict and tuple(v) == _VIOLATION_KEYS
                                        and tuple(map(type, v.values())) == (int, str, str)
                                        for v in value))
        for key, value in state.items())


CHUNK_FLAGS = ("workers", "chunk_size", "checkpoint", "max_chunks")  # run_scan's keywords


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

    def end(a):
        return min(a + chunk_size - 1, hi)

    # chunk starts as a range, sliced and counted without listing a chunk
    starts = range(lo, hi + 1, chunk_size)
    count, resumed = 0, ()
    if checkpoint:  # a fresh log holds 0 chunks; its header is checked here, its lines below
        digest = config_digest(task, lo, hi, chunk_size)
        _start_log(checkpoint, task, digest)
        count, resumed = load_checkpoint(checkpoint, task, digest, map(end, starts))
    left = starts[count:]  # empty when a resumed scan had finished: it still cleans up
    todo = left if max_chunks is None else left[:max_chunks]
    pausing = len(todo) < len(left)  # its state would be discarded: fold nothing

    workers = min(workers, len(todo))  # no more processes than chunks left to run
    window, stop = threading.Semaphore(2 * max(workers, 1)), threading.Event()
    jobs = _handed_out(((task, a, end(a), bool(checkpoint)) for a in todo), window, stop)
    pool = None
    if workers > 1:  # only a pooled scan loads these
        import multiprocessing

        # imported once before the fork, numpy is inherited by every worker: two
        # workers importing it at once took longer than one import (2-vCPU host)
        import numpy  # noqa: F401

        pool = multiprocessing.Pool(workers, _ignore_sigint)
    try:
        frags = map(_run_chunk, jobs) if pool is None else pool.imap(_run_chunk, jobs)
        state = empty_fn()
        for frag in resumed:  # decoded and checked while the pool computes the chunks left
            if not pausing:
                state = merge_fn(state, frag)
        for a, frag in zip(todo, frags):
            if checkpoint:  # frag holds the line's encoded body
                save_checkpoint(checkpoint, end(a), frag)
            if not pausing:
                state = merge_fn(state, json.loads(frag) if checkpoint else frag)
            window.release()
    finally:  # on a raise too: hand out no more chunks, and wait only for those handed out
        stop.set()
        window.release()
        if pool is not None:
            pool.close()
            pool.join()

    if pausing:
        raise ScanInterrupted(checkpoint, end(todo[-1]))
    if checkpoint:
        os.remove(checkpoint)
    return state
