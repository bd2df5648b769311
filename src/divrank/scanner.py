"""Deterministic chunked range scans with optional worker pools and checkpoints.

A scan partitions [lo, hi] into fixed-size contiguous chunks, runs a
registered per-chunk task, and merges fragments in chunk order. Output is
therefore identical for any worker count, and a run interrupted at a chunk
boundary resumes from its checkpoint to the same result.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os

from .core import KERNEL_BOUND, CheckpointError, ScanInterrupted

CHUNK_SIZE_DEFAULT = 1 << 16
CHECKPOINT_VERSION = 1

# name -> (chunk_fn(lo, hi, params) -> fragment,
#          merge_fn(state, fragment) -> state,
#          empty_fn() -> state); fragments and state are JSON-safe.
# perfbench/traced_cli.py wraps these triples and reads chunk_fn.__module__.
_TASKS: dict[str, tuple] = {}


def merge_fragments(state, frag):
    """Fold a chunk's fragment into the running state, in chunk order.

    Ints add, lists extend, and dicts of lists extend per key; the first
    fragment's values are taken over as they are.
    """
    for key, value in frag.items():
        if key not in state:
            state[key] = value
        elif isinstance(value, dict):
            acc = state[key]
            for k, members in value.items():
                acc.setdefault(k, []).extend(members)
        else:
            state[key] += value
    return state


def register_task(name, chunk_fn):
    _TASKS[name] = (chunk_fn, merge_fragments, dict)


def _run_chunk(args):
    task, lo, hi, params = args
    return _TASKS[task][0](lo, hi, params)


def config_digest(task: str, lo: int, hi: int, chunk_size: int, params: dict) -> str:
    blob = json.dumps(
        {"task": task, "lo": lo, "hi": hi, "chunk_size": chunk_size, "params": params},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def save_checkpoint(path, task, config_hash, last_n, state):
    doc = {
        "version": CHECKPOINT_VERSION,
        "task": task,
        "config_hash": config_hash,
        "last_n": last_n,
        "state": state,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path, task, config_hash):
    """Validated (last_n, state) from a checkpoint written by save_checkpoint."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    if doc.get("task") != task:
        raise CheckpointError(f"checkpoint {path} belongs to task {doc.get('task')!r}, not {task!r}")
    if doc.get("config_hash") != config_hash:
        raise CheckpointError(f"checkpoint {path} was written under a different configuration")
    last_n, state = doc.get("last_n"), doc.get("state")
    # type(), not isinstance(): JSON true would pass as the int 1
    if type(last_n) is not int or not isinstance(state, dict):
        raise CheckpointError(f"checkpoint {path} has a missing or malformed last_n or state")
    return last_n, state


def run_scan(task, lo, hi, params=None, *, workers=1, chunk_size=CHUNK_SIZE_DEFAULT,
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
    if max_chunks is not None and not checkpoint:
        raise ValueError("max_chunks requires a checkpoint path to resume from")
    params = dict(params or {})
    chunk_fn, merge_fn, empty_fn = _TASKS[task]
    digest = config_digest(task, lo, hi, chunk_size, params)

    state = empty_fn()
    start = lo
    if checkpoint and os.path.exists(checkpoint):
        last_n, state = load_checkpoint(checkpoint, task, digest)
        on_boundary = last_n == hi or (last_n - lo + 1) % chunk_size == 0
        if not (lo - 1 <= last_n <= hi and on_boundary):
            raise CheckpointError(f"checkpoint {checkpoint} has last_n={last_n} off any chunk boundary")
        start = last_n + 1
        if start > hi:
            return state

    chunks = [(a, min(a + chunk_size - 1, hi)) for a in range(start, hi + 1, chunk_size)]
    todo = chunks if max_chunks is None else chunks[:max_chunks]
    interrupted = len(todo) < len(chunks)

    if workers <= 1 or len(todo) <= 1:
        for a, b in todo:
            state = merge_fn(state, chunk_fn(a, b, params))
            if checkpoint:
                save_checkpoint(checkpoint, task, digest, b, state)
    else:
        jobs = [(task, a, b, params) for a, b in todo]
        with multiprocessing.Pool(workers) as pool:
            for (a, b), frag in zip(todo, pool.imap(_run_chunk, jobs)):
                state = merge_fn(state, frag)
                if checkpoint:
                    save_checkpoint(checkpoint, task, digest, b, state)

    if interrupted:
        raise ScanInterrupted(checkpoint, todo[-1][1])
    if checkpoint and os.path.exists(checkpoint):
        os.remove(checkpoint)
    return state
