"""Deterministic chunked range scans with optional worker pools and checkpoints.

A scan partitions [lo, hi] into fixed-size contiguous chunks, runs a
registered per-chunk task, and merges fragments in chunk order. Output is
therefore identical for any worker count, and a run interrupted at a chunk
boundary resumes from its checkpoint to the same result.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import multiprocessing
import os

from .core import KERNEL_BOUND, CheckpointError, ScanInterrupted

CHUNK_SIZE_DEFAULT = 1 << 16
CHECKPOINT_VERSION = 3  # 3: G_k class keys are the printed k ("2", not "2/1")
_STATE_KEY = b',"state":'  # a checkpoint's last key: the state's bytes follow it

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


def save_checkpoint(path, task, config_hash, last_n, state):
    """One JSON object with the state written last, serialized once: its digest
    covers exactly those bytes, so load_checkpoint can hash them as read."""
    body = json.dumps(state, separators=(",", ":")).encode()
    head = json.dumps({
        "version": CHECKPOINT_VERSION,
        "task": task,
        "config_hash": config_hash,
        "last_n": last_n,
        "state_sha256": hashlib.sha256(body).hexdigest(),
    }, separators=(",", ":"))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.writelines((head[:-1].encode(), _STATE_KEY, body, b"}\n"))
    os.replace(tmp, path)


def load_checkpoint(path, task, config_hash):
    """Validated (last_n, state) from a checkpoint written by save_checkpoint."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
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
    if type(last_n) is not int or not _same_shape(state, _TASKS[task][2]()):
        raise CheckpointError(f"checkpoint {path} has a missing or malformed last_n or state")
    # an edited state can keep its shape yet change the result (a forged violation)
    body = memoryview(raw)[raw.find(_STATE_KEY) + len(_STATE_KEY):-len(b"}\n")]
    if hashlib.sha256(body).hexdigest() != doc.get("state_sha256"):
        raise CheckpointError(f"checkpoint {path} has a malformed state (digest mismatch)")
    return last_n, state


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
    if max_chunks is not None and not checkpoint:
        raise ValueError("max_chunks requires a checkpoint path to resume from")
    _, merge_fn, empty_fn = _TASKS[task]
    digest = config_digest(task, lo, hi, chunk_size)

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

    # chunk starts as a range, sliced and counted without listing a chunk
    starts = range(start, hi + 1, chunk_size)
    todo = starts if max_chunks is None else starts[:max_chunks]

    def end(a):
        return min(a + chunk_size - 1, hi)

    jobs = ((task, a, end(a)) for a in todo)
    parallel = workers > 1 and len(todo) > 1
    with multiprocessing.Pool(workers) if parallel else contextlib.nullcontext() as pool:
        frags = pool.imap(_run_chunk, jobs) if parallel else map(_run_chunk, jobs)
        for a, frag in zip(todo, frags):
            state = merge_fn(state, frag)
            if checkpoint:
                save_checkpoint(checkpoint, task, digest, end(a), state)

    if len(todo) < len(starts):
        raise ScanInterrupted(checkpoint, end(todo[-1]))
    if checkpoint and os.path.exists(checkpoint):
        os.remove(checkpoint)
    return state
