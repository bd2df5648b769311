"""Stop pooled scans over and over with a fault in the parent, and count the hangs.

    PYTHONPATH=src python3 tools/pool_stop_loop.py

Each of RUNS runs is one `scanner.run_scan` of the G_k task on two workers with
a checkpoint, under a TIMEOUT-second `signal.alarm`, with one of three faults,
taken in turn:

- save:   `save_checkpoint` raises OSError on its third append;
- merge:  the task's merge raises on its third fold;
- refuse: the resumed log's third chunk line has a wrong digest, so it is
          refused (CheckpointError) once the chunks left are handed out.

Every run should raise its fault. A run still inside `run_scan` when the alarm
fires counts as hung; after each run, any live child process counts as left.
The script prints the counts and exits 1 on any hang, leftover child, or run that
did not raise. A run that outlives twice its alarm, stuck in the stop path after
the alarm fired, ends the script at once through `faulthandler`, with exit 1 and
every thread's traceback. It uses the standard library and divrank only.
"""

from __future__ import annotations

import faulthandler
import json
import multiprocessing
import os
import signal
import sys
import tempfile

from divrank import scanner
from divrank.core import CheckpointError, ScanInterrupted

HI, CHUNK = 12 * 4096, 4096  # 12 chunks of the G_k task
RUNS, TIMEOUT = 210, 10  # runs, and seconds per run before it counts as hung


class Hung(Exception):
    """The run outlived its alarm."""


def _on_alarm(signum, frame):
    raise Hung


def _third_call_raises(fn):
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == 3:
            raise OSError("injected fault")
        return fn(*args)
    return wrapped


def _refused_log(path):
    """The bytes of a log paused after 3 chunks whose third line has a wrong digest."""
    try:
        scanner.run_scan("gk", 1, HI, chunk_size=CHUNK, checkpoint=path, max_chunks=3)
    except ScanInterrupted:
        pass
    with open(path, "rb") as fh:
        head, first, second, third = fh.read().splitlines(keepends=True)
    doc = json.loads(third)
    doc["sha256"] = "0" * 64
    return head + first + second + json.dumps(doc, separators=(",", ":")).encode() + b"\n"


def run_once(fault, path, refused):
    """Run one faulted scan; the exception it raised, or None."""
    task = scanner._TASKS["gk"]
    save = scanner.save_checkpoint
    if fault == "save":
        scanner.save_checkpoint = _third_call_raises(save)
    elif fault == "merge":
        scanner._TASKS["gk"] = (task[0], _third_call_raises(task[1]), task[2])
    else:
        with open(path, "wb") as fh:
            fh.write(refused)
    try:
        scanner.run_scan("gk", 1, HI, chunk_size=CHUNK, workers=2, checkpoint=path)
    except (OSError, CheckpointError, Hung) as exc:
        return exc
    finally:
        scanner.save_checkpoint, scanner._TASKS["gk"] = save, task
        if os.path.exists(path):
            os.remove(path)
    return None


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    faults = ("save", "merge", "refuse")
    counts = {fault: {"raised": 0, "hung": 0, "quiet": 0} for fault in faults}
    left = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gk.ck")
        refused = _refused_log(path)
        for run in range(RUNS):
            fault = faults[run % len(faults)]
            signal.alarm(TIMEOUT)
            faulthandler.dump_traceback_later(2 * TIMEOUT, exit=True)
            try:
                exc = run_once(fault, path, refused)
            finally:
                signal.alarm(0)
                faulthandler.cancel_dump_traceback_later()
            kind = "hung" if isinstance(exc, Hung) else "raised" if exc else "quiet"
            counts[fault][kind] += 1
            left += len(multiprocessing.active_children())
    total = {kind: sum(c[kind] for c in counts.values()) for kind in ("raised", "hung", "quiet")}
    for fault in faults:
        print(f"{fault:7s} " + ", ".join(f"{kind} {n}" for kind, n in counts[fault].items()))
    print(f"runs {RUNS}: raised {total['raised']}, hung {total['hung']}, "
          f"did not raise {total['quiet']}, children left {left}")
    return 1 if total["hung"] or total["quiet"] or left else 0


if __name__ == "__main__":
    sys.exit(main())
