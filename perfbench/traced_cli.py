"""Run one divrank CLI command with spans recorded at the package's layer boundaries.

    python3 perfbench/traced_cli.py SPANS_FILE WORKLOAD [divrank arguments...]

Wrappers are installed from outside the package, around the public
functions each layer exposes, and then `cli.main(argv)` runs as the
console script would. A span is (id, name, start, end, parent, workload,
pid, attrs), with `time.monotonic()` times, which on Linux are comparable
across processes. The main process keeps its spans in memory and writes
them to SPANS_FILE as JSON lines when the command ends. Forked pool workers
never run exit handlers, so each appends a span to SPANS_FILE.<pid> as soon
as it ends, before the chunk's result goes back to the parent.

A boundary that no longer exists is listed on a `missing` line instead of
failing, so the benchmark can report that layer's metrics as missing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time

SPAWN_ENV = "PERFBENCH_SPAWN_T"


class Tracer:
    def __init__(self, path, workload):
        self.path = path
        self.workload = workload
        self.main_pid = os.getpid()
        self.ids = itertools.count(1)
        self.stack = []
        self.spans = []
        self.missing = []

    def record(self, name, start, end, parent=None, attrs=None, sid=None):
        span = {"id": sid or f"{os.getpid()}:{next(self.ids)}", "name": name,
                "start": start, "end": end, "parent": parent, "workload": self.workload,
                "pid": os.getpid(), "attrs": attrs or {}}
        if os.getpid() == self.main_pid:
            self.spans.append(span)
        else:
            with open(f"{self.path}.{os.getpid()}", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def wrap(self, name, fn, attrs_of=None):
        """`fn` inside a span; `attrs_of(args, kwargs, result)` adds counts after the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sid = f"{os.getpid()}:{next(self.ids)}"
            self.stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self.stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            self.record(name, start, end, parent, attrs, sid)
            return result
        return traced

    def patch(self, modules, attr, name, attrs_of=None):
        """Wrap `attr` in every module that binds the same object; note it if none does."""
        owners = [m for m in modules if hasattr(m, attr)]
        if not owners:
            self.missing.append(name)
            return
        original = getattr(owners[0], attr)
        wrapped = self.wrap(name, original, attrs_of)
        for m in owners:
            if getattr(m, attr) is original:
                setattr(m, attr, wrapped)

    def dump(self):
        with open(self.path, "w") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _chunk_attrs(task, module):
    return lambda args, kwargs, result: {"task": task, "module": module,
                                         "n": args[1] - args[0] + 1}


def install(tracer):
    """Wrap every layer boundary the benchmark measures."""
    import multiprocessing.pool

    loaded = {}
    for name in ("core", "sigma", "scanner", "theorems", "classify", "cli"):
        try:
            loaded[name] = importlib.import_module(f"divrank.{name}")
        except ImportError:  # a module merged away; its boundaries show up as missing
            pass
    modules = list(loaded.values())
    cli = loaded["cli"]  # the entry point itself; without it nothing can run

    # registered triples: (chunk_fn(lo, hi, spf, params), merge_fn, empty_fn)
    tasks = getattr(loaded.get("scanner"), "_TASKS", None)
    if not isinstance(tasks, dict) or not tasks or not all(
            isinstance(t, tuple) and len(t) == 3 for t in tasks.values()):
        tracer.missing.append("scanner.register_task")
    else:
        for task, (chunk_fn, merge_fn, empty_fn) in list(tasks.items()):
            module = chunk_fn.__module__.rsplit(".", 1)[-1]
            tasks[task] = (tracer.wrap("scanner.chunk", chunk_fn, _chunk_attrs(task, module)),
                           tracer.wrap("scanner.merge", merge_fn), empty_fn)

    def path_bytes(args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}

    tracer.patch(modules, "save_checkpoint", "scanner.save_checkpoint", path_bytes)
    tracer.patch(modules, "load_checkpoint", "scanner.load_checkpoint")
    tracer.patch(modules, "build_spf_sieve", "core.build_spf_sieve",
                 lambda args, kwargs, result: {"entries": args[0] + 1})
    tracer.patch(modules, "run_scan", "scanner.run_scan")
    tracer.patch(modules, "scan_range", "classify.scan_range")
    tracer.patch(modules, "k_ratio", "sigma.k_ratio")
    renderers = [a for a in dir(cli) if a.startswith("render_")]
    if not renderers:
        tracer.missing.append("cli.render")
    for attr in renderers:
        tracer.patch([cli], attr, "cli.render",
                     lambda args, kwargs, result: {"bytes": len(result.encode())})
    tracer.patch([cli], "emit", "cli.emit")

    # the parent blocks here while pool workers compute the next fragment
    iterator = getattr(multiprocessing.pool, "IMapIterator", None)
    if iterator is None:
        tracer.missing.append("scanner.pool_wait")
    else:
        iterator.__next__ = tracer.wrap("scanner.pool_wait", iterator.__next__)
        iterator.next = iterator.__next__
    return cli


def main(argv):
    spans_path, workload, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(spans_path, workload)
    import divrank.cli  # noqa: F401  (its import cost is start-up)

    imported = time.monotonic()
    spawned = float(os.environ.get(SPAWN_ENV, imported))
    tracer.record("cli.startup", spawned, imported)
    cli = install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_argv)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
