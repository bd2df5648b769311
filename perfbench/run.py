"""divrank scan benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload dense-verify --seed 0 --seconds 30 --trace 0

Run from the root of a divrank source tree; the package is imported from
`src/` (nothing is installed). A run repeats the workload's command
sequence (see workloads.py) until the sequences have taken --seconds,
at least once. Before each of the first SETUP_REPS sequences it times
the set-up of a fresh process (import divrank, build the SPF sieve at
the workload's largest limit); a run with fewer sequences times the
rest at the end. Every command is a fresh
`divrank.cli.main(argv)` process in a fresh directory under
.perfbench_tmp/, with DIVRANK_* settings removed from its environment.

With --trace 0 the sequences run untraced and give the end-to-end metrics.
With --trace 1 untraced and traced sequences alternate; traced commands
run under traced_cli.py, whose spans give the per-layer metrics, and
trace.overhead_s is the traced minus the untraced median wall time.

Every output is checked: the first sequence of a run against the pinned
exit code and stdout digest (default seed) or against invariants (other
seeds), later sequences against the first. A miss counts as a failed
command and never stops the run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

End-to-end metrics are medians over the sequences of the run: wall_s sums
each command's median wall time, n_per_s is the integers the commands scan
divided by wall_s, setup_s is the median set-up time, and peak_rss_mb is
the largest ru_maxrss of any process of a sequence, pool workers included.
failed_ratio (failed / attempted) is printed on its own line; a correct
tree gives 0, so the JSON carries it as `attempted` and `failed`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from traced_cli import SPAWN_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
TRACED_CLI = HERE / "traced_cli.py"

CLI = "import sys; from divrank.cli import main; sys.exit(main())"
SETUP = ("import sys, time; from divrank import core; "
         "core.build_spf_sieve(int(sys.argv[1])); print(repr(time.monotonic()))")
SETUP_REPS = 11
HARD_LIMIT_S = 170  # a run has to end within 180 s

END_TO_END = {"wall_s": "s", "n_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.sieve_build_s": "s", "core.sieve_builds": "count", "core.sieve_entries": "count",
    "theorems.chunk_s": "s", "theorems.chunk_ns_per_n": "ns",
    "classify.chunk_s": "s", "classify.chunk_ns_per_n": "ns",
    "scanner.chunks": "count", "scanner.chunk_ms.p50": "ms", "scanner.chunk_ms.pNN": "ms",
    "scanner.merge_s": "s", "scanner.pool_wait_s": "s", "classify.finalize_s": "s",
    "scanner.checkpoint_write_s": "s", "scanner.checkpoint_writes": "count",
    "scanner.checkpoint_bytes": "B", "scanner.checkpoint_load_s": "s",
    "cli.render_s": "s", "cli.render_bytes": "B", "cli.emit_s": "s",
    "sigma.k_ratio_s": "s", "sigma.k_ratio_calls": "count", "cli.startup_s": "s",
    "theorems.applicable_ratio": "ratio", "trace.overhead_s": "s",
}
CHUNK_METRICS = ["theorems.chunk_s", "theorems.chunk_ns_per_n", "classify.chunk_s",
                 "classify.chunk_ns_per_n", "scanner.chunks", "scanner.chunk_ms.p50",
                 "scanner.chunk_ms.pNN", "scanner.merge_s"]
# boundary wrapped by traced_cli.py -> metrics that cannot be derived without it
NEEDS = {
    "core.build_spf_sieve": ["core.sieve_build_s", "core.sieve_builds", "core.sieve_entries"],
    "scanner.register_task": CHUNK_METRICS,
    "scanner.pool_wait": ["scanner.pool_wait_s"],
    "scanner.run_scan": ["classify.finalize_s"],
    "classify.scan_range": ["classify.finalize_s"],
    "scanner.save_checkpoint": ["scanner.checkpoint_write_s", "scanner.checkpoint_writes",
                                "scanner.checkpoint_bytes"],
    "scanner.load_checkpoint": ["scanner.checkpoint_load_s"],
    "cli.render": ["cli.render_s", "cli.render_bytes"],
    "cli.emit": ["cli.emit_s"],
    "sigma.k_ratio": ["sigma.k_ratio_s", "sigma.k_ratio_calls"],
}


@dataclass
class Outcome:
    """One finished command: exit code (None when killed), wall time, peak RSS."""

    cmd: workloads.Command
    exit: int | None
    wall: float
    rss_mb: float
    dir: Path
    problems: list[str] = field(default_factory=list)

    @property
    def stdout(self) -> Path:
        return self.dir / "stdout"


def spawn(argv, cwd: Path, env, deadline):
    """Run argv to completion; (exit code or None if killed, wall s, rusage)."""
    start = time.monotonic()
    env = {**env, SPAWN_ENV: repr(start)}
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env,
                                start_new_session=True)
    done = []
    # wait4 gives the child's rusage; its ru_maxrss covers the pool workers it reaped
    waiter = threading.Thread(target=lambda: done.append((os.wait4(proc.pid, 0),
                                                          time.monotonic())))
    waiter.start()
    waiter.join(max(0.0, deadline - time.monotonic()))
    killed = waiter.is_alive()
    if killed:
        os.killpg(proc.pid, signal.SIGKILL)
        waiter.join()
    (_, status, usage), end = done[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), end - start, usage


@contextlib.contextmanager
def scratch_dir(prefix):
    """A fresh directory under .perfbench_tmp/; both go away afterwards."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:  # not empty: another run is using it
            pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVRANK_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_sequence(name, cmds, seq_dir: Path, trace: bool, deadline) -> list[Outcome]:
    # a fresh directory per sequence means no checkpoint is left over to resume from
    checkpoint = seq_dir / "gk.checkpoint"
    outcomes = []
    for i, cmd in enumerate(cmds):
        cwd = seq_dir / f"cmd{i}"
        cwd.mkdir()
        argv = [a.replace(workloads.CHECKPOINT, str(checkpoint)) for a in cmd.argv]
        prog = ([sys.executable, str(TRACED_CLI), str(cwd / "spans.jsonl"), name, *argv]
                if trace else [sys.executable, "-c", CLI, *argv])
        code, wall, usage = spawn(prog, cwd, child_env(), deadline)
        outcome = Outcome(cmd, code, wall, usage.ru_maxrss / 1024, cwd)
        if cmd.kind == "pause" and not checkpoint.exists():
            outcome.problems.append("pause left no checkpoint")
        if cmd.kind == "table" and checkpoint.exists():
            outcome.problems.append("completed scan left its checkpoint behind")
        outcomes.append(outcome)
        if code is None:
            outcome.problems.append("killed at the run's time limit")
            break
    return outcomes


class Checker:
    """Checks outputs; the first correct output of a command becomes its reference."""

    def __init__(self, pins, validate):
        self.pins = pins
        self.validate = validate
        self.reference = {}

    def check(self, o: Outcome):
        digest = hashlib.sha256(o.stdout.read_bytes()).hexdigest()
        key = o.cmd.key
        if o.exit != o.cmd.expect_exit:
            o.problems.append(f"exit {o.exit}, expected {o.cmd.expect_exit}")
        if key in self.reference:
            if digest != self.reference[key]:
                o.problems.append("stdout differs from this run's first output")
        elif key in self.pins["commands"]:
            pin = self.pins["commands"][key]
            if (o.exit, digest) != (pin["exit"], pin["sha256"]):
                o.problems.append(f"exit {o.exit} sha256 {digest[:12]} != pinned "
                                  f"exit {pin['exit']} sha256 {pin['sha256'][:12]}")
        else:
            o.problems += workloads.invariant_problems(
                o.cmd, o.stdout.read_text(), self.validate, self.pins)
        if not o.problems:
            self.reference.setdefault(key, digest)


def read_spans(cmd_dir: Path):
    """Spans of one traced command (main process and pool workers) and missing boundaries."""
    main = cmd_dir / "spans.jsonl"
    if not main.exists():
        return [], set(NEEDS)
    lines = main.read_text().splitlines()
    missing = set(json.loads(lines[0])["missing"])
    spans = [json.loads(line) for line in lines[1:]]
    for worker in cmd_dir.glob("spans.jsonl.*"):
        spans += [json.loads(line) for line in worker.read_text().splitlines()]
    return spans, missing


def layer_sums(outcomes: list[Outcome]):
    """Per-layer totals of one traced sequence, and the chunk durations (ms) it saw."""
    spans, missing = [], set()
    for o in outcomes:
        s, m = read_spans(o.dir)
        spans += s
        missing |= m
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    pid_of = {s["id"]: s["pid"] for s in spans}
    for s in spans:
        by_name[s["name"]].append(s)
        if pid_of.get(s["parent"]) == s["pid"]:  # workers inherit the parent's stack
            child_time[s["parent"]] += s["end"] - s["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_time(ss):
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in ss)

    def attr_sum(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in by_name[name])

    m = {
        "core.sieve_build_s": total("core.build_spf_sieve"),
        "core.sieve_builds": len(by_name["core.build_spf_sieve"]),
        "core.sieve_entries": attr_sum("core.build_spf_sieve", "entries"),
        "scanner.chunks": len(by_name["scanner.chunk"]),
        "scanner.merge_s": total("scanner.merge"),
        "scanner.pool_wait_s": total("scanner.pool_wait"),
        "classify.finalize_s": self_time(by_name["classify.scan_range"]),
        "scanner.checkpoint_write_s": total("scanner.save_checkpoint"),
        "scanner.checkpoint_writes": len(by_name["scanner.save_checkpoint"]),
        "scanner.checkpoint_bytes": attr_sum("scanner.save_checkpoint", "bytes"),
        "scanner.checkpoint_load_s": total("scanner.load_checkpoint"),
        "cli.render_s": total("cli.render"),
        "cli.render_bytes": attr_sum("cli.render", "bytes"),
        "cli.emit_s": total("cli.emit"),
        "sigma.k_ratio_s": total("sigma.k_ratio"),
        "sigma.k_ratio_calls": len(by_name["sigma.k_ratio"]),
        "cli.startup_s": total("cli.startup"),
    }
    for module in ("theorems", "classify"):
        chunks = [s for s in by_name["scanner.chunk"] if s["attrs"]["module"] == module]
        seconds = self_time(chunks)
        n = sum(s["attrs"]["n"] for s in chunks)
        m[f"{module}.chunk_s"] = seconds
        m[f"{module}.chunk_ns_per_n"] = seconds * 1e9 / n if n else 0.0
    covered = applicable = 0
    for o in outcomes:
        if o.cmd.kind not in ("pause", "table") and not o.problems:
            covered += o.cmd.covers
            applicable += json.loads(o.stdout.read_text())["applicable"]
    # 0 for a workload with no report (gk-resume renders a table)
    m["theorems.applicable_ratio"] = applicable / covered if covered else 0.0
    durations = [(s["end"] - s["start"]) * 1e3 for s in by_name["scanner.chunk"]]
    return m, durations, missing


def chunk_percentiles(durations):
    """p50 and pNN: the highest rank with at least ten chunks beyond it (never below p50).

    pNN's rank (in percent) and the sample count describe the sample, not
    the program, so they are printed next to pNN but are not metrics.
    """
    if not durations:
        return {"scanner.chunk_ms.p50": 0.0, "scanner.chunk_ms.pNN": 0.0,
                "scanner.chunk_ms.pNN_pct": 0.0, "scanner.chunk_ms.samples": 0}
    d = sorted(durations)
    n = len(d)
    median_rank = (n - 1) // 2
    rank = max(n - 11, median_rank)
    return {"scanner.chunk_ms.p50": d[median_rank], "scanner.chunk_ms.pNN": d[rank],
            "scanner.chunk_ms.pNN_pct": 100 * (rank + 1) / n, "scanner.chunk_ms.samples": n}


def median(values):
    return statistics.median(values) if values else None


def sequence_wall(runs):
    """Wall time of the command sequence: the sum of each command's median over `runs`.

    Taking medians per command keeps one slow command in one sequence and
    another in the next from both counting.
    """
    return sum(median(list(column)) for column in zip(*runs)) if runs else None


def per_layer_metrics(layer_runs, durations, missing, walls):
    """Medians of the traced sequences' layer totals; None for a boundary that is gone."""
    metrics = {k: median([r[k] for r in layer_runs]) for k in layer_runs[0]} if layer_runs else {}
    metrics.update(chunk_percentiles(durations))
    if walls[True] and walls[False]:
        metrics["trace.overhead_s"] = sequence_wall(walls[True]) - sequence_wall(walls[False])
    for boundary in missing:
        for metric in NEEDS.get(boundary, []):
            metrics[metric] = None
    return metrics


def measure_setup(limit, cwd: Path, deadline):
    """Seconds from spawning a fresh process until it has imported divrank and built
    the sieve; None when the process fails."""
    cwd.mkdir()
    start = time.monotonic()
    code, _, _ = spawn([sys.executable, "-c", SETUP, str(max(limit, 2))], cwd,
                       child_env(), deadline)
    if code != 0:
        print(f"set-up process {cwd.name} exited {code}", file=sys.stderr)
        return None
    return float((cwd / "stdout").read_text()) - start


def run_workload(name, seed, seconds, trace, cmds=None, pins=None):
    """Run one workload; returns (result dict for the JSON line, human-readable lines)."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    cmds = cmds if cmds is not None else workloads.commands(name, seed)
    checker = Checker(pins if pins is not None else workloads.load_pins(),
                      workloads.make_validator(SRC / "divrank" / "report_schema.json"))
    attempted = failed = 0
    walls = {False: [], True: []}  # per sequence, the wall time of each command
    rss, layer_runs, durations, missing, problems = [], [], [], set(), []
    setup_limit = max(c.limit for c in cmds)
    setups = []  # set-up seconds, None for a failed set-up process
    with scratch_dir(f"{name}-") as tmp:

        def add_setup():
            setups.append(measure_setup(setup_limit, tmp / f"setup{len(setups)}", deadline))

        measured = 0.0
        traced = False
        while True:
            # set-ups interleave with the sequences so both sample the same host conditions
            if not trace and len(setups) < SETUP_REPS:
                add_setup()
            seq_dir = Path(tempfile.mkdtemp(prefix="seq-", dir=tmp))
            outcomes = run_sequence(name, cmds, seq_dir, traced, deadline)
            for o in outcomes:
                if o.exit is not None:
                    checker.check(o)
                attempted += 1
                if o.problems:
                    failed += 1
                    problems.append(f"{o.cmd.key}: {'; '.join(o.problems)}")
            complete = len(outcomes) == len(cmds)
            measured += sum(o.wall for o in outcomes)
            if complete:
                walls[traced].append([o.wall for o in outcomes])
                if traced:
                    sums, chunk_ms, gone = layer_sums(outcomes)
                    layer_runs.append(sums)
                    durations += chunk_ms
                    missing |= gone
                else:
                    rss.append(max(o.rss_mb for o in outcomes))
            shutil.rmtree(seq_dir)
            if not complete:
                break
            if measured >= seconds and walls[False] and (walls[True] or not trace):
                break
            traced = trace and not traced
        while not trace and len(setups) < SETUP_REPS:
            add_setup()
    setup_times = [t for t in setups if t is not None]
    attempted += len(setups)
    failed += len(setups) - len(setup_times)

    if trace:
        metrics = per_layer_metrics(layer_runs, durations, missing, walls)
        units = PER_LAYER
    else:
        wall = sequence_wall(walls[False])
        metrics = {"wall_s": wall, "n_per_s": sum(c.covers for c in cmds) / wall if wall else None,
                   "setup_s": median(setup_times), "peak_rss_mb": median(rss)}
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
    lines = [f"workload {name} seed {seed} trace {int(trace)}: "
             f"{len(walls[False])} untraced and {len(walls[True])} traced sequences "
             f"of {len(cmds)} commands, {time.monotonic() - started:.1f} s in all"]
    for traced, runs in walls.items():
        if runs:
            lines.append(f"  {'traced' if traced else 'untraced'} sequence walls (s): "
                         + " ".join(f"{sum(r):.3f}" for r in runs))
    if setup_times:
        lines.append("  set-up times (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    for k, v in result["metrics"].items():
        shown = "missing" if v["value"] is None else f"{v['value']:.6g}"
        lines.append(f"  {k:28s} {shown:>14s} {v['unit']}")
    lines.append(f"  {'failed_ratio':28s} {failed / attempted:>14.6g} ({failed}/{attempted})")
    if trace and metrics.get("scanner.chunk_ms.pNN") is not None:
        lines.append(f"  scanner.chunk_ms.pNN is p{metrics['scanner.chunk_ms.pNN_pct']:.4g} "
                     f"of {metrics['scanner.chunk_ms.samples']} chunk durations")
    if missing:
        lines.append(f"  missing boundaries: {', '.join(sorted(missing))}")
    lines += [f"  FAILED {p}" for p in problems]
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "divrank" / "cli.py").is_file():
        print(f"run.py: no divrank source tree at {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
