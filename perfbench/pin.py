"""Regenerate pinned.json from the current source tree.

    python3 perfbench/pin.py

Runs every workload once at the default seed and records each command's
exit code and stdout sha256, plus the counterexample n that `scan 1/2/3`
report at the workloads' sizes (runs at other seeds must report exactly
those up to their own --max). The resumed G_k table must match an
uninterrupted run byte for byte, or nothing is written. Pin only from a
tree whose output is trusted: later trees must reproduce these bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import run
import workloads


def main():
    pins = {"commands": {}, "counterexamples": {}}
    with run.scratch_dir("pin-") as tmp:
        for name in workloads.WORKLOADS:
            cmds = workloads.commands(name, workloads.DEFAULT_SEED)
            seq_dir = tmp / name
            seq_dir.mkdir()
            for o in run.run_sequence(name, cmds, seq_dir, False, time.monotonic() + 900):
                data = o.stdout.read_bytes()
                pins["commands"][o.cmd.key] = {"exit": o.exit,
                                               "sha256": hashlib.sha256(data).hexdigest()}
                if o.cmd.kind.startswith("conjecture-"):
                    pins["counterexamples"][o.cmd.kind] = [
                        v["n"] for v in json.loads(data)["violations"]]
                if o.cmd.kind == "table":
                    whole = list(o.cmd.argv)
                    for flag in ("--checkpoint", "--max-chunks"):
                        at = whole.index(flag)
                        del whole[at : at + 2]
                    check_uninterrupted(whole, data, tmp / "whole")
                print(f"{o.cmd.key}: exit {o.exit}", file=sys.stderr)
    workloads.PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def check_uninterrupted(argv, resumed: bytes, cwd: Path):
    cwd.mkdir()
    code, _, _ = run.spawn([sys.executable, "-c", run.CLI, *argv], cwd, run.child_env(),
                           time.monotonic() + 900)
    if code != 0 or (cwd / "stdout").read_bytes() != resumed:
        sys.exit("resumed G_k table differs from an uninterrupted run; nothing pinned")


if __name__ == "__main__":
    main()
