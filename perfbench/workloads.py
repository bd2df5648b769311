"""Workload definitions and output checks for the divrank scan benchmark.

A workload is a fixed sequence of `divrank` CLI commands. The seed moves
the workload's `--max` down inside a narrow band (smaller than the last,
partial chunk, so the chunk count never changes) and feeds
`verify multiplier --seed`. Seed 0 is the default seed: it runs the
commands at exactly the sizes below, whose exit codes and stdout digests
are pinned in `pinned.json`. Any other seed is checked by invariants.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

from jsonschema import Draft202012Validator

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

DEFAULT_SEED = 0
CHUNK = 1 << 16  # scanner.CHUNK_SIZE_DEFAULT; none of the commands passes --chunk-size
CHECKPOINT = "{checkpoint}"  # replaced by a fresh per-sequence path at run time

# name -> (largest --max, seed band); why each is in the benchmark: BENCHMARK.json
WORKLOADS = {
    "dense-verify": (200_000, 2_000),
    "gk-resume": (500_000, 2_000),
    "sparse-sieve": (40_000_000, 20_000),
}


@dataclass
class Command:
    """One CLI invocation with what a correct run of it looks like."""

    argv: list[str]
    expect_exit: int
    covers: int  # integers in the range the command scans
    kind: str  # report check name, "table", or "pause"
    limit: int
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Names the exact invocation; a pausing run is told apart from its resume."""
        return " ".join(self.argv) + (" (pause)" if self.kind == "pause" else "")


def workload_max(name: str, seed: int) -> int:
    """The seed's `--max`: the workload's size minus an offset inside its band."""
    top, band = WORKLOADS[name]
    if not band < top % CHUNK:
        raise ValueError(f"band {band} would change the chunk count of {name}")
    return top if seed == DEFAULT_SEED else top - random.Random(seed).randrange(1, band)


def commands(name: str, seed: int, max_n: int | None = None,
             chunk_size: int | None = None) -> list[Command]:
    """The command sequence of workload `name` for `seed`.

    `max_n` and `chunk_size` override the size and the CLI's chunk length,
    so that the benchmark's own tests can run every workload at tiny N.
    """
    n = workload_max(name, seed) if max_n is None else max_n
    chunking = [] if chunk_size is None else ["--chunk-size", str(chunk_size)]
    if name == "dense-verify":
        common = ["--max", str(n), "--workers", "1", "--format", "json", *chunking]
        return [
            Command(["verify", "upper-bound", *common], 0, n, "upper-bound", n),
            Command(["verify", "sigma-bounds", *common], 0, n, "sigma-bounds", n),
            Command(["scan", "1", *common], 1, n, "conjecture-1", n),
            Command(["scan", "2", *common], 1, n, "conjecture-2", n),
        ]
    if name == "gk-resume":
        argv = ["table", "--max", str(n), "--workers", "2", "--checkpoint", CHECKPOINT,
                "--max-chunks", "4", "--format", "json", *chunking]
        # the pause covers nothing itself; the resume renders all of [1, n]
        return [Command(argv, 0, 0, "pause", n), Command(argv, 0, n, "table", n)]
    if name == "sparse-sieve":
        common = ["--max", str(n), "--format", "json"]
        scans = [*common, *chunking]
        return [
            Command(["verify", "lower-bound", *scans], 0, n, "lower-bound", n),
            Command(["scan", "3", *scans], 1, n, "conjecture-3", n),
            Command(["verify", "unit-fraction", *common], 0, n - 3, "unit-fraction", n),
            Command(["verify", "prime-power-distinct", *common], 0, n - 3,
                    "prime-power-distinct", n),
            # n_max defaults to 1000 when --max is absent: range [2, 1000]
            Command(["verify", "multiplier", "--seed", str(seed), "--format", "json"],
                    0, 999, "multiplier", 1000, {"seed": seed}),
        ]
    raise KeyError(f"unknown workload {name!r}")


def load_pins() -> dict:
    return json.loads(PINNED_PATH.read_text())


# ---------------------------------------------------------------------------
# invariants for runs that have no pinned digest


def _primes_upto(n):
    # independent of divrank.core.primes_upto, which the checked program uses itself
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


def _even_prime_powers(limit):
    """Count of p^a <= limit with p prime and a >= 2 even (the unit-fraction domain)."""
    count = 0
    for p in _primes_upto(isqrt(limit)):
        q = p * p
        while q <= limit:
            count += 1
            q *= p * p
    return count


def _closed_form_applicable(cmd: Command):
    n = cmd.limit
    return {
        "upper-bound": n - isqrt(n),
        "sigma-bounds": n - isqrt(n),
        "lower-bound": isqrt(n) - 1,
        "unit-fraction": _even_prime_powers(n),
        "prime-power-distinct": _even_prime_powers(n),
        "multiplier": 500,  # the CLI's default --samples
    }.get(cmd.kind)


_RATIONAL = re.compile(r"^[0-9]+(/[0-9]+)?$")
_CLASS_KEYS = {"k", "count", "first_members", "last_members"}


def _table_problems(doc, cmd: Command, validate) -> list[str]:
    """Schema on a sample of classes, a structural pass over all, and count sums."""
    classes = doc.get("classes")
    if not isinstance(classes, list):
        return ["table has no class list"]
    sample = classes[:50] + classes[len(classes) // 2 : len(classes) // 2 + 50] + classes[-50:]
    problems = validate({**doc, "classes": sample})
    total, prev_first = 0, 0
    for c in classes:
        ok = (
            isinstance(c, dict) and c.keys() == _CLASS_KEYS
            and isinstance(c["k"], str) and _RATIONAL.match(c["k"])
            and isinstance(c["count"], int) and c["count"] >= 1
            and all(isinstance(m, int) and 1 <= m <= cmd.limit
                    for m in c["first_members"] + c["last_members"])
            and c["first_members"] == sorted(c["first_members"])
            and len(c["first_members"]) == min(8, c["count"])
        )
        if not ok or c["first_members"][0] <= prev_first:
            problems.append(f"malformed or unordered class {str(c)[:80]}")
            break
        prev_first = c["first_members"][0]
        total += c["count"]
    if (doc.get("lo"), doc.get("hi")) != (1, cmd.limit):
        problems.append(f"table range [{doc.get('lo')}, {doc.get('hi')}] != [1, {cmd.limit}]")
    if total != cmd.limit:
        problems.append(f"class counts sum to {total}, expected {cmd.limit}")
    return problems


def invariant_problems(cmd: Command, text: str, validate, pins: dict) -> list[str]:
    """Checks that hold for any seed; empty when the output looks correct."""
    if cmd.kind == "pause":
        return [] if text == "" else ["paused run printed a payload"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("kind") != ("table" if cmd.kind == "table" else "report"):
        return [f"stdout is not a {cmd.kind} payload"]
    if cmd.kind == "table":
        return _table_problems(doc, cmd, validate)
    problems = validate(doc)
    if problems:
        return problems
    if doc["check"] != cmd.kind or doc["hi"] != cmd.limit:
        problems.append(f"report is {doc['check']} up to {doc['hi']}")
    expected = _closed_form_applicable(cmd)
    if expected is not None and doc["applicable"] != expected:
        problems.append(f"applicable {doc['applicable']} != closed form {expected}")
    counterexamples = pins.get("counterexamples", {}).get(cmd.kind)
    if counterexamples is not None:
        want = [n for n in counterexamples if n <= cmd.limit]
        got = [v["n"] for v in doc["violations"]]
        if got != want:
            problems.append(f"violations at {got[:10]}... != pinned {want[:10]}...")
    elif doc["violations"]:
        problems.append(f"unexpected violations at {[v['n'] for v in doc['violations'][:10]]}")
    if cmd.kind == "multiplier" and doc["config"].get("seed") != cmd.params["seed"]:
        problems.append("multiplier ran with another seed")
    return problems


def make_validator(schema_path: Path):
    """Function returning the schema errors of one payload."""
    validator = Draft202012Validator(json.loads(schema_path.read_text()))
    return lambda doc: [e.message[:200] for e in validator.iter_errors(doc)]
