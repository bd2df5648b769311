"""Command-line front end.

Subcommands: profile, table, verify, scan, irn. Output formats are text,
csv, and json; json and csv are byte-deterministic for any worker count
(timing is only embedded when --timing is passed; text always shows it).

Exit codes: 0 success/verified, 1 violations found, 2 usage or I/O error.

Every setting can also come from a key=value config file (--config) or an
environment variable (DIVRANK_<NAME>); command line wins, then environment,
then file, and one parser reads its text from each. `verify <check>` reads,
beyond its limit, only the settings of its `theorems.CHECKS` row.

`main` runs each command with the cyclic garbage collector off, as do its forked
pool workers, then restores the caller's setting: scan state, fragments, checkpoint
lines and rendered rows form no cycles, so reference counting frees them all.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import sys
from itertools import islice

from . import classify
from .core import _VIOLATION_KEYS, CheckpointError, ScanInterrupted, _class_key, _class_key_of
from .scanner import CHUNK_FLAGS, CHUNK_SIZE_DEFAULT, run_scan
from .sigma import profile
from .theorems import CHECKS, ScanReport

ENV_PREFIX = "DIVRANK_"

VERIFY_CHECKS = tuple(name for name in CHECKS if not name.startswith("conjecture-"))

CSV_PROFILE_COLUMNS = ("n", "tau", "sigma_e", "sigma_o", "k", "is_index_ratio")
FORMATS = ("text", "csv", "json")


def positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_format(text):
    if text not in FORMATS:
        raise ValueError(f"format must be text, csv, or json, got {text!r}")
    return text


def _parse_classes(text):
    """The G_k class keys a comma list of rationals names: "18/10" names "9/5". An
    empty entry names no class and is refused, so "" never means every class."""
    return [_class_key_of(q) for q in text.split(",")]


# name -> (parser, default, metavar, help) of each setting a flag, a DIVRANK_*
# environment variable or a config file key may give; a boolean's flag is a
# switch, and a class list's flag may repeat
SETTINGS = {
    "max": (positive_int, 100_000, "N", "scan limit"),
    "format": (_parse_format, "text", "{" + ",".join(FORMATS) + "}", "output format"),
    "out": (str, None, "FILE", "write the payload to FILE instead of stdout"),
    "workers": (positive_int, 1, "W", "worker processes; never changes output bytes"),
    "chunk_size": (positive_int, CHUNK_SIZE_DEFAULT, "C", "chunk length for range scans"),
    "checkpoint": (str, None, "FILE", "save/resume scan state in FILE"),
    "max_chunks": (positive_int, None, "M",
                   "process at most M chunks this run, then pause (needs --checkpoint)"),
    "timing": (_parse_bool, False, None,
               "embed wall time in json/csv output (breaks byte determinism)"),
    "seed": (int, 2, "SEED", "sample seed for the multiplier check"),
    "samples": (positive_int, 500, "SAMPLES", "sample count for the multiplier check"),
    "k": (_parse_classes, (), "RAT[,RAT...]", "only list these classes (repeatable)"),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def load_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in SETTINGS:  # one file serves every subcommand, so any setting may appear
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            values[key] = value.strip()
    return values


def resolve_settings(parser, args):
    """Parse each setting the subcommand reads from the first source that gives its
    text: the flag, then the DIVRANK_* variable, then the config file. A setting
    given nowhere takes its default, and `args.defaulted` names it. Of the settings
    CHECKS rows name, verify refuses the flag of one outside its check's row and
    leaves its DIVRANK_* or config text unparsed, as one file serves every subcommand."""
    try:
        file_values = load_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    args.defaulted = set()
    check = getattr(args, "check", None)  # verify's; scan's conjectures read all scan has
    unread = {name for _, row in CHECKS.values() for name in row}.difference(
        CHECKS[check][1]) if check else ()
    for name, (parse, default, _, _) in SETTINGS.items():
        if not hasattr(args, name):
            continue
        raw, env = getattr(args, name), ENV_PREFIX + name.upper()
        if name in unread:
            if raw is not None:
                why = "is not a chunked scan" if name in CHUNK_FLAGS else "draws no samples"
                parser.error(f"{_flag(name)} does not apply to verify {check}, which {why}")
            continue
        if raw is not None:  # a repeated --k gives a list, read as one comma list
            raw, source = (",".join(raw) if isinstance(raw, list) else raw), _flag(name)
        elif env in os.environ:
            raw, source = os.environ[env], "environment variable " + env
        elif name in file_values:
            raw, source = file_values[name], f"config file key {name!r}"
        else:
            setattr(args, name, default)
            args.defaulted.add(name)
            continue
        try:
            setattr(args, name, parse(raw))
        except ValueError as exc:
            parser.error(f"bad value in {source}: {exc}")
    return args


# ---------------------------------------------------------------------------
# rendering


def _csv_text(rows, header):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def render_profile(prof, fmt):
    k = _class_key(prof.sigma_e, prof.sigma_o)
    if fmt == "json":
        return _json_text({
            "kind": "profile",
            "n": prof.n,
            "tau": prof.tau,
            "sigma_e": prof.sigma_e,
            "sigma_o": prof.sigma_o,
            "k": k,
            "is_index_ratio": prof.is_index_ratio,
            "divisors": list(prof.divisors),
        })
    if fmt == "csv":
        row = (prof.n, prof.tau, prof.sigma_e, prof.sigma_o,
               k, "true" if prof.is_index_ratio else "false")
        return _csv_text([row], CSV_PROFILE_COLUMNS)
    lines = [
        f"n = {prof.n}",
        "divisors = " + " ".join(map(str, prof.divisors)),
        f"tau = {prof.tau}",
        f"sigma_e = {prof.sigma_e}",
        f"sigma_o = {prof.sigma_o}",
        f"k = {k}",
        f"index ratio number = {'yes' if prof.is_index_ratio else 'no'}",
    ]
    return "\n".join(lines) + "\n"


# json.dumps(indent=2) of one class, which never runs the C encoder; keys need no
# escaping, as core._CLASS_KEY (digits and "/") holds for every key made or resumed
_CLASS_JSON = ('    {\n      "k": "%s",\n      "count": %d,\n'
               '      "first_members": %s,\n      "last_members": %s\n    }')


def _members_json(members):
    return ("[\n        " + ",\n        ".join(map(str, members)) + "\n      ]") if members else "[]"


def _class_json(k, members):
    first = _members_json(members[:8])
    last = first if len(members) <= 8 else _members_json(members[-8:])
    return _CLASS_JSON % (k, len(members), first, last)


# a csv row of one class: its key and space-joined members hold no comma, quote or
# line break, so csv.writer would quote none of its fields
def _class_csv(k, members):
    first = " ".join(map(str, members[:8]))
    last = first if len(members) <= 8 else " ".join(map(str, members[-8:]))
    return f"{k},{len(members)},{first},{last}\n"


_SLICE = 4096  # classes a json or csv table renders at a time


def _table_slices(rows, render, sep):
    """The text of `rows`, _SLICE classes at a time, `sep` between classes. Each slice
    is one `%` of a template that holds render("%s", ["%s"]) for a class of one member,
    filled with its key and its member twice, and "%s" for render(k, members) of any other."""
    rows, one = iter(rows), render("%s", ["%s"])
    while True:
        template, fields = [], []
        for k, members in islice(rows, _SLICE):
            if len(members) == 1:
                template.append(one)
                fields += (k, members[0], members[0])
            else:
                template.append("%s")
                fields.append(render(k, members))
        if not template:
            return
        yield sep.join(template) % tuple(fields)


def render_table(table, filters, fmt):
    rows = [(k, table.classes.get(k, [])) for k in filters] if filters else table.classes.items()
    if fmt == "json":  # the bytes _json_text gives the payload, from a per-class template
        text = [f'{{\n  "kind": "table",\n  "lo": {table.lo},\n  "hi": {table.hi},\n  "classes": ']
        for piece in _table_slices(rows, _class_json, ",\n"):
            text += (",\n" if len(text) > 1 else "[\n", piece)
        text.append("\n  ]\n}\n" if len(text) > 1 else "[]\n}\n")
        return "".join(text)
    if fmt == "csv":  # the bytes _csv_text gives the rows, from a per-class template
        return "".join(["k,count,first_members,last_members\n",
                        *_table_slices(rows, _class_csv, "")])
    lines = [f"G_k members in [{table.lo}, {table.hi}]"]
    width = max((len(k) for k, _ in rows), default=1)
    for k, members in rows:
        if not members:
            shown = "(none)"
        elif len(members) <= 12:
            shown = ", ".join(map(str, members))
        else:
            shown = (", ".join(map(str, members[:8]))
                     + ", ..., "
                     + ", ".join(map(str, members[-4:])))
        lines.append(f"{k.rjust(width)} | {shown}")
    return "\n".join(lines) + "\n"


def render_report(report: ScanReport, fmt, timing):
    elapsed = report.elapsed_ms if timing else None
    if fmt == "json":
        # ScanReport's field order is the payload's key order after "kind"; elapsed_ms
        # keeps its place, null without --timing
        return _json_text({"kind": "report", **vars(report), "elapsed_ms": elapsed})
    if fmt == "csv":
        header = ("check", "lo", "hi", "status", "applicable", "elapsed_ms", *_VIOLATION_KEYS)
        elapsed_cell = "" if elapsed is None else elapsed
        lead = (report.check, report.lo, report.hi, report.status, report.applicable, elapsed_cell)
        tails = [tuple(v[key] for key in _VIOLATION_KEYS) for v in report.violations]
        if not tails:  # a clean report still gets one row, its violation cells empty
            tails = [("",) * len(_VIOLATION_KEYS)]
        return _csv_text([lead + tail for tail in tails], header)
    lines = [
        f"check = {report.check}",
        f"range = [{report.lo}, {report.hi}]",
        f"status = {report.status}",
        f"applicable = {report.applicable}",
        f"violations = {len(report.violations)}",
        f"elapsed_ms = {report.elapsed_ms}",
        "config = " + " ".join(f"{k}={v}" for k, v in report.config.items()),
    ]
    for v in report.violations[:20]:
        lines.append(f"  violation n={v['n']}: expected {v['expected']}, got {v['actual']}")
    if len(report.violations) > 20:
        lines.append(f"  ... and {len(report.violations) - 20} more")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_irn(limit, rows, fmt):
    """`rows` holds (n, tau, sigma_e, sigma_o) of each index ratio number, ascending."""
    if fmt == "csv":
        return _csv_text([(n, tau, se, so, se // so, "true") for n, tau, se, so in rows],
                         CSV_PROFILE_COLUMNS)
    members = [row[0] for row in rows]
    if fmt == "json":
        return _json_text({
            "kind": "irn",
            "limit": limit,
            "count": len(members),
            "members": members,
        })
    return ", ".join(map(str, members)) + "\n"


_EMIT_SLICE = 1 << 20  # characters emit encodes and writes at a time


def emit(text, out_path):
    """Write `text` to `out_path`, or else to stdout, a slice at a time, so that no
    encoded copy of the whole text is made."""
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for start in range(0, len(text), _EMIT_SLICE):
            fh.write(text[start:start + _EMIT_SLICE])
    if out_path:
        print(f"wrote {out_path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_profile(args):
    emit(render_profile(profile(args.n), args.format), args.out)
    return 0


def cmd_table(args):
    table = classify.scan_range(1, args.max, **{name: getattr(args, name) for name in CHUNK_FLAGS})
    emit(render_table(table, args.k, args.format), args.out)
    return 0


def _run_check(check, args):
    scan, keywords = CHECKS[check]
    # without --max, multiplier keeps scan_multiplier's own n_max
    limit = () if check == "multiplier" and "max" in args.defaulted else (args.max,)
    report = scan(*limit, **{name: getattr(args, name) for name in keywords})
    emit(render_report(report, args.format, args.timing), args.out)
    return 1 if report.status == "violated" else 0


def cmd_verify(args):
    return _run_check(args.check, args)


def cmd_scan(args):
    return _run_check(f"conjecture-{args.conjecture}", args)


def cmd_irn(args):
    rows = run_scan("irn", 1, args.max, workers=args.workers)["rows"]
    emit(render_irn(args.max, rows, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


_SCAN_SETTINGS = ("format", "out", "max", *CHUNK_FLAGS)


def _add_subcommand(subs, name, func, summary, settings):
    """A subcommand whose flags give `settings`: argparse only collects their text,
    which resolve_settings parses by the setting's SETTINGS row."""
    sub = subs.add_parser(name, help=summary)
    sub.set_defaults(func=func, parser=sub)  # a usage error after parsing names its subcommand
    sub.add_argument("--config", metavar="FILE",
                     help="key=value file supplying defaults for any flag")
    for setting in settings:
        parse, default, metavar, text = SETTINGS[setting]
        if default:  # a path, a switch or a filter is off by default
            text += f" (default {default})"
        if parse is _parse_bool:
            sub.add_argument(_flag(setting), action="store_const", const="true", help=text)
        else:
            action = "append" if parse is _parse_classes else "store"
            sub.add_argument(_flag(setting), action=action, metavar=metavar, help=text)
    return sub


def build_parser():
    parser = argparse.ArgumentParser(
        prog="divrank",
        description="Divisor-rank parity sums, the ratio k(n) = sigma_e/sigma_o, "
                    "G_k classification tables, and exhaustive theorem/conjecture scans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(subs, "profile", cmd_profile, "divisor profile of a single integer",
                    ("format", "out")).add_argument("n", type=positive_int)
    _add_subcommand(subs, "table", cmd_table, "G_k classification table for [1, max]",
                    ("k", *_SCAN_SETTINGS))
    _add_subcommand(subs, "verify", cmd_verify, "run one theorem suite over [1, max]",
                    ("seed", "samples", "timing", *_SCAN_SETTINGS)
                    ).add_argument("check", choices=VERIFY_CHECKS)
    _add_subcommand(subs, "scan", cmd_scan, "run a conjecture counterexample scan",
                    ("timing", *_SCAN_SETTINGS)
                    ).add_argument("conjecture", type=int, choices=(1, 2, 3))
    _add_subcommand(subs, "irn", cmd_irn, "list index ratio numbers up to max",
                    ("format", "out", "max", "workers"))
    return parser


def main(argv=None):
    enabled = gc.isenabled()
    gc.disable()  # forked pool workers inherit this; see the module docstring
    try:
        args = build_parser().parse_args(argv)
        resolve_settings(args.parser, args)
        return args.func(args)
    except ScanInterrupted as exc:
        print(f"scan paused at n={exc.last_n}; rerun with the same flags to resume "
              f"from {exc.checkpoint}", file=sys.stderr)
        return 0
    except (CheckpointError, OSError, ValueError) as exc:  # OSError: --out or --checkpoint
        print(f"divrank: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
