"""Command-line front end.

Subcommands: profile, table, verify, scan, irn. Output formats are text,
csv, and json; json and csv are byte-deterministic for any worker count
(timing is only embedded when --timing is passed; text always shows it).

Exit codes: 0 success/verified, 1 violations found, 2 usage error.

Every flag can also come from a key=value config file (--config) or an
environment variable (DIVRANK_<NAME>); command line wins, then environment,
then file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .classify import _class_key, scan_range
from .core import CheckpointError, ScanInterrupted, parse_rational
from .scanner import _TASKS, CHUNK_SIZE_DEFAULT, run_scan
from .sigma import profile
from .theorems import (
    ScanReport,
    scan_conjecture1,
    scan_conjecture2,
    scan_conjecture3,
    scan_lower_bound,
    scan_multiplier,
    scan_pairing,
    scan_prime_power_distinct,
    scan_sigma_bounds,
    scan_unit_fraction,
    scan_upper_bound,
)

ENV_PREFIX = "DIVRANK_"

# check -> scanner; `scan N` runs conjecture-N. Chunked checks register a scanner task.
CHECKS = {
    "upper-bound": scan_upper_bound,
    "lower-bound": scan_lower_bound,
    "sigma-bounds": scan_sigma_bounds,
    "multiplier": scan_multiplier,
    "pairing": scan_pairing,
    "prime-power-distinct": scan_prime_power_distinct,
    "unit-fraction": scan_unit_fraction,
    "conjecture-1": scan_conjecture1,
    "conjecture-2": scan_conjecture2,
    "conjecture-3": scan_conjecture3,
}
VERIFY_CHECKS = tuple(name for name in CHECKS if not name.startswith("conjecture-"))

CSV_PROFILE_COLUMNS = ("n", "tau", "sigma_e", "sigma_o", "k", "is_index_ratio")
FORMATS = ("text", "csv", "json")


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def rational_arg(text):
    try:
        q = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return _class_key(q.numerator, q.denominator)  # the G_k class a --k value names


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


# name -> (parser, default) of each setting a flag, a DIVRANK_* environment
# variable or a config file key may give; help strings read the defaults here
SETTINGS = {
    "max": (positive_int, 100_000),
    "format": (_parse_format, "text"),
    "out": (str, None),
    "workers": (positive_int, 1),
    "chunk_size": (positive_int, CHUNK_SIZE_DEFAULT),
    "checkpoint": (str, None),
    "max_chunks": (positive_int, None),
    "timing": (_parse_bool, False),
    "seed": (int, 2),
    "samples": (positive_int, 500),
    "k": (lambda text: [rational_arg(part) for part in text.split(",") if part], ()),
}


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
    """Fill each setting the command line left unset from the environment, else the
    config file, else its default; `args.defaulted` names those given nowhere."""
    try:
        file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    args.defaulted = set()
    for name, (parse, default) in SETTINGS.items():
        if not hasattr(args, name) or getattr(args, name) is not None:
            continue
        env = ENV_PREFIX + name.upper()
        if env in os.environ:
            raw, source = os.environ[env], "environment variable " + env
        elif name in file_values:
            raw, source = file_values[name], f"config file key {name!r}"
        else:
            setattr(args, name, default)
            args.defaulted.add(name)
            continue
        try:
            setattr(args, name, parse(raw))
        except (ValueError, argparse.ArgumentTypeError) as exc:
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


def _bool_str(flag):
    return "true" if flag else "false"


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
               k, _bool_str(prof.is_index_ratio))
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


# json.dumps(indent=2) of one class, which never runs the C encoder; keys come
# from _class_key, digits and "/" only, so they need no escaping
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


def render_table(table, filters, fmt):
    rows = [(k, table.classes.get(k, [])) for k in filters] if filters else table.classes.items()
    if fmt == "json":  # the bytes _json_text gives the payload, from a per-class template
        classes = ",\n".join([_class_json(k, members) for k, members in rows])
        classes = f"[\n{classes}\n  ]" if classes else "[]"
        return (f'{{\n  "kind": "table",\n  "lo": {table.lo},\n  "hi": {table.hi},\n'
                f'  "classes": {classes}\n}}\n')
    if fmt == "csv":  # the bytes _csv_text gives the rows, from a per-class template
        classes = "".join([_class_csv(k, members) for k, members in rows])
        return "k,count,first_members,last_members\n" + classes
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
        return _json_text({
            "kind": "report",
            "check": report.check,
            "lo": report.lo,
            "hi": report.hi,
            "status": report.status,
            "violations": report.violations,
            "elapsed_ms": elapsed,
            "config": report.config,
            "notes": report.notes,
            "applicable": report.applicable,
        })
    if fmt == "csv":
        header = ("check", "lo", "hi", "status", "applicable", "elapsed_ms",
                  "n", "expected", "actual")
        elapsed_cell = "" if elapsed is None else elapsed
        lead = (report.check, report.lo, report.hi, report.status, report.applicable, elapsed_cell)
        tails = [(v["n"], v["expected"], v["actual"]) for v in report.violations]
        if not tails:  # a clean report still gets one row, its violation cells empty
            tails = [("", "", "")]
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


def emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_profile(args):
    emit(render_profile(profile(args.n), args.format), args.out)
    return 0


def _chunk_flags(args):
    return dict(workers=args.workers, chunk_size=args.chunk_size,
                checkpoint=args.checkpoint, max_chunks=args.max_chunks)


def _refuse_chunk_flags(parser, args):
    """Exit 2 on a chunk flag given to a check that is no chunked scan. Run before
    resolve_settings, so that a set flag is the command line's: DIVRANK_* and
    config-file values stay ignored there, as one file serves every subcommand."""
    check = getattr(args, "check", None)
    if check is None or check in _TASKS:
        return
    for name, value in _chunk_flags(args).items():
        if value is not None:
            parser.error(f"--{name.replace('_', '-')} does not apply to verify {check}, "
                         "which is not a chunked scan")


def cmd_table(args):
    table = scan_range(1, args.max, **_chunk_flags(args))
    emit(render_table(table, args.k, args.format), args.out)
    return 0


def _run_check(check, args):
    scan = CHECKS[check]
    if check in _TASKS:
        report = scan(args.max, **_chunk_flags(args))
    elif check == "multiplier":  # without --max it keeps scan_multiplier's own n_max
        n_max = {} if "max" in args.defaulted else {"n_max": args.max}
        report = scan(**n_max, samples=args.samples, seed=args.seed)
    else:
        report = scan(args.max)
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


def _add_common(sub, scans=True):
    sub.add_argument("--format", choices=FORMATS, default=None,
                     help=f"output format (default {SETTINGS['format'][1]})")
    sub.add_argument("--out", default=None, metavar="FILE",
                     help="write the payload to FILE instead of stdout")
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="key=value file supplying defaults for any flag")
    if scans:
        sub.add_argument("--max", type=positive_int, default=None, metavar="N",
                         help=f"scan limit (default {SETTINGS['max'][1]})")
        sub.add_argument("--workers", type=positive_int, default=None, metavar="W",
                         help="worker processes; never changes output bytes")
        sub.add_argument("--chunk-size", type=positive_int, default=None, metavar="C",
                         help=f"chunk length for range scans (default {SETTINGS['chunk_size'][1]})")
        sub.add_argument("--checkpoint", default=None, metavar="FILE",
                         help="save/resume scan state in FILE")
        sub.add_argument("--max-chunks", type=positive_int, default=None, metavar="M",
                         help="process at most M chunks this run, then pause (needs --checkpoint)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="divrank",
        description="Divisor-rank parity sums, the ratio k(n) = sigma_e/sigma_o, "
                    "G_k classification tables, and exhaustive theorem/conjecture scans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="divisor profile of a single integer")
    p.add_argument("n", type=positive_int)
    _add_common(p, scans=False)
    p.set_defaults(func=cmd_profile)

    t = subs.add_parser("table", help="G_k classification table for [1, max]")
    t.add_argument("--k", action="append", type=rational_arg, default=None,
                   metavar="RAT", help="only list this class (repeatable)")
    _add_common(t)
    t.set_defaults(func=cmd_table)

    v = subs.add_parser("verify", help="run one theorem suite over [1, max]")
    v.add_argument("check", choices=VERIFY_CHECKS)
    v.add_argument("--seed", type=int, default=None,
                   help=f"sample seed for the multiplier check (default {SETTINGS['seed'][1]})")
    v.add_argument("--samples", type=positive_int, default=None,
                   help=f"sample count for the multiplier check (default {SETTINGS['samples'][1]})")
    s = subs.add_parser("scan", help="run a conjecture counterexample scan")
    s.add_argument("conjecture", type=int, choices=(1, 2, 3))
    for sub, func in ((v, cmd_verify), (s, cmd_scan)):
        sub.add_argument("--timing", action="store_const", const=True, default=None,
                         help="embed wall time in json/csv output (breaks byte determinism)")
        _add_common(sub)
        sub.set_defaults(func=func)

    i = subs.add_parser("irn", help="list index ratio numbers up to max")
    i.add_argument("--workers", type=positive_int, default=None, metavar="W")
    _add_common(i, scans=False)
    i.add_argument("--max", type=positive_int, default=None, metavar="N",
                   help=f"enumeration limit (default {SETTINGS['max'][1]})")
    i.set_defaults(func=cmd_irn)

    for sub in subs.choices.values():  # a usage error found after parsing names its subcommand
        sub.set_defaults(parser=sub)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _refuse_chunk_flags(args.parser, args)
    resolve_settings(args.parser, args)
    try:
        return args.func(args)
    except ScanInterrupted as exc:
        print(f"scan paused at n={exc.last_n}; rerun with the same flags to resume "
              f"from {exc.checkpoint}", file=sys.stderr)
        return 0
    except (CheckpointError, ValueError) as exc:
        print(f"divrank: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
