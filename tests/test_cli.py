import csv
import gc
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from divrank import cli, core, scanner, theorems
from divrank.classify import GkTable


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(
        resources.files("divrank").joinpath("report_schema.json").read_text()
    )
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


TABLE = ("table",)
UPPER_BOUND = ("verify", "upper-bound")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfile:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "36")
        assert code == 0
        assert "k = 33/58" in out
        assert "divisors = 1 2 3 4 6 9 12 18 36" in out

    def test_unit(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "1")
        assert code == 0
        assert "k = 0" in out
        assert "index ratio number = yes" in out

    def test_45(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "45", "--format", "json")
        assert code == 0
        assert json.loads(out)["k"] == "19/7"

    def test_csv_column_order(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "12", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,tau,sigma_e,sigma_o,k,is_index_ratio"
        assert lines[1] == "12,6,18,10,9/5,false"

    def test_malformed_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile", "zebra"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile", "0"])
        assert exc.value.code == 2

    def test_json_schema(self, capsys, validator):
        _, out, _ = run_cli(capsys, "profile", "360", "--format", "json")
        validator.validate(json.loads(out))


class TestTable:
    def test_single_class_text(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "20", "--k", "2")
        assert code == 0
        assert "2 | 2, 6, 8, 10, 14, 18" in out

    def test_empty_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "10", "--k", "7109/15862")
        assert code == 0
        assert "(none)" in out

    def test_unparseable_k_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--k", "zebra"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("k", ["", ",", "2,"])
    def test_k_entry_naming_no_class_exits_2(self, capsys, k):
        # an empty entry names no class: it is refused, not read as "every class"
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--max", "20", "--k", k])
        assert exc.value.code == 2
        assert "error: bad value in --k: " in capsys.readouterr().err

    def test_empty_k_variable_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVRANK_K", "")
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--max", "20"])
        assert exc.value.code == 2
        assert "error: bad value in environment variable DIVRANK_K: " in capsys.readouterr().err

    def test_json_shape(self, capsys, validator):
        code, out, _ = run_cli(capsys, "table", "--max", "100", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validator.validate(doc)
        assert doc["classes"][0]["k"] == "0"  # n = 1 has the smallest member
        by_k = {c["k"]: c for c in doc["classes"]}
        assert by_k["2"]["first_members"] == [2, 6, 8, 10, 14, 18, 22, 26]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "10", "--format", "csv",
                               "--k", "2", "--k", "2/5")
        lines = out.splitlines()
        assert lines[0] == "k,count,first_members,last_members"
        assert lines[1] == "2,4,2 6 8 10,2 6 8 10"
        assert lines[2] == "2/5,1,4,4"

    def test_normalizes_filter(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "10", "--format", "csv",
                               "--k", "18/10")
        assert code == 0
        assert out.splitlines()[1].startswith("9/5,")


def indent2_table(table, filters=()):
    """render_table's json bytes as json.dumps(indent=2) prints the payload."""
    rows = [(k, table.classes.get(k, [])) for k in filters] if filters else table.classes.items()
    return json.dumps({
        "kind": "table", "lo": table.lo, "hi": table.hi,
        "classes": [{"k": k, "count": len(members), "first_members": members[:8],
                     "last_members": members[-8:]} for k, members in rows],
    }, indent=2) + "\n"


def members_as_they_stand(text):
    """indent2_table's `text` with each member json.dumps quoted printed by str(), as
    render_table prints a member that is no int: a json member sits on a line of its own."""
    return re.sub(r'^( {8})(".*")(,?)$', lambda m: m[1] + json.loads(m[2]) + m[3], text,
                  flags=re.M)


# keys as _class_key prints them, with and without "/"
CLASS_KEYS = st.builds(lambda num, den: f"{num}/{den}" if den > 1 else str(num),
                       st.integers(0, 10**6), st.integers(1, 10**3))
# one member, exactly the first eight, one past them, two full windows, and beyond
MEMBER_COUNTS = st.sampled_from([1, 8, 9, 16]) | st.integers(17, 40)


@st.composite
def gk_tables(draw):
    classes = {}
    for k in draw(st.lists(CLASS_KEYS, min_size=1, max_size=6, unique=True)):
        count = draw(MEMBER_COUNTS)
        classes[k] = sorted(draw(st.lists(st.integers(1, 10**12), min_size=count,
                                          max_size=count, unique=True)))
    return GkTable(1, 10**12, classes)


class TestTableJsonTemplate:
    @given(gk_tables(), st.data())
    def test_matches_indent2(self, table, data):
        # --k filters name classes of the table, or keys it lacks, which render []
        filters = data.draw(st.lists(st.sampled_from(sorted(table.classes)) | CLASS_KEYS,
                                     max_size=6))
        assert cli.render_table(table, filters, "json") == indent2_table(table, filters)

    def test_filter_names_an_absent_class(self):
        table = GkTable(1, 10, {"2": [2, 6, 8, 10], "2/5": [4]})
        filters = ["2", "7109/15862", "2/5"]
        out = cli.render_table(table, filters, "json")
        assert out == indent2_table(table, filters)
        assert '"first_members": [],' in out

    def test_single_class(self):
        table = GkTable(1, 1, {"0": [1]})
        assert cli.render_table(table, (), "json") == indent2_table(table)

    def test_no_classes(self):
        table = GkTable(1, 0, {})
        assert cli.render_table(table, (), "json") == indent2_table(table)
        assert '"classes": []' in indent2_table(table)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_returns_one_str(self, fmt):
        # perfbench/traced_cli.py takes len(result.encode()) of every render_* result
        table = GkTable(1, 10, {"2": [2, 6, 8, 10], "2/5": [4]})
        assert type(cli.render_table(table, (), fmt)) is str


def csv_writer_table(table, filters=()):
    """render_table's csv bytes as csv.writer writes the rows."""
    rows = [(k, table.classes.get(k, [])) for k in filters] if filters else table.classes.items()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("k", "count", "first_members", "last_members"))
    writer.writerows((k, len(members), " ".join(map(str, members[:8])),
                      " ".join(map(str, members[-8:]))) for k, members in rows)
    return buf.getvalue()


class TestTableCsvTemplate:
    @given(gk_tables(), st.data())
    def test_matches_csv_writer(self, table, data):
        # --k filters name classes of the table, or keys it lacks, which render empty
        filters = data.draw(st.lists(st.sampled_from(sorted(table.classes)) | CLASS_KEYS,
                                     max_size=6))
        assert cli.render_table(table, filters, "csv") == csv_writer_table(table, filters)

    def test_no_classes(self):
        table = GkTable(1, 0, {})
        assert cli.render_table(table, (), "csv") == csv_writer_table(table)


# a multi-member class first, last, and on both sides of each boundary of the
# 4,096-class slices the json and csv tables render at a time
SLICED_CLASSES = 2 * 4096 + 3
MULTI_AT = (0, 4095, 4096, 8191, 8192, SLICED_CLASSES - 1)


def sliced_table():
    classes = {}
    for i in range(SLICED_CLASSES):
        count = 2 + i % 20 if i in MULTI_AT else 1  # 2 to 18 members
        classes[f"{i + 1}/{i + 2}" if i % 2 else str(i + 1)] = list(range(i * 100 + 1, i * 100 + 1 + count))
    return GkTable(1, SLICED_CLASSES * 100, classes)


def resume_edited_log(capsys, tmp_path, command, edit, *flags):
    """`command` paused after one chunk, its log line's fragment changed by `edit` and
    re-signed with the digest of its new fragment, as the log writes it; then resumed."""
    ck = tmp_path / "t.ck"
    argv = [*command, "--max", "2000", "--chunk-size", "512", "--checkpoint", str(ck), *flags]
    run_cli(capsys, *argv, "--max-chunks", "1")
    head, line = ck.read_bytes().splitlines()
    doc = json.loads(line)
    edit(doc["fragment"])
    ck.write_bytes(head + b"\n" + scanner._chunk_line(
        doc["last_n"], scanner.encode_fragment(doc["fragment"])))
    return run_cli(capsys, *argv)


def add_class(key, members):
    """An edit of a G_k fragment that adds the class `key` with `members`."""
    return lambda fragment: fragment["classes"].update({key: members})


# keys that fullmatch no core._CLASS_KEY: none is a k as printed; "1 2" needs the
# space count of scanner's one pass over the space-joined keys
NO_PRINTED_K = ["%s/%d", 'a"b', "a,b", "", "2/", "1\n", "1 2"]
NO_PRINTED_K_IDS = ["format", "quote", "comma", "empty", "slash-last", "newline-last", "space"]


class TestTableSlices:
    @pytest.mark.parametrize("fmt, reference", [
        ("json", lambda table, filters: indent2_table(table, filters)),
        ("csv", lambda table, filters: csv_writer_table(table, filters)),
    ], ids=["json", "csv"])
    @pytest.mark.parametrize("filtered", [False, True], ids=["every class", "filters"])
    def test_matches_the_reference(self, fmt, reference, filtered):
        table = sliced_table()
        # filters past a slice boundary, absent keys among them
        filters = [*reversed(table.classes), "0/7", "1/1000"] if filtered else ()
        assert cli.render_table(table, filters, fmt) == reference(table, filters)

    @pytest.mark.parametrize("members", [1, 9], ids=["all one-member", "all multi-member"])
    def test_runs_of_one_kind(self, members):
        table = GkTable(1, 10**7, {str(i): list(range(i, i + members))
                                   for i in range(1, 4096 * 2 + 2)})
        assert cli.render_table(table, (), "json") == indent2_table(table)
        assert cli.render_table(table, (), "csv") == csv_writer_table(table)


    def test_keys_and_members_render_as_they_stand(self):
        # render_table checks no key and no member (a resumed log's are checked as it
        # loads): a "%" in a key, or a member that is no int, is rendered, not read as
        # a format
        classes = {str(i): [i] for i in range(1, 4096)}
        classes.update({"%s/%d": [1, 2], "100%": [3], "%": [4, 5, 6]})  # across a slice
        table = GkTable(1, 10**4, classes)
        assert cli.render_table(table, (), "json") == indent2_table(table)
        table.classes.update({"x": ["y"], "%d": ["1%d", 2]})
        assert cli.render_table(table, (), "csv") == csv_writer_table(table)
        assert cli.render_table(table, (), "json") == members_as_they_stand(indent2_table(table))

    @pytest.mark.parametrize("fmt, rendered", [
        ("json", '"k": "1/1000",\n      "count": 2,\n      "first_members": [\n        1,\n'
                 '        2\n      ],\n      "last_members": [\n        1,\n        2\n      ]'),
        ("csv", "\n1/1000,2,1 2,1 2\n"),
    ], ids=["json", "csv"])
    def test_edited_log_line_resumes_as_it_stands(self, capsys, tmp_path, fmt, rendered):
        # a printed k that no n up to 2000 has, with int members: the log holds a
        # class of the right form, so it resumes and renders as it stands
        code, out, _ = resume_edited_log(capsys, tmp_path, TABLE,
                                         add_class("1/1000", [1, 2]), "--format", fmt)
        assert code == 0
        assert rendered in out

    @pytest.mark.parametrize("member", ["y", True], ids=["text", "bool"])
    def test_edited_log_line_with_a_member_that_is_no_int_exits_2(self, capsys, tmp_path, member):
        code, out, err = resume_edited_log(capsys, tmp_path, TABLE, add_class("1/1000", [member]))
        assert (code, out) == (2, "")
        assert "malformed" in err

    @pytest.mark.parametrize("key", NO_PRINTED_K, ids=NO_PRINTED_K_IDS)
    def test_edited_log_line_with_a_key_that_is_no_printed_k_exits_2(self, capsys, tmp_path, key):
        code, out, err = resume_edited_log(capsys, tmp_path, TABLE, add_class(key, [3, 4]))
        assert (code, out) == (2, "")
        assert "malformed" in err


# a text of a little over 3 MiB, every line of it different
LONG_TEXT = "".join(f"{i},{i * i}\n" for i in range(280_000))


class TestEmitSlices:
    def test_long_text_to_stdout(self):
        assert len(LONG_TEXT) > 3 << 20
        proc = run_fresh("import sys; from divrank import cli; cli.emit(sys.stdin.read(), None)",
                         input=LONG_TEXT.encode())
        assert proc.returncode == 0
        assert proc.stdout == LONG_TEXT.encode()

    def test_long_text_to_out(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        cli.emit(LONG_TEXT, str(out))
        assert out.read_bytes() == LONG_TEXT.encode()
        assert capsys.readouterr().err == f"wrote {out}\n"


class TestVerifyAndScan:
    def test_verify_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "upper-bound", "--max", "2000")
        assert code == 0
        assert "status = verified" in out

    def test_unknown_check_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "zebra"])
        assert exc.value.code == 2

    def test_bad_conjecture_id_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "4"])
        assert exc.value.code == 2

    def test_scan_conjecture1_clean_below_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "1", "--max", "2000")
        assert code == 0

    def test_scan_conjecture1_finds_counterexample(self, capsys):
        # exit code 1 is the "counterexample found" contract
        code, out, _ = run_cli(capsys, "scan", "1", "--max", "3000", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "violated"
        assert doc["violations"][0]["n"] == 2431

    def test_report_json_schema(self, capsys, validator):
        for argv in (("verify", "lower-bound", "--max", "500"),
                     ("verify", "multiplier", "--samples", "20"),
                     ("scan", "3", "--max", "4000")):
            _, out, _ = run_cli(capsys, *argv, "--format", "json")
            validator.validate(json.loads(out))

    def test_verify_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "unit-fraction", "--max", "100",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,lo,hi,status,applicable,elapsed_ms,n,expected,actual"
        assert lines[1].startswith("unit-fraction,4,100,verified,")

    def test_timing_flag(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "pairing", "--max", "200", "--format", "json")
        assert json.loads(out)["elapsed_ms"] is None
        _, out, _ = run_cli(capsys, "verify", "pairing", "--max", "200",
                            "--format", "json", "--timing")
        assert isinstance(json.loads(out)["elapsed_ms"], int)

    def test_inapplicable_is_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lower-bound", "--max", "3")
        assert code == 0
        assert "status = inapplicable" in out

    @pytest.mark.parametrize("argv", [("verify", "upper-bound"), ("verify", "lower-bound"),
                                      ("scan", "3"), ("table",)])
    def test_max_at_the_kernel_bound_exits_2(self, capsys, tmp_path, argv):
        # a one-chunk budget: a scan that started would pause with exit 0
        code, out, err = run_cli(capsys, *argv, "--max", str(2**31), "--checkpoint",
                                 str(tmp_path / "ck"), "--max-chunks", "1")
        assert (code, out) == (2, "")
        assert err.startswith("divrank: ")


class TestIrn:
    def test_text_matches_published_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "irn", "--max", "32")
        assert code == 0
        assert out.strip() == ("1, 2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15, 17, 18, "
                               "19, 21, 22, 23, 26, 27, 29, 31, 32")

    def test_unit(self, capsys):
        code, out, _ = run_cli(capsys, "irn", "--max", "1")
        assert out.strip() == "1"

    def test_json_schema(self, capsys, validator):
        _, out, _ = run_cli(capsys, "irn", "--max", "50", "--format", "json")
        doc = json.loads(out)
        validator.validate(doc)
        assert doc["count"] == len(doc["members"])

    def test_csv_rows_are_profiles(self, capsys):
        _, out, _ = run_cli(capsys, "irn", "--max", "8", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,tau,sigma_e,sigma_o,k,is_index_ratio"
        assert lines[-1] == "8,4,10,5,2,true"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_csv_walks_each_n_once(self, capsys, monkeypatch):
        walked = []
        kernel = core.rank_blocks

        def counted(lo, hi, pairs=False):
            for block in kernel(lo, hi, pairs):
                walked.append(len(block[0]))
                yield block

        for name, module in list(sys.modules.items()):
            if name.startswith("divrank") and getattr(module, "rank_blocks", None) is kernel:
                monkeypatch.setattr(module, "rank_blocks", counted)
        code, _, _ = run_cli(capsys, "irn", "--max", "20000", "--format", "csv")
        assert (code, sum(walked)) == (0, 20_000)


class TestIOErrorsExit2:
    """Exit 1 means a violation was found, so a path that cannot be written is exit 2."""

    @pytest.mark.parametrize("argv", [
        ["irn", "--max", "10", "--out"],
        ["verify", "upper-bound", "--max", "70000", "--max-chunks", "1", "--checkpoint"],
    ], ids=["out", "checkpoint"])
    def test_path_in_a_missing_directory(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "x"))
        assert (code, out) == (2, "")
        assert err.startswith("divrank: ") and len(err.splitlines()) == 1
        assert str(tmp_path / "missing" / "x") in err

    def test_failed_write_leaves_the_old_file(self, capsys, monkeypatch, tmp_path):
        # a 3-slice text whose second write fails, as on a full disk
        out = tmp_path / "t.txt"
        out.write_bytes(b"old table\n")
        real_open, seen = open, []

        class FullDisk:
            def __init__(self, path, mode):
                self.fh = real_open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                seen.append(sorted(os.listdir(tmp_path)))
                if len(seen) == 2:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

        monkeypatch.setattr(cli, "_EMIT_SLICE", 64)
        monkeypatch.setattr(cli, "open", FullDisk, raising=False)
        code, stdout, err = run_cli(capsys, "irn", "--max", "200", "--out", str(out))
        assert (code, stdout) == (2, "") and seen[1] == ["t.txt", "t.txt.tmp"]
        assert err.startswith("divrank: ") and str(out) in err and "No space" in err
        assert out.read_bytes() == b"old table\n"
        assert os.listdir(tmp_path) == ["t.txt"]


class TestOutAndDeterminism:
    def test_out_writes_payload(self, capsys, tmp_path):
        out_file = tmp_path / "t.json"
        code, out, err = run_cli(capsys, "table", "--max", "50",
                                 "--format", "json", "--out", str(out_file))
        assert code == 0
        assert out == ""
        assert json.loads(out_file.read_text())["hi"] == 50

    def test_workers_do_not_change_bytes(self, capsys, tmp_path):
        blobs = []
        for w in ("1", "2", "8"):
            f = tmp_path / f"w{w}.json"
            run_cli(capsys, "verify", "upper-bound", "--max", "20000",
                    "--workers", w, "--chunk-size", "4096",
                    "--format", "json", "--out", str(f))
            blobs.append(f.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_checkpoint_interrupt_resume_identical(self, capsys, tmp_path):
        direct = tmp_path / "direct.json"
        run_cli(capsys, "table", "--max", "2000", "--chunk-size", "512",
                "--format", "json", "--out", str(direct))

        ck = tmp_path / "t.ck"
        resumed = tmp_path / "resumed.json"
        code, out, err = run_cli(capsys, "table", "--max", "2000",
                                 "--chunk-size", "512", "--checkpoint", str(ck),
                                 "--max-chunks", "1", "--format", "json",
                                 "--out", str(resumed))
        assert code == 0
        assert "paused" in err
        assert not resumed.exists()
        code, _, _ = run_cli(capsys, "table", "--max", "2000",
                             "--chunk-size", "512", "--checkpoint", str(ck),
                             "--format", "json", "--out", str(resumed))
        assert code == 0
        assert resumed.read_bytes() == direct.read_bytes()
        assert not ck.exists()

    def test_mismatched_checkpoint_exits_2(self, capsys, tmp_path):
        ck = tmp_path / "t.ck"
        run_cli(capsys, "table", "--max", "2000", "--chunk-size", "512",
                "--checkpoint", str(ck), "--max-chunks", "1",
                "--out", str(tmp_path / "x.json"))
        code, _, err = run_cli(capsys, "table", "--max", "3000",
                               "--chunk-size", "512", "--checkpoint", str(ck))
        assert code == 2
        assert "configuration" in err

    @pytest.mark.parametrize("command,mutate", [
        (TABLE, lambda doc: doc.update(last_n="512")),
        (TABLE, lambda doc: doc.update(last_n=None)),
        (TABLE, lambda doc: doc.update(fragment=[])),
        (TABLE, lambda doc: doc["fragment"].pop("classes")),
        (TABLE, lambda doc: doc["fragment"].update(members=[])),
        (TABLE, lambda doc: doc["fragment"]["classes"].update({"2": 7})),
        (UPPER_BOUND, lambda doc: doc["fragment"].update(violations=5)),
        (UPPER_BOUND, lambda doc: doc["fragment"].update(applicable=True)),
        (UPPER_BOUND, lambda doc: doc["fragment"].update(violations=[5])),
        (TABLE, lambda doc: next(iter(doc["fragment"]["classes"].values())).append("x")),
        # well-shaped edits that change the result: only the fragment digest catches them
        (UPPER_BOUND, lambda doc: doc["fragment"]["violations"].append(
            core._violation(600, "k < 2+1/2", "k=3"))),
        (TABLE, lambda doc: next(iter(doc["fragment"]["classes"].values())).append(7)),
    ], ids=["last_n-string", "last_n-null", "state-list", "state-missing-field",
            "state-extra-field", "state-class-int", "state-violations-int",
            "state-applicable-bool", "state-violation-no-record", "state-class-text-member",
            "state-forged-violation", "state-class-extra-member"])
    def test_malformed_checkpoint_field_exits_2(self, capsys, tmp_path, command, mutate, request):
        ck = tmp_path / "t.ck"
        argv = [*command, "--max", "2000", "--chunk-size", "512", "--checkpoint", str(ck)]
        run_cli(capsys, *argv, "--max-chunks", "1")
        head, line = ck.read_bytes().splitlines()
        doc = json.loads(line)
        mutate(doc)  # on the fragment line, written back as the log writes it
        ck.write_bytes(head + b"\n" + json.dumps(doc, separators=(",", ":")).encode() + b"\n")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "malformed" in err
        well_shaped = request.node.callspec.id in ("state-forged-violation",
                                                   "state-class-extra-member")
        assert ("digest mismatch" in err) == well_shaped

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("item", [
        1,
        {"n": 600, "expected": "k < 2+1/2"},
        {"n": 600, "expected": "k < 2+1/2", "actual": "k=3", "why": "edited"},
        {"n": 600, "actual": "k=3", "expected": "k < 2+1/2"},
        {"n": "600", "expected": "k < 2+1/2", "actual": "k=3"},
    ], ids=["int", "no-actual", "extra-key", "reordered", "n-text"])
    def test_edited_log_line_with_a_violation_that_is_no_record_exits_2(self, capsys, tmp_path,
                                                                         item, fmt):
        # re-signed, so that only the record check can refuse it
        code, out, err = resume_edited_log(capsys, tmp_path, UPPER_BOUND,
                                           lambda fragment: fragment["violations"].append(item),
                                           "--format", fmt)
        assert (code, out) == (2, "")
        assert "malformed" in err

    def test_version_2_checkpoint_exits_2(self, capsys, tmp_path, monkeypatch):
        # version 2 keyed an integer class "2/1"; resuming it would mix two key forms
        ck = tmp_path / "t.ck"
        argv = [*TABLE, "--max", "2000", "--chunk-size", "512", "--checkpoint", str(ck)]
        run_cli(capsys, *argv, "--max-chunks", "1")
        head, line = map(json.loads, ck.read_text().splitlines())
        classes = {k if "/" in k else f"{k}/1": v for k, v in line["fragment"]["classes"].items()}
        ck.unlink()
        with monkeypatch.context() as m:
            m.setattr(scanner, "CHECKPOINT_VERSION", 2)
            scanner._start_log(ck, "gk", head["config_hash"])
        scanner.save_checkpoint(ck, line["last_n"], scanner.encode_fragment({"classes": classes}))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unsupported checkpoint version" in err

    def test_version_3_checkpoint_exits_2(self, capsys, tmp_path):
        # version 3 was one object holding the whole state, rewritten after every chunk
        ck = tmp_path / "t.ck"
        argv = [*TABLE, "--max", "2000", "--chunk-size", "512", "--checkpoint", str(ck)]
        run_cli(capsys, *argv, "--max-chunks", "1")
        head, line = map(json.loads, ck.read_text().splitlines())
        state = json.dumps(line["fragment"], separators=(",", ":"))
        doc = json.dumps({**head, "version": 3, "last_n": line["last_n"],
                          "state_sha256": hashlib.sha256(state.encode()).hexdigest()},
                         separators=(",", ":"))
        ck.write_text(f'{doc[:-1]},"state":{state}}}\n')
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unsupported checkpoint version" in err

    def test_kill_mid_append_loses_one_chunk(self, capsys, tmp_path, monkeypatch):
        ck = tmp_path / "t.ck"
        argv = [*TABLE, "--max", "20000", "--chunk-size", "1024", "--checkpoint", str(ck)]
        proc = run_fresh(TEAR_THIRD_APPEND, *argv)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        torn = ck.read_bytes()
        whole = torn.rfind(b"\n") + 1
        assert [json.loads(line)["last_n"] for line in torn[:whole].splitlines()[1:]] == [1024, 2048]
        assert 0 < len(torn) - whole

        ran = []
        chunk_fn, merge_fn, empty_fn = scanner._TASKS["gk"]
        monkeypatch.setitem(scanner._TASKS, "gk", (
            lambda lo, hi: ran.append(lo) or chunk_fn(lo, hi), merge_fn, empty_fn))
        code, _, _ = run_cli(capsys, *argv, "--max-chunks", "1")
        assert code == 0 and ran == [2049]  # the torn chunk, recomputed
        log = ck.read_bytes()
        assert log[:whole] == torn[:whole]  # cut at its last newline, then appended to
        assert json.loads(log[whole:])["last_n"] == 3072 and log.endswith(b"\n")
        code, resumed, _ = run_cli(capsys, *argv)
        assert code == 0 and ran[:2] == [2049, 3073] and not ck.exists()
        assert resumed == run_cli(capsys, *TABLE, "--max", "20000")[1]

    def test_run_stopped_in_its_first_chunk_leaves_a_header_that_resumes(self, capsys, tmp_path,
                                                                         monkeypatch):
        ck = tmp_path / "t.ck"
        argv = [*TABLE, "--max", "2000", "--chunk-size", "512", "--checkpoint", str(ck)]
        chunk_fn, merge_fn, empty_fn = scanner._TASKS["gk"]

        def interrupted(lo, hi):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setitem(scanner._TASKS, "gk", (interrupted, merge_fn, empty_fn))
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        head = {"version": 4, "task": "gk",
                "config_hash": scanner.config_digest("gk", 1, 2000, 512)}
        assert ck.read_bytes() == json.dumps(head, separators=(",", ":")).encode() + b"\n"
        code, resumed, _ = run_cli(capsys, *argv)
        assert code == 0 and not ck.exists()
        assert resumed == run_cli(capsys, *TABLE, "--max", "2000")[1]


# test-only hook: the third checkpoint append writes half its line, then the
# process SIGKILLs itself, as a kill in the middle of a write would leave it
TEAR_THIRD_APPEND = """
import os, signal, sys
from divrank import cli, scanner
appends = []
def save_checkpoint(path, last_n, fragment):
    appends.append(last_n)
    if len(appends) < 3:
        return save(path, last_n, fragment)
    line = scanner._chunk_line(last_n, fragment)
    with open(path, "ab") as fh:
        fh.write(line[:len(line) // 2])
    os.kill(os.getpid(), signal.SIGKILL)
save, scanner.save_checkpoint = scanner.save_checkpoint, save_checkpoint
sys.exit(cli.main(sys.argv[1:]))
"""
SRC = str(Path(cli.__file__).resolve().parents[1])


def fresh_env():
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_fresh(script, *argv, text=False, input=None):
    """`script` run with `argv` by a fresh interpreter that imports divrank from SRC."""
    return subprocess.run([sys.executable, "-c", script, *argv], env=fresh_env(),
                          capture_output=True, text=text, timeout=120, input=input)


UNCHUNKED = ["multiplier", "prime-power-distinct", "unit-fraction"]
CHUNK_FLAGS = {"--workers": "2", "--chunk-size": "7", "--checkpoint": "u.ck", "--max-chunks": "1"}
SAMPLE_FLAGS = {"--seed": "9", "--samples": "3"}  # read by multiplier alone
# each verify check with a flag it does not read, chunked and unchunked: a chunk
# flag unless the check is a chunked scan, --seed and --samples unless it is multiplier
UNREAD_FLAGS = [*((check, flag) for check in UNCHUNKED for flag in CHUNK_FLAGS),
                *((check, flag) for check in ("upper-bound", "unit-fraction")
                  for flag in SAMPLE_FLAGS)]


class TestChunkFlagsOnUnchunkedChecks:
    @pytest.mark.parametrize("check, flag", UNREAD_FLAGS)
    def test_command_line_flag_exits_2(self, capsys, tmp_path, monkeypatch, check, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", check, "--max", "1000",
                      flag, {**CHUNK_FLAGS, **SAMPLE_FLAGS}[flag]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and check in err
        assert not (tmp_path / "u.ck").exists()

    @pytest.mark.parametrize("check", [*UNCHUNKED, "upper-bound"])
    def test_environment_and_config_file_stay_ignored(self, capsys, tmp_path, monkeypatch,
                                                      check):
        # one config file serves every subcommand, so these values cannot be refused:
        # each check is given, half by the environment and half by the file, the
        # settings it does not read (chunked upper-bound reads the chunk ones)
        monkeypatch.chdir(tmp_path)
        config = ""
        if check in UNCHUNKED:
            monkeypatch.setenv("DIVRANK_WORKERS", "2")
            monkeypatch.setenv("DIVRANK_MAX_CHUNKS", "1")
            config += "checkpoint=u.ck\nchunk_size=7\n"
        if check != "multiplier":
            monkeypatch.setenv("DIVRANK_SEED", "9")
            config += "samples=3\n"
        (tmp_path / "divrank.cfg").write_text(config)
        code, out, _ = run_cli(capsys, "verify", check, "--max", "1000",
                               "--config", "divrank.cfg")
        assert code == 0 and "status = verified" in out
        assert not (tmp_path / "u.ck").exists()

    @pytest.mark.parametrize("check, env, config", [
        ("upper-bound", {"DIVRANK_SEED": "abc"}, ""),
        ("upper-bound", {}, "samples=0\n"),
        ("unit-fraction", {"DIVRANK_WORKERS": "0"}, ""),
        ("unit-fraction", {}, "chunk_size=x\n"),
    ], ids=["upper-bound-env-seed", "upper-bound-file-samples", "unit-fraction-env-workers",
            "unit-fraction-file-chunk-size"])
    def test_bad_text_for_a_setting_it_does_not_read_is_ignored(self, capsys, tmp_path,
                                                                monkeypatch, check, env, config):
        # text no parser would accept, for a setting outside the check's CHECKS row
        monkeypatch.chdir(tmp_path)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        (tmp_path / "divrank.cfg").write_text(config)
        code, out, _ = run_cli(capsys, "verify", check, "--max", "1000",
                               "--config", "divrank.cfg")
        assert code == 0 and "status = verified" in out

    def test_chunked_check_still_takes_them(self, capsys, tmp_path):
        ck = tmp_path / "u.ck"
        argv = ["verify", "upper-bound", "--max", "1000", "--workers", "2",
                "--chunk-size", "256", "--checkpoint", str(ck)]
        code, out, err = run_cli(capsys, *argv, "--max-chunks", "1")
        assert (code, out) == (0, "") and "scan paused at n=256" in err and ck.exists()
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and not ck.exists()
        assert out == run_cli(capsys, "verify", "upper-bound", "--max", "1000",
                              "--chunk-size", "256", "--format", "json")[1]
        code, _, err = run_cli(capsys, "verify", "upper-bound", "--max", "1000",
                               "--max-chunks", "1")
        assert code == 2 and "max_chunks requires a checkpoint" in err


class TestCheckRows:
    """theorems.CHECKS states once what each check reads; cli passes only that."""

    def test_rows_match_the_tasks_and_the_scanners(self):
        rows = theorems.CHECKS
        run_scan = inspect.signature(scanner.run_scan).parameters
        assert scanner.CHUNK_FLAGS == tuple(name for name, p in run_scan.items()
                                            if p.kind is p.KEYWORD_ONLY)
        chunked = {name for name, (_, keywords) in rows.items()
                   if keywords == scanner.CHUNK_FLAGS}
        assert chunked == rows.keys() & scanner._TASKS.keys()
        for name, (scan, keywords) in rows.items():
            if name not in chunked:
                assert set(keywords) <= inspect.signature(scan).parameters.keys(), name
        conjectures = [f"conjecture-{n}" for n in (1, 2, 3)]
        assert [*cli.VERIFY_CHECKS, *conjectures] == list(rows)


class TestRecordsMatchTheSchema:
    """core states the G_k key and the violation record once; report_schema.json
    states them for the payloads."""

    @pytest.fixture(scope="class")
    def defs(self):
        return json.loads(resources.files("divrank").joinpath("report_schema.json")
                          .read_text())["$defs"]

    def test_violation_keys(self, defs):
        assert list(core._VIOLATION_KEYS) == defs["violation"]["required"]

    def test_every_class_key_is_a_rational(self, defs):
        rational = Draft202012Validator(defs["rational"])
        keys = [core._class_key(se, so) for block in core.rank_blocks(1, 10**4)
                for _, _, _, se, so in core.block_rows(block)]
        assert len(keys) == 10**4
        for key in keys:
            assert core._CLASS_KEY.fullmatch(key) and rational.is_valid(key), key

    @pytest.mark.parametrize("key", NO_PRINTED_K, ids=NO_PRINTED_K_IDS)
    def test_refused_keys_fullmatch_no_class_key(self, key):
        # fullmatch, not "$", which Python's re lets end before a final "\n"
        assert core._CLASS_KEY.fullmatch(key) is None

    @pytest.mark.parametrize("key", NO_PRINTED_K, ids=NO_PRINTED_K_IDS)
    def test_rational_refuses_every_key_that_is_no_printed_k(self, defs, key):
        # jsonschema matches "pattern" by re.search: "(?!\n)$" keeps "1\n" out
        assert not Draft202012Validator(defs["rational"]).is_valid(key)


class TestUsageErrorsNameTheSubcommand:
    @pytest.mark.parametrize("argv, env", [
        (["verify", "unit-fraction", "--max", "1000", "--workers", "2"], {}),
        (["table", "--max", "10"], {"DIVRANK_WORKERS": "none"}),
    ], ids=["chunk flag", "environment value"])
    def test_usage_is_the_subcommands(self, capsys, monkeypatch, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: divrank {argv[0]} ")
        assert f"divrank {argv[0]}: error: " in err


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "divrank.cfg"
        cfg.write_text("# defaults\nmax=32\nformat=json\n")
        code, out, _ = run_cli(capsys, "irn", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["limit"] == 32

    def test_cli_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "divrank.cfg"
        cfg.write_text("max=32\n")
        code, out, _ = run_cli(capsys, "irn", "--config", str(cfg),
                               "--max", "10", "--format", "json")
        assert json.loads(out)["limit"] == 10

    def test_env_beats_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "divrank.cfg"
        cfg.write_text("max=32\n")
        monkeypatch.setenv("DIVRANK_MAX", "12")
        code, out, _ = run_cli(capsys, "irn", "--config", str(cfg),
                               "--format", "json")
        assert json.loads(out)["limit"] == 12

    def test_env_alone(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVRANK_FORMAT", "json")
        monkeypatch.setenv("DIVRANK_MAX", "5")
        code, out, _ = run_cli(capsys, "irn")
        assert json.loads(out)["members"] == [1, 2, 3, 5]

    def test_bad_env_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVRANK_MAX", "minus-nine")
        with pytest.raises(SystemExit) as exc:
            cli.main(["irn"])
        assert exc.value.code == 2

    def test_bad_config_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "divrank.cfg"
        cfg.write_text("max 32\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["irn", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "divrank.cfg"
        # one file serves every subcommand: a key of another subcommand is fine
        cfg.write_text("samples=7\nmax=50\nformat=json\n")
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg))
        assert code == 0 and json.loads(out)["hi"] == 50
        for typo in ("chunk-sise=7", "formt=json"):
            cfg.write_text(f"max=50\n{typo}\n")
            with pytest.raises(SystemExit) as exc:
                cli.main(["table", "--config", str(cfg)])
            assert exc.value.code == 2
            assert typo.split("=")[0].replace("-", "_") in capsys.readouterr().err

    def test_k_filter_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "divrank.cfg"
        cfg.write_text("k=2/5,3/10\nmax=100\nformat=csv\n")
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg))
        lines = out.splitlines()
        assert lines[1].startswith("2/5,1,4")
        assert lines[2].startswith("3/10,1,9")


# setting -> (subcommand, its flag form, raw text, resolved value, a bad raw text or None)
SETTING_CASES = {
    "max": (("irn",), ["--max", "32"], "32", 32, "0"),
    "format": (("irn",), ["--format", "json"], "json", "json", "yaml"),
    "out": (("irn",), ["--out", "o.txt"], "o.txt", "o.txt", None),
    "workers": (("table",), ["--workers", "2"], "2", 2, "none"),
    "chunk_size": (("table",), ["--chunk-size", "7"], "7", 7, "-7"),
    "checkpoint": (("table",), ["--checkpoint", "t.ck"], "t.ck", "t.ck", None),
    "max_chunks": (("table",), ["--max-chunks", "3"], "3", 3, "0"),
    "timing": (("scan", "1"), ["--timing"], "yes", True, "maybe"),
    "seed": (("verify", "multiplier"), ["--seed", "5"], "5", 5, "five"),
    "samples": (("verify", "multiplier"), ["--samples", "40"], "40", 40, "0"),
    "k": (("table",), ["--k", "2/5", "--k", "3"], "2/5,3", ["2/5", "3"], "x/y"),
}


_SCANS = {"format", "out", "max", "workers", "chunk_size", "checkpoint", "max_chunks"}
# subcommand -> the settings its flags give
SUBCOMMAND_SETTINGS = {
    "profile": {"format", "out"},
    "table": {"k", *_SCANS},
    "verify": {"seed", "samples", "timing", *_SCANS},
    "scan": {"timing", *_SCANS},
    "irn": {"format", "out", "max", "workers"},
}


def _resolved(argv):
    parser = cli.build_parser()
    return cli.resolve_settings(parser, parser.parse_args(argv))


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _resolved(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestEverySetting:
    def test_every_setting_has_a_case(self):
        assert set(SETTING_CASES) == set(cli.SETTINGS)

    @pytest.mark.parametrize("name", list(SETTING_CASES))
    def test_resolves_from_env_and_config_file(self, tmp_path, monkeypatch, capsys, name):
        command, flag_argv, raw, value, bad = SETTING_CASES[name]
        env = "DIVRANK_" + name.upper()
        cfg = tmp_path / "divrank.cfg"
        from_file = [*command, "--config", str(cfg)]
        assert getattr(_resolved([*command]), name) == cli.SETTINGS[name][1]
        assert getattr(_resolved([*command, *flag_argv]), name) == value
        cfg.write_text(f"{name}={raw}\n")
        assert getattr(_resolved(from_file), name) == value
        monkeypatch.setenv(env, raw)
        assert getattr(_resolved([*command]), name) == value
        if bad is None:  # a path: any text is a value
            return
        monkeypatch.setenv(env, bad)
        assert env in _usage_error(capsys, [*command])
        monkeypatch.delenv(env)
        cfg.write_text(f"{name}={bad}\n")
        assert f"config file key {name!r}" in _usage_error(capsys, from_file)

    @pytest.mark.parametrize("name", [name for name, case in SETTING_CASES.items() if case[4]])
    def test_bad_text_refused_alike_from_every_source(self, tmp_path, monkeypatch, capsys,
                                                      name):
        command, flag_argv, _, _, bad = SETTING_CASES[name]
        env = "DIVRANK_" + name.upper()
        monkeypatch.delenv(env, raising=False)
        cfg = tmp_path / "divrank.cfg"
        cfg.write_text(f"{name}={bad}\n")
        from_file = [*command, "--config", str(cfg)]
        # each source wins over those before it, which give the same bad text
        sources = [(f"config file key {name!r}", from_file),
                   (f"environment variable {env}", from_file)]
        if cli.SETTINGS[name][0] is not cli._parse_bool:  # a switch's flag carries no text
            sources.append((flag_argv[0], [*from_file, flag_argv[0], bad]))
        for source, argv in sources:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: divrank {command[0]} ")
            assert f"divrank {command[0]}: error: bad value in {source}: " in err
            monkeypatch.setenv(env, bad)

    def test_k_comma_list_repeated_flag_and_env_agree(self, monkeypatch):
        keys = [_resolved(["table", "--k", "2/5,3/10"]).k,
                _resolved(["table", "--k", "2/5", "--k", "3/10"]).k]
        monkeypatch.setenv("DIVRANK_K", "2/5,3/10")
        keys.append(_resolved(["table"]).k)
        assert keys == [["2/5", "3/10"]] * 3

    @pytest.mark.parametrize("command", list(SUBCOMMAND_SETTINGS))
    def test_help_lists_exactly_the_settings_taken(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = set(re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE))
        taken = SUBCOMMAND_SETTINGS[command]
        assert flags == {"--config", *("--" + name.replace("_", "-") for name in taken)}
        words = " ".join(out.split())  # each flag's help with its default, unwrapped
        for name in taken:
            _, default, _, text = cli.SETTINGS[name]
            assert (f"{text} (default {default})" if default else text) in words


# sha256 of stdout, with the exit code, as the per-n divisor-list scanners wrote
# it before the range scans shared one rank-sum kernel. json/csv output must not
# change by a byte whatever computes the sums.
GOLDEN_MAX = "20000"
GOLDEN = {
    ("verify", "upper-bound", "--max", GOLDEN_MAX, "--format", "json"):
        (0, "ff66f1565d0978960a1f5c442c251aadab0801008ad01bed7a22a72ab91ddffe"),
    ("verify", "lower-bound", "--max", GOLDEN_MAX, "--format", "json"):
        (0, "6f6fce850f7a08b565210fc25b1ad27afe595503d8111ad9c04e94cea829b2b4"),
    ("verify", "sigma-bounds", "--max", GOLDEN_MAX, "--format", "json"):
        (0, "c7a6930e3fc49695a6b02e2a4cd36ed72ac3a699b0268300f9471864987c9a52"),
    ("verify", "pairing", "--max", GOLDEN_MAX, "--format", "json"):
        (1, "46929fa4b885641ffd299855ec0e3c2c34a253648f401bf37194cdafe5c1d59c"),
    ("verify", "prime-power-distinct", "--max", GOLDEN_MAX, "--format", "json"):
        (0, "9e535d4ee2b15faf94c69e34b21c0db67ef712f3b6106de5ddca57f35aff6ac1"),
    ("verify", "unit-fraction", "--max", GOLDEN_MAX, "--format", "json"):
        (0, "53a802fc90f4fb963b4affe6a2515c104b7c90048377f1e1208e38c4300f2443"),
    ("verify", "multiplier", "--format", "json"):
        (0, "950a602d3dc2b228d23ceaf0cc027448b7e9c10203a167a8febe9cd0616bb7c3"),
    ("scan", "1", "--max", GOLDEN_MAX, "--format", "json"):
        (1, "a5361edc1361d16b97590d9dd8f47358d29e1810576e48282898bdbb7ec3c2b5"),
    ("scan", "2", "--max", GOLDEN_MAX, "--format", "json"):
        (1, "4a768376f436c59040aa9c819404d259d499cb541f072c9b6c2ad4d523ea2499"),
    ("scan", "3", "--max", GOLDEN_MAX, "--format", "json"):
        (1, "0317acf87a82107aac5271cc7db5e3756c510db63848d6efecc994d1a3360fbd"),
    ("table", "--max", GOLDEN_MAX, "--format", "json"):
        (0, "8e0c2649d6ba69b9eaa8fce0f0c62580febecf8ec35aafbafa0de1b3d4233ac4"),
    ("table", "--max", GOLDEN_MAX, "--format", "csv"):
        (0, "f780909ce22f2105af1db2cda9812fb7dc227f4103d38781c7f60a574adbe0e3"),
    ("irn", "--max", GOLDEN_MAX, "--format", "json"):
        (0, "58279fef41725f8d20def618aeef026afbe28873373089f88f6670dbcbe84e5e"),
    ("irn", "--max", GOLDEN_MAX, "--format", "csv"):
        (0, "01099b2bd49fb5d4a9d8a73cccf9cb6892ffd45cd50e0f426eacb95d4a078dda"),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
    def test_stdout_digest(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]


# sha256 of stdout, with the exit code, as the 8192-n block walk and the
# per-row Python predicates wrote it; 7919-n chunks and the chunks of two
# workers put chunk seams inside and between kernel blocks
SEAM_MAX = "100000"
SEAM_DIGESTS = {
    ("verify", "upper-bound", "--chunk-size", "7919"):
        (0, "97b6d6b7a29266c623ec0b9576e0d56c631ed0fcffcca5b9100162603f3ebf5f"),
    ("verify", "upper-bound", "--workers", "2"):
        (0, "bb480dc7892079dd7cf80ef9556971a83eaefe1b8f9345e9ef3d112a74d8e8d3"),
    ("verify", "sigma-bounds", "--chunk-size", "7919"):
        (0, "a60c0286c35b7236060860dc0e52bbdfe9ad4cf6c20b5395e8eee2310de4fa6a"),
    ("verify", "sigma-bounds", "--workers", "2"):
        (0, "30738ff0702a739b8224f1263d8c81f1a96979f741cc796f12bff7623b1665a6"),
    ("scan", "1", "--chunk-size", "7919"):
        (1, "3a9d897f2cddf390ae6373590c6bbac22a8f5234c568f2613c349048910cb6ad"),
    ("scan", "1", "--workers", "2"):
        (1, "4cbd98c7a6f2c53a624162ec743242ff35099578d5e76a115b1b6529bf5a9d3e"),
    ("scan", "2", "--chunk-size", "7919"):
        (1, "14492a1e78bd9b8e1c959da1b37cbdd98e59037e0f90bdb1b9edd95ab1cba4b1"),
    ("scan", "2", "--workers", "2"):
        (1, "82abda155e6fd27f79fcd8f9d099c539ab6106db75f4347801cc1469503231e3"),
}


class TestSeamBytes:
    @pytest.mark.parametrize("argv", list(SEAM_DIGESTS), ids=" ".join)
    def test_stdout_digest(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv[:2], "--max", SEAM_MAX, "--format", "json",
                               *argv[2:])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == SEAM_DIGESTS[argv]


class TestCheckpointLogBytes:
    def test_version_4_log_digest(self, capsys, tmp_path):
        # the log as the per-n G_k chunk wrote it, before chunks grouped their blocks
        ck = tmp_path / "t.ck"
        code, _, err = run_cli(capsys, *TABLE, "--max", "300000", "--max-chunks", "2",
                               "--checkpoint", str(ck))
        assert (code, "scan paused at n=131072" in err) == (0, True)
        assert hashlib.sha256(ck.read_bytes()).hexdigest() == \
            "bbf8ff762b25fc08a66eb6c8ae6c8785e1d7f1c736d0daa1dae7b59a18d55ebb"


# imports the module named first, runs the CLI command that follows, if any, and
# then names on its last stderr line which of hashlib, numpy and multiprocessing it loaded
LOADED = """
import importlib, sys
importlib.import_module(sys.argv[1])
code = 0
if sys.argv[2:]:
    from divrank import cli
    code = cli.main(sys.argv[2:])
print(" ".join(sorted({"hashlib", "numpy", "multiprocessing"} & set(sys.modules))),
      file=sys.stderr)
sys.exit(code)
"""


def loaded_by(*argv, names=("multiprocessing", "numpy")):
    """The fresh process, and which of `names` it loaded, space-separated."""
    proc = run_fresh(LOADED, *argv, text=True)
    assert proc.returncode in (0, 1), proc.stderr  # 1: the check found a violation
    return proc, " ".join(m for m in proc.stderr.splitlines()[-1].split() if m in names)


class TestWhatACommandLoads:
    """numpy comes with the kernel's first block or a worker pool, multiprocessing
    with a pool. Only a fresh process shows this: tests/conftest.py imports numpy."""

    @pytest.mark.parametrize("argv", [
        ("divrank",),
        ("divrank.cli",),
        ("divrank.cli", "profile", "36"),
        ("divrank.cli", "verify", "multiplier"),
        ("divrank.cli", "verify", "unit-fraction", "--max", "10000"),
        ("divrank.cli", "verify", "prime-power-distinct", "--max", "10000"),
        ("divrank.cli", "verify", "lower-bound", "--max", "10000"),
        ("divrank.cli", "scan", "3", "--max", "10000"),
    ], ids=" ".join)
    def test_loads_neither(self, argv):
        assert loaded_by(*argv)[1] == ""

    def test_a_kernel_scan_loads_numpy_only(self):
        argv = ("verify", "upper-bound", "--max", "1000", "--workers", "1")
        assert loaded_by("divrank.cli", *argv)[1] == "numpy"

    @pytest.mark.parametrize("argv, loads", [
        (("verify", "upper-bound", "--max", "1000"), ""),
        (("verify", "lower-bound", "--max", "10000"), ""),
        (("table", "--max", "1000", "--format", "csv"), ""),
        (("table", "--max", "1000", "--format", "csv", "--checkpoint", "{tmp}/t.ck"), "hashlib"),
    ], ids=["verify upper-bound", "verify lower-bound", "table", "table with a checkpoint"])
    def test_hashlib_only_with_a_checkpoint(self, tmp_path, argv, loads):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert loaded_by("divrank.cli", *argv, names=("hashlib",))[1] == loads


POOLED = [
    ("table", "--max", "200000", "--format", "csv"),
    ("verify", "sigma-bounds", "--max", "200000", "--chunk-size", "16384", "--format", "json"),
]


class TestPooledScanInAFreshProcess:
    """A fresh process loads numpy only when its scan opens a pool, just before the
    fork. In-process scans run with numpy loaded from the start."""

    @pytest.mark.parametrize("argv", POOLED, ids=" ".join)
    def test_same_bytes_as_one_worker(self, capsys, argv):
        proc, loaded = loaded_by("divrank.cli", *argv, "--workers", "2")
        assert loaded == "multiprocessing numpy"
        code, out, _ = run_cli(capsys, *argv, "--workers", "1")
        assert (proc.returncode, proc.stdout) == (code, out)

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_every_start_method(self, capsys, method):
        # a worker that is not forked imports divrank.scanner, and with it the package,
        # whose modules register the tasks
        argv = ("table", "--max", "3000", "--chunk-size", "512", "--format", "csv")
        proc = run_fresh("import multiprocessing, sys; from divrank import cli; "
                         "multiprocessing.set_start_method(sys.argv[1]); "
                         "sys.exit(cli.main(sys.argv[2:]))", method, *argv, "--workers", "2")
        code, out, _ = run_cli(capsys, *argv, "--workers", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")

    def test_paused_and_resumed(self, capsys, tmp_path):
        argv = ("divrank.cli", *POOLED[0], "--workers", "2", "--checkpoint", str(tmp_path / "t.ck"))
        paused, loaded = loaded_by(*argv, "--max-chunks", "2")
        assert (paused.stdout, loaded) == ("", "multiprocessing numpy")
        assert "scan paused at n=131072" in paused.stderr
        resumed, loaded = loaded_by(*argv)
        assert loaded == "multiprocessing numpy"
        assert resumed.stdout == run_cli(capsys, *POOLED[0], "--workers", "1")[1]
        assert not (tmp_path / "t.ck").exists()


# test-only hooks: each pool worker writes its pid to the file named first, then
# ignores SIGINT as the scan asks; each append takes 50 ms, so the scan is still
# running when the test's SIGINT arrives
SLOW_APPENDS = """
import os, sys, time
from divrank import cli, scanner
pids, ignore, save = sys.argv[1], scanner._ignore_sigint, scanner.save_checkpoint
def initializer():
    with open(pids, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    ignore()
def slow_save(*args):
    save(*args)
    time.sleep(0.05)
scanner._ignore_sigint, scanner.save_checkpoint = initializer, slow_save
sys.exit(cli.main(sys.argv[2:]))
"""


class TestCtrlC:
    def test_pooled_scan_stops_and_its_log_resumes(self, capsys, tmp_path):
        ck, pids = tmp_path / "t.ck", tmp_path / "pids"
        argv = [*TABLE, "--max", "100000", "--chunk-size", "2048", "--workers", "2",
                "--checkpoint", str(ck), "--format", "csv"]
        # a session of its own: the SIGINT goes to its whole group, as Ctrl-C in a
        # terminal reaches the foreground group, pool workers included
        proc = subprocess.Popen([sys.executable, "-c", SLOW_APPENDS, str(pids), *argv],
                                env=fresh_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and (
                    not ck.exists() or ck.read_bytes().count(b"\n") < 3):
                time.sleep(0.005)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == -signal.SIGINT, err  # an uncaught KeyboardInterrupt
        assert b"KeyboardInterrupt" in err
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 2
        for pid in workers:  # each was joined, and reaped, before the parent exited
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert 3 <= ck.read_bytes().count(b"\n") < 50  # stopped mid-scan, 49 chunks
        code, resumed, _ = run_cli(capsys, *argv)
        assert (code, ck.exists()) == (0, False)
        assert resumed == run_cli(capsys, *TABLE, "--max", "100000", "--format", "csv")[1]


def _paused_and_resumed_table(tmp_path, chunks):
    tmp_path.mkdir(exist_ok=True)
    argv = [*TABLE, "--max", str(chunks * 4096), "--chunk-size", "4096", "--workers", "2",
            "--checkpoint", str(tmp_path / f"{chunks}-chunks.ck"), "--format", "json"]
    assert cli.main([*argv, "--max-chunks", str(chunks // 2)]) == 0
    assert cli.main(argv) == 0


SCANS = {
    "table": lambda tmp_path, chunks: cli.main(
        [*TABLE, "--max", str(chunks * 4096), "--chunk-size", "4096", "--format", "json"]),
    "table paused and resumed": _paused_and_resumed_table,
    "upper-bound": lambda tmp_path, chunks: cli.main(
        [*UPPER_BOUND, "--max", str(chunks * 4096), "--chunk-size", "4096", "--format", "json"]),
    "irn": lambda tmp_path, chunks: scanner.run_scan("irn", 1, chunks * 4096, chunk_size=4096),
}


class TestCollector:
    """cli.main runs without the cyclic collector, so nothing a scan keeps or drops
    may form a reference cycle: reference counting alone must free it."""

    @staticmethod
    def cyclic_garbage(scan):
        """The objects left unreachable by `scan()` that only the collector frees."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            scan()
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("name", list(SCANS))
    def test_scan_makes_no_cyclic_garbage(self, capsys, tmp_path, name):
        scan = SCANS[name]
        # a first pool run imports modules lazily (signal, socket), and the enum
        # classes those imports build leave cyclic garbage once
        for chunks in (2, 16):
            scan(tmp_path / "warm", chunks)
        few = self.cyclic_garbage(lambda: scan(tmp_path, 2))
        many = self.cyclic_garbage(lambda: scan(tmp_path, 16))
        capsys.readouterr()
        assert many <= few

    @pytest.mark.parametrize("argv, code", [
        ((*TABLE, "--max", "100"), 0),
        ((*TABLE, "--max", "300", "--chunk-size", "100", "--max-chunks", "1",
          "--checkpoint", "{tmp}/t.ck"), 0),
        ((*TABLE, "--max", "100", "--k", "2/0"), 2),
        ((*TABLE, "--max", "100", "--checkpoint", "{tmp}/missing/t.ck"), 2),
    ], ids=["finished", "paused", "bad --k", "bad checkpoint path"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
    def test_main_restores_the_callers_setting(self, capsys, tmp_path, argv, code, enabled):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                got = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                got = exc.code
            assert (got, gc.isenabled()) == (code, enabled)
        finally:
            gc.enable()
