import copy
import json
import os
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrank import (
    CheckpointError,
    RangeOverlapError,
    ScanInterrupted,
    enumerate_index_ratio,
    is_index_ratio,
    k_ratio,
    members_of_k,
    merge_tables,
    scan_range,
    scanner,
)
from divrank.classify import GkTable, _class_key, _gk_chunk
from divrank.core import KERNEL_BOUND, block_rows, rank_blocks
from divrank.scanner import (
    config_digest,
    encode_fragment,
    load_checkpoint,
    run_scan,
    save_checkpoint,
)

# the published 23-element prefix of the index ratio numbers
IRN_PREFIX_32 = [1, 2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15, 17, 18, 19, 21, 22,
                 23, 26, 27, 29, 31, 32]


class TestIsIndexRatio:
    def test_examples(self):
        assert is_index_ratio(8)       # 10 / 5
        assert not is_index_ratio(4)   # 2 / 5
        assert is_index_ratio(1)       # 1 divides 0

    def test_matches_k_denominator(self):
        for n in range(1, 2000):
            assert is_index_ratio(n) == (k_ratio(n).denominator == 1)


class TestScanRange:
    def test_first_ten(self):
        table = scan_range(1, 10)
        expected = {
            "0": [1],
            "2": [2, 6, 8, 10],
            "3": [3],
            "2/5": [4],
            "5": [5],
            "7": [7],
            "3/10": [9],
        }
        assert table.classes == expected

    def test_single(self):
        table = scan_range(1, 1)
        assert table.classes == {"0": [1]}

    def test_partition_property(self):
        table = scan_range(1, 5000)
        seen = set()
        for members in table.classes.values():
            assert members == sorted(members)
            assert not seen.intersection(members)
            seen.update(members)
        assert seen == set(range(1, 5001))

    def test_membership_round_trip(self):
        table = scan_range(1, 10_000)
        for n in (1, 4, 12, 36, 2431, 9973, 10_000):
            assert n in table.members(k_ratio(n))

    def test_every_member_keyed_by_its_own_k(self):
        table = scan_range(1, 10_000)
        for k, members in table.classes.items():
            for n in members:
                q = k_ratio(n)
                assert _class_key(q.numerator, q.denominator) == k

    def test_worker_count_invariance(self):
        base = scan_range(1, 20_000, chunk_size=4096)
        for workers in (2, 3):
            other = scan_range(1, 20_000, workers=workers, chunk_size=4096)
            assert other.classes == base.classes
            assert list(other.classes.keys()) == list(base.classes.keys())

    def test_chunk_size_invariance(self):
        a = scan_range(1, 3000, chunk_size=100)
        b = scan_range(1, 3000, chunk_size=1 << 16)
        assert a.classes == b.classes


def _by_smallest_member(table):
    firsts = [members[0] for members in table.classes.values()]
    return all(a < b for a, b in zip(firsts, firsts[1:]))


def _per_n_classes(lo, hi):
    """The G_k fragment built one n at a time: `_class_key` of every block_rows row."""
    classes = {}
    for n, tau, d2, se, so in rank_blocks(lo, hi):
        for m, e, o in block_rows((n, se, so)):
            classes.setdefault(_class_key(e, o), []).append(m)
    return classes


def _assert_grouped_equals_per_n(lo, hi):
    grouped = _gk_chunk(lo, hi)["classes"]
    assert list(grouped.items()) == list(_per_n_classes(lo, hi).items())  # keys, order, lists
    return grouped


class TestGroupedChunk:
    """_gk_chunk groups each kernel block in numpy; it must give the fragment that
    keying every n on its own gives, in the same dict order."""

    @given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_windows(self, lo, width):
        _assert_grouped_equals_per_n(lo, lo + width)

    def test_default_chunk_over_two_blocks(self):
        # [1, 65536] is walked as two 32,768-n blocks; classes with members in both
        # extend the list the first block made
        assert [len(block[0]) for block in rank_blocks(1, 1 << 16)] == [1 << 15, 1 << 15]
        grouped = _assert_grouped_equals_per_n(1, 1 << 16)
        spanning = [k for k, m in grouped.items() if m[0] <= 1 << 15 < m[-1]]
        assert {"2", "9/5"} <= set(spanning)

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (KERNEL_BOUND - 2**12, KERNEL_BOUND - 1)])
    def test_edges(self, lo, hi):
        _assert_grouped_equals_per_n(lo, hi)


class TestClassOrder:
    """The CLI lists classes in the order scan_range builds them: by smallest member."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    def test_scan_range(self, workers, chunk_size):
        for lo in (1, 301):
            table = scan_range(lo, 900, workers=workers, chunk_size=chunk_size)
            assert _by_smallest_member(table)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_after_pause_and_resume(self, tmp_path, workers):
        path = str(tmp_path / "scan.ck")
        with pytest.raises(ScanInterrupted):
            scan_range(1, 2000, workers=workers, chunk_size=256, checkpoint=path, max_chunks=3)
        assert _by_smallest_member(scan_range(1, 2000, workers=workers, chunk_size=256,
                                              checkpoint=path))

    def test_merge_tables(self):
        a, b = scan_range(1, 500), scan_range(501, 1000)
        assert _by_smallest_member(merge_tables(a, b))
        assert _by_smallest_member(merge_tables(b, a))
        assert _by_smallest_member(merge_tables(GkTable(501, 500, {}), a))


class TestMembers:
    def test_fraction_int_and_string_agree(self):
        table = scan_range(1, 1000)
        assert table.members(Fraction(9, 5)) == table.members("9/5") == \
            table.members("18/10") == table.classes["9/5"]
        assert table.members(2) == table.members("2") == table.members(Fraction(2)) == \
            table.classes["2"]
        assert table.members(Fraction(7109, 15862)) == []

    def test_unparseable_string_raises(self):
        with pytest.raises(ValueError):
            scan_range(1, 10).members("x")


class TestMergeTables:
    def test_split_equals_whole(self):
        whole = scan_range(1, 10_000)
        merged = merge_tables(scan_range(1, 5000), scan_range(5001, 10_000))
        assert merged.lo == 1 and merged.hi == 10_000
        assert merged.classes == whole.classes

    def test_order_of_arguments(self):
        a, b = scan_range(1, 50), scan_range(51, 100)
        assert merge_tables(b, a).classes == merge_tables(a, b).classes

    def test_three_chunk_associativity(self):
        t1, t2, t3 = scan_range(1, 40), scan_range(41, 80), scan_range(81, 120)
        left = merge_tables(merge_tables(t1, t2), t3)
        right = merge_tables(t1, merge_tables(t2, t3))
        assert left.classes == right.classes
        assert (left.lo, left.hi) == (right.lo, right.hi) == (1, 120)

    def test_empty_table_is_identity(self):
        t = scan_range(1, 30)
        empty = GkTable(31, 30, {})
        assert merge_tables(empty, t).classes == t.classes
        assert merge_tables(t, empty).classes == t.classes

    def test_rejects_overlap(self):
        with pytest.raises(RangeOverlapError):
            merge_tables(scan_range(1, 60), scan_range(50, 100))

    def test_rejects_gap(self):
        with pytest.raises(RangeOverlapError):
            merge_tables(scan_range(1, 50), scan_range(60, 100))

    def test_shares_no_list_with_its_inputs(self):
        a, b = scan_range(1, 50), scan_range(51, 100)
        inputs = {id(members) for t in (a, b) for members in t.classes.values()}
        for merged in (merge_tables(a, b), merge_tables(GkTable(51, 50, {}), a),
                       merge_tables(b, GkTable(101, 100, {}))):
            assert not inputs & {id(members) for members in merged.classes.values()}

    def test_leaves_its_inputs_unchanged(self):
        # merge_fragments adopts a new key's list and extends it with a later table's
        a, b = scan_range(1, 50), scan_range(51, 100)
        assert {"2", "3"} <= a.classes.keys() & b.classes.keys()
        before = copy.deepcopy((a.classes, b.classes))
        merged = merge_tables(a, b)
        assert (a.classes, b.classes) == before
        inputs = {id(members) for t in (a, b) for members in t.classes.values()}
        assert not inputs & {id(members) for members in merged.classes.values()}
        assert merge_tables(a, b).classes == merged.classes

    @given(st.integers(min_value=2, max_value=499))
    @settings(max_examples=12, deadline=None)
    def test_any_split_boundary(self, split):
        whole = scan_range(1, 500)
        merged = merge_tables(scan_range(1, split), scan_range(split + 1, 500))
        assert merged.classes == whole.classes


class _RecordingPool:
    """A multiprocessing.Pool stand-in that records its size and maps in-process."""

    def __init__(self, sizes, processes):
        sizes.append(processes)

    def imap(self, fn, jobs):
        return map(fn, jobs)

    def close(self):
        pass

    def join(self):
        pass


class TestPoolSize:
    @pytest.fixture
    def sizes(self, monkeypatch):
        import multiprocessing

        sizes = []
        monkeypatch.setattr(multiprocessing, "Pool",
                            lambda processes, *args: _RecordingPool(sizes, processes))
        return sizes

    def test_no_more_processes_than_chunks(self, sizes):
        straight = run_scan("gk", 1, 1024, chunk_size=256)
        assert run_scan("gk", 1, 1024, workers=64, chunk_size=256) == straight
        assert run_scan("gk", 1, 1024, workers=3, chunk_size=256) == straight
        assert run_scan("gk", 1, 256, workers=64, chunk_size=256) == run_scan("gk", 1, 256)
        assert sizes == [4, 3]  # one chunk runs in-process

    def test_fewer_than_one_worker_runs_in_process(self, sizes):
        straight = run_scan("gk", 1, 1024, chunk_size=256)
        assert run_scan("gk", 1, 1024, workers=0, chunk_size=256) == straight
        assert sizes == []

    def test_a_resumed_scan_sizes_to_the_chunks_left(self, sizes, tmp_path):
        path = str(tmp_path / "gk.ck")
        with pytest.raises(ScanInterrupted):
            run_scan("gk", 1, 1024, workers=64, chunk_size=256, checkpoint=path, max_chunks=1)
        resumed = run_scan("gk", 1, 1024, workers=64, chunk_size=256, checkpoint=path)
        assert resumed == run_scan("gk", 1, 1024, chunk_size=256)
        assert sizes == [3]


def _paused_log(path, chunks=3):
    """A gk log over [1, 16 * 1024] in 1024-n chunks, paused after `chunks` of them."""
    with pytest.raises(ScanInterrupted):
        run_scan("gk", 1, 16 * 1024, chunk_size=1024, checkpoint=str(path), max_chunks=chunks)
    return path.read_bytes()


def _version_3_log(path):
    # version 3 was one line holding the whole state; its one line is its header
    head, line = map(json.loads, path.read_text().splitlines()[:2])
    path.write_text(json.dumps({**head, "version": 3, "last_n": line["last_n"],
                                "state": line["fragment"]}) + "\n")


class TestPoolStops:
    """A pooled scan opens its pool only after the log's header passes, hands out at
    most 2 x workers chunks ahead of the fold, and stops by close() and join() alone."""

    @pytest.fixture
    def terminated(self, monkeypatch):
        import multiprocessing.pool

        calls, terminate = [], multiprocessing.pool.Pool.terminate

        def record(pool):
            calls.append(pool)
            terminate(pool)

        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", record)
        return calls

    @pytest.mark.parametrize("edit, resume, refusal", [
        (_version_3_log, {}, "unsupported checkpoint version"),
        (None, {"task": "irn"}, "belongs to task 'gk', not 'irn'"),
        (None, {"hi": 16 * 1024 + 1}, "different configuration"),
    ], ids=["version 3", "task", "config"])
    def test_header_refused_before_the_pool(self, monkeypatch, tmp_path, edit, resume, refusal):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for a log whose header fails")

        path = tmp_path / "gk.ck"
        _paused_log(path)
        if edit:
            edit(path)
        log = path.read_bytes()
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        scan = {"task": "gk", "lo": 1, "hi": 16 * 1024, **resume}
        with pytest.raises(CheckpointError, match=refusal):
            run_scan(**scan, chunk_size=1024, workers=2, checkpoint=str(path))
        assert path.read_bytes() == log

    def test_line_refused_after_the_chunks_were_handed_out(self, monkeypatch, tmp_path,
                                                           terminated):
        import multiprocessing
        import threading

        from divrank import cli

        path = tmp_path / "gk.ck"
        head, first, second, third = _paused_log(path).splitlines(keepends=True)
        doc = json.loads(third)
        doc["sha256"] = "0" * 64
        log = head + first + second + json.dumps(doc, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(log)

        # the log's lines are checked only once the pool has taken a chunk
        handed, gate, load = threading.Event(), scanner._handed_out, scanner.load_checkpoint

        def hand_out(*args):
            for job in gate(*args):
                handed.set()
                yield job

        def load_after_hand_out(*args):
            count, resumed = load(*args)

            def fragments():
                assert handed.wait(30)
                yield from resumed
            return count, fragments()

        monkeypatch.setattr(scanner, "_handed_out", hand_out)
        monkeypatch.setattr(scanner, "load_checkpoint", load_after_hand_out)
        argv = ["table", "--max", str(16 * 1024), "--chunk-size", "1024", "--workers", "2",
                "--checkpoint", str(path)]
        assert cli.main(argv) == 2
        assert handed.is_set()
        assert path.read_bytes() == log
        assert multiprocessing.active_children() == []
        assert terminated == []

    @pytest.mark.parametrize("fault", ["save_checkpoint", "merge"])
    def test_raise_in_the_parent_stops_without_terminate(self, monkeypatch, tmp_path,
                                                         terminated, fault):
        import multiprocessing

        def fail(*args):
            raise OSError("injected")

        if fault == "merge":
            chunk_fn, _, empty_fn = scanner._TASKS["gk"]
            monkeypatch.setitem(scanner._TASKS, "gk", (chunk_fn, fail, empty_fn))
        else:
            monkeypatch.setattr(scanner, fault, fail)
        with pytest.raises(OSError, match="injected"):
            run_scan("gk", 1, 16 * 1024, chunk_size=1024, workers=2,
                     checkpoint=str(tmp_path / "gk.ck"))
        assert multiprocessing.active_children() == []
        assert terminated == []

    def test_finished_and_paused_scans_call_no_terminate(self, tmp_path, terminated):
        path = str(tmp_path / "gk.ck")
        straight = run_scan("gk", 1, 16 * 1024, chunk_size=1024)
        assert run_scan("gk", 1, 16 * 1024, chunk_size=1024, workers=2) == straight
        with pytest.raises(ScanInterrupted):
            run_scan("gk", 1, 16 * 1024, chunk_size=1024, workers=2, checkpoint=path,
                     max_chunks=5)
        resumed = run_scan("gk", 1, 16 * 1024, chunk_size=1024, workers=2, checkpoint=path)
        assert resumed == straight
        assert terminated == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_twice_the_workers_ahead_of_the_fold(self, monkeypatch, workers):
        straight = run_scan("gk", 1, 40 * 256, chunk_size=256)
        handed, folded, ahead, gate = [], [], [], scanner._handed_out

        def hand_out(*args):  # runs on the pool's task thread, as fast as the gate lets it
            for job in gate(*args):
                handed.append(job)
                yield job

        chunk_fn, merge_fn, empty_fn = scanner._TASKS["gk"]

        def fold(state, fragment):
            ahead.append(len(handed) - len(folded))
            time.sleep(0.01)  # a slow fold: the workers could run far ahead of it
            folded.append(fragment)
            return merge_fn(state, fragment)

        monkeypatch.setattr(scanner, "_handed_out", hand_out)
        monkeypatch.setitem(scanner._TASKS, "gk", (chunk_fn, fold, empty_fn))
        assert run_scan("gk", 1, 40 * 256, chunk_size=256, workers=workers) == straight
        assert len(handed) == len(folded) == 40
        assert max(ahead) == 2 * workers


class TestMembersOfK:
    @pytest.mark.parametrize("scan", [lambda limit: members_of_k(2, limit),
                                      enumerate_index_ratio], ids=["members_of_k", "irn"])
    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_1_refused_up_front(self, scan, limit):
        with pytest.raises(ValueError, match=f"^limit must be >= 1, got {limit}$"):
            scan(limit)
    def test_k_that_is_no_rational_refused_before_the_scan(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before k was read")

        monkeypatch.setattr("divrank.classify.run_scan", no_scan)
        with pytest.raises(ValueError, match="^not a rational: 'abc'$"):
            members_of_k("abc", 10)

    def test_spec_rows_small(self):
        assert members_of_k(Fraction(2, 5), 1000) == [4]
        assert members_of_k("3/10", 1000) == [9]
        assert members_of_k(Fraction(2), 30) == [2, 6, 8, 10, 14, 18, 22, 26]

    def test_missing_class_is_empty(self):
        assert members_of_k(Fraction(7109, 15862), 10) == []

    def test_contains_n(self):
        for n in (12, 30, 45, 1225):
            assert n in members_of_k(k_ratio(n), n)


class TestEnumerateIndexRatio:
    def test_published_prefix(self):
        assert enumerate_index_ratio(32) == IRN_PREFIX_32

    def test_unit(self):
        assert enumerate_index_ratio(1) == [1]

    def test_12_excluded(self):
        assert 12 not in enumerate_index_ratio(12)

    def test_matches_k_denominators(self):
        table = scan_range(1, 10_000)
        expected = sorted(
            n for k, members in table.classes.items() if "/" not in k
            for n in members
        )
        assert enumerate_index_ratio(10_000) == expected

    def test_worker_invariance(self):
        assert enumerate_index_ratio(5000, workers=2) == enumerate_index_ratio(5000)


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        path = tmp_path / "ck.json"
        scanner._start_log(path, "gk", "abc123")
        save_checkpoint(path, 64, encode_fragment({"classes": {"2": [2, 6], "9/5": [12]}}))
        first = path.read_bytes()
        count, (fragment,) = load_checkpoint(path, "gk", "abc123", [64])  # the one chunk logged
        assert count == 1
        path.unlink()
        scanner._start_log(path, "gk", "abc123")
        save_checkpoint(path, 64, encode_fragment(fragment))
        assert path.read_bytes() == first

    @pytest.mark.parametrize("max_chunks", [0, -1])
    def test_no_chunk_budget_rejected_before_the_checkpoint(self, tmp_path, max_chunks):
        path = tmp_path / "scan.ck"
        with pytest.raises(ValueError, match="max_chunks must be >= 1"):
            scan_range(1, 2000, checkpoint=str(path), max_chunks=max_chunks)
        assert not path.exists()

    def test_config_digest_only_for_a_checkpoint(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(scanner, "config_digest",
                            lambda *args: calls.append(args) or config_digest(*args))
        scan_range(1, 2000, chunk_size=500)
        assert calls == []
        scan_range(1, 2000, chunk_size=500, checkpoint=str(tmp_path / "scan.ck"))
        assert calls == [("gk", 1, 2000, 500)]

    def test_unwritable_checkpoint_refused_before_the_pool(self, monkeypatch, tmp_path):
        # an append that fails inside a worker pool can hang the pool's terminate()
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for an unwritable checkpoint")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        path = str(tmp_path / "missing" / "x.ck")
        with pytest.raises(OSError) as refused:
            run_scan("gk", 1, 4096, chunk_size=1024, workers=2, checkpoint=path, max_chunks=2)
        assert f"cannot write checkpoint {path}:" in str(refused.value)
        assert os.listdir(tmp_path) == []

    def test_start_log_writes_only_a_missing_log(self, tmp_path):
        path = tmp_path / "x.ck"
        scanner._start_log(str(path), "gk", "abc123")
        head = b'{"version":4,"task":"gk","config_hash":"abc123"}\n'
        assert (os.listdir(tmp_path), path.read_bytes()) == (["x.ck"], head)
        path.write_bytes(b"log\n")
        scanner._start_log(str(path), "gk", "abc123")
        assert (os.listdir(tmp_path), path.read_bytes()) == (["x.ck"], b"log\n")

    def test_log_holds_its_header_alone_while_the_first_chunk_runs(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "scan.ck"
        chunk_fn, merge_fn, empty_fn = scanner._TASKS["gk"]
        seen = []

        def chunk(lo, hi):
            seen.append(path.read_bytes())
            return chunk_fn(lo, hi)

        monkeypatch.setitem(scanner._TASKS, "gk", (chunk, merge_fn, empty_fn))
        with pytest.raises(ScanInterrupted):
            scan_range(1, 2000, chunk_size=256, checkpoint=str(path), max_chunks=1)
        head = {"version": 4, "task": "gk", "config_hash": config_digest("gk", 1, 2000, 256)}
        assert seen == [json.dumps(head, separators=(",", ":")).encode() + b"\n"]

    def test_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        scanner._start_log(path, "gk", "abc123")
        save_checkpoint(path, 64, encode_fragment({"classes": {}}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "gk", "zzz", [64])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "irn", "abc123", [64])

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("not json{")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "gk", "abc123", [64])

    def test_interrupt_and_resume_equals_straight_run(self, tmp_path):
        path = str(tmp_path / "scan.ck")
        straight = scan_range(1, 2000, chunk_size=256)
        with pytest.raises(ScanInterrupted):
            scan_range(1, 2000, chunk_size=256, checkpoint=path, max_chunks=3)
        resumed = scan_range(1, 2000, chunk_size=256, checkpoint=path)
        assert resumed.classes == straight.classes
        assert list(resumed.classes.keys()) == list(straight.classes.keys())

    def test_resume_with_other_parameters_rejected(self, tmp_path):
        path = str(tmp_path / "scan.ck")
        with pytest.raises(ScanInterrupted):
            scan_range(1, 2000, chunk_size=256, checkpoint=path, max_chunks=2)
        with pytest.raises(CheckpointError):
            scan_range(1, 2000, chunk_size=512, checkpoint=path)
        with pytest.raises(CheckpointError):
            scan_range(1, 4000, chunk_size=256, checkpoint=path)

    def test_checkpoint_is_json_with_version(self, tmp_path):
        path = tmp_path / "scan.ck"
        with pytest.raises(ScanInterrupted):
            scan_range(1, 2000, chunk_size=256, checkpoint=str(path), max_chunks=2)
        head, *chunks = map(json.loads, path.read_text().splitlines())
        assert head == {"version": 4, "task": "gk",
                        "config_hash": config_digest("gk", 1, 2000, 256)}
        assert [chunk["last_n"] for chunk in chunks] == [256, 512]
        assert all(list(chunk) == ["last_n", "sha256", "fragment"] for chunk in chunks)

    @pytest.mark.parametrize("edit", [
        lambda head, lines: [head, *lines, lines[-1]],
        lambda head, lines: [head, lines[0], lines[2]],
        lambda head, lines: [head, lines[1], lines[0], lines[2]],
    ], ids=["duplicated", "skipped", "reordered"])
    def test_chunk_lines_out_of_order_rejected(self, tmp_path, edit):
        path = tmp_path / "scan.ck"
        with pytest.raises(ScanInterrupted):
            scan_range(1, 2000, chunk_size=256, checkpoint=str(path), max_chunks=3)
        head, *lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(edit(head, lines)))
        with pytest.raises(CheckpointError, match="out of order"):
            scan_range(1, 2000, chunk_size=256, checkpoint=str(path))

    def test_complete_line_with_bad_digest_rejected_not_dropped(self, tmp_path):
        path = tmp_path / "scan.ck"
        with pytest.raises(ScanInterrupted):
            scan_range(1, 2000, chunk_size=256, checkpoint=str(path), max_chunks=2)
        head, first, last = path.read_bytes().splitlines(keepends=True)
        doc = json.loads(last)
        doc["sha256"] = "0" * 64
        edited = head + first + json.dumps(doc, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(edited)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            scan_range(1, 2000, chunk_size=256, checkpoint=str(path))
        assert path.read_bytes() == edited  # only an unterminated line counts as torn

    def test_resume_of_a_finished_scan_removes_its_checkpoint(self, tmp_path, monkeypatch):
        # a run killed between its last save and the removal leaves a finished log
        path = tmp_path / "scan.ck"
        with monkeypatch.context() as m:
            m.setattr(os, "remove", lambda _: None)
            straight = scan_range(1, 2000, chunk_size=256, checkpoint=str(path))
        assert path.exists()
        resumed = scan_range(1, 2000, chunk_size=256, checkpoint=str(path))
        assert not path.exists()
        assert list(resumed.classes.items()) == list(straight.classes.items())

    def test_paused_run_only_appends(self, tmp_path, monkeypatch):
        # 8 chunks; each call pauses after 3, and no call merges a fragment
        def refuse(state, fragment):
            raise AssertionError("a paused run merged a fragment")

        chunk_fn, _, empty_fn = scanner._TASKS["gk"]
        monkeypatch.setitem(scanner._TASKS, "gk", (chunk_fn, refuse, empty_fn))
        logs = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.ck"
            for lines in (3, 6):
                with pytest.raises(ScanInterrupted):
                    scan_range(1, 2000, workers=workers, chunk_size=256,
                               checkpoint=str(path), max_chunks=3)
                assert len(path.read_bytes().splitlines()) == 1 + lines  # the header, then chunks
            logs[workers] = path.read_bytes()
        assert logs[1] == logs[2]

    def test_resumed_chunks_fold_through_the_merge_slot(self, tmp_path, monkeypatch):
        # 8 chunks: the calls that pause fold nothing, and the call that finishes
        # folds every chunk, the 6 resumed ones too, through the slot, in order
        chunk_fn, merge_fn, empty_fn = scanner._TASKS["gk"]
        folded = []

        def count(state, fragment):  # a chunk's first n is its smallest member
            folded.append(min(min(members) for members in fragment["classes"].values()))
            return merge_fn(state, fragment)

        monkeypatch.setitem(scanner._TASKS, "gk", (chunk_fn, count, empty_fn))
        straight = scan_range(1, 2000, chunk_size=256)
        for workers in (1, 2):
            path = str(tmp_path / f"w{workers}.ck")
            for _ in range(2):  # the second call resumes 3 chunks, then pauses again
                with pytest.raises(ScanInterrupted):
                    scan_range(1, 2000, workers=workers, chunk_size=256,
                               checkpoint=path, max_chunks=3)
            folded.clear()
            resumed = scan_range(1, 2000, workers=workers, chunk_size=256, checkpoint=path)
            assert folded == list(range(1, 2001, 256))
            assert list(resumed.classes.items()) == list(straight.classes.items())

    def test_max_chunks_requires_checkpoint(self):
        with pytest.raises(ValueError):
            scan_range(1, 2000, max_chunks=1)

    def test_budgeted_scan_lists_no_chunks(self, tmp_path):
        # 200,000 chunks of one n each, two of them run: the chunks not run cost nothing
        tracemalloc.start()
        try:
            with pytest.raises(ScanInterrupted):
                run_scan("lower-bound", 1, 200_000, chunk_size=1, max_chunks=2,
                         checkpoint=str(tmp_path / "ck"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
