import json
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
    format_rational,
    is_index_ratio,
    k_ratio,
    members_of_k,
    merge_tables,
    scan_range,
)
from divrank.classify import GkTable
from divrank.scanner import load_checkpoint, run_scan, save_checkpoint

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
                assert format_rational(k_ratio(n)) == k

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

    @given(st.integers(min_value=2, max_value=499))
    @settings(max_examples=12, deadline=None)
    def test_any_split_boundary(self, split):
        whole = scan_range(1, 500)
        merged = merge_tables(scan_range(1, split), scan_range(split + 1, 500))
        assert merged.classes == whole.classes


class TestMembersOfK:
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
        save_checkpoint(path, "gk", "abc123", 64, {"classes": {"2": [2, 6], "9/5": [12]}})
        first = path.read_bytes()
        last_n, state = load_checkpoint(path, "gk", "abc123")
        save_checkpoint(path, "gk", "abc123", last_n, state)
        assert path.read_bytes() == first

    def test_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, "gk", "abc123", 64, {"classes": {}})
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "gk", "zzz")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "irn", "abc123")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("not json{")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "gk", "abc123")

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
            scan_range(1, 2000, chunk_size=256, checkpoint=str(path), max_chunks=1)
        doc = json.loads(path.read_text())
        assert doc["version"] == 3
        assert doc["task"] == "gk"
        assert doc["last_n"] == 256
        assert "config_hash" in doc and "state" in doc

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
