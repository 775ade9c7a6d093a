"""The benchmark harness itself: tables, formatting, shape assertions."""

import os

import pytest

from repro.bench import (
    PAPER_TABLE1,
    Table,
    assert_factor,
    assert_order,
    format_bytes,
    format_count,
    format_seconds,
    ring_of_pairs,
    streaming_pair,
)


class TestFormatting:
    @pytest.mark.parametrize("value,expected", [
        (None, "n/a"),
        (0, "0 s"),
        (5e-7, "0.5 us"),
        (2.5e-3, "2.5 ms"),
        (0.75, "750.0 ms"),
        (43.1, "43.10 s"),
        (604.0, "604 s"),
    ])
    def test_format_seconds(self, value, expected):
        assert format_seconds(value) == expected

    @pytest.mark.parametrize("value,expected", [
        (100, "100 B"),
        (4096, "4.0 KB"),
        (5 * 1024 * 1024, "5.00 MB"),
    ])
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    @pytest.mark.parametrize("value,expected", [
        (999, "999"),
        (66_300, "66.3k"),
        (12_000_000, "12.00M"),
    ])
    def test_format_count(self, value, expected):
        assert format_count(value) == expected


class TestTable:
    def test_render_alignment(self):
        table = Table("demo", ["name", "value"])
        table.add("short", 1)
        table.add("a-much-longer-name", 12345)
        table.note("a note")
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert lines[1].startswith("name")
        assert set(lines[2]) == {"-"}
        assert "a-much-longer-name" in text
        assert "* a note" in text

    def test_wrong_arity_rejected(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add("only-one")

    def test_save_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PIA_BENCH_RESULTS", str(tmp_path))
        table = Table("demo", ["a"])
        table.add("x")
        path = table.save("demo_table")
        assert os.path.exists(path)
        assert "== demo ==" in open(path).read()
        # The table is the only artefact: no JSON mirror beside it.
        assert os.listdir(tmp_path) == ["demo_table.txt"]


class TestShapeAssertions:
    def test_assert_order(self):
        assert_order({"a": 1.0, "b": 2.0, "c": 3.0}, "a", "b", "c")
        with pytest.raises(AssertionError):
            assert_order({"a": 2.0, "b": 1.0}, "a", "b")

    def test_assert_factor(self):
        assert_factor({"small": 1.0, "big": 10.0}, "small", "big", 5.0)
        with pytest.raises(AssertionError):
            assert_factor({"small": 1.0, "big": 3.0}, "small", "big", 5.0)

    def test_paper_values_present(self):
        assert PAPER_TABLE1["HotJava"] == 0.54
        assert PAPER_TABLE1["remote word passage"] == 604.0
        assert PAPER_TABLE1["local word passage"] is None


class TestWorkloads:
    def test_streaming_pair_delivers(self):
        cosim = streaming_pair(5, 1.0)
        cosim.run()
        assert [v for __, v in cosim.component("consumer").received] == \
            list(range(5))

    def test_streaming_pair_with_busy_work(self):
        cosim = streaming_pair(3, 1.0, consumer_work=10.0)
        cosim.run()
        assert len(cosim.component("consumer").received) == 3
        assert "busy" in cosim.subsystem("a-consumer").components

    def test_ring_of_pairs_chain(self):
        cosim = ring_of_pairs(4, messages_each=5)
        cosim.run()
        assert cosim.component("c3").seen == 5
        cosim.validate_topology()
