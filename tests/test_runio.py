"""Atomic artifact writes: all or nothing, and no temp file left behind."""

import os

import pytest

import strategia as sg
from strategia import runio

KVK_2X2 = sg.MaterialClass.from_string("KvK", sg.BoardSpec(2, 2))


def test_writes_land_whole_and_leave_no_temp_files(tmp_path):
    runio.atomic_write_bytes(tmp_path / "a.bin", b"\x00\x01")
    runio.atomic_write_group([(tmp_path / "b.txt", "b"), (tmp_path / "c.txt", "cé")])
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
    assert (tmp_path / "c.txt").read_bytes() == "cé".encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt", "c.txt"]


@pytest.mark.parametrize("write", [
    lambda d: runio.atomic_write_bytes(d / "a.bin", b"blob"),
    lambda d: runio.atomic_write_group([(d / "a.txt", "one"), (d / "b.txt", "two")]),
    lambda d: sg.solve(KVK_2X2).save(d / "t.ctb"),
], ids=["single", "group", "table"])
def test_a_failed_rename_leaves_neither_target_nor_temp_file(tmp_path, monkeypatch, write):
    def refuse(src, dst):
        assert os.path.exists(src)
        raise OSError("rename refused")

    monkeypatch.setattr(runio.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_chunk_iterator_that_raises_leaves_neither_target_nor_temp_file(tmp_path):
    def chunks():
        yield b"header"
        raise RuntimeError("no more chunks")

    with pytest.raises(RuntimeError, match="no more chunks"):
        runio.atomic_write_chunks(tmp_path / "t.ctb", chunks())
    assert list(tmp_path.iterdir()) == []
