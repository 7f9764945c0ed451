"""Atomic artifact writing and append-only run manifests.

Artifacts are always written to a temp file in the target directory
and renamed into place, so a failed command leaves nothing behind.
Each artifact has a manifest: experiment directories hold a
manifest.jsonl, single-file artifacts get a `<name>.manifest.jsonl`
sidecar. Manifests are append-only JSON lines; they carry the
timestamp, so reruns keep data files byte-identical while the manifest
accumulates one entry per run. A command checks its output path with
``check_out`` before it solves, walks or sweeps anything, so a path it
cannot write fails at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path


def check_out(path, *, directory: bool = False) -> None:
    """Refuse an output `path` that the write at the end of a run would fail on.

    A file must not be a directory, and its parent must be an existing
    directory. A `directory` is made with its parents, so `path`, or the
    nearest of its parents that exists, must be a directory. Creates
    nothing; raises OSError naming `path`.
    """
    path = Path(path)
    if directory:
        there = next((p for p in (path, *path.parents) if p.exists()), path)
    elif path.is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    else:
        there = path.parent
    if not there.is_dir():
        raise NotADirectoryError(f"cannot write {path}: {there} is not an existing directory")


def atomic_write_bytes(path, blob: bytes) -> None:
    _write_staged([(path, (blob,))])


def atomic_write_chunks(path, chunks) -> None:
    """Write the bytes that the iterable `chunks` yields, in order, as one artifact.

    Only one chunk need be held at a time. An exception from `chunks`
    leaves neither the artifact nor a temp file.
    """
    _write_staged([(path, chunks)])


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_group(files) -> None:
    """Write several (path, text) artifacts together, as UTF-8."""
    _write_staged([(path, (text.encode("utf-8"),)) for path, text in files])


def _write_staged(files) -> None:
    """Write (path, chunks) artifacts through temp files renamed into place.

    Each artifact is the bytes its iterable of chunks yields, written
    as they come. All temp files are written in full before the first
    rename, so any write failure leaves no new artifacts; the renames
    themselves are then the only remaining steps. Temp files never
    outlive the call.
    """
    staged = []
    try:
        for path, chunks in files:
            path = Path(path)
            tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
            staged.append((tmp, path))
            with open(tmp, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if tmp.exists():
                tmp.unlink()


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def manifest_entry(
    argv, config: dict, seed=None, tablebase_checksum=None, version: str = ""
) -> dict:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "command": " ".join(argv),
        "config_digest": config_digest(config),
        "seed": seed,
        "tablebase_checksum": (
            None if tablebase_checksum is None else f"crc32:{tablebase_checksum:08x}"
        ),
        "tool_version": version,
    }


def append_manifest(path, entry: dict) -> None:
    line = json.dumps(entry, sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


def sidecar_manifest_path(artifact_path) -> Path:
    artifact_path = Path(artifact_path)
    return artifact_path.parent / f"{artifact_path.name}.manifest.jsonl"
