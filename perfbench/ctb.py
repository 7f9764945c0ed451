"""Independent reader of CTB1 table files, used to check outputs.

It follows the format documented in the repository README and shares
no code with ``strategia.tablebase``, so the benchmark can check the
program's tables, playouts and reports against the bytes on disk.
Only classes without repeated pieces are supported, which covers the
benchmark's KRvK and KPvK.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"CTB1"
INVALID, WIN, DRAW, LOSS = 0, 1, 2, 3
WDL_NAMES = {WIN: "win", DRAW: "draw", LOSS: "loss"}


class TableFileError(ValueError):
    pass


class Table:
    def __init__(self, blob: bytes):
        if blob[:4] != MAGIC or len(blob) < 8:
            raise TableFileError("bad magic")
        version, self.width, self.height, count = struct.unpack_from("<BBBB", blob, 4)
        if version != 1:
            raise TableFileError(f"unknown version {version}")
        offset = 8
        self.pieces = [struct.unpack_from("<BB", blob, offset + 2 * i) for i in range(count)]
        if len(set(self.pieces)) != count:
            raise TableFileError("repeated pieces are not supported")
        offset += 2 * count
        (entries,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        self.squares = self.width * self.height
        self.half = self.squares ** count
        if entries != 2 * self.half or len(blob) != offset + 3 * entries + 4:
            raise TableFileError("entry count does not match the header")
        body = blob[offset:offset + 3 * entries]
        (self.crc32,) = struct.unpack_from("<I", blob, offset + 3 * entries)
        if zlib.crc32(body) != self.crc32:
            raise TableFileError("checksum does not match the body")
        rec = np.frombuffer(body, dtype=np.dtype([("wdl", "u1"), ("dtm", "<u2")]))
        self.wdl = rec["wdl"]
        self.dtm = rec["dtm"]

    @classmethod
    def read(cls, path) -> "Table":
        with open(path, "rb") as handle:
            return cls(handle.read())

    @property
    def material(self) -> str:
        letters = " PNBRQK"
        white = "".join(letters[kind] for kind, color in self.pieces if color == 0)
        black = "".join(letters[kind] for kind, color in self.pieces if color == 1)
        return f"{white}v{black}"

    def index(self, squares, side: int) -> int:
        """Index of the position with piece i (header order) on squares[i]."""
        total = side * self.half
        for i, square in enumerate(squares):
            total += square * self.squares ** i
        return total

    def value(self, idx: int) -> tuple:
        """(wdl code, dtm or None) at an index."""
        wdl = int(self.wdl[idx])
        return wdl, (int(self.dtm[idx]) if wdl in (WIN, LOSS) else None)

    def cells(self, squares) -> list:
        """(square, signed placement cell) pairs for piece squares in header order."""
        return [[sq, kind if color == 0 else -kind]
                for sq, (kind, color) in zip(squares, self.pieces)]

    def squares_of(self, placement) -> list:
        """Piece squares in header order for a placement, or None if the material differs."""
        where = {cell: sq for sq, cell in enumerate(placement) if cell}
        wanted = [kind if color == 0 else -kind for kind, color in self.pieces]
        if sorted(where) != sorted(wanted):
            return None
        return [where[cell] for cell in wanted]

    def counts(self) -> dict:
        decisive = (self.wdl == WIN) | (self.wdl == LOSS)
        invalid = int((self.wdl == INVALID).sum())
        return {
            "legal": int(self.wdl.size) - invalid,
            "invalid": invalid,
            "decisive": int(decisive.sum()),
            "max_dtm": int(self.dtm[decisive].max()) if decisive.any() else 0,
        }
