"""Exact retrograde solver for small material classes.

A material class is a fixed piece multiset on a fixed board. Every
placement of those pieces (x side to move) gets a dense index; solving
labels each legal index win/draw/loss with distance to mate in plies,
by iterated generational passes: generation d is built only from
generations below d, so the labeled set grows monotonically and the
result is independent of pass scheduling.

The passes run on a retrograde frontier, and the solve keeps only
per-index arrays, no edge or move list: the value, an open position's
count of moves not yet won, and two columns that fold in its exits,
the moves that leave the class (``exit_win``, 1 + the least dtm of a
lost exit, and ``exit_floor``, 1 + the greatest dtm of a won exit,
which is not counted). Pass d reads only the predecessors of the
positions labeled at d - 1, generated by un-moves (``_unmoves``): the
open predecessors of a loss become wins, and those of a win count down
their moves not yet won, becoming losses at max(d, exit_floor) at 0.
Pass d also labels won the open positions whose exit_win is d. Each
in-class edge is generated once over the whole solve. ``_solve_bytes``
bounds the memory a solve holds: a constant per index, the widest
block and the subclass tables.

Captures and promotions leave the class, so a class is solved on top
of the subclasses they reach, listed with it in solve order by
``_closure``; the value of an out-of-class successor is folded in as a
fixed constant. Distance to mate therefore counts plies across material
transitions, exactly as play does. One loop solves the missing classes
of a closure list, and it checks every bound against the budget before
it solves any. ``solve`` returns the class's table with every subclass
table in ``subtables``.

Lookups never solve, and each is an index, then one read
(``value_at``). ``probe`` indexes a position of the table's own class;
``locate`` picks this table or the subtable of the position's class and
indexes the position there, and ``resolve`` reads what it locates. A
class with no table raises MaterialMismatchError naming it. A table
file holds one class, so a loaded table has no subtables until
``solve_subclasses`` solves them.

The playout policy (``Tablebase.policy``) is memoized on the table and
never touched by a lookup. Making it checks, once, that every (LOSS, 0)
entry of the closure's loaded tables is checkmate (``_check_mates``).
It reads the value of every move of a decisive, non-terminal index
(``_successor_values``) and keeps the policy's move with the (class
slot, index) it reaches (``_choose``): into arrays one ``_build_blocks``
block at a time (``Policy._fill_block``), the block that holds a row
the first time a line asks for it or every block in a sweep, or a ply
at a time for many lines together (``Policy.walk``). ``_side_blocks``
cuts every batch of rows into same-side blocks.

One codec holds the index layout: ``_decode_columns`` splits indices
into the side to move and one square (digit) per piece slot,
``_encode_columns`` is its inverse and sorts duplicate pieces, and
``_canonical`` checks for distinct squares and ascending duplicates.
Every encode and decode goes through them. ``position_at`` takes
legality from ``board.validate_position``.

Moves are generated with numpy over blocks of at most ``_BUILD_BLOCK``
indices with one side to move, not one position at a time. A block is
decoded into digit columns; indices that are not ``_canonical``, pawns
on a back rank and a side not to move in check are masked out. Each
mover slot reads its candidate destinations from step, ray and
between-square tables derived from ``board.geometry()``, against one
uint64 occupancy bitboard per row, and a move survives only if no
remaining enemy piece attacks the mover's king afterwards. Captures and
promotions are indexed in their subclass (``_successors``); the solve
reads their values in one gather. The policy also needs in-class
successors: the digit columns with the moved slot set to its
destination, encoded (``_successor_values``). Un-moves read the same
tables backwards, plus un-push tables, and keep a predecessor only if
the square it comes from is empty, a slider's path is clear and the
side not to move in it is not in check. The scalar
``legal_transitions`` stays the rules reference, and the tests hold
the forward moves and the un-moves to it.

The index encodes only piece squares and the side to move. Castle
rights are unrepresentable and refused; en passant state is value
neutral in every supported class (classes with pawns on both sides
are rejected) and is normalized away.
"""

from __future__ import annotations

import functools
import os
import random
import struct
import time
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from .board import (
    BoardSpec,
    Color,
    Move,
    Piece,
    PieceKind,
    Position,
    geometry,
    validate_position,
)
from .errors import (
    BudgetExceededError,
    MaterialMismatchError,
    TablebaseFormatError,
    ValidationError,
)
from .runio import atomic_write_bytes

MAGIC = b"CTB1"
FORMAT_VERSION = 1
DTM_ABSENT = 0xFFFF
DEFAULT_BUDGET_MB = 2048
BUDGET_ENV_VAR = "STRATEGIA_MEM_BUDGET_MB"
# One CTB1 body record per index: the wdl code, then the dtm.
_RECORD = np.dtype([("wdl", "u1"), ("dtm", "<u2")])

_KIND_ORDER = {
    PieceKind.KING: 0,
    PieceKind.QUEEN: 1,
    PieceKind.ROOK: 2,
    PieceKind.BISHOP: 3,
    PieceKind.KNIGHT: 4,
    PieceKind.PAWN: 5,
}


class Wdl(IntEnum):
    WIN = 1
    DRAW = 2
    LOSS = 3


@dataclass(frozen=True)
class WdlDtm:
    """Value of a position from the side-to-move perspective."""

    wdl: Wdl
    dtm: Optional[int]

    def __post_init__(self):
        if self.wdl is Wdl.DRAW:
            if self.dtm is not None:
                raise ValidationError("draws carry no dtm")
        elif self.dtm is None or self.dtm < 0:
            raise ValidationError("decisive values need a nonnegative dtm")

    @property
    def is_decisive(self) -> bool:
        return self.wdl is not Wdl.DRAW


def _decisive(wdl: np.ndarray) -> np.ndarray:
    """Mask of the wins and losses among the wdl codes `wdl`."""
    return (wdl == Wdl.WIN.value) | (wdl == Wdl.LOSS.value)


def _canonical_sort_key(piece: Piece):
    return (piece.color.value, _KIND_ORDER[piece.kind])


@dataclass(frozen=True)
class MaterialClass:
    """A piece multiset (both kings included) on a fixed board."""

    spec: BoardSpec
    pieces: tuple

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=_canonical_sort_key))
        object.__setattr__(self, "pieces", pieces)
        kings = {Color.WHITE: 0, Color.BLACK: 0}
        pawns = {Color.WHITE: 0, Color.BLACK: 0}
        for piece in pieces:
            if piece.kind is PieceKind.KING:
                kings[piece.color] += 1
            elif piece.kind is PieceKind.PAWN:
                pawns[piece.color] += 1
        if kings[Color.WHITE] != 1 or kings[Color.BLACK] != 1:
            raise ValidationError("material class needs exactly one king per color")
        if len(pieces) > 5:
            raise ValidationError("material classes are capped at 5 pieces")
        if pawns[Color.WHITE] and pawns[Color.BLACK]:
            raise ValidationError(
                "classes with pawns on both sides are not indexable (en passant state)"
            )
        if (pawns[Color.WHITE] or pawns[Color.BLACK]) and self.spec.height < 3:
            raise ValidationError("pawns need a board of height >= 3")

    @classmethod
    def from_string(cls, text: str, spec: BoardSpec) -> "MaterialClass":
        parts = text.split("v")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValidationError(f"material spec must look like KRvK, got {text!r}")
        pieces = []
        for letters, color in ((parts[0], Color.WHITE), (parts[1], Color.BLACK)):
            for letter in letters:
                piece = Piece.from_letter(letter.upper())
                pieces.append(Piece(piece.kind, color))
        return cls(spec, tuple(pieces))

    @property
    def name(self) -> str:
        return _class_name(self.pieces)

    @functools.cached_property
    def key(self) -> tuple:
        return _material_key(self.spec, self.pieces)

    def __hash__(self) -> int:
        # Hashes on every table-context lookup; the cached key avoids
        # rehashing the spec and each piece's enums.
        return hash(self.key)

    @property
    def num_pieces(self) -> int:
        return len(self.pieces)

    @property
    def index_size(self) -> int:
        return 2 * self.spec.num_squares ** len(self.pieces)


def _class_name(pieces) -> str:
    white = "".join(p.letter for p in pieces if p.color is Color.WHITE)
    black = "".join(p.letter.upper() for p in pieces if p.color is Color.BLACK)
    return f"{white}v{black}"


def _material_key(spec: BoardSpec, pieces) -> tuple:
    """Class key of canonically sorted `pieces`: (width, height, (kind, color) codes)."""
    return (spec.width, spec.height, tuple((p.kind.value, p.color.value) for p in pieces))


def material_key_of(pos: Position) -> tuple:
    pieces = sorted((piece for _, piece in pos.pieces()), key=_canonical_sort_key)
    return _material_key(pos.spec, pieces)


class _Ctx:
    """Cached per-class indexing context."""

    __slots__ = (
        "material", "spec", "S", "k", "half", "powers", "cells",
        "slot_layout", "dup_groups", "pawn_slots", "white_slots", "black_slots",
        "white_king_slot", "black_king_slot",
    )

    def __init__(self, material: MaterialClass):
        self.material = material
        self.spec = material.spec
        self.S = self.spec.num_squares
        self.k = len(material.pieces)
        self.half = self.S ** self.k
        self.powers = tuple(self.S ** i for i in range(self.k))
        self.cells = tuple(p.cell for p in material.pieces)

        layout = []
        groups = []
        for i, cell in enumerate(self.cells):
            if i > 0 and cell == self.cells[i - 1]:
                continue
            end = i + 1
            while end < self.k and self.cells[end] == cell:
                end += 1
            layout.append((cell, i, end))
            if end - i > 1:
                groups.append((i, end))
        self.slot_layout = tuple(layout)
        self.dup_groups = tuple(groups)
        self.pawn_slots = tuple(
            i for i, p in enumerate(material.pieces) if p.kind is PieceKind.PAWN
        )
        self.white_slots = tuple(
            (i, p.kind.value) for i, p in enumerate(material.pieces) if p.color is Color.WHITE
        )
        self.black_slots = tuple(
            (i, p.kind.value) for i, p in enumerate(material.pieces) if p.color is Color.BLACK
        )
        self.white_king_slot = next(
            i for i, p in enumerate(material.pieces)
            if p.kind is PieceKind.KING and p.color is Color.WHITE
        )
        self.black_king_slot = next(
            i for i, p in enumerate(material.pieces)
            if p.kind is PieceKind.KING and p.color is Color.BLACK
        )


@functools.lru_cache(maxsize=64)
def _context(material: MaterialClass) -> _Ctx:
    return _Ctx(material)


def index_of(pos: Position, material: MaterialClass) -> int:
    """Dense index of a position within its class.

    The index covers piece squares and side to move only. Positions
    with castle rights are refused; an ep_square is accepted but not
    encoded (it cannot change the value in any indexable class).
    """
    ctx = _context(material)
    if (pos.spec.width, pos.spec.height) != (ctx.spec.width, ctx.spec.height):
        raise MaterialMismatchError(
            f"position is on {pos.spec.width}x{pos.spec.height}, "
            f"table is {ctx.spec.width}x{ctx.spec.height}"
        )
    if pos.castle_rights.any():
        raise ValidationError("positions with castle rights are not indexable")
    buckets: dict = {}
    for sq, cell in enumerate(pos.placement):
        if cell:
            buckets.setdefault(cell, []).append(sq)
    digits = []
    for cell, start, end in ctx.slot_layout:
        squares = buckets.pop(cell, ())
        if len(squares) != end - start:
            raise MaterialMismatchError(
                f"position material does not match class {material.name}"
            )
        digits.extend(squares)
    if buckets:
        raise MaterialMismatchError(
            f"position material does not match class {material.name}"
        )
    return _encode_columns(material, pos.side_to_move.value, digits)


def position_at(idx: int, material: MaterialClass) -> Optional[Position]:
    """Inverse of index_of; None marks indices that are not legal positions.

    The index decodes through ``_decode_columns``. Digits that are not
    ``_canonical`` give None, and so does a placement that
    ``board.validate_position`` rejects.
    """
    if not 0 <= idx < material.index_size:
        raise ValidationError(f"index {idx} outside [0, {material.index_size})")
    side, digits = _decode_columns(material, idx)
    if not _canonical(material, digits):
        return None
    board = [0] * material.spec.num_squares
    for square, cell in zip(digits, _context(material).cells):
        board[square] = cell
    pos = Position(
        spec=material.spec,
        placement=tuple(board),
        side_to_move=Color(side),
        ply_index=side,
    )
    try:
        validate_position(pos)
    except ValidationError:
        return None
    return pos


@dataclass(frozen=True)
class SolveStats:
    legal: int
    invalid: int
    terminal_losses: int
    terminal_draws: int
    passes: tuple  # (wins labeled, losses labeled) per pass
    max_dtm: int


@dataclass
class Tablebase:
    """Solved win/draw/loss and distance-to-mate arrays for one class."""

    material: MaterialClass
    wdl: np.ndarray
    dtm: np.ndarray
    subtables: dict = field(default_factory=dict)
    stats: Optional[SolveStats] = None
    # Memos of values computed from the fields; replace() starts them afresh.
    _checksum: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _policy: Optional["Policy"] = field(default=None, init=False, repr=False, compare=False)

    def probe(self, pos: Position) -> WdlDtm:
        """Constant-time value lookup for a position of this class.

        ``index_of`` refuses a position of another board size or
        material (MaterialMismatchError) or with castle rights
        (ValidationError).
        """
        return self.value_at(index_of(pos, self.material))

    def value_at(self, idx: int) -> WdlDtm:
        """The value stored at index `idx`; an illegal entry raises ValidationError."""
        raw = int(self.wdl[idx])
        if raw == 0:
            raise ValidationError("position decodes to an illegal table entry")
        wdl = Wdl(raw)
        dtm = None if wdl is Wdl.DRAW else int(self.dtm[idx])
        return WdlDtm(wdl, dtm)

    def locate(self, pos: Position) -> tuple:
        """(table, index) of a position of this class or of a subtable's; never solves.

        A class with no table here raises MaterialMismatchError naming it.
        """
        table = self._table_for(material_key_of(pos))
        return table, index_of(pos, table.material)

    def resolve(self, pos: Position) -> WdlDtm:
        """Probe this table or the subtable of the position's class; never solves."""
        table, idx = self.locate(pos)
        return table.value_at(idx)

    def _table_for(self, key: tuple) -> "Tablebase":
        """This table or the subtable of class `key`; MaterialMismatchError names a missing one."""
        table = self if key == self.material.key else self.subtables.get(key)
        if table is None:
            width, height, codes = key
            pieces = [Piece(PieceKind(kind), Color(color)) for kind, color in codes]
            raise MaterialMismatchError(
                f"no table loaded for {_class_name(pieces)} on {width}x{height}"
            )
        return table

    def solve_subclasses(self, *, progress: Optional[Callable[[str], None]] = None) -> None:
        """Solve the subclasses that captures and promotions reach and ``subtables`` lacks.

        A table file holds one class, so a loaded table starts with no
        subtables; a table from ``solve`` already has them all, and this
        solves nothing. Every subclass to solve is checked against the
        budget before any is solved, so a refusal leaves ``subtables``
        as it was. Each solve reports through `progress`.
        """
        self.subtables = _solve_missing(_closure(self.material)[:-1], dict(self.subtables), progress)

    def policy(self) -> "Policy":
        """The policy of this table's closure, memoized while ``subtables`` holds the same tables.

        Making it checks every (LOSS, 0) entry of the closure's loaded
        tables; a false mate raises RuntimeError and memoizes nothing.
        Getting it chooses nothing: a ``Policy.choice`` of a row not
        chosen yet fills the one block that holds it, and only
        ``Policy.sweep`` fills every block. Lookups never touch it.
        """
        closure = _closure(self.material)
        tables = tuple(
            self if mc.key == self.material.key else self.subtables.get(mc.key) for mc in closure
        )
        memo = self._policy
        if memo is None or any(a is not b for a, b in zip(memo.tables, tables)):
            slots = {mc.key: slot for slot, mc in enumerate(closure)}
            self._policy = Policy(self.material, tables, slots, self._table_for)
        return self._policy

    def decisive_indices(self) -> np.ndarray:
        return np.flatnonzero(_decisive(self.wdl))

    def decisive_sample(self, rng: random.Random, k: int) -> np.ndarray:
        """`k` decisive indices drawn by `rng`, in index order; all of them if `k` is not less than their count.

        The draw is ``sorted(rng.sample(range(count), k))``: positions
        among the decisive indices in index order, so the result is
        ``decisive_indices()`` at those positions. Taking every index
        leaves `rng` untouched. The decisive entries are counted, and the
        drawn ones found, one ``_build_blocks`` block at a time, so no
        temporary is as long as the index.
        """
        blocks = _build_blocks(self.material, 0, self.wdl.size)
        counts = np.array([np.count_nonzero(_decisive(self.wdl[lo:hi])) for _, lo, hi in blocks])
        total = int(counts.sum())
        if k >= total:
            return self.decisive_indices()
        positions = np.array(sorted(rng.sample(range(total), k)), dtype=np.int64)
        before = np.cumsum(counts) - counts  # decisive entries before each block
        cuts = np.searchsorted(positions, before + counts)
        parts, first = [], 0
        for (_, lo, hi), start, cut in zip(blocks, before.tolist(), cuts.tolist()):
            if cut > first:
                parts.append(np.flatnonzero(_decisive(self.wdl[lo:hi]))[positions[first:cut] - start] + lo)
                first = cut
        return np.concatenate(parts)

    def counts(self) -> dict:
        """Entries per wdl code and the greatest decisive dtm, counted one ``_build_blocks`` block at a time."""
        tally = np.zeros(4, dtype=np.int64)
        max_dtm = 0
        for _, lo, hi in _build_blocks(self.material, 0, self.wdl.size):
            wdl = self.wdl[lo:hi]
            tally += np.bincount(wdl, minlength=4)
            dtm = self.dtm[lo:hi][_decisive(wdl)]
            max_dtm = max(max_dtm, int(dtm.max(initial=0)))
        invalid, win, draw, loss = tally.tolist()
        return {
            "entries": int(self.wdl.size),
            "invalid": invalid,
            "win": win,
            "draw": draw,
            "loss": loss,
            "max_dtm": max_dtm,
        }

    def _body_bytes(self) -> bytes:
        rec = np.empty(self.wdl.size, dtype=_RECORD)
        rec["wdl"] = self.wdl
        rec["dtm"] = self.dtm
        return rec.tobytes()

    @property
    def checksum(self) -> int:
        """CRC32 of the body bytes, as stored in the file trailer."""
        if self._checksum is None:
            self._checksum = zlib.crc32(self._body_bytes())
        return self._checksum

    def file_bytes(self) -> bytes:
        mc = self.material
        header = bytearray()
        header += MAGIC
        header += struct.pack("<BBBB", FORMAT_VERSION, mc.spec.width, mc.spec.height, mc.num_pieces)
        for piece in mc.pieces:
            header += struct.pack("<BB", piece.kind.value, piece.color.value)
        header += struct.pack("<Q", self.wdl.size)
        body = self._body_bytes()
        self._checksum = zlib.crc32(body)
        return bytes(header) + body + struct.pack("<I", self._checksum)

    def save(self, path) -> None:
        """Write the table file through a temp file renamed into place."""
        atomic_write_bytes(path, self.file_bytes())

    @classmethod
    def load(cls, path) -> "Tablebase":
        with open(path, "rb") as handle:
            blob = handle.read()
        return cls.from_bytes(blob)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Tablebase":
        """The table stored in the file bytes `blob`; a malformed file raises TablebaseFormatError.

        The checksum and the records are read through a view of `blob`,
        not a copy, and the code range is checked on the uint8 wdl
        column, so a load peaks at about twice the body: `blob`, then
        the wdl and dtm columns.
        """
        if len(blob) < 8 or blob[:4] != MAGIC:
            raise TablebaseFormatError("bad magic: not a tablebase file")
        version, width, height, count = struct.unpack_from("<BBBB", blob, 4)
        if version != FORMAT_VERSION:
            raise TablebaseFormatError(
                f"incompatible tablebase version {version}, expected {FORMAT_VERSION}"
            )
        offset = 8
        if len(blob) < offset + 2 * count + 8:
            raise TablebaseFormatError("truncated header")
        pieces = []
        for _ in range(count):
            kind, color = struct.unpack_from("<BB", blob, offset)
            try:
                pieces.append(Piece(PieceKind(kind), Color(color)))
            except ValueError as exc:
                raise TablebaseFormatError(f"bad piece entry: {exc}") from None
            offset += 2
        (entries,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        try:
            spec = BoardSpec(width, height)
            material = MaterialClass(spec, tuple(pieces))
        except ValidationError as exc:
            raise TablebaseFormatError(f"bad header fields: {exc}") from None
        if entries != material.index_size:
            raise TablebaseFormatError(
                f"entry count {entries} does not match index space {material.index_size}"
            )
        body_len = entries * _RECORD.itemsize
        if len(blob) != offset + body_len + 4:
            raise TablebaseFormatError("truncated or oversized file body")
        body = memoryview(blob)[offset:offset + body_len]
        (stored_crc,) = struct.unpack_from("<I", blob, offset + body_len)
        actual_crc = zlib.crc32(body)
        if stored_crc != actual_crc:
            raise TablebaseFormatError(
                f"checksum failure: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )
        rec = np.frombuffer(body, dtype=_RECORD)
        wdl = rec["wdl"].copy()
        if (wdl > Wdl.LOSS.value).any():
            raise TablebaseFormatError("body contains out-of-range wdl codes")
        table = cls(material, wdl, rec["dtm"].copy())
        table._checksum = actual_crc
        return table


def _max_move_bound(material: MaterialClass) -> int:
    geo = geometry(material.spec.width, material.spec.height)
    n = material.spec.num_squares
    ortho_max = max(sum(len(ray) for ray in geo.ortho_rays[sq]) for sq in range(n))
    diag_max = max(sum(len(ray) for ray in geo.diag_rays[sq]) for sq in range(n))
    pawn_max = max(4, 3 * len(material.spec.promotion_kinds))
    per_kind = {
        PieceKind.PAWN: pawn_max,
        PieceKind.KNIGHT: 8,
        PieceKind.BISHOP: diag_max,
        PieceKind.ROOK: ortho_max,
        PieceKind.QUEEN: ortho_max + diag_max,
        PieceKind.KING: 10,
    }
    per_color = {Color.WHITE: 0, Color.BLACK: 0}
    for piece in material.pieces:
        per_color[piece.color] += per_kind[piece.kind]
    return max(per_color.values())


def _successor_classes(material: MaterialClass) -> list:
    """Classes reachable in one ply (captures, promotions, both), in key order.

    Each is the ``_sub_layout`` of a (victim, promotion slot, promotion
    kind) step: a capture of any piece but a king, or a pawn's
    promotion with or without a capture of an enemy piece.
    """
    pieces = material.pieces
    nonkings = [slot for slot, piece in enumerate(pieces) if piece.kind is not PieceKind.KING]
    steps = [(victim, 0, 0) for victim in nonkings]
    for slot, pawn in enumerate(pieces):
        if pawn.kind is PieceKind.PAWN:
            victims = [None] + [v for v in nonkings if pieces[v].color is not pawn.color]
            kinds = [kind.value for kind in material.spec.promotion_kinds]
            steps += [(victim, slot, kind) for victim in victims for kind in kinds]
    return sorted({_sub_layout(material, *step)[0] for step in steps}, key=lambda mc: mc.key)


@functools.lru_cache(maxsize=None)
def _closure(material: MaterialClass) -> tuple:
    """`material` and every class its captures and promotions reach, in solve order.

    The order is depth-first post-order over ``_successor_classes``,
    first occurrence kept: each class comes after every class it
    reaches, and `material` comes last.
    """
    order = {}
    for sub in _successor_classes(material):
        order.update(dict.fromkeys(_closure(sub)))
    order[material] = None
    return tuple(order)


# Vectorized move generation. Each block of indices is decoded into
# digit columns (one square per piece slot) and expanded into candidate
# moves per mover slot; occupancy is one uint64 bitboard per row. The
# build, un-moves and batches of policy rows run over blocks of at most
# this many indices, so their temporaries stay bounded (``_solve_bytes``
# allows 48 bytes per row and move; about 15-36 were measured). With
# only per-index arrays kept, these temporaries are a large part of a
# solve's peak: traced in process (tracemalloc), KRvK 8x8 peaks at 7.7
# MiB and KQvK 8x8 at 10.3 MiB, 2 MiB of each being the exit columns,
# which neither class writes.
_BUILD_BLOCK = 4096


def _pad(lists, width: Optional[int] = None) -> np.ndarray:
    """Per-square square lists as an (S, width) int64 array padded with -1."""
    if width is None:
        width = max(1, max(len(items) for items in lists))
    out = np.full((len(lists), width), -1, dtype=np.int64)
    for sq, items in enumerate(lists):
        out[sq, : len(items)] = items
    return out


def _adjacency(sets) -> np.ndarray:
    out = np.zeros((len(sets), len(sets)), dtype=bool)
    for sq, targets in enumerate(sets):
        out[sq, list(targets)] = True
    return out


class _MoveTables:
    """Destination, between-square and attack tables of one board size.

    Every table is read off ``board.geometry()``, so the rules keep one
    definition. Destination tables pad with -1, and ``bit[-1]`` is 0, so
    a padding destination never touches an occupancy bitboard.
    """

    def __init__(self, width: int, height: int):
        geo = geometry(width, height)
        n = width * height
        self.width = width
        self.bit = np.zeros(n + 1, dtype=np.uint64)
        self.bit[:n] = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
        ortho = [sum(rays, ()) for rays in geo.ortho_rays]
        diag = [sum(rays, ()) for rays in geo.diag_rays]
        self.dest = {
            PieceKind.KING: _pad(geo.king_steps),
            PieceKind.KNIGHT: _pad(geo.knight_steps),
            PieceKind.ROOK: _pad(ortho),
            PieceKind.BISHOP: _pad(diag),
            PieceKind.QUEEN: _pad([o + d for o, d in zip(ortho, diag)]),
        }
        self.between = np.zeros((n, n), dtype=np.uint64)
        lines = []
        for between in (geo.between_ortho, geo.between_diag):
            line = np.zeros((n, n), dtype=bool)
            for (src, target), squares in between.items():
                line[src, target] = True
                self.between[src, target] = sum(1 << sq for sq in squares)
            lines.append(line)
        self.line = {
            PieceKind.ROOK: lines[0],
            PieceKind.BISHOP: lines[1],
            PieceKind.QUEEN: lines[0] | lines[1],
        }
        # The squares between a slider's square and each of its
        # destinations, 0 for padding: a path test is one row gather.
        self.path = {
            kind: np.where(self.dest[kind] >= 0, self.between[np.arange(n)[:, None], self.dest[kind]], 0)
            for kind in self.line
        }
        self.step = {
            PieceKind.KING: _adjacency(geo.king_sets),
            PieceKind.KNIGHT: _adjacency(geo.knight_sets),
        }
        self.pawn_step = tuple(_adjacency(geo.pawn_cap_sets[c]) for c in (0, 1))
        self.pawn_push = tuple(np.asarray(geo.pawn_push[c]) for c in (0, 1))
        self.pawn_double = tuple(np.asarray(geo.pawn_double[c]) for c in (0, 1))
        self.pawn_caps = tuple(_pad(geo.pawn_caps[c], 2) for c in (0, 1))
        self.promo_rank = geo.pawn_promo_rank
        # The square a pawn was pushed (or double-pushed) from, -1 where
        # none; an origin on a back rank holds no pawn.
        self.pawn_unpush = np.full((2, n), -1, dtype=np.int64)
        self.pawn_undouble = np.full((2, n), -1, dtype=np.int64)
        for c in (0, 1):
            for src in range(width, n - width):
                self.pawn_unpush[c, geo.pawn_push[c][src]] = src
                if geo.pawn_double[c][src] >= 0:
                    self.pawn_undouble[c, geo.pawn_double[c][src]] = src

    def attacks(self, kind: int, color: int, src, target, occ):
        """Whether a `color` piece of `kind` on `src` attacks `target` given `occ`."""
        if kind == PieceKind.PAWN:
            return self.pawn_step[color][src, target]
        if kind in self.step:
            return self.step[kind][src, target]
        return self.line[kind][src, target] & ((self.between[src, target] & occ) == 0)

    def occupancy(self, columns, rows: int) -> np.ndarray:
        """One bitboard per row with the squares of every column set."""
        occ = np.zeros(rows, dtype=np.uint64)
        for squares in columns:
            occ |= self.bit[squares]
        return occ

    def piece_moves(self, kind: int, src, occ, blocked):
        """(dest, pseudo-legal mask) for non-pawn pieces of `kind` on `src`.

        `blocked` holds the squares no move may land on: the mover's own
        pieces and the enemy king. Sliders also stop at any piece in `occ`.
        """
        dest = self.dest[kind][src]
        ok = (dest >= 0) & ((blocked[:, None] & self.bit[dest]) == 0)
        if kind in self.line:
            ok &= (self.path[kind][src] & occ[:, None]) == 0
        return dest, ok

    def pawn_moves(self, color: int, src, occ, enemy_occ, promotion_kinds):
        """(dest, pseudo-legal mask, promotion kind per column) for pawns on `src`.

        Columns: push, double push, two captures, then push and two
        captures once per promotion kind.
        """
        push = self.pawn_push[color][src]
        double = self.pawn_double[color][src]
        caps = self.pawn_caps[color][src]
        push_ok = (occ & self.bit[push]) == 0
        push_promo = push // self.width == self.promo_rank[color]
        double_ok = push_ok & (double >= 0) & ((occ & self.bit[double]) == 0)
        cap_ok = (enemy_occ[:, None] & self.bit[caps]) != 0
        cap_promo = caps // self.width == self.promo_rank[color]
        plain = np.column_stack([push, double, caps])
        plain_ok = np.column_stack([push_ok & ~push_promo, double_ok, cap_ok & ~cap_promo])
        promo = np.column_stack([push, caps])
        promo_ok = np.column_stack([push_ok & push_promo, cap_ok & cap_promo])
        kinds = sorted(promotion_kinds)
        dest = np.hstack([plain] + [promo] * len(kinds))
        ok = np.hstack([plain_ok] + [promo_ok] * len(kinds))
        col_kind = np.array([0] * 4 + [k.value for k in kinds for _ in range(3)])
        return dest, ok, col_kind


@functools.lru_cache(maxsize=None)
def _move_tables(width: int, height: int) -> _MoveTables:
    return _MoveTables(width, height)


# The index codec. Only these three functions know the digit layout:
# side * S**k + sum(square of slot i * S**i), with each duplicate-piece
# group in ascending square order. Each works on ints and on int64
# arrays alike.


def _decode_columns(material: MaterialClass, idx) -> tuple:
    """(side to move, one square column per piece slot) of the indices `idx`."""
    ctx = _context(material)
    return idx // ctx.half, [(idx // power) % ctx.S for power in ctx.powers]


def _encode_columns(material: MaterialClass, side, digits: list):
    """Index of the squares `digits` (one per piece slot) with `side` to move.

    The inverse of ``_decode_columns``. Each duplicate-piece group of
    `digits` is first sorted ascending in place; array digits may be of
    any shapes that broadcast together.
    """
    ctx = _context(material)
    for lo, hi in ctx.dup_groups:
        group = digits[lo:hi]
        if isinstance(group[0], np.ndarray):
            digits[lo:hi] = np.sort(np.broadcast_arrays(*group), axis=0)
        else:
            digits[lo:hi] = sorted(group)
    terms = [side * ctx.half] + [digit * power for digit, power in zip(digits, ctx.powers)]
    # Adding the smaller terms first broadcasts to the widest shape once.
    return sum(sorted(terms, key=np.size))


def _canonical(material: MaterialClass, digits: list):
    """Whether `digits` hold distinct squares with each duplicate group ascending."""
    ctx = _context(material)
    ok = True
    for a in range(ctx.k):
        for b in range(a + 1, ctx.k):
            ok = ok & (digits[a] != digits[b])
    for lo, hi in ctx.dup_groups:
        for j in range(lo, hi - 1):
            ok = ok & (digits[j] < digits[j + 1])
    return ok


@functools.lru_cache(maxsize=None)
def _sub_layout(material: MaterialClass, victim: Optional[int], promo_slot: int, promo_kind: int):
    """Class after a capture and/or promotion, and the slot each subclass slot takes its square from."""
    pieces = []
    for slot, piece in enumerate(material.pieces):
        if slot == victim:
            continue
        if slot == promo_slot and promo_kind:
            piece = Piece(PieceKind(promo_kind), piece.color)
        pieces.append((slot, piece))
    pieces.sort(key=lambda item: _canonical_sort_key(item[1]))
    sub = MaterialClass(material.spec, tuple(p for _, p in pieces))
    return sub, tuple(slot for slot, _ in pieces)


def _sides(ctx: _Ctx, side: int) -> tuple:
    """(mover slots, enemy slots, own king slot, enemy king slot) with `side` to move."""
    if side == Color.WHITE:
        return ctx.white_slots, ctx.black_slots, ctx.white_king_slot, ctx.black_king_slot
    return ctx.black_slots, ctx.white_slots, ctx.black_king_slot, ctx.white_king_slot


def _successors(material, side, digits, occ):
    """The legal moves of rows with `side` to move, one mover slot at a time.

    `digits` holds one square column per piece slot and `occ` one
    occupancy bitboard per row; every row must be a legal position.
    Yields (slot, dest, legal, col_kind, exits) per mover slot: the
    (rows, candidates) destinations and legal mask, and the promotion
    kind of each candidate column. `exits` lists the legal moves that
    leave the class as (subclass, rows, cols, subclass index), one entry
    per (victim, promotion kind) that occurs.
    """
    ctx = _context(material)
    tables = _move_tables(ctx.spec.width, ctx.spec.height)
    movers, enemies, my_king, their_king = _sides(ctx, side)
    them = 1 - side
    victims = [slot for slot, kind in enemies if kind != PieceKind.KING]
    enemy_occ = tables.occupancy([digits[slot] for slot in victims], occ.size)
    blocked = tables.occupancy([digits[slot] for slot, _ in movers], occ.size)
    blocked |= tables.bit[digits[their_king]]
    for slot, kind in movers:
        src = digits[slot]
        if kind == PieceKind.PAWN:
            dest, legal, col_kind = tables.pawn_moves(
                side, src, occ, enemy_occ, ctx.spec.promotion_kinds
            )
        else:
            dest, legal = tables.piece_moves(kind, src, occ, blocked)
            col_kind = np.zeros(dest.shape[1], dtype=np.int64)

        # Drop moves that leave the mover's king attacked.
        occ_after = (occ & ~tables.bit[src])[:, None] | tables.bit[dest]
        king_after = dest if kind == PieceKind.KING else digits[my_king][:, None]
        for other, other_kind in enemies:
            attacked = tables.attacks(other_kind, them, digits[other][:, None], king_after, occ_after)
            if other_kind != PieceKind.KING:
                attacked = attacked & (dest != digits[other][:, None])
            legal &= ~attacked

        # Captures and promotions leave the class: index them in their
        # subclass, one (victim, promotion kind) at a time.
        quiet = legal.copy()
        captures = []
        for victim in victims:
            hit = legal & (dest == digits[victim][:, None])
            quiet &= ~hit
            captures.append((victim, hit))
        exits = []
        for victim, hit in [(None, quiet)] + captures:
            for promo_kind in np.unique(col_kind).tolist():
                if victim is None and promo_kind == 0:
                    continue
                rows, cols = np.nonzero(hit & (col_kind == promo_kind))
                if rows.size == 0:
                    continue
                sub, order = _sub_layout(material, victim, slot, promo_kind)
                columns = [d[rows] for d in digits]
                columns[slot] = dest[rows, cols]
                sub_idx = _encode_columns(sub, them, [columns[s] for s in order])
                exits.append((sub, rows, cols, sub_idx))
        yield slot, dest, legal, col_kind, exits


def _legal_rows(material, side, idx):
    """(mask of the legal positions among indices `idx`, their digit columns, occupancy).

    `idx` all have `side` to move. A legal index is ``_canonical``, has
    no pawn on a back rank and leaves the side not to move out of check.
    """
    ctx = _context(material)
    tables = _move_tables(ctx.spec.width, ctx.spec.height)
    _, digits = _decode_columns(material, idx)
    ok = _canonical(material, digits)
    for slot in ctx.pawn_slots:
        rank = digits[slot] // ctx.spec.width
        ok &= (rank != 0) & (rank != ctx.spec.height - 1)
    occ = tables.occupancy(digits, idx.size)
    movers, _, _, their_king = _sides(ctx, side)
    for slot, kind in movers:
        ok &= ~tables.attacks(kind, side, digits[slot], digits[their_king], occ)
    return ok, digits, occ


def _in_check(material, side, digits, occ):
    """Whether the king of `side` is attacked, per row of digit columns and occupancy."""
    ctx = _context(material)
    tables = _move_tables(ctx.spec.width, ctx.spec.height)
    _, enemies, my_king, _ = _sides(ctx, side)
    check = np.zeros(occ.size, dtype=bool)
    for other, other_kind in enemies:
        check |= tables.attacks(other_kind, 1 - side, digits[other], digits[my_king], occ)
    return check


def _build_side(material, registry, side, lo, hi, max_moves):
    """Classify the indices in [lo, hi), which all have `side` to move.

    Returns (invalid count, terminal losses, terminal draws, open
    indices, their counts of moves not won by an exit, folded exits).
    An exit is a move that leaves the class (a capture or promotion);
    its value is read from the subtables in `registry` (class key ->
    table). The folded exits are the open indices with a decisive exit,
    their ``exit_win`` (1 + the least dtm of a lost exit, else 0) and
    ``exit_floor`` (1 + the greatest dtm of a won exit, else 0), and the
    horizon, 1 + the greatest dtm of any decisive exit (0 if none).
    In-class moves are only counted: the solve finds them again by
    un-moves. Mate and stalemate are found from the count of every
    move, and more than `max_moves` of them raises RuntimeError.
    """
    idx = np.arange(lo, hi, dtype=np.int64)
    ok, digits, occ = _legal_rows(material, side, idx)
    invalid = int(idx.size - np.count_nonzero(ok))
    idx, occ = idx[ok], occ[ok]
    digits = [d[ok] for d in digits]

    counts = np.zeros(idx.size, dtype=np.int64)
    won = np.zeros(idx.size, dtype=np.int64)
    exit_win = np.full(idx.size, DTM_ABSENT, dtype=np.int64)
    exit_floor = np.zeros(idx.size, dtype=np.int64)
    horizon = 0
    for _, _, legal, _, exits in _successors(material, side, digits, occ):
        counts += np.count_nonzero(legal, axis=1)
        # Out-of-class successors are fixed values: one gather per exit.
        for sub, rows, _, sub_idx in exits:
            table = registry[sub.key]
            wdl = table.wdl[sub_idx]
            if (wdl == 0).any():
                raise ValidationError(f"a successor decodes to an illegal entry of {sub.name}")
            after = table.dtm[sub_idx].astype(np.int64) + 1
            lost, hit = wdl == Wdl.LOSS.value, wdl == Wdl.WIN.value
            np.minimum.at(exit_win, rows[lost], after[lost])
            np.maximum.at(exit_floor, rows[hit], after[hit])
            won += np.bincount(rows[hit], minlength=idx.size)
            horizon = max(horizon, int(after[lost | hit].max(initial=0)))

    if counts.size and counts.max() > max_moves:
        raise RuntimeError(
            f"{material.name}: a position has {counts.max()} moves, bound is {max_moves}"
        )
    exit_win[exit_win == DTM_ABSENT] = 0
    stuck = counts == 0
    mated = _in_check(material, side, [d[stuck] for d in digits], occ[stuck])
    live = ~stuck
    folded = (exit_win > 0) | (exit_floor > 0)
    return (
        invalid, idx[stuck][mated], idx[stuck][~mated], idx[live], (counts - won)[live],
        (idx[folded], exit_win[folded], exit_floor[folded], horizon),
    )


def _unmoves(material, side, idx):
    """The in-class predecessors of the legal indices `idx`, all with `side` to move.

    Returns a (rows, candidates) int64 array holding each row's
    predecessors, -1 elsewhere: the positions that reach the row by a
    quiet move of the side that just moved. That piece steps back along
    its step or ray table to an empty square (a slider over empty
    squares), or a pawn is un-pushed, singly or doubly, to a square off
    the back ranks. A predecessor must leave the side not to move in it
    out of check. A move never captures or promotes inside a class, so
    there is no un-capture or un-promotion, and no two moves of one
    position reach the same position, so each edge appears once.
    """
    ctx = _context(material)
    tables = _move_tables(ctx.spec.width, ctx.spec.height)
    _, digits = _decode_columns(material, idx)
    occ = tables.occupancy(digits, idx.size)
    them = 1 - side
    movers, _, _, king = _sides(ctx, them)
    stay = [d[:, None] for d in digits]
    widths = [2 if kind == PieceKind.PAWN else tables.dest[kind].shape[1] for _, kind in movers]
    out = np.full((idx.size, sum(widths)), -1, dtype=np.int64)
    col = 0
    for slot, kind in movers:
        dest = digits[slot]
        if kind == PieceKind.PAWN:
            back = np.column_stack([tables.pawn_unpush[them][dest], tables.pawn_undouble[them][dest]])
        else:
            back = tables.dest[kind][dest]
        back_bit = tables.bit[back]
        ok = (back >= 0) & ((occ[:, None] & back_bit) == 0)
        if kind == PieceKind.PAWN:
            # A double push passes over the square a single push starts from.
            ok[:, 1] &= (occ & back_bit[:, 0]) == 0
        elif kind in tables.line:
            ok &= (tables.path[kind][dest] & occ[:, None]) == 0

        # The predecessor's side not to move must not be in check.
        occ_before = (occ & ~tables.bit[dest])[:, None] | back_bit
        for other, other_kind in movers:
            src = back if other == slot else stay[other]
            ok &= ~tables.attacks(other_kind, them, src, stay[king], occ_before)

        moved = list(stay)
        moved[slot] = back
        np.copyto(out[:, col:col + back.shape[1]], _encode_columns(material, them, moved), where=ok)
        col += back.shape[1]
    return out


def _successor_values(material, side, idx, table_for, slots):
    """Every legal move of the indices `idx`, all with `side` to move, and the value it reaches.

    The indices must be legal positions of `material`. Returns dense
    (rows, candidates) arrays: the legal mask, the move key ``(from *
    S + to) * 8 + promotion kind``, the successor's class slot (`slots`
    maps class keys to slots) and index, and its wdl and dtm.
    `table_for` maps a class key to its table and raises
    MaterialMismatchError for a missing one; it is asked only for the
    classes that the moves reach.
    """
    ctx = _context(material)
    ok, digits, occ = _legal_rows(material, side, idx)
    _refuse(material, idx, ok, ValidationError, "a valued entry is not a legal position")
    own = table_for(material.key)
    parts = []
    for slot, dest, legal, col_kind, exits in _successors(material, side, digits, occ):
        key = (digits[slot][:, None] * ctx.S + dest) * 8 + col_kind
        # In-class successors: the moved slot takes its destination.
        moved = [d[:, None] for d in digits]
        moved[slot] = dest
        succ = _encode_columns(material, 1 - side, moved)
        to_slot = np.full(succ.shape, slots[material.key], dtype=np.uint8)
        # Values of illegal candidates are read from index 0 and never used.
        in_class = np.where(legal, succ, 0)
        wdl, dtm = own.wdl[in_class], own.dtm[in_class]
        for sub, rows, cols, sub_idx in exits:
            table = table_for(sub.key)
            to_slot[rows, cols] = slots[sub.key]
            succ[rows, cols] = sub_idx
            wdl[rows, cols] = table.wdl[sub_idx]
            dtm[rows, cols] = table.dtm[sub_idx]
        parts.append((legal, key, to_slot, succ, wdl, dtm))
    return tuple(np.hstack(columns) for columns in zip(*parts))


class Policy:
    """The policy's move at every decisive, non-terminal index of a closure's tables.

    Slot s is class s of ``_closure`` and ``tables[s]`` its table (None
    where none is loaded). Making a policy checks every decisive dtm-0
    entry of each loaded table (``_check_mates``), so a line ends in
    checkmate. ``choice`` gives a row's move and the (slot, index) it
    reaches, read from the arrays ``move[s]`` (the move key
    ``(from * S + to) * 8 + promotion kind``), ``succ_slot[s]`` and
    ``succ_index[s]``. ``_fill_block`` is the one writer of the arrays:
    it chooses the rows of one ``_build_blocks`` block not chosen yet,
    and allocates a slot's arrays on its first fill, so a slot never
    filled holds none. A move key is never 0, so 0 marks a row not
    chosen yet. A miss in ``choice`` fills the block that holds its
    row; ``sweep`` fills every block and counts the chosen rows in
    ``rows``. Every row is checked when it is chosen, and a block whose
    check fails keeps nothing.
    """

    def __init__(self, material, tables: tuple, slots: dict, table_for):
        for table in tables:
            if table is not None:
                _check_mates(table)
        self.material = material
        self.tables = tables
        self.slots = slots  # class key -> slot
        self._table_for = table_for
        self.move, self.succ_slot, self.succ_index = ([None] * len(tables) for _ in range(3))
        self.rows = 0
        self.swept = False

    def sweep(self, *, progress: Optional[Callable[[str], None]] = None) -> "Policy":
        """Fill every block of every loaded table (``_fill_block``); a no-op once done.

        Reports the class, the rows chosen and the seconds through `progress`.
        """
        if self.swept:
            return self
        start = time.perf_counter()
        for slot, table in enumerate(self.tables):
            if table is not None:
                for block in _build_blocks(table.material, 0, table.material.index_size):
                    self._fill_block(slot, *block)
        self.rows = sum(int(np.count_nonzero(move)) for move in self.move if move is not None)
        self.swept = True
        if progress:
            progress(
                f"policy {self.material.name}: {self.rows} rows "
                f"in {time.perf_counter() - start:.2f} s"
            )
        return self

    def _fill_block(self, slot: int, side: int, lo: int, hi: int) -> None:
        """Choose the decisive, non-terminal rows of [lo, hi) in `slot` not chosen yet (``_choose``)."""
        table = self.tables[slot]
        arrays = (self.move, self.succ_slot, self.succ_index)
        if self.move[slot] is None:
            for array, dtype in zip(arrays, (np.uint16, np.uint8, np.uint32)):
                array[slot] = np.zeros(table.material.index_size, dtype=dtype)
        rows = _decisive(table.wdl[lo:hi]) & (table.dtm[lo:hi] > 0) & (self.move[slot][lo:hi] == 0)
        idx = np.flatnonzero(rows) + lo
        if idx.size:
            for array, chosen in zip(arrays, _choose(table, side, idx, self._table_for, self.slots)):
                array[slot][idx] = chosen

    def choice(self, slot: int, idx: int) -> tuple:
        """(move, successor slot, successor index) of the decisive, non-terminal index `idx`.

        A row not chosen yet fills the block that holds it.
        """
        if self.move[slot] is None or self.move[slot][idx] == 0:
            self._fill_block(slot, *_block_of(self.tables[slot].material, idx))
        key = int(self.move[slot][idx])
        succ_slot, succ_index = int(self.succ_slot[slot][idx]), int(self.succ_index[slot][idx])
        src, dest = divmod(key >> 3, self.material.spec.num_squares)
        promotion = PieceKind(key & 7) if key & 7 else None
        return Move(src, dest, promotion), succ_slot, succ_index

    def walk(self, slot, idx, *, progress: Optional[Callable[[str], None]] = None) -> tuple:
        """The lines from the decisive (slot, index) starts, all walked together a ply at a time.

        At each ply the lines still moving are grouped by class slot,
        and each group's distinct rows are chosen by ``_choose``, one
        ``_side_blocks`` block at a time, with every check it makes. The
        policy arrays are neither read nor filled. Returns the (plies + 1,
        lines) slot and index of every ply and the (plies, lines) move
        keys, plies being the greatest start dtm: a line of dtm d moves
        at plies 0..d-1, then repeats its last row under move key 0.
        Reports the rows chosen and the seconds through `progress`.
        """
        start = time.perf_counter()
        slot = np.array(slot, dtype=np.uint8)
        idx = np.array(idx, dtype=np.int64)
        dtm = np.zeros(idx.size, dtype=np.int64)
        for s in np.unique(slot).tolist():
            lines = np.flatnonzero(slot == s)
            table = self.tables[s]
            _refuse(table.material, idx[lines], _decisive(table.wdl[idx[lines]]),
                    ValidationError, "a line starts on an entry that is not decisive")
            dtm[lines] = table.dtm[idx[lines]]
        plies = int(dtm.max(initial=0))
        slots = np.empty((plies + 1, idx.size), dtype=np.uint8)
        indices = np.empty((plies + 1, idx.size), dtype=np.int64)
        keys = np.zeros((plies, idx.size), dtype=np.int64)
        slots[0], indices[0] = slot, idx
        rows = 0
        for n in range(plies):
            moving = np.flatnonzero(dtm > n)
            # Every group is taken before any of its lines moves to another slot.
            groups = [(s, moving[slot[moving] == s]) for s in np.unique(slot[moving]).tolist()]
            for s, lines in groups:
                table = self.tables[s]
                unique, inverse = np.unique(idx[lines], return_inverse=True)
                rows += unique.size
                chosen = [
                    _choose(table, side, block, self._table_for, self.slots)
                    for side, block in _side_blocks(table.material, unique)
                ]
                key, to_slot, to_idx = (np.concatenate(parts)[inverse] for parts in zip(*chosen))
                keys[n, lines] = key
                slot[lines], idx[lines] = to_slot, to_idx
            slots[n + 1], indices[n + 1] = slot, idx
        if progress:
            progress(
                f"policy {self.material.name}: {rows} rows "
                f"in {time.perf_counter() - start:.2f} s"
            )
        return slots, indices, keys


_NO_MOVE = np.iinfo(np.int64).max


def _refuse(material, idx, ok, error, what) -> None:
    """Raise `error` naming the first of the indices `idx` whose `ok` is False."""
    if not ok.all():
        raise error(f"{material.name} index {int(idx[np.argmin(ok)])}: {what}")


def _choose(table, side, idx, table_for, slots) -> tuple:
    """(move key, successor slot, successor index) of decisive, non-terminal indices of `table`.

    The indices `idx` all have `side` to move. A win takes the successor
    lost at the least dtm, a loss the one won at the greatest, ties
    going to the least move key, the canonical order of
    ``legal_transitions``. A successor that is an illegal entry raises
    ValidationError, and a choice that breaks the dtm recurrence (a
    loss successor of a win, each successor of a loss a win, and the
    chosen one at dtm - 1) raises RuntimeError.
    """
    material = table.material
    legal, key, to_slot, to_idx, wdl, dtm = _successor_values(material, side, idx, table_for, slots)
    wins = (table.wdl[idx] == Wdl.WIN.value)[:, None]
    _refuse(material, idx, ~(legal & (wdl == 0)).any(axis=1), ValidationError,
            "a successor decodes to an illegal table entry")
    _refuse(material, idx, ~(legal & ~wins & (wdl != Wdl.WIN.value)).any(axis=1),
            RuntimeError, "a loss position has a successor that does not win")
    # The winner minimizes the dtm of a lost successor and the loser
    # maximizes it; the move key breaks ties.
    score = np.where(wins, dtm, DTM_ABSENT - dtm).astype(np.int64) << 16 | key
    score[~legal | (wins & (wdl != Wdl.LOSS.value))] = _NO_MOVE
    pick = score.argmin(axis=1)[:, None]
    _refuse(material, idx, np.take_along_axis(score, pick, axis=1)[:, 0] != _NO_MOVE,
            RuntimeError, "a decisive position has no move to choose")
    chosen = np.take_along_axis(dtm, pick, axis=1)[:, 0].astype(np.int64)
    _refuse(material, idx, chosen == table.dtm[idx].astype(np.int64) - 1,
            RuntimeError, "the chosen successor's dtm is not dtm - 1")
    return tuple(np.take_along_axis(a, pick, axis=1)[:, 0] for a in (key, to_slot, to_idx))


def _check_mates(table) -> None:
    """Raise RuntimeError naming the first decisive dtm-0 entry of `table` that is not checkmate.

    A line ends on such an entry without asking the rules. A win at dtm
    0 is never valid; a (LOSS, 0) entry must be a legal position
    (ValidationError otherwise) whose side to move is in check and has
    no move. The entries are found, and the wins refused, one
    ``_build_blocks`` block at a time; the mates are then checked in
    ``_side_blocks`` batches, since one move generation per block of
    the index would cost more than the scan.
    """
    material = table.material
    ends = []
    for _, lo, hi in _build_blocks(material, 0, material.index_size):
        idx = np.flatnonzero((table.dtm[lo:hi] == 0) & _decisive(table.wdl[lo:hi])) + lo
        _refuse(material, idx, table.wdl[idx] == Wdl.LOSS.value,
                RuntimeError, "a (WIN, 0) entry is not checkmate")
        ends.append(idx)
    for side, idx in _side_blocks(material, np.concatenate(ends)):
        ok, digits, occ = _legal_rows(material, side, idx)
        _refuse(material, idx, ok, ValidationError, "a valued entry is not a legal position")
        mated = _in_check(material, side, digits, occ)
        for _, _, legal, _, _ in _successors(material, side, digits, occ):
            mated &= ~legal.any(axis=1)
        _refuse(material, idx, mated, RuntimeError, "a (LOSS, 0) entry is not checkmate")


def _side_blocks(material: MaterialClass, idx: np.ndarray):
    """(side, block) of the sorted indices `idx`, in order.

    The indices are cut at the side bit, and each side's into blocks
    of at most ``_BUILD_BLOCK``, so a block's temporaries stay bounded.
    """
    cut = int(np.searchsorted(idx, _context(material).half))
    for side, part in enumerate((idx[:cut], idx[cut:])):
        for start in range(0, part.size, _BUILD_BLOCK):
            yield side, part[start:start + _BUILD_BLOCK]


def _block_of(material: MaterialClass, idx: int) -> tuple:
    """(side, start, stop) of the block that holds index `idx`.

    The blocks tile each side's half of the index from its start, every
    ``_BUILD_BLOCK`` indices, so each has one side to move.
    """
    half = _context(material).half
    side, offset = divmod(idx, half)
    start = idx - offset % _BUILD_BLOCK
    return side, start, min(start + _BUILD_BLOCK, (side + 1) * half)


def _build_blocks(material: MaterialClass, lo: int, hi: int) -> list:
    """(side, start, stop) blocks that cover [lo, hi) in order: the ``_block_of`` blocks cut to [lo, hi)."""
    blocks = []
    while lo < hi:
        side, _, stop = _block_of(material, lo)
        blocks.append((side, lo, min(stop, hi)))
        lo = min(stop, hi)
    return blocks


# The bytes a solve holds per index: the wdl and dtm (3), the count of
# moves not yet won (1: at most 91 moves on boards up to 8x8), the
# exit_win and exit_floor columns (4), the indices labeled at the last
# pass and at the current one (8 between them), and at most 3 of
# boolean temporaries.
_INDEX_BYTES = 19


def _resolve_budget() -> int:
    """The memory budget in bytes, from STRATEGIA_MEM_BUDGET_MB (MiB, default 2048)."""
    raw = os.environ.get(BUDGET_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_BUDGET_MB << 20
    if raw.isdigit() and int(raw) > 0:
        return int(raw) << 20
    raise ValidationError(f"{BUDGET_ENV_VAR} must be a positive number of MiB, got {raw!r}")


def _solve_bytes(material: MaterialClass) -> int:
    """Upper bound on the bytes that solving `material` and its closure holds at once.

    Per index, a solve holds ``_INDEX_BYTES``, and `material` has the
    most indices of its closure. A build, un-move or policy block of
    any class of the closure holds at most ``_block_bytes``, and every
    subclass table stays loaded, at 3 bytes per index.
    """
    closure = _closure(material)
    tables = sum(sub.index_size for sub in closure[:-1])
    return _INDEX_BYTES * material.index_size + max(map(_block_bytes, closure)) + 3 * tables


def _block_bytes(material: MaterialClass) -> int:
    """Upper bound on the temporaries of one block of `material`'s moves.

    A build, un-move or policy block holds at most ``_BUILD_BLOCK`` rows
    (half the index if that is less), at 48 bytes per row and
    ``_max_move_bound`` move.
    """
    return min(_BUILD_BLOCK, material.index_size // 2) * 48 * _max_move_bound(material)


def solve(
    material: MaterialClass,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> Tablebase:
    """Solve a material class exactly, subclasses first, in ``_closure`` order.

    Refuses up front (no partial output) if the estimated working set
    of the class or of any subclass exceeds the memory budget
    (STRATEGIA_MEM_BUDGET_MB, default 2048); every class is checked
    before any is solved, the class itself first. The result is a pure
    function of the class. Its ``subtables`` hold every subclass solved.
    """
    return _solve_missing(_closure(material), {}, progress)[material.key]


def _solve_missing(closure, tables: dict, progress) -> dict:
    """`tables` (class key -> table) after solving, in order, each class of `closure` it lacks.

    The budget is read once, and every class to solve is checked
    against it before any is solved, the last class of `closure` first.
    A solved table's ``subtables`` are the tables solved before it.
    """
    missing = [material for material in closure if material.key not in tables]
    budget = _resolve_budget()
    for material in reversed(missing):
        estimate = _solve_bytes(material)
        if estimate > budget:
            raise BudgetExceededError(
                f"solving {material.name} needs about {-(-estimate >> 20)} MiB, "
                f"budget is {budget >> 20} MiB"
            )
    for material in missing:
        table = _solve_single(material, tables, progress)
        table.subtables = dict(tables)
        tables[material.key] = table
    return tables


def _solve_single(material, registry, progress) -> Tablebase:
    n = material.index_size
    max_moves = _max_move_bound(material)
    if progress:
        progress(f"solving {material.name}: {n} indices")
    start = time.perf_counter()

    # Per index: the value, an open position's count of moves not yet
    # won, and its exits as ``_build_side`` folds them.
    wdl = np.zeros(n, dtype=np.uint8)
    dtm = np.full(n, DTM_ABSENT, dtype=np.uint16)
    remaining = np.zeros(n, dtype=np.min_scalar_type(max_moves))
    exit_win = np.zeros(n, dtype=np.uint16)
    exit_floor = np.zeros(n, dtype=np.uint16)
    invalid = n_mated = n_stalemated = n_open = 0
    # A static value of dtm t labels at pass t + 1, even across
    # otherwise quiet passes, so termination waits for the horizon of
    # every decisive exit, not only of those the columns keep.
    static_trigger = 0
    for block in _build_blocks(material, 0, n):
        bad, mated, stalemated, live, moves, (rows, win, floor, horizon) = _build_side(
            material, registry, *block, max_moves
        )
        invalid += bad
        n_mated += mated.size
        n_stalemated += stalemated.size
        n_open += live.size
        wdl[mated], dtm[mated] = Wdl.LOSS.value, 0
        wdl[stalemated] = Wdl.DRAW.value
        remaining[live] = moves
        exit_win[rows], exit_floor[rows] = win, floor
        static_trigger = max(static_trigger, horizon)
    build_s = time.perf_counter() - start

    # Pass d reads only the positions labeled at d - 1. A loss has an
    # even dtm and a win an odd one, so those are all losses when d is
    # odd and all wins when d is even. The open predecessors of a loss
    # win; each predecessor of a win counts down its moves not yet won,
    # and one that reaches 0 is lost at max(d, exit_floor): it cannot
    # win in the meantime, having no successor that is not won.
    # Predecessors come from un-moves (``_unmoves``), one per edge. Up
    # to the horizon, pass d also labels the open rows whose exit_win,
    # or whose exit_floor with nothing left to count down, is d.
    one = remaining.dtype.type(1)
    frontier = np.flatnonzero(dtm == 0)
    passes = []
    depth = 0
    while n_open:
        depth += 1
        if depth > n + static_trigger + 2:
            raise RuntimeError("fixpoint failed to terminate")  # pragma: no cover
        winning = depth % 2 == 1
        for side, block in _side_blocks(material, frontier):
            pred = _unmoves(material, side, block)
            pred = pred[pred >= 0]
            pred = pred[wdl[pred] == 0]
            if winning:
                wdl[pred], dtm[pred] = Wdl.WIN.value, depth
            else:
                np.subtract.at(remaining, pred, one)
                pred = pred[remaining[pred] == 0]
                if depth < static_trigger:
                    pred = pred[exit_floor[pred] <= depth]
                wdl[pred], dtm[pred] = Wdl.LOSS.value, depth
        if depth <= static_trigger:
            hit = exit_win == depth if winning else (exit_floor == depth) & (remaining == 0)
            hit &= wdl == 0
            wdl[hit], dtm[hit] = (Wdl.WIN if winning else Wdl.LOSS).value, depth
            del hit

        frontier = np.flatnonzero(dtm == depth)
        labeled = int(frontier.size)
        passes.append((labeled, 0) if winning else (0, labeled))
        if labeled:
            n_open -= labeled
            if progress and depth % 8 == 0:
                n_win, n_loss = passes[-1]
                progress(
                    f"  pass {depth}: {n_win} wins, {n_loss} losses, {n_open} open"
                )
        elif depth >= static_trigger:
            break

    wdl[(wdl == 0) & (remaining > 0)] = Wdl.DRAW.value
    legal = n - invalid
    decisive = _decisive(wdl)
    max_dtm = int(dtm[decisive].max()) if decisive.any() else 0
    stats = SolveStats(
        legal=legal,
        invalid=invalid,
        terminal_losses=n_mated,
        terminal_draws=n_stalemated + n_open,
        passes=tuple(passes),
        max_dtm=max_dtm,
    )
    if progress:
        fixpoint_s = time.perf_counter() - start - build_s
        progress(
            f"  {material.name}: {legal} legal, max dtm {max_dtm}, {depth} passes, "
            f"build {build_s:.2f} s, fixpoint {fixpoint_s:.2f} s"
        )
    return Tablebase(material, wdl, dtm, stats=stats)
