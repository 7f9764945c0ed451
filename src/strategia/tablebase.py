"""Exact retrograde solver for small material classes.

A material class is a fixed piece multiset on a fixed board. Every
placement of those pieces (x side to move) gets a dense index; solving
labels each legal index win/draw/loss with distance to mate in plies,
by iterated generational passes: generation d is built only from
generations below d, so the labeled set grows monotonically and the
result is independent of pass scheduling.

A table is one uint16 code per index (``_wdl`` reads its value): a
decisive entry's dtm, a win exactly when odd, or the reserved
``_DRAW`` or ``_ILLEGAL``. The passes run on a retrograde frontier in
that one column, with no edge or move list. An open position's code is
``_OPEN`` | its count of moves not yet won << 8 | what its exits, the
moves that leave the class, give it (``exit_at``): 1 + the least dtm
of a lost exit, else 1 + the greatest dtm of a won exit, which is not
counted. Pass d reads only the predecessors of the positions labeled
at d - 1, the un-move candidates (``_unmoves``) that are still open:
the open predecessors of a loss become wins, and those of a win count
down their moves not yet won, becoming losses at max(d, exit_at) at 0.
Pass d also labels the open positions whose exit_at is d: won if d is
odd, lost if d is even and nothing is left to count down. Each
in-class edge is generated once over the whole solve, in int32. A pass
scans the column ``_CHUNK`` indices at a time, its frontier the codes
equal to d - 1; at the end every open code becomes ``_DRAW`` in place.
``_solve_bytes`` bounds what a solve holds. A table file stores each
code as a (wdl, dtm) record (``_records``), a block at a time.

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
It reads the value of every move of a decisive, non-terminal index, one
mover slot at a time (``_successor_values``), and keeps the best slot's
move and the (class slot, index) it reaches (``_choose``). A line keeps
the picks one ``_block_of`` block at a time: a row's first ask fills
its block (``Policy._fill_block``), so the policy holds only the blocks
filled; lines walked together a ply at a time keep none (``Policy.walk``).
``_side_blocks`` cuts every batch of rows into same-side blocks.

One codec holds the index layout: ``_decode_columns`` splits indices
into the side to move and one square (digit) per piece slot,
``_encode_columns`` is its inverse and sorts duplicate pieces, and
``_canonical`` checks for distinct squares and ascending duplicates.
Every encode and decode goes through them, and they read the layout
(the powers of the board size, the duplicate groups) off the
``MaterialClass`` itself, as move generation reads each side's slots.
``position_at`` takes legality from ``board.validate_position``.

Moves are generated with numpy over blocks of at most ``_BUILD_BLOCK``
indices with one side to move, not one position at a time. A block is
decoded into digit columns; indices that are not ``_canonical``, pawns
on a back rank and a side not to move in check (``_in_check``) are
masked out. Each mover slot's legal moves are one uint64 bitboard of
destinations per row (``_successors``): the one pseudo-legal move rule,
``_MoveTables.moves`` (read off ``board.geometry()``; the evaluator
probe's mobility counts it as is), narrowed by king safety from the
row's checks and pins, read off one table, ``ray``: the squares
between an attacker and its target, all ones where it does not attack.
The king ANDs out the squares each enemy attacks, and every other
piece keeps those on each checker's line and on its own pin line. The
build counts the moves with ``np.bitwise_count``. Captures
and promotions are indexed in their subclass; the solve reads their
values in one gather. The policy expands the bitboards into candidate
columns and encodes the in-class successors: the digit columns with
the moved slot set to its destination (``_successor_values``).
Un-moves read the destination tables backwards, plus un-push tables,
and test only what the row's squares tell: a slider's path and a
double push's middle square are empty. They return candidates, and the
solve keeps those still open, the legal positions not labeled yet, so
legality has one test, ``_legal_rows``, made once per index by the
build. The scalar ``legal_transitions`` stays the rules reference,
and the tests hold the forward moves and the un-moves to it.

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
    DEFAULT_PROMOTION_KINDS,
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
    TableValueError,
    ValidationError,
)
from .runio import atomic_write_chunks

MAGIC = b"CTB1"
FORMAT_VERSION = 1
DTM_ABSENT = 0xFFFF
DEFAULT_BUDGET_MB = 2048
BUDGET_ENV_VAR = "STRATEGIA_MEM_BUDGET_MB"
# One CTB1 body record per index: the wdl code, then the dtm
# (DTM_ABSENT for a draw or an illegal entry).
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


# The reserved codes lie above every dtm, so ``code < _DRAW`` is the
# decisive mask. Only a solve writes a code with the ``_OPEN`` bit, a
# position not labeled yet (``_solve_single``).
_DRAW = 0x7FFE
_ILLEGAL = 0x7FFF
_OPEN = 0x8000


def _wdl(codes):
    """The ``Wdl`` value of each of `codes`, 0 for an illegal entry: a dtm is a win when odd.

    LOSS (3), less 2 for an odd code and 1 for a reserved one, whose
    ``_DRAW`` is even and ``_ILLEGAL`` odd.
    """
    return 3 - 2 * (codes & 1) - (codes >= _DRAW)


def _records(codes: np.ndarray) -> np.ndarray:
    """The CTB1 records of `codes`: each one's wdl and dtm, DTM_ABSENT for a draw or an illegal entry."""
    records = np.empty(codes.size, dtype=_RECORD)
    records["wdl"] = _wdl(codes)
    records["dtm"] = np.where(codes < _DRAW, codes, DTM_ABSENT)
    return records


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
        # Hashes on every ``_closure`` and ``_sub_layout`` lookup; the
        # cached key avoids rehashing the spec and each piece's enums.
        return hash(self.key)

    @property
    def num_pieces(self) -> int:
        return len(self.pieces)

    @property
    def index_size(self) -> int:
        return 2 * self._half

    # The index layout that the codec and move generation read.

    @functools.cached_property
    def _half(self) -> int:
        """The indices with one side to move: S**k."""
        return self.spec.num_squares ** len(self.pieces)

    @functools.cached_property
    def _powers(self) -> tuple:
        """The weight S**i of slot i's square in an index."""
        return tuple(self.spec.num_squares ** i for i in range(len(self.pieces)))

    @functools.cached_property
    def _runs(self) -> tuple:
        """(cell, start, stop) of each run of equal pieces, in slot order."""
        runs = []
        for i, piece in enumerate(self.pieces):
            if runs and runs[-1][0] == piece.cell:
                runs[-1][2] = i + 1
            else:
                runs.append([piece.cell, i, i + 1])
        return tuple(map(tuple, runs))

    @functools.cached_property
    def _dup_groups(self) -> tuple:
        """(start, stop) of each run of two or more equal pieces."""
        return tuple((start, stop) for _, start, stop in self._runs if stop - start > 1)

    @functools.cached_property
    def _slots(self) -> tuple:
        """Per color (White, Black): the (slot, kind value) pairs of its pieces."""
        return tuple(
            tuple((i, p.kind.value) for i, p in enumerate(self.pieces) if p.color is color)
            for color in (Color.WHITE, Color.BLACK)
        )

    @functools.cached_property
    def _kings(self) -> tuple:
        """Per color (White, Black): the slot of its king."""
        return tuple(
            next(i for i, kind in slots if kind == PieceKind.KING) for slots in self._slots
        )


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


def index_of(pos: Position, material: MaterialClass) -> int:
    """Dense index of a position within its class.

    The index covers piece squares and side to move only. Positions
    with castle rights are refused; an ep_square is accepted but not
    encoded (it cannot change the value in any indexable class).
    """
    spec = material.spec
    if (pos.spec.width, pos.spec.height) != (spec.width, spec.height):
        raise MaterialMismatchError(
            f"position is on {pos.spec.width}x{pos.spec.height}, "
            f"table is {spec.width}x{spec.height}"
        )
    if pos.castle_rights.any():
        raise ValidationError("positions with castle rights are not indexable")
    buckets: dict = {}
    for sq, cell in enumerate(pos.placement):
        if cell:
            buckets.setdefault(cell, []).append(sq)
    digits = []
    for cell, start, end in material._runs:
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
    for square, piece in zip(digits, material.pieces):
        board[square] = piece.cell
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


@dataclass(eq=False)
class Tablebase:
    """The solved code of every index of one class (``_wdl`` reads it); equality is identity."""

    material: MaterialClass
    code: np.ndarray
    subtables: dict = field(default_factory=dict)
    stats: Optional[SolveStats] = None
    # Memos of values computed from the fields; replace() starts them afresh.
    _checksum: Optional[int] = field(default=None, init=False, repr=False)
    _policy: Optional["Policy"] = field(default=None, init=False, repr=False)

    def probe(self, pos: Position) -> WdlDtm:
        """Constant-time value lookup for a position of this class.

        ``index_of`` refuses a position of another board size or
        material (MaterialMismatchError) or with castle rights
        (ValidationError).
        """
        return self.value_at(index_of(pos, self.material))

    def value_at(self, idx: int) -> WdlDtm:
        """The value stored at index `idx`; an illegal entry raises ValidationError."""
        code = int(self.code[idx])
        if code == _ILLEGAL:
            raise ValidationError("position decodes to an illegal table entry")
        return WdlDtm(Wdl(_wdl(code)), None if code == _DRAW else code)

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
        return _loaded(self if key == self.material.key else self.subtables.get(key), key)

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
        tables; a false mate raises TableValueError and memoizes nothing.
        Getting it chooses nothing: the first ``Policy.choice`` in a block
        fills that block, and ``Policy.walk`` fills none. Lookups never
        touch it.
        """
        tables = tuple(self.subtables.get(mc.key) for mc in _closure(self.material)[:-1]) + (self,)
        memo = self._policy
        if memo is None or any(a is not b for a, b in zip(memo.tables, tables)):
            self._policy = Policy(tables)
        return self._policy

    def decisive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.code < _DRAW)

    def decisive_sample(self, rng: random.Random, k: int) -> np.ndarray:
        """`k` decisive indices drawn by `rng`, in index order; all of them if `k` is not less than their count.

        The draw is ``sorted(rng.sample(range(count), k))``: positions
        among the decisive indices in index order, so the result is
        ``decisive_indices()`` at those positions. Taking every index
        leaves `rng` untouched. The decisive entries are counted, and the
        drawn ones found, one ``_build_blocks`` block at a time, so no
        temporary is as long as the index.
        """
        blocks = _build_blocks(self.material, 0, self.code.size)
        counts = np.array([np.count_nonzero(self.code[lo:hi] < _DRAW) for _, lo, hi in blocks])
        total = int(counts.sum())
        if k >= total:
            return self.decisive_indices()
        positions = np.array(sorted(rng.sample(range(total), k)), dtype=np.int64)
        before = np.cumsum(counts) - counts  # decisive entries before each block
        cuts = np.searchsorted(positions, before + counts)
        parts, first = [], 0
        for (_, lo, hi), start, cut in zip(blocks, before.tolist(), cuts.tolist()):
            if cut > first:
                parts.append(np.flatnonzero(self.code[lo:hi] < _DRAW)[positions[first:cut] - start] + lo)
                first = cut
        return np.concatenate(parts)

    def counts(self) -> dict:
        """Entries per wdl code and the greatest decisive dtm, counted one ``_build_blocks`` block at a time."""
        tally = np.zeros(4, dtype=np.int64)
        max_dtm = 0
        for _, lo, hi in _build_blocks(self.material, 0, self.code.size):
            code = self.code[lo:hi]
            tally += np.bincount(_wdl(code), minlength=4)
            max_dtm = max(max_dtm, int(code.max(initial=0, where=code < _DRAW)))
        invalid, win, draw, loss = tally.tolist()
        return {
            "entries": int(self.code.size),
            "invalid": invalid,
            "win": win,
            "draw": draw,
            "loss": loss,
            "max_dtm": max_dtm,
        }

    def _body_chunks(self):
        """The body's ``_records`` bytes, one ``_build_blocks`` block at a time."""
        for _, lo, hi in _build_blocks(self.material, 0, self.code.size):
            yield _records(self.code[lo:hi]).tobytes()

    @property
    def checksum(self) -> int:
        """CRC32 of the body bytes, as stored in the file trailer."""
        if self._checksum is None:
            crc = 0
            for chunk in self._body_chunks():
                crc = zlib.crc32(chunk, crc)
            self._checksum = crc
        return self._checksum

    def _file_chunks(self):
        """The table file in order: the header, the ``_body_chunks`` and the CRC trailer.

        The header records the board's width and height and no rule
        switch, so a table solved with other than the default promotion
        kinds raises ValidationError: it would load as a table of the
        default kinds, which its values are not. The CRC runs across
        the chunks as they are yielded.
        """
        mc = self.material
        if mc.spec.promotion_kinds != DEFAULT_PROMOTION_KINDS:
            raise ValidationError(f"{mc.name}: a table file cannot record non-default promotion kinds")
        header = bytearray()
        header += MAGIC
        header += struct.pack("<BBBB", FORMAT_VERSION, mc.spec.width, mc.spec.height, mc.num_pieces)
        for piece in mc.pieces:
            header += struct.pack("<BB", piece.kind.value, piece.color.value)
        header += struct.pack("<Q", self.code.size)
        yield bytes(header)
        crc = 0
        for chunk in self._body_chunks():
            crc = zlib.crc32(chunk, crc)
            yield chunk
        self._checksum = crc
        yield struct.pack("<I", crc)

    def save(self, path) -> None:
        """Write the table file chunk by chunk through a temp file renamed into place.

        The save holds one ``_build_blocks`` block of records at a time,
        never a copy of the body.
        """
        atomic_write_chunks(path, self._file_chunks())

    @classmethod
    def load(cls, path) -> "Tablebase":
        """The table in the file at `path`, read as ``save`` writes it; a malformed file raises TablebaseFormatError.

        The size is checked against the header before any allocation.
        The body is read ``_CHUNK`` records at a time, each chunk packed
        into the code column through reused scratch (9 bytes a record).
        Once the CRC has matched, out-of-range wdl codes are reported,
        then the first record that ``_records`` of its code does not
        give back: a win at an even dtm, a loss at an odd one, a decisive
        dtm at a reserved code or above, or a draw or illegal entry whose
        dtm is not DTM_ABSENT.
        """
        with open(path, "rb") as handle:
            head = handle.read(8)
            if len(head) < 8 or head[:4] != MAGIC:
                raise TablebaseFormatError("bad magic: not a tablebase file")
            version, width, height, count = struct.unpack_from("<BBBB", head, 4)
            if version != FORMAT_VERSION:
                raise TablebaseFormatError(f"incompatible tablebase version {version}, expected {FORMAT_VERSION}")
            fields = handle.read(2 * count + 8)
            if len(fields) < 2 * count + 8:
                raise TablebaseFormatError("truncated header")
            pieces = []
            for kind, color in struct.iter_unpack("<BB", fields[:2 * count]):
                try:
                    pieces.append(Piece(PieceKind(kind), Color(color)))
                except ValueError as exc:
                    raise TablebaseFormatError(f"bad piece entry: {exc}") from None
            (entries,) = struct.unpack_from("<Q", fields, 2 * count)
            try:
                spec = BoardSpec(width, height)
                material = MaterialClass(spec, tuple(pieces))
            except ValidationError as exc:
                raise TablebaseFormatError(f"bad header fields: {exc}") from None
            if entries != material.index_size:
                raise TablebaseFormatError(f"entry count {entries} does not match index space {material.index_size}")
            body_len = entries * _RECORD.itemsize
            if os.fstat(handle.fileno()).st_size != len(head) + len(fields) + body_len + 4:
                raise TablebaseFormatError("truncated or oversized file body")
            code = np.empty(entries, dtype=np.uint16)
            buffer = np.empty(min(_CHUNK, entries), dtype=_RECORD)
            scratch, mask = np.empty((2, buffer.size), dtype=np.uint16), np.empty(buffer.size, dtype=bool)
            crc, top, bad = 0, 0, None
            for lo in range(0, entries, _CHUNK):
                chunk = buffer[:min(_CHUNK, entries - lo)]
                handle.readinto(chunk)  # a short read leaves the trailer short
                crc = zlib.crc32(chunk, crc)
                (wdl, echo), at, part = scratch[:, :chunk.size], mask[:chunk.size], code[lo:lo + chunk.size]
                np.copyto(wdl, chunk["wdl"])
                top = max(top, int(wdl.max()))
                # A decisive dtm is its code; DTM_ABSENT less its top bit is ``_ILLEGAL``, less 1 ``_DRAW``.
                np.bitwise_and(chunk["dtm"], 0x7FFF, out=part)
                np.subtract(part, np.equal(wdl, Wdl.DRAW.value, out=at), out=part)
                # ``_records`` gives it back: wdl + 2 * parity + (reserved) is 3, dtm is code | 0x8001 * (reserved).
                np.greater_equal(part, _DRAW, out=at)
                wdl += np.left_shift(np.bitwise_and(part, 1, out=echo), 1, out=echo)
                wdl += at
                np.bitwise_or(np.multiply(at, np.uint16(0x8001), out=echo), part, out=echo)
                np.not_equal(echo, chunk["dtm"], out=at)
                at |= wdl != 3  # a mask's temporary
                if bad is None and at.any():
                    bad = lo + int(at.argmax()), *chunk[at.argmax()].tolist()
            trailer = handle.read(4)
        if len(trailer) != 4:
            raise TablebaseFormatError("truncated or oversized file body")
        (stored_crc,) = struct.unpack("<I", trailer)
        if stored_crc != crc:
            raise TablebaseFormatError(f"checksum failure: stored {stored_crc:#010x}, computed {crc:#010x}")
        if top > Wdl.LOSS.value:
            raise TablebaseFormatError("body contains out-of-range wdl codes")
        if bad is not None:
            raise TablebaseFormatError("index {}: no table value has wdl code {} and dtm {}".format(*bad))
        table = cls(material, code)
        table._checksum = crc
        return table


def _loaded(table: Optional[Tablebase], key: tuple) -> Tablebase:
    """`table`, the table of class `key`; MaterialMismatchError names the class if it is None."""
    if table is None:
        width, height, codes = key
        pieces = [Piece(PieceKind(kind), Color(color)) for kind, color in codes]
        raise MaterialMismatchError(f"no table loaded for {_class_name(pieces)} on {width}x{height}")
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
# digit columns (one square per piece slot); occupancy and each mover
# slot's destinations are one uint64 bitboard per row. The
# build, un-moves and batches of policy rows run over blocks of at most
# this many indices, so their temporaries stay bounded (``_solve_bytes``
# allows 48 bytes per row and move; about 15-36 were measured). With
# only per-index arrays kept, these temporaries are a large part of a
# solve's peak: traced in process (tracemalloc), with the subclass
# tables solved beforehand, KRvK 8x8 peaks at 5.0 MiB and KQvK 8x8 at
# 6.4 MiB.
_BUILD_BLOCK = 4096


def _pad(lists, width: Optional[int] = None) -> np.ndarray:
    """Per-square square lists as an (S, width) int32 array padded with -1."""
    if width is None:
        width = max(1, max(len(items) for items in lists))
    out = np.full((len(lists), width), -1, dtype=np.int32)
    for sq, items in enumerate(lists):
        out[sq, : len(items)] = items
    return out


_ALL = ~np.uint64(0)
_ONE = np.uint64(1)


def _ray(between: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(S, S) bitboards: the squares `between` each square and its `targets`, all ones elsewhere.

    `targets` is a padded per-square table of the squares a piece
    attacks; a step's target has no square between, so its entry is 0.
    """
    out = np.full(between.shape, _ALL)
    src, col = np.nonzero(targets >= 0)
    out[src, targets[src, col]] = between[src, targets[src, col]]
    return out


def _bitboards(lists) -> np.ndarray:
    """Per-square square lists as one uint64 bitboard per square."""
    return np.array([sum(1 << sq for sq in items) for items in lists], dtype=np.uint64)


class _MoveTables:
    """Destination, target and attack tables of one board size.

    Every table is read off ``board.geometry()``, so the rules keep one
    definition. ``targets`` gives the squares a piece attacks, and
    ``moves``, the one pseudo-legal move rule, those it moves to, as
    one uint64 bitboard per row. Destination tables pad with -1, and
    ``bit[-1]`` is 0, so a padding destination never touches a bitboard
    or ``promotions``. One table, ``ray``, serves every kind of attacker
    and the un-moves' path test, as a ray is the same both ways.
    """

    def __init__(self, width: int, height: int):
        geo = geometry(width, height)
        n = self.size = width * height
        self.bit = np.zeros(n + 1, dtype=np.uint64)
        self.bit[:n] = np.left_shift(_ONE, np.arange(n, dtype=np.uint64))
        ortho = [sum(rays, ()) for rays in geo.ortho_rays]
        diag = [sum(rays, ()) for rays in geo.diag_rays]
        self.dest = {
            PieceKind.KING: _pad(geo.king_steps),
            PieceKind.KNIGHT: _pad(geo.knight_steps),
            PieceKind.ROOK: _pad(ortho),
            PieceKind.BISHOP: _pad(diag),
            PieceKind.QUEEN: _pad([o + d for o, d in zip(ortho, diag)]),
        }
        between = np.zeros((n, n), dtype=np.uint64)
        for pairs in (geo.between_ortho, geo.between_diag):
            for (src, target), squares in pairs.items():
                between[src, target] = sum(1 << sq for sq in squares)
        self.pawn_caps = tuple(_pad(geo.pawn_caps[c], 2) for c in (0, 1))
        # Per (kind, color) of attacker: the squares between its square
        # and each target it attacks, all ones elsewhere, so an attack
        # test is one gather. A pawn attacks its capture squares, and
        # every other piece its destinations, whatever its color.
        rays = {kind: _ray(between, dest) for kind, dest in self.dest.items()}
        self.ray = {(kind, c): table for kind, table in rays.items() for c in (0, 1)}
        # The squares a stepper attacks, one bitboard per square.
        self.step = {}
        for c in (0, 1):
            self.ray[PieceKind.PAWN, c] = _ray(between, self.pawn_caps[c])
            self.step[PieceKind.PAWN, c] = _bitboards(geo.pawn_caps[c])
            self.step[PieceKind.KING, c] = _bitboards(geo.king_steps)
            self.step[PieceKind.KNIGHT, c] = _bitboards(geo.knight_steps)
        # Per slider: each direction's ray from every square as a
        # bitboard (0 where it is empty), and for a direction toward lower
        # squares the shifts of its or-smear, 1, 2 and 4 steps.
        self.lines = {}
        for kind, rays in ((PieceKind.ROOK, geo.ortho_rays), (PieceKind.BISHOP, geo.diag_rays)):
            lines = {}
            for sq in range(n):
                for ray in rays[sq]:
                    lines.setdefault(ray[0] - sq, np.zeros(n, dtype=np.uint64))[sq] = sum(1 << t for t in ray)
            self.lines[kind] = [
                (table, None if step > 0 else tuple(np.uint64(-step << i) for i in range(3)))
                for step, table in lines.items()
            ]
        self.lines[PieceKind.QUEEN] = self.lines[PieceKind.ROOK] + self.lines[PieceKind.BISHOP]
        self.pawn_push = tuple(np.asarray(geo.pawn_push[c]) for c in (0, 1))
        self.pawn_double = tuple(np.asarray(geo.pawn_double[c]) for c in (0, 1))
        # Each color's promotion rank as a bitboard.
        self.promotions = tuple(np.uint64((1 << width) - 1 << rank * width) for rank in geo.pawn_promo_rank)
        # The square a pawn was pushed (or double-pushed) from, -1 where
        # none; an origin on a back rank holds no pawn.
        self.pawn_unpush = np.full((2, n), -1, dtype=np.int32)
        self.pawn_undouble = np.full((2, n), -1, dtype=np.int32)
        for c in (0, 1):
            for src in range(width, n - width):
                self.pawn_unpush[c, geo.pawn_push[c][src]] = src
                if geo.pawn_double[c][src] >= 0:
                    self.pawn_undouble[c, geo.pawn_double[c][src]] = src

    def between(self, kind: int, color: int, src, target):
        """The ``ray`` entry of a `color` piece of `kind` on `src` and `target`, one gather."""
        return self.ray[kind, color].take(src * self.size + target)

    def attacks(self, kind: int, color: int, src, target, occ):
        """Whether a `color` piece of `kind` on `src` attacks `target` given `occ`.

        `occ` must hold `target`, as every caller's holds the king it
        tests: a piece that does not attack `target` reads a ray of all
        ones, so the test is exact only when `occ` is not empty.
        """
        return (self.between(kind, color, src, target) & occ) == 0

    def targets(self, kind: int, color: int, src, occ) -> np.ndarray:
        """The squares a `color` piece of `kind` on `src` attacks given `occ`, one bitboard per row.

        A slider's ray in each direction stops at its first blocker,
        which it attacks, of either color. Toward higher squares that is
        the lowest set bit of ``b = ray & occ``, and ``b ^ (b - 1)`` holds
        the squares up to it (all of them if `b` is empty). Toward lower
        squares it is the highest, and or-smearing `b` along the
        direction's step reaches every square past it, as no ray is
        longer than 7 squares.
        """
        if kind not in self.lines:
            return self.step[kind, color][src]
        out = np.zeros(occ.size, dtype=np.uint64)
        for table, shifts in self.lines[kind]:
            ray = table[src]
            b = ray & occ
            if shifts is None:
                b ^= b - _ONE
                out |= ray & b
            else:
                for shift in shifts:
                    b |= b >> shift
                out |= ray & ~(b >> shifts[0])
        return out

    def moves(self, kind: int, color: int, src, occ, enemy) -> np.ndarray:
        """The pseudo-legal moves of `color` pieces of `kind` on `src`, one bitboard per row.

        A pawn pushes and double-pushes onto empty squares, the double
        push only past an empty one, and captures a piece in `enemy`.
        Any other piece moves to the squares it attacks less those in
        `occ` but not in `enemy`: its own side's and the enemy king's.
        """
        if kind != PieceKind.PAWN:
            return self.targets(kind, color, src, occ) & ~(occ & ~enemy)
        push = self.bit[self.pawn_push[color][src]] & ~occ
        double = self.bit[self.pawn_double[color][src]] & ~occ
        double[push == 0] = 0
        return push | double | (self.step[PieceKind.PAWN, color][src] & enemy)

    def columns(self, kind: int, color: int, src, promotion_kinds) -> tuple:
        """(dest, promotion kind) of each candidate move column of pieces of `kind` on `src`.

        A pawn's columns: push, double push, two captures, then push and
        two captures once per promotion kind.
        """
        if kind != PieceKind.PAWN:
            dest = self.dest[kind][src]
            return dest, np.zeros(dest.shape[1], dtype=np.int64)
        plain = [self.pawn_push[color][src], self.pawn_double[color][src], *self.pawn_caps[color][src].T]
        kinds = sorted(promotion_kinds)
        dest = np.column_stack(plain + [plain[0], *plain[2:]] * len(kinds))
        return dest, np.array([0] * 4 + [k.value for k in kinds for _ in range(3)])

    def occupancy(self, columns, rows: int) -> np.ndarray:
        """One bitboard per row with the squares of every column set."""
        occ = np.zeros(rows, dtype=np.uint64)
        for squares in columns:
            occ |= self.bit[squares]
        return occ


@functools.lru_cache(maxsize=None)
def _move_tables(width: int, height: int) -> _MoveTables:
    return _MoveTables(width, height)


# The index codec. Only these three functions know the digit layout:
# side * S**k + sum(square of slot i * S**i), with each duplicate-piece
# group in ascending square order. Each works on ints and on int32 or
# int64 arrays alike, and an array's arithmetic stays in its dtype: a
# class has at most 5 pieces on at most 8x8 squares, so every index is
# below 2 * 64**5 = 2**31 and fits in int32.


def _decode_columns(material: MaterialClass, idx) -> tuple:
    """(side to move, one square column per piece slot) of the indices `idx`."""
    n = material.spec.num_squares
    digits = []
    for _ in material.pieces:
        rest = idx // n
        digits.append(idx - rest * n)  # idx % n, without numpy's slower modulo
        idx = rest
    return idx, digits


def _encode_columns(material: MaterialClass, side, digits: list):
    """Index of the squares `digits` (one per piece slot) with `side` to move.

    The inverse of ``_decode_columns``. Each duplicate-piece group of
    `digits` is first sorted ascending in place; array digits may be of
    any shapes that broadcast together.
    """
    for lo, hi in material._dup_groups:
        group = digits[lo:hi]
        if isinstance(group[0], np.ndarray):
            digits[lo:hi] = np.sort(np.broadcast_arrays(*group), axis=0)
        else:
            digits[lo:hi] = sorted(group)
    terms = [side * material._half] + [digit * power for digit, power in zip(digits, material._powers)]
    # Adding the smaller terms first broadcasts to the widest shape once.
    return sum(sorted(terms, key=np.size))


def _canonical(material: MaterialClass, digits: list):
    """Whether `digits` hold distinct squares with each duplicate group ascending."""
    ok = True
    for a in range(len(digits)):
        for b in range(a + 1, len(digits)):
            ok = ok & (digits[a] != digits[b])
    for lo, hi in material._dup_groups:
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


def _successors(material, side, digits, occ):
    """The legal moves of rows with `side` to move, one mover slot at a time.

    `digits` holds one square column per piece slot and `occ` one
    occupancy bitboard per row; every row must be a legal position.
    Yields (slot, targets, exits) per mover slot: one bitboard per row
    of the squares the slot's piece may move to, where a pawn's move
    onto its promotion rank stands for one move per promotion kind.
    `exits` lists the legal moves that leave the class as (subclass,
    rows, destination, promotion kind, subclass index), one entry per
    (victim, promotion kind) that occurs.

    The slot's ``_MoveTables.moves`` are narrowed by king safety. The
    king ANDs out the squares each enemy attacks with the king off
    `occ`, so it cannot hide behind itself on a slider's line. Every
    other piece keeps those on each checker's line (the squares between
    it and the king, and its own) and on its pin line, read off ``ray``.
    """
    tables = _move_tables(material.spec.width, material.spec.height)
    them = 1 - side
    rows = occ.size
    king = digits[material._kings[side]]
    movers = material._slots[side]
    victims = [slot for slot, kind in material._slots[them] if kind != PieceKind.KING]
    enemy = tables.occupancy([digits[slot] for slot in victims], rows)
    evade = np.full(rows, _ALL)
    pins = {slot: np.full(rows, _ALL) for slot, kind in movers if kind != PieceKind.KING}
    for slot, kind in material._slots[them]:
        # In a legal position the enemy king neither checks nor pins.
        if kind == PieceKind.KING:
            continue
        between = tables.between(kind, them, digits[slot], king)
        inside = between & occ
        line = between | tables.bit[digits[slot]]
        evade &= np.where(inside == 0, line, _ALL)
        for mover, pin in pins.items():
            pin &= np.where(inside == tables.bit[digits[mover]], line, _ALL)
    for slot, kind in movers:
        src = digits[slot]
        targets = tables.moves(kind, side, src, occ, enemy)
        if kind == PieceKind.KING:
            clear = occ & ~tables.bit[src]
            for enemy_slot, enemy_kind in material._slots[them]:
                targets &= ~tables.targets(enemy_kind, them, digits[enemy_slot], clear)
        else:
            targets &= evade & pins[slot]

        # Captures and promotions leave the class: index them in their
        # subclass, one (victim, promotion kind) at a time.
        exits = []
        for victim in ([None] if kind == PieceKind.PAWN else []) + victims:
            dest = tables.pawn_push[side][src] if victim is None else digits[victim]
            hit = (targets & tables.bit[dest]) != 0
            groups = [(0, hit)]
            if kind == PieceKind.PAWN:
                promoting = (tables.bit[dest] & tables.promotions[side]) != 0
                groups = [(k.value, hit & promoting) for k in material.spec.promotion_kinds]
                if victim is not None:
                    groups.append((0, hit & ~promoting))
            for promo_kind, hit in groups:
                at = np.flatnonzero(hit)
                if at.size == 0:
                    continue
                sub, order = _sub_layout(material, victim, slot, promo_kind)
                columns = [d[at] for d in digits]
                columns[slot] = dest[at]
                sub_idx = _encode_columns(sub, them, [columns[s] for s in order])
                exits.append((sub, at, columns[slot], promo_kind, sub_idx))
        yield slot, targets, exits


def _legal_rows(material, side, idx):
    """(mask of the legal positions among indices `idx`, their digit columns, occupancy).

    `idx` all have `side` to move. A legal index is ``_canonical``, has
    no pawn on a back rank and leaves the side not to move out of check.
    """
    spec = material.spec
    tables = _move_tables(spec.width, spec.height)
    _, digits = _decode_columns(material, idx)
    ok = _canonical(material, digits)
    for slot, piece in enumerate(material.pieces):
        if piece.kind is PieceKind.PAWN:
            rank = digits[slot] // spec.width
            ok &= (rank != 0) & (rank != spec.height - 1)
    occ = tables.occupancy(digits, idx.size)
    ok &= ~_in_check(material, 1 - side, digits, occ)
    return ok, digits, occ


def _in_check(material, side, digits, occ):
    """Whether the king of `side` is attacked, per row of digit columns and occupancy.

    Every attacker is read off the ``ray`` table (``_MoveTables.attacks``).
    """
    tables = _move_tables(material.spec.width, material.spec.height)
    king = digits[material._kings[side]]
    check = np.zeros(occ.size, dtype=bool)
    for slot, kind in material._slots[1 - side]:
        check |= tables.attacks(kind, 1 - side, digits[slot], king, occ)
    return check


def _build_side(material, registry, side, lo, hi, max_moves):
    """Classify the indices in [lo, hi), which all have `side` to move.

    Returns (invalid count, terminal losses, terminal draws, open
    indices, their counts of moves not won by an exit, their
    ``exit_at``, horizon). An exit is a move that leaves the class (a
    capture or promotion); its value is read from the subtables in
    `registry` (class key -> table). ``exit_at`` is the dtm an open
    index's exits alone give it: 1 + the least dtm of a lost exit (odd,
    a win), else 1 + the greatest dtm of a won exit (even, a loss no
    sooner), else 0. The horizon is 1 + the greatest dtm of any
    decisive exit (0 if none).
    In-class moves are only counted: the solve finds them again by
    un-moves. Mate and stalemate are found from the count of every
    move, and more than `max_moves` of them raises RuntimeError.
    """
    idx = np.arange(lo, hi, dtype=np.int64)
    ok, digits, occ = _legal_rows(material, side, idx)
    invalid = int(idx.size - np.count_nonzero(ok))
    idx, occ = idx[ok], occ[ok]
    digits = [d[ok] for d in digits]

    promotions = _move_tables(material.spec.width, material.spec.height).promotions[side]
    extra = len(material.spec.promotion_kinds) - 1
    counts = np.zeros(idx.size, dtype=np.int64)
    won = np.zeros(idx.size, dtype=np.int64)
    exit_win = np.full(idx.size, _DRAW, dtype=np.int64)
    exit_floor = np.zeros(idx.size, dtype=np.int64)
    horizon = 0
    for slot, targets, exits in _successors(material, side, digits, occ):
        counts += np.bitwise_count(targets)
        if material.pieces[slot].kind is PieceKind.PAWN:
            counts += extra * np.bitwise_count(targets & promotions)
        # Out-of-class successors are fixed values: one gather per exit.
        for sub, rows, _, _, sub_idx in exits:
            code = registry[sub.key].code[sub_idx]
            wdl = _wdl(code)
            if (wdl == 0).any():
                raise ValidationError(f"a successor decodes to an illegal entry of {sub.name}")
            after = code.astype(np.int64) + 1
            lost, hit = wdl == Wdl.LOSS.value, wdl == Wdl.WIN.value
            np.minimum.at(exit_win, rows[lost], after[lost])
            np.maximum.at(exit_floor, rows[hit], after[hit])
            won += np.bincount(rows[hit], minlength=idx.size)
            horizon = max(horizon, int(after[lost | hit].max(initial=0)))

    if counts.size and counts.max() > max_moves:
        raise RuntimeError(
            f"{material.name}: a position has {counts.max()} moves, bound is {max_moves}"
        )
    stuck = counts == 0
    mated = _in_check(material, side, [d[stuck] for d in digits], occ[stuck])
    live = ~stuck
    exit_at = np.where(exit_win < _DRAW, exit_win, exit_floor)
    return (
        invalid, idx[stuck][mated], idx[stuck][~mated], idx[live], (counts - won)[live],
        exit_at[live], horizon,
    )


def _unmoves(material, side, idx):
    """The in-class predecessor candidates of the legal indices `idx`, all with `side` to move.

    Returns the candidates of every row in one intp array, the dtype a
    gather reads, in no set order: the indices that reach a row by a
    quiet move of the side that just moved, as far as the row's own
    squares tell. That piece steps back along its destination table (a
    slider over squares its ``ray`` finds empty), or a pawn is un-pushed,
    singly or doubly (over an empty square), to a square off the back ranks.
    Legality is not tested here: a candidate whose origin square is
    taken is not ``_canonical``, and one that leaves the side not to
    move in check fails ``_legal_rows``, so the solve, which keeps only
    the candidates still open, never keeps either. A move never
    captures or promotes inside a class, so there is no un-capture or
    un-promotion, and no two moves of one position reach the same
    position, so each edge appears once. The decode and encode run in
    the dtype of `idx`; the solve's passes give int32, which is faster
    than int64 there.
    """
    tables = _move_tables(material.spec.width, material.spec.height)
    _, digits = _decode_columns(material, idx)
    occ = tables.occupancy(digits, idx.size)
    them = 1 - side
    stay = [d[:, None] for d in digits]
    out = []
    for slot, kind in material._slots[them]:
        dest = digits[slot]
        if kind == PieceKind.PAWN:
            back = np.column_stack([tables.pawn_unpush[them][dest], tables.pawn_undouble[them][dest]])
        else:
            back = tables.dest[kind][dest]
        ok = back >= 0
        if kind == PieceKind.PAWN:
            # A double push passes over the square a single push starts from.
            ok[:, 1] &= (occ & tables.bit[back[:, 0]]) == 0
        elif kind in tables.lines:
            path = tables.between(kind, them, dest[:, None], back)
            path &= occ[:, None]
            ok &= path == 0
        moved = list(stay)
        moved[slot] = back
        out.append(_encode_columns(material, them, moved)[ok])
    return np.concatenate(out, dtype=np.intp)


def _successor_values(material, side, idx, policy):
    """Every legal move of the indices `idx`, all with `side` to move, and the value it reaches.

    The indices must be legal positions of `material`. Yields per mover
    slot its dense (rows, candidates) arrays: the legal mask, the move
    key ``(from * S + to) * 8 + promotion kind``, the successor's class
    slot (``policy.slots``) and index, and its code. Only the classes
    that the moves reach are asked of ``policy.table``, which raises
    MaterialMismatchError for one with no table.
    """
    ok, digits, occ = _legal_rows(material, side, idx)
    _refuse(material, idx, ok, ValidationError, "a valued entry is not a legal position")
    tables = _move_tables(material.spec.width, material.spec.height)
    own = policy.table(material.key)
    for slot, targets, exits in _successors(material, side, digits, occ):
        # A column is legal where its destination is a target; a pawn's
        # column promotes exactly where it lands on the promotion rank.
        kind = material.pieces[slot].kind
        dest, col_kind = tables.columns(kind, side, digits[slot], material.spec.promotion_kinds)
        legal = (targets[:, None] & tables.bit[dest]) != 0
        if kind is PieceKind.PAWN:
            legal &= (col_kind != 0) == ((tables.bit[dest] & tables.promotions[side]) != 0)
        key = (digits[slot][:, None] * material.spec.num_squares + dest) * 8 + col_kind
        # In-class successors: the moved slot takes its destination.
        moved = [dest if s == slot else d[:, None] for s, d in enumerate(digits)]
        succ = _encode_columns(material, 1 - side, moved)
        to_slot = np.full(succ.shape, policy.slots[material.key], dtype=np.uint8)
        # Values of illegal candidates are read from index 0 and never used.
        in_class = np.where(legal, succ, 0)
        code = own.code[in_class]
        for sub, rows, to, promo_kind, sub_idx in exits:
            cols = np.argmax((dest[rows] == to[:, None]) & (col_kind == promo_kind), axis=1)
            to_slot[rows, cols] = policy.slots[sub.key]
            succ[rows, cols] = sub_idx
            code[rows, cols] = policy.table(sub.key).code[sub_idx]
        yield legal, key, to_slot, succ, code


class Policy:
    """The policy's move at every decisive, non-terminal index of a closure's tables.

    Slot s is class s of ``_closure`` (``slots`` maps class keys to
    slots) and ``tables[s]`` its table, None where none is loaded; the
    last is the class's own, and ``table`` gives one by class key. Making
    a policy checks every decisive dtm-0 entry of each loaded table
    (``_check_mates``), so a line ends in checkmate. ``choice`` gives a
    row's move and the (slot, index) it reaches. Its one unit of state
    is a ``_block_of`` block: ``blocks`` maps (slot, block start) to the
    block's move keys (``(from * S + to) * 8 + promotion kind``),
    successor slots and successor indices, one row per index of the
    block. A row's first ask fills its block (``_fill_block``), so a
    line holds only the blocks its plies touch; ``walk`` fills none.
    Every row is checked when it is chosen, and a block whose check
    fails is not kept.
    """

    def __init__(self, tables: tuple):
        for table in tables:
            if table is not None:
                _check_mates(table)
        self.tables = tables
        self.material = tables[-1].material
        self.slots = {mc.key: slot for slot, mc in enumerate(_closure(self.material))}
        self.blocks = {}

    def _fill_block(self, slot: int, side: int, lo: int, hi: int) -> tuple:
        """The ``blocks`` entry of [lo, hi) in `slot`: ``_choose`` picks its decisive, non-terminal rows."""
        table = self.tables[slot]
        if not self.blocks:
            _reserve_heap(_closure(self.material))
        block = tuple(np.zeros(hi - lo, dtype=dtype) for dtype in (np.uint16, np.uint8, np.uint32))
        code = table.code[lo:hi]
        rows = np.flatnonzero((code < _DRAW) & (code > 0))
        if rows.size:
            for array, chosen in zip(block, _choose(table, side, rows + lo, self)):
                array[rows] = chosen
        return block

    def choice(self, slot: int, idx: int) -> tuple:
        """(move, successor slot, successor index) of the decisive, non-terminal index `idx`.

        The first ask of a block fills it.
        """
        material = self.tables[slot].material
        lo = idx - idx % material._half % _BUILD_BLOCK  # its ``_block_of`` start; a hit makes no call
        block = self.blocks.get((slot, lo))
        if block is None:
            block = self.blocks[slot, lo] = self._fill_block(slot, *_block_of(material, idx))
        moves, succ_slots, succ_indices = block
        key = moves.item(idx - lo)
        src, dest = divmod(key >> 3, self.material.spec.num_squares)
        promotion = PieceKind(key & 7) if key & 7 else None
        return Move(src, dest, promotion), succ_slots.item(idx - lo), succ_indices.item(idx - lo)

    def table(self, key: tuple) -> Tablebase:
        """The table of class `key` of the closure; MaterialMismatchError names one not loaded."""
        return _loaded(self.tables[self.slots[key]], key)

    def walk(self, slot, idx, *, progress: Optional[Callable[[str], None]] = None) -> tuple:
        """The lines from the decisive (slot, index) starts, all walked together a ply at a time.

        At each ply the lines still moving are grouped by class slot,
        and each group's distinct rows are chosen by ``_choose``, one
        ``_side_blocks`` block at a time, with every check it makes. The
        policy's blocks are neither read nor filled. Returns the (plies + 1,
        lines) slot and index of every ply and the (plies, lines) move
        keys, plies being the greatest start dtm: a line of dtm d moves
        at plies 0..d-1, then repeats its last row under move key 0.
        Reports the rows chosen and the seconds through `progress`.
        """
        start = time.perf_counter()
        slot = np.array(slot, dtype=np.uint8)
        idx = np.array(idx, dtype=np.int64)
        dtm = np.zeros(idx.size, dtype=np.int64)
        for s in np.flatnonzero(np.bincount(slot)).tolist():
            lines = np.flatnonzero(slot == s)
            table = self.tables[s]
            code = table.code[idx[lines]]
            _refuse(table.material, idx[lines], code < _DRAW,
                    ValidationError, "a line starts on an entry that is not decisive")
            dtm[lines] = code
        plies = int(dtm.max(initial=0))
        slots = np.empty((plies + 1, idx.size), dtype=np.uint8)
        indices = np.empty((plies + 1, idx.size), dtype=np.int64)
        keys = np.zeros((plies, idx.size), dtype=np.int64)
        slots[0], indices[0] = slot, idx
        rows = 0
        for n in range(plies):
            moving = np.flatnonzero(dtm > n)
            # Every group is taken before any of its lines moves to another slot.
            present = np.flatnonzero(np.bincount(slot[moving])).tolist()
            groups = [(s, moving[slot[moving] == s]) for s in present]
            for s, lines in groups:
                table = self.tables[s]
                ordered = np.sort(idx[lines])
                unique = ordered[np.diff(ordered, prepend=-1) != 0]
                inverse = np.searchsorted(unique, idx[lines])
                rows += unique.size
                chosen = [
                    _choose(table, side, block, self)
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


def _choose(table, side, idx, policy) -> tuple:
    """(move key, successor slot, successor index) of decisive, non-terminal indices of `table`.

    The indices `idx` all have `side` to move; `policy` reads their
    successors one mover slot at a time. A win takes the successor lost
    at the least dtm, a loss the one won at the greatest, ties going to
    the least move key (``legal_transitions`` order), which no two slots
    share. A successor that is an illegal entry raises ValidationError,
    and a choice that breaks the dtm recurrence (a loss successor of a
    win, each successor of a loss a win, the chosen one at dtm - 1)
    raises TableValueError.
    """
    material = table.material
    own = table.code[idx]
    wins = (_wdl(own) == Wdl.WIN.value)[:, None]
    illegal = unwon = np.zeros(idx.size, dtype=bool)
    rows, picks = np.arange(idx.size), ()
    for legal, key, to_slot, to_idx, code in _successor_values(material, side, idx, policy):
        wdl = _wdl(code)
        illegal = illegal | (legal & (wdl == 0)).any(axis=1)
        unwon = unwon | (legal & ~wins & (wdl != Wdl.WIN.value)).any(axis=1)
        score = np.where(wins, code, ~code).astype(np.int64) << 16 | key  # a loss takes the greatest dtm
        score[~legal | (wins & (wdl != Wdl.LOSS.value))] = _NO_MOVE
        col = score.argmin(axis=1)
        found = tuple(a[rows, col] for a in (score, key, to_slot, to_idx, code))
        better = found[0] < (picks[0] if picks else _NO_MOVE)
        picks = tuple(np.where(better, *pair) for pair in zip(found, picks or found))
    score, key, to_slot, to_idx, code = picks
    _refuse(material, idx, ~illegal, ValidationError, "a successor decodes to an illegal table entry")
    _refuse(material, idx, ~unwon, TableValueError, "a loss position has a successor that does not win")
    _refuse(material, idx, score != _NO_MOVE, TableValueError, "a decisive position has no move to choose")
    _refuse(material, idx, code == own - 1, TableValueError, "the chosen successor's dtm is not dtm - 1")
    return key, to_slot, to_idx


def _check_mates(table) -> None:
    """Raise TableValueError naming the first decisive dtm-0 entry of `table` that is not checkmate.

    A line ends on such an entry, code 0, without asking the rules. It
    must be a legal position (ValidationError otherwise) whose side to
    move is in check and has no move. The entries are found one
    ``_build_blocks`` block at a time, then checked in ``_side_blocks``
    batches, since one move generation per block would cost more.
    """
    material = table.material
    ends = []
    for _, lo, hi in _build_blocks(material, 0, material.index_size):
        ends.append(np.flatnonzero(table.code[lo:hi] == 0) + lo)
    for side, idx in _side_blocks(material, np.concatenate(ends)):
        ok, digits, occ = _legal_rows(material, side, idx)
        _refuse(material, idx, ok, ValidationError, "a valued entry is not a legal position")
        mated = _in_check(material, side, digits, occ)
        for _, targets, _ in _successors(material, side, digits, occ):
            mated &= targets == 0
        _refuse(material, idx, mated, TableValueError, "a (LOSS, 0) entry is not checkmate")


def _side_blocks(material: MaterialClass, idx: np.ndarray):
    """(side, block) of the sorted indices `idx`, in order.

    The indices are cut at the side bit, and each side's into blocks
    of at most ``_BUILD_BLOCK``, so a block's temporaries stay bounded.
    """
    cut = int(np.searchsorted(idx, material._half))
    for side, part in enumerate((idx[:cut], idx[cut:])):
        for start in range(0, part.size, _BUILD_BLOCK):
            yield side, part[start:start + _BUILD_BLOCK]


def _block_of(material: MaterialClass, idx: int) -> tuple:
    """(side, start, stop) of the block that holds index `idx`.

    The blocks tile each side's half of the index from its start, every
    ``_BUILD_BLOCK`` indices, so each has one side to move.
    """
    half = material._half
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


# The bytes a solve holds per index: its code (2). An open row's count
# of moves not yet won takes 7 bits of it (at most 91 moves on boards
# up to 8x8, ``_max_move_bound``) and its ``exit_at`` 8.
_INDEX_BYTES = 2

# The passes and the final relabel scan the column this many indices
# at a time. A chunk's temporaries are one reused boolean mask, then
# its static labels' masked codes (uint16) or its frontier as
# ``np.flatnonzero`` gives it (int64): within ``_CHUNK_BYTES`` per
# index. The frontier is cast to int32 one ``_side_blocks`` block at a
# time, within ``_block_bytes``.
_CHUNK = 1 << 18
_CHUNK_BYTES = 10


def _resolve_budget() -> int:
    """The memory budget in bytes, from STRATEGIA_MEM_BUDGET_MB (MiB, default 2048)."""
    raw = os.environ.get(BUDGET_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_BUDGET_MB << 20
    try:
        mib = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # more digits than int() converts
        mib = 0
    if mib > 0:
        return mib << 20
    raise ValidationError(f"{BUDGET_ENV_VAR} must be a positive number of MiB, got {raw!r}")


def _solve_bytes(material: MaterialClass) -> int:
    """Upper bound on the bytes that solving `material` and its closure holds at once.

    Per index, a solve holds ``_INDEX_BYTES``, and `material` has the
    most indices of its closure. A pass holds one chunk's temporaries,
    ``_CHUNK_BYTES`` per index of a ``_CHUNK``, and a build, un-move or
    policy block of any class of the closure at most ``_block_bytes``.
    Every subclass table stays loaded, at ``_INDEX_BYTES`` per index too.
    Saving the table adds only one block of records (``Tablebase.save``).
    """
    closure = _closure(material)
    indices = sum(mc.index_size for mc in closure)
    return (
        _INDEX_BYTES * indices + _CHUNK_BYTES * min(_CHUNK, material.index_size)
        + max(map(_block_bytes, closure))
    )


def _block_bytes(material: MaterialClass) -> int:
    """Upper bound on the temporaries of one block of `material`'s moves.

    A build, un-move or policy block holds at most ``_BUILD_BLOCK`` rows
    (half the index if that is less), at 48 bytes per row and
    ``_max_move_bound`` move.
    """
    return min(_BUILD_BLOCK, material.index_size // 2) * 48 * _max_move_bound(material)


def _reserve_heap(materials) -> None:
    """Free half of the largest ``_block_bytes`` of `materials` as mapped, untouched memory.

    glibc gives the free top of its heap back to the kernel once more
    than a threshold is free there, twice the largest mapped block it has
    freed. Solver passes and policy fills free no temporary as long as an
    index, so their block temporaries would be paged in afresh for every
    block (a million page faults on KQvKR 7x7).
    """
    np.empty(max(map(_block_bytes, materials)) // 2, dtype=np.uint8)


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
    against it before any is solved, the last class of `closure` first;
    a class whose ``_max_move_bound`` does not fit an open row's 7-bit
    count raises RuntimeError at the same check, and one whose exits
    reach a dtm that its 8-bit ``exit_at`` would not hold, before it is
    solved. A solved table's ``subtables`` are the tables solved before.
    """
    missing = [material for material in closure if material.key not in tables]
    budget = _resolve_budget()
    for material in reversed(missing):
        max_moves = _max_move_bound(material)
        if max_moves > 0x7F:
            raise RuntimeError(
                f"{material.name}: a position may have {max_moves} moves, "
                "more than the 127 an open row's count holds"
            )
        estimate = _solve_bytes(material)
        if estimate > budget:
            raise BudgetExceededError(
                f"solving {material.name} needs about {-(-estimate >> 20)} MiB, "
                f"budget is {budget >> 20} MiB"
            )
    for material in missing:
        top = max((tables[sub.key].counts()["max_dtm"] for sub in _successor_classes(material)), default=0)
        if top >= 0xFF:
            raise RuntimeError(f"{material.name}: a capture or promotion reaches dtm {top}, more than exit_at holds")
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

    # An illegal position's code stays ``_ILLEGAL``, and a live one's
    # holds its count and the ``exit_at`` that ``_build_side`` folds.
    code = np.full(n, _ILLEGAL, dtype=np.uint16)
    invalid = n_mated = n_stalemated = n_open = 0
    # A static value of dtm t labels at pass t + 1, even across
    # otherwise quiet passes, so termination waits for the horizon of
    # every decisive exit, not only of those ``exit_at`` keeps.
    static_trigger = 0
    for block in _build_blocks(material, 0, n):
        bad, mated, stalemated, live, moves, exit_at, horizon = _build_side(
            material, registry, *block, max_moves
        )
        invalid += bad
        n_mated += mated.size
        n_stalemated += stalemated.size
        n_open += live.size
        code[mated] = 0
        code[stalemated] = _DRAW
        code[live] = _OPEN | moves << 8 | exit_at
        static_trigger = max(static_trigger, horizon)
    build_s = time.perf_counter() - start

    # Pass d reads only the positions labeled at d - 1. A loss has an
    # even dtm and a win an odd one, so those are all losses when d is
    # odd and all wins when d is even. The open predecessors of a loss
    # win; each predecessor of a win counts down its moves not yet won
    # in its code, and one that reaches 0 (a code of ``_OPEN`` |
    # exit_at) is lost at max(d, exit_at): it cannot win in the
    # meantime, having no successor that is not won. Predecessors are
    # the un-move candidates (``_unmoves``, of int32 frontier blocks)
    # still open (no reserved code is), one per edge. Up to the horizon,
    # pass d also labels the open rows whose exit_at is d: all of them
    # when d is odd, those with nothing left to count down when d is
    # even; the count is masked off only when d is odd.
    #
    # Pass d scans the column once, ``_CHUNK`` indices at a time. In
    # each chunk it first makes those static labels, then takes the
    # frontier, the rows whose code is d - 1, and un-moves it. Both
    # orders give the labels of pass d: a static label and an un-move
    # label of one row agree, and a row whose count reaches 0 later in
    # the pass is lost at d all the same. The frontier's size is the
    # count of pass d - 1, so whether to stop after pass d - 1 is known
    # only once pass d has run; that pass then labels nothing, as no
    # row is open or its frontier is empty past the horizon.
    mask = np.empty(min(_CHUNK, n), dtype=bool)

    def frontier(depth):
        """(side, block) of each chunk's rows labeled at pass depth - 1, after the chunk's static labels of pass `depth`."""
        for lo in range(0, n, _CHUNK):
            chunk = code[lo:lo + _CHUNK]
            at = mask[:chunk.size]
            if depth <= static_trigger:
                np.equal(chunk & (0x80FF if depth % 2 else 0xFFFF), _OPEN | depth, out=at)
                np.copyto(chunk, depth, where=at)
            rows = np.flatnonzero(np.equal(chunk, depth - 1, out=at))
            rows += lo
            for side, block in _side_blocks(material, rows):
                yield side, block.astype(np.int32)

    _reserve_heap([material])
    one = np.uint16(0x100)  # one move of a count; np.subtract.at is 25x slower with a Python int
    passes = []
    depth = shown = 0
    while n_open:
        depth += 1
        if depth >= _DRAW:
            raise RuntimeError(f"{material.name}: a dtm of {depth} does not fit below the reserved codes")  # pragma: no cover
        winning = depth % 2 == 1
        labeled = 0
        for side, block in frontier(depth):
            labeled += block.size
            pred = _unmoves(material, side, block)
            pred = pred[code[pred] >= _OPEN]
            if not winning:
                np.subtract.at(code, pred, one)
                # Nothing left to count down, and an exit_at of at most d.
                pred = pred[code[pred] <= _OPEN | min(depth, 0xFF)]
            code[pred] = depth
        if depth == 1:
            continue  # the frontier of pass 1 is the mates
        # ``labeled`` counts pass depth - 1, a pass of wins when depth is even.
        passes.append((0, labeled) if winning else (labeled, 0))
        if labeled:
            n_open -= labeled
            if progress and (depth - 1) % 8 == 0:
                # The passes since the last line: one pass alone labels only wins or only losses.
                n_win, n_loss = map(sum, zip(*passes[shown:]))
                progress(f"  passes {shown + 1}-{depth - 1}: {n_win} wins, {n_loss} losses, {n_open} open")
                shown = depth - 1
        elif depth - 1 >= static_trigger:
            break

    # Every open code left is a draw; the column is then the table.
    for lo in range(0, n, _CHUNK):
        chunk = code[lo:lo + _CHUNK]
        np.copyto(chunk, _DRAW, where=np.greater_equal(chunk, _OPEN, out=mask[:chunk.size]))
    legal = n - invalid
    # Every decisive row but a mate has the dtm of the pass that labeled it.
    max_dtm = max((d for d, counts in enumerate(passes, 1) if any(counts)), default=0)
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
            f"  {material.name}: {legal} legal, max dtm {max_dtm}, {len(passes)} passes, "
            f"build {build_s:.2f} s, fixpoint {fixpoint_s:.2f} s"
        )
    return Tablebase(material, code, stats=stats)
