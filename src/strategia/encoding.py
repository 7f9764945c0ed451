"""Integer board encoding: one signed code per square, optional side component.

Each square holds an integer code: 0 for empty, positive for White,
negative for Black. The code distinguishes state that the bare piece
letter does not: 1 is a pawn currently capturable en passant, 2 any
other pawn; 3/4/5/6 are knight/bishop/rook/queen; 7 is a king whose
side still has castle rights, 8 a king without. In augmented mode a
trailing +1/-1 component records the side to move, which makes the
vector a complete game state on its own; strict mode omits it and
needs the side supplied out of band.

``encode`` builds one vector from a ``Position``. ``code_rows`` builds
the same components as int8 rows for many positions at once, from one
square column per piece, and ``mark_double_pushes`` adds the en passant
marks that the moves into them set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .board import (
    _CASTLE,
    BoardSpec,
    CastleRights,
    Color,
    PieceKind,
    Position,
    validate_position,
)
from .errors import ValidationError


class Mode(str, Enum):
    STRICT = "strict"
    AUGMENTED = "augmented"


EP_PAWN = 1
PAWN = 2
KNIGHT = 3
BISHOP = 4
ROOK = 5
QUEEN = 6
CASTLE_KING = 7
KING = 8

_KIND_CODES = {
    PieceKind.PAWN: PAWN,
    PieceKind.KNIGHT: KNIGHT,
    PieceKind.BISHOP: BISHOP,
    PieceKind.ROOK: ROOK,
    PieceKind.QUEEN: QUEEN,
    PieceKind.KING: KING,
}
# The code of each placement cell, before the en passant and castle marks.
_CELL_CODES = {0: 0, **{k.value * s: c * s for k, c in _KIND_CODES.items() for s in (1, -1)}}
# Its inverse, the placement cell of each code; the marked pawn and
# king codes decode to a plain pawn and king.
_CODE_CELLS = {
    **{code: cell for cell, code in _CELL_CODES.items()},
    **{mark * s: kind.value * s
       for mark, kind in ((EP_PAWN, PieceKind.PAWN), (CASTLE_KING, PieceKind.KING))
       for s in (1, -1)},
}


@dataclass(frozen=True)
class ConfigVector:
    """An encoded position: board components plus, in augmented mode, a side component."""

    mode: Mode
    components: tuple

    @property
    def board_components(self) -> tuple:
        return self.components[:-1] if self.mode is Mode.AUGMENTED else self.components

    @property
    def side_component(self) -> Optional[int]:
        return self.components[-1] if self.mode is Mode.AUGMENTED else None

    def dump(self) -> str:
        """Canonical text form: comma-separated integers, side component last."""
        return ",".join(str(c) for c in self.components)


@dataclass(frozen=True)
class SparseDelta:
    """Nonzero component differences between two vectors of equal shape.

    `entries` holds (square index, integer difference) pairs in square
    order; `side_delta` is the side-component difference in augmented
    mode (None when the sides agree or in strict mode).
    """

    entries: tuple
    side_delta: Optional[int] = None


def encode(pos: Position, mode: Mode = Mode.AUGMENTED) -> ConfigVector:
    """Encode a position as an integer vector in square-index order."""
    components = [_CELL_CODES[cell] for cell in pos.placement]
    if pos.ep_square is not None:
        # The pawn that just double-stepped stands one rank past ep_square.
        sign = pos.side_to_move.other().sign
        sq = pos.ep_square + sign * pos.spec.width
        if 0 <= sq < len(components) and components[sq] == PAWN * sign:
            components[sq] = EP_PAWN * sign
    for color in (Color.WHITE, Color.BLACK):
        if pos.castle_rights.for_color(color):
            king = KING * color.sign
            components = [CASTLE_KING * color.sign if c == king else c for c in components]
    if mode is Mode.AUGMENTED:
        components.append(1 if pos.side_to_move is Color.WHITE else -1)
    return ConfigVector(mode, tuple(components))


def code_rows(cells, squares, side, num_squares: int, mode: Mode) -> np.ndarray:
    """int8 rows of ``encode`` components for positions given as piece squares.

    `cells` holds the placement cell of each piece, `squares` one
    square column per piece and `side` the side to move of each row.
    The positions carry no castle rights, and no pawn is marked
    capturable en passant (``mark_double_pushes`` marks them).
    """
    rows = np.zeros((len(side), num_squares + (mode is Mode.AUGMENTED)), dtype=np.int8)
    at = np.arange(len(side))
    for cell, column in zip(cells, squares):
        rows[at, column] = _CELL_CODES[cell]
    if mode is Mode.AUGMENTED:
        rows[:, -1] = np.where(side == Color.WHITE, 1, -1)
    return rows


def mark_double_pushes(rows: np.ndarray, src, dest, width: int) -> None:
    """Give EP_PAWN, in place, to the pawn of each row that has just moved two ranks, `src` to `dest`.

    Row i encodes the position after the move from ``src[i]`` to
    ``dest[i]``. Call it only on boards that allow en passant: only
    there does ``board.play`` set the ep_square that ``encode`` marks.
    """
    at = np.flatnonzero(np.abs(dest - src) == 2 * width)
    to = dest[at]
    code = rows[at, to]
    pawn = np.abs(code) == PAWN
    rows[at[pawn], to[pawn]] = np.sign(code[pawn]) * EP_PAWN


def _expected_length(spec: BoardSpec, mode: Mode) -> int:
    return spec.num_squares + (1 if mode is Mode.AUGMENTED else 0)


def decode(vec: ConfigVector, spec: BoardSpec, side: Optional[Color] = None) -> Position:
    """Reconstruct the position an encoded vector describes.

    Strict vectors do not carry the side to move, so `side` is required
    for them and forbidden for augmented vectors. En passant state is
    rebuilt from the code-1 pawn; castle rights are restored for a
    code-7 king only when both friendly rooks stand on their home
    corners, the one configuration the codes describe unambiguously.
    """
    if len(vec.components) != _expected_length(spec, vec.mode):
        raise ValidationError(
            f"vector length {len(vec.components)} does not match "
            f"{spec.width}x{spec.height} board in {vec.mode.value} mode"
        )
    if vec.mode is Mode.STRICT:
        if side is None:
            raise ValidationError("strict mode requires an explicit side to move")
    else:
        if side is not None:
            raise ValidationError("augmented mode forbids an explicit side argument")
        trailing = vec.components[-1]
        if trailing not in (1, -1):
            raise ValidationError(f"augmented side component must be +1/-1, got {trailing}")
        side = Color.WHITE if trailing == 1 else Color.BLACK

    board = []
    ep_pawns = []  # (square, color)
    castle_kings = []  # color
    for sq, code in enumerate(vec.board_components):
        cell = _CODE_CELLS.get(code)
        if cell is None:
            raise ValidationError(f"component {code} at square {sq} outside the code set")
        board.append(cell)
        if code in (EP_PAWN, -EP_PAWN):
            ep_pawns.append((sq, Color.WHITE if code > 0 else Color.BLACK))
        elif code in (CASTLE_KING, -CASTLE_KING):
            castle_kings.append(Color.WHITE if code > 0 else Color.BLACK)
    for color in (Color.WHITE, Color.BLACK):
        kings = board.count(PieceKind.KING.value * color.sign)
        if kings != 1:
            raise ValidationError(
                f"vector has {kings} {color.name.title()} kings, expected exactly one"
            )

    ep_square = None
    if ep_pawns:
        if len(ep_pawns) > 1:
            raise ValidationError("more than one en-passant-capturable pawn")
        sq, color = ep_pawns[0]
        if color is side:
            raise ValidationError("en-passant-capturable pawn belongs to the side to move")
        ep_square = sq - color.sign * spec.width

    rights = CastleRights()
    if castle_kings:
        rights = _restore_rights(board, spec, castle_kings)

    pos = Position(
        spec=spec,
        placement=tuple(board),
        side_to_move=side,
        ep_square=ep_square,
        castle_rights=rights,
        ply_index=side.value,
    )
    validate_position(pos)
    return pos


def _restore_rights(board, spec: BoardSpec, castle_kings) -> CastleRights:
    if not spec.castling_enabled:
        raise ValidationError("castle-entitled king code on a board without castling")
    flags = {Color.WHITE: (False, False), Color.BLACK: (False, False)}
    for color in castle_kings:
        corners = (_CASTLE[color]["q_rook"], _CASTLE[color]["k_rook"])
        rook_cell = PieceKind.ROOK.value * color.sign
        if not all(board[c] == rook_cell for c in corners):
            raise ValidationError(
                "castle-entitled king code without both rooks on their home corners"
            )
        flags[color] = (True, True)
    wq, wk = flags[Color.WHITE][0], flags[Color.WHITE][1]
    bq, bk = flags[Color.BLACK][0], flags[Color.BLACK][1]
    return CastleRights(wk, wq, bk, bq)


def delta(a: ConfigVector, b: ConfigVector) -> SparseDelta:
    """Sparse difference b - a. Both vectors must share mode and length."""
    if a.mode is not b.mode:
        raise ValidationError("vector mode mismatch")
    if len(a.components) != len(b.components):
        raise ValidationError("vector length mismatch")
    entries = tuple(
        (sq, bc - ac)
        for sq, (ac, bc) in enumerate(zip(a.board_components, b.board_components))
        if bc != ac
    )
    side_delta = None
    if a.mode is Mode.AUGMENTED and a.side_component != b.side_component:
        side_delta = b.side_component - a.side_component
    return SparseDelta(entries, side_delta)


def apply_delta(vec: ConfigVector, d: SparseDelta) -> ConfigVector:
    """The vector vec + d, componentwise."""
    components = list(vec.components)
    for sq, diff in d.entries:
        components[sq] += diff
    if d.side_delta is not None:
        if vec.mode is not Mode.AUGMENTED:
            raise ValidationError("side delta on a strict vector")
        components[-1] += d.side_delta
    return ConfigVector(vec.mode, tuple(components))
