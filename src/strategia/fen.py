"""FEN subset: placement / side / castling / en passant, board size from the spec.

Ranks run top to bottom separated by '/', digits compress empty runs,
piece letters are KQRBNP (White) and kqrbnp (Black). The string carries
no move counters; ply_index starts at 0 (White) or 1 (Black).
"""

from __future__ import annotations

import re

from .board import (
    BoardSpec,
    CastleRights,
    Color,
    Piece,
    Position,
    square_name,
    validate_position,
)
from .errors import ParseError

_TOKEN = re.compile(r"\S+")
_CASTLE_FLAGS = "KQkq"


def parse_fen(text: str, spec: BoardSpec) -> Position:
    """Parse the four-field FEN subset into a validated Position."""
    tokens = _TOKEN.finditer(text)
    fields = [(m.group(), m.start()) for m in tokens]
    if len(fields) != 4:
        raise ParseError(f"expected 4 FEN fields, got {len(fields)}", 0)
    placement = _parse_placement(fields[0], spec)
    side = _parse_side(fields[1])
    rights = _parse_castle(fields[2])
    ep_square = _parse_ep(fields[3], spec)

    pos = Position(
        spec=spec,
        placement=placement,
        side_to_move=side,
        ep_square=ep_square,
        castle_rights=rights,
        ply_index=side.value,
    )
    validate_position(pos)
    return pos


def _parse_placement(field: tuple[str, int], spec: BoardSpec) -> tuple:
    text, base = field
    ranks = text.split("/")
    if len(ranks) != spec.height:
        raise ParseError(
            f"expected {spec.height} ranks, got {len(ranks)}", base
        )
    board = [0] * spec.num_squares
    offset = base
    for i, rank_text in enumerate(ranks):
        rank = spec.height - 1 - i
        file = 0
        for ch in rank_text:
            if "0" <= ch <= "9":  # run lengths are ASCII digits only
                run = int(ch)
                if run == 0:
                    raise ParseError("zero-length empty run", offset)
                file += run
            else:
                if file >= spec.width:
                    raise ParseError("rank wider than board", offset)
                try:
                    piece = Piece.from_letter(ch)
                except Exception:
                    raise ParseError(f"bad piece letter {ch!r}", offset) from None
                board[rank * spec.width + file] = piece.cell
                file += 1
            offset += 1
        if file != spec.width:
            raise ParseError(
                f"rank width {file} does not match board width {spec.width}",
                base + sum(len(r) + 1 for r in ranks[:i]),
            )
        offset += 1  # the '/' separator
    return tuple(board)


def _parse_side(field: tuple[str, int]) -> Color:
    text, base = field
    if text == "w":
        return Color.WHITE
    if text == "b":
        return Color.BLACK
    raise ParseError(f"side field must be 'w' or 'b', got {text!r}", base)


def _parse_castle(field: tuple[str, int]) -> CastleRights:
    text, base = field
    if text == "-":
        return CastleRights()
    seen = set()
    for i, ch in enumerate(text):
        if ch not in _CASTLE_FLAGS or ch in seen:
            raise ParseError(f"bad castle flag {ch!r}", base + i)
        seen.add(ch)
    return CastleRights("K" in seen, "Q" in seen, "k" in seen, "q" in seen)


def _parse_ep(field: tuple[str, int], spec: BoardSpec) -> int | None:
    text, base = field
    if text == "-":
        return None
    try:
        return spec.parse_square(text)
    except Exception:
        raise ParseError(f"bad en passant square {text!r}", base) from None


def format_fen(pos: Position) -> str:
    """Canonical FEN text; round trips byte-identically through parse_fen."""
    spec = pos.spec
    ranks = []
    for rank in range(spec.height - 1, -1, -1):
        run = 0
        row = []
        for file in range(spec.width):
            cell = pos.placement[rank * spec.width + file]
            if cell == 0:
                run += 1
                continue
            if run:
                row.append(str(run))
                run = 0
            row.append(Piece.from_cell(cell).letter)
        if run:
            row.append(str(run))
        ranks.append("".join(row))
    placement = "/".join(ranks)
    side = "w" if pos.side_to_move is Color.WHITE else "b"
    r = pos.castle_rights
    castle = "".join(
        flag
        for flag, on in zip(
            _CASTLE_FLAGS,
            (r.white_kingside, r.white_queenside, r.black_kingside, r.black_queenside),
        )
        if on
    ) or "-"
    ep = square_name(pos.ep_square, spec.width) if pos.ep_square is not None else "-"
    return f"{placement} {side} {castle} {ep}"
