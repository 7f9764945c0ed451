"""Seeded random legal position generation for property-style tests."""

from __future__ import annotations

import random

import strategia as sg
from strategia.tablebase import _ILLEGAL, _records

PIECE_POOL = (
    sg.PieceKind.PAWN,
    sg.PieceKind.KNIGHT,
    sg.PieceKind.BISHOP,
    sg.PieceKind.ROOK,
    sg.PieceKind.QUEEN,
)

SPEC_POOL = (
    sg.BoardSpec.standard(),
    sg.BoardSpec(8, 8),
    sg.BoardSpec(6, 6),
    sg.BoardSpec(5, 5),
    sg.BoardSpec(4, 4),
    sg.BoardSpec(4, 8),
    sg.BoardSpec(8, 4),
    sg.BoardSpec(3, 3),
)


def random_position(rng: random.Random, spec=None, max_extra: int = 3,
                    try_ep: bool = True, try_castle: bool = True) -> sg.Position:
    """A uniformly scattered legal position; retries until valid."""
    while True:
        candidate = _attempt(rng, spec, max_extra, try_ep, try_castle)
        if candidate is not None:
            return candidate


def _attempt(rng, spec, max_extra, try_ep, try_castle):
    board_spec = spec if spec is not None else rng.choice(SPEC_POOL)
    n = board_spec.num_squares
    extra = rng.randint(0, max_extra)
    side = rng.choice((sg.Color.WHITE, sg.Color.BLACK))

    placement = [0] * n
    squares = rng.sample(range(n), 2 + extra)
    placement[squares[0]] = sg.PieceKind.KING.value
    placement[squares[1]] = -sg.PieceKind.KING.value
    for sq in squares[2:]:
        kind = rng.choice(PIECE_POOL)
        color = rng.choice((sg.Color.WHITE, sg.Color.BLACK))
        if kind is sg.PieceKind.PAWN and board_spec.height < 3:
            kind = sg.PieceKind.KNIGHT
        placement[sq] = kind.value * color.sign

    ep_square = None
    if try_ep and board_spec.en_passant_enabled and rng.random() < 0.3:
        ep_square = _plant_ep_pawn(rng, placement, board_spec, side)

    rights = sg.CastleRights()
    if (
        try_castle
        and board_spec.castling_enabled
        and rng.random() < 0.25
        and _plant_castle_setup(rng, placement)
    ):
        rights = sg.CastleRights(True, True, True, True)

    pos = sg.Position(
        spec=board_spec,
        placement=tuple(placement),
        side_to_move=side,
        ep_square=ep_square,
        castle_rights=rights,
        ply_index=side.value,
    )
    try:
        sg.validate_position(pos)
    except sg.ValidationError:
        return None
    return pos


def _plant_ep_pawn(rng, placement, board_spec, side):
    """Place a just-double-stepped pawn for the side not to move, if room allows."""
    mover = side.other()
    width, height = board_spec.width, board_spec.height
    home = 1 if mover is sg.Color.WHITE else height - 2
    landing = home + (2 if mover is sg.Color.WHITE else -2)
    if not 0 < landing < height - 1:
        return None
    files = list(range(width))
    rng.shuffle(files)
    for file in files:
        pawn_sq = landing * width + file
        ep_sq = (home + (1 if mover is sg.Color.WHITE else -1)) * width + file
        home_sq = home * width + file
        if placement[pawn_sq] == 0 and placement[ep_sq] == 0 and placement[home_sq] == 0:
            placement[pawn_sq] = sg.PieceKind.PAWN.value * mover.sign
            return ep_sq
    return None


def _plant_castle_setup(rng, placement):
    """Kings and rooks on their home squares; fails if those cells are taken."""
    needed = {4: 6, 0: 4, 7: 4, 60: -6, 56: -4, 63: -4}
    king_squares = [sq for sq, cell in enumerate(placement) if abs(cell) == 6]
    if any(placement[sq] != 0 and sq not in king_squares for sq in needed):
        return False
    for sq in king_squares:
        placement[sq] = 0
    for sq, cell in needed.items():
        if placement[sq] != 0:
            return False
        placement[sq] = cell
    return True


def wdl_dtm(tb):
    """(wdl, dtm) of every index of a table, as its file records them: dtm 0xFFFF for a draw or an illegal entry.

    A code the solve left open has no record (``_records`` would read
    it as a draw or an illegal entry), so it fails here.
    """
    assert (tb.code <= _ILLEGAL).all(), f"{tb.material.name}: open codes left in the table"
    records = _records(tb.code)
    return records["wdl"], records["dtm"]


def random_class_position(rng: random.Random, tb) -> sg.Position:
    """A uniformly drawn legal position of a solved table's class."""
    legal = (wdl_dtm(tb)[0] != 0).nonzero()[0]
    idx = int(legal[rng.randrange(len(legal))])
    return sg.position_at(idx, tb.material)
