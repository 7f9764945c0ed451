"""Chess rules engine parameterized by board size and piece set.

Boards are rectangular, 2..8 squares per side. Squares are indexed
rank-major from the bottom-left corner: index = rank * width + file,
so a1 = 0 on every board. Positions are immutable; move generation is
a pure function of the position and returns moves in a deterministic
(from, to, promotion) order.

There is no fifty-move or repetition rule anywhere in this engine:
games end only by checkmate or stalemate, and unbounded play counts
as a draw. That is the semantics the tablebase solver needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Optional

from .errors import IllegalMoveError, ValidationError


class Color(IntEnum):
    WHITE = 0
    BLACK = 1

    @property
    def sign(self) -> int:
        return 1 if self is Color.WHITE else -1

    def other(self) -> "Color":
        return Color.BLACK if self is Color.WHITE else Color.WHITE


class PieceKind(IntEnum):
    PAWN = 1
    KNIGHT = 2
    BISHOP = 3
    ROOK = 4
    QUEEN = 5
    KING = 6


class Outcome(IntEnum):
    ONGOING = 0
    CHECKMATE = 1
    STALEMATE = 2


KIND_LETTERS = {
    PieceKind.PAWN: "P",
    PieceKind.KNIGHT: "N",
    PieceKind.BISHOP: "B",
    PieceKind.ROOK: "R",
    PieceKind.QUEEN: "Q",
    PieceKind.KING: "K",
}
LETTER_KINDS = {v: k for k, v in KIND_LETTERS.items()}

# Placement cells are signed ints: +kind for White, -kind for Black, 0 empty.
_P, _N, _B, _R, _Q, _K = (
    PieceKind.PAWN,
    PieceKind.KNIGHT,
    PieceKind.BISHOP,
    PieceKind.ROOK,
    PieceKind.QUEEN,
    PieceKind.KING,
)

DEFAULT_PROMOTION_KINDS = frozenset(
    {PieceKind.KNIGHT, PieceKind.BISHOP, PieceKind.ROOK, PieceKind.QUEEN}
)


@dataclass(frozen=True)
class Piece:
    kind: PieceKind
    color: Color

    @property
    def cell(self) -> int:
        return self.kind.value * self.color.sign

    @property
    def letter(self) -> str:
        letter = KIND_LETTERS[self.kind]
        return letter if self.color is Color.WHITE else letter.lower()

    @classmethod
    def from_cell(cls, cell: int) -> "Piece":
        if cell == 0 or abs(cell) > 6:
            raise ValidationError(f"invalid placement cell {cell}")
        return cls(PieceKind(abs(cell)), Color.WHITE if cell > 0 else Color.BLACK)

    @classmethod
    def from_letter(cls, letter: str) -> "Piece":
        kind = LETTER_KINDS.get(letter.upper())
        if kind is None:
            raise ValidationError(f"unknown piece letter {letter!r}")
        return cls(kind, Color.WHITE if letter.isupper() else Color.BLACK)


@dataclass(frozen=True)
class Move:
    from_sq: int
    to_sq: int
    promotion: Optional[PieceKind] = None

    def __post_init__(self):
        if self.from_sq == self.to_sq:
            raise ValidationError("move must change square")

    def text(self, width: int) -> str:
        s = square_name(self.from_sq, width) + square_name(self.to_sq, width)
        if self.promotion is not None:
            s += KIND_LETTERS[self.promotion].lower()
        return s


@dataclass(frozen=True)
class CastleRights:
    white_kingside: bool = False
    white_queenside: bool = False
    black_kingside: bool = False
    black_queenside: bool = False

    def any(self) -> bool:
        return (
            self.white_kingside
            or self.white_queenside
            or self.black_kingside
            or self.black_queenside
        )

    def for_color(self, color: Color) -> bool:
        if color is Color.WHITE:
            return self.white_kingside or self.white_queenside
        return self.black_kingside or self.black_queenside


NO_RIGHTS = CastleRights()
ALL_RIGHTS = CastleRights(True, True, True, True)


def square_name(sq: int, width: int) -> str:
    return "abcdefgh"[sq % width] + str(sq // width + 1)


def parse_square(name: str, width: int, height: int) -> int:
    if len(name) != 2:
        raise ValidationError(f"bad square name {name!r}")
    file = "abcdefgh".find(name[0])
    if name[1] not in "0123456789":  # ASCII only: int() also reads other scripts' digits
        raise ValidationError(f"bad square name {name!r}")
    rank = int(name[1]) - 1
    if not (0 <= file < width and 0 <= rank < height):
        raise ValidationError(f"square {name!r} outside {width}x{height} board")
    return rank * width + file


@dataclass(frozen=True)
class BoardSpec:
    """Board dimensions plus the rule switches that depend on them.

    Castling only exists on the full 8x8 board; en passant needs
    width >= 4. Passing None for either flag picks the allowed default.
    """

    width: int = 8
    height: int = 8
    promotion_kinds: frozenset = DEFAULT_PROMOTION_KINDS
    castling_enabled: Optional[bool] = None
    en_passant_enabled: Optional[bool] = None

    def __post_init__(self):
        if not (2 <= self.width <= 8 and 2 <= self.height <= 8):
            raise ValidationError("board sides must be 2..8 squares")
        if self.width * self.height < 4:
            raise ValidationError("board must have at least 4 squares")
        kinds = frozenset(self.promotion_kinds)
        if PieceKind.KING in kinds or PieceKind.PAWN in kinds:
            raise ValidationError("promotion kinds exclude king and pawn")
        if not kinds:
            raise ValidationError("promotion kinds must be nonempty")
        object.__setattr__(self, "promotion_kinds", kinds)
        if self.castling_enabled is None:
            object.__setattr__(self, "castling_enabled", False)
        elif self.castling_enabled and (self.width, self.height) != (8, 8):
            raise ValidationError("castling requires an 8x8 board")
        if self.en_passant_enabled is None:
            object.__setattr__(self, "en_passant_enabled", self.width >= 4)
        elif self.en_passant_enabled and self.width < 4:
            raise ValidationError("en passant requires width >= 4")

    @property
    def num_squares(self) -> int:
        return self.width * self.height

    @classmethod
    def standard(cls) -> "BoardSpec":
        return cls(8, 8, DEFAULT_PROMOTION_KINDS, True, True)

    def square_name(self, sq: int) -> str:
        return square_name(sq, self.width)

    def parse_square(self, name: str) -> int:
        return parse_square(name, self.width, self.height)


class _Geometry:
    """Precomputed step tables and slider rays for one board size."""

    __slots__ = (
        "width",
        "height",
        "king_steps",
        "king_sets",
        "knight_steps",
        "knight_sets",
        "ortho_rays",
        "diag_rays",
        "between_ortho",
        "between_diag",
        "pawn_push",
        "pawn_double",
        "pawn_caps",
        "pawn_cap_sets",
        "pawn_home_rank",
        "pawn_promo_rank",
    )

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        n = width * height

        def inside(f, r):
            return 0 <= f < width and 0 <= r < height

        king_deltas = [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
        knight_deltas = [
            (-2, -1), (-1, -2), (1, -2), (2, -1), (-2, 1), (-1, 2), (1, 2), (2, 1),
        ]
        ortho_dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        diag_dirs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

        king_steps, knight_steps = [], []
        ortho_rays, diag_rays = [], []
        between_ortho: dict = {}
        between_diag: dict = {}
        for sq in range(n):
            f, r = sq % width, sq // width
            king_steps.append(
                tuple(sorted((r + dr) * width + (f + df) for df, dr in king_deltas if inside(f + df, r + dr)))
            )
            knight_steps.append(
                tuple(sorted((r + dr) * width + (f + df) for df, dr in knight_deltas if inside(f + df, r + dr)))
            )
            for dirs, rays, between in (
                (ortho_dirs, ortho_rays, between_ortho),
                (diag_dirs, diag_rays, between_diag),
            ):
                per_sq = []
                for df, dr in dirs:
                    ray = []
                    nf, nr = f + df, r + dr
                    while inside(nf, nr):
                        ray.append(nr * width + nf)
                        nf, nr = nf + df, nr + dr
                    if ray:
                        per_sq.append(tuple(ray))
                        for i, target in enumerate(ray):
                            between[(sq, target)] = tuple(ray[:i])
                if dirs is ortho_dirs:
                    ortho_rays.append(tuple(per_sq))
                else:
                    diag_rays.append(tuple(per_sq))

        self.king_steps = tuple(king_steps)
        self.king_sets = tuple(frozenset(s) for s in king_steps)
        self.knight_steps = tuple(knight_steps)
        self.knight_sets = tuple(frozenset(s) for s in knight_steps)
        self.ortho_rays = tuple(ortho_rays)
        self.diag_rays = tuple(diag_rays)
        self.between_ortho = between_ortho
        self.between_diag = between_diag

        # Pawn tables, indexed [color][square].
        push = [[-1] * n, [-1] * n]
        double = [[-1] * n, [-1] * n]
        caps = [[()] * n, [()] * n]
        home = (1, height - 2)
        promo = (height - 1, 0)
        for color in (0, 1):
            step = 1 if color == 0 else -1
            for sq in range(n):
                f, r = sq % width, sq // width
                if inside(f, r + step):
                    push[color][sq] = (r + step) * width + f
                    # Double step only from the home rank, landing short of
                    # the promotion rank.
                    if r == home[color] and inside(f, r + 2 * step) and r + 2 * step != promo[color]:
                        double[color][sq] = (r + 2 * step) * width + f
                    caps[color][sq] = tuple(
                        sorted((r + step) * width + (f + df) for df in (-1, 1) if inside(f + df, r + step))
                    )
        self.pawn_push = (tuple(push[0]), tuple(push[1]))
        self.pawn_double = (tuple(double[0]), tuple(double[1]))
        self.pawn_caps = (tuple(caps[0]), tuple(caps[1]))
        self.pawn_cap_sets = (
            tuple(frozenset(c) for c in caps[0]),
            tuple(frozenset(c) for c in caps[1]),
        )
        self.pawn_home_rank = home
        self.pawn_promo_rank = promo


@functools.lru_cache(maxsize=None)
def geometry(width: int, height: int) -> _Geometry:
    return _Geometry(width, height)


# Castling squares on the 8x8 board: king home, kingside/queenside rook
# corners, the squares that must be empty, and the king's path.
_CASTLE = {
    Color.WHITE: {"king": 4, "k_rook": 7, "q_rook": 0,
                  "k_empty": (5, 6), "q_empty": (1, 2, 3),
                  "k_path": (4, 5, 6), "q_path": (4, 3, 2)},
    Color.BLACK: {"king": 60, "k_rook": 63, "q_rook": 56,
                  "k_empty": (61, 62), "q_empty": (57, 58, 59),
                  "k_path": (60, 61, 62), "q_path": (60, 59, 58)},
}


@dataclass(frozen=True, slots=True)
class Position:
    """Full game state: placement, side to move, en passant, castling.

    ply_index counts plies from the chosen start; its parity always
    matches the side to move (even = White).
    """

    spec: BoardSpec
    placement: tuple
    side_to_move: Color
    ep_square: Optional[int] = None
    castle_rights: CastleRights = NO_RIGHTS
    ply_index: int = 0

    def __post_init__(self):
        if self.ply_index < 0:
            raise ValidationError("ply_index must be nonnegative")
        if self.ply_index % 2 != self.side_to_move.value:
            raise ValidationError("ply_index parity must match side to move")

    def pieces(self) -> Iterable[tuple[int, Piece]]:
        for sq, cell in enumerate(self.placement):
            if cell:
                yield sq, Piece.from_cell(cell)

    def piece_count(self) -> int:
        return sum(1 for cell in self.placement if cell)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .fen import format_fen

        return f"<Position {format_fen(self)} ply={self.ply_index}>"


def _scan(placement, side: Color):
    """One pass over the board: piece lists and king squares per color.

    Raises if either side does not have exactly one king.
    """
    whites, blacks = [], []
    wk = bk = -1
    for sq, cell in enumerate(placement):
        if cell == 0:
            continue
        if cell > 0:
            if cell == 6:
                if wk >= 0:
                    raise ValidationError("exactly one king per color (White has more)")
                wk = sq
            whites.append((sq, cell))
        else:
            if cell == -6:
                if bk >= 0:
                    raise ValidationError("exactly one king per color (Black has more)")
                bk = sq
            blacks.append((sq, -cell))
    if wk < 0 or bk < 0:
        raise ValidationError("exactly one king per color (a king is missing)")
    if side is Color.WHITE:
        return whites, blacks, wk, bk
    return blacks, whites, bk, wk


def _attacked(board, target: int, attackers, color: int, geo: _Geometry) -> bool:
    """Whether any piece in `attackers` (all of `color`) attacks `target`."""
    bo = geo.between_ortho
    bd = geo.between_diag
    for sq, kind in attackers:
        if kind == 4:  # rook
            btw = bo.get((sq, target))
            if btw is not None and all(board[s] == 0 for s in btw):
                return True
        elif kind == 5:  # queen
            btw = bo.get((sq, target))
            if btw is None:
                btw = bd.get((sq, target))
            if btw is not None and all(board[s] == 0 for s in btw):
                return True
        elif kind == 6:  # king
            if target in geo.king_sets[sq]:
                return True
        elif kind == 2:  # knight
            if target in geo.knight_sets[sq]:
                return True
        elif kind == 1:  # pawn
            if target in geo.pawn_cap_sets[color][sq]:
                return True
        else:  # bishop
            btw = bd.get((sq, target))
            if btw is not None and all(board[s] == 0 for s in btw):
                return True
    return False


def _update_rights(rights: CastleRights, from_sq: int, to_sq: int, moved_king: bool, color: Color) -> CastleRights:
    wk, wq = rights.white_kingside, rights.white_queenside
    bk, bq = rights.black_kingside, rights.black_queenside
    if moved_king:
        if color is Color.WHITE:
            wk = wq = False
        else:
            bk = bq = False
    # A move from or onto a rook's home corner ends that rook's right.
    touched = (from_sq, to_sq)
    white, black = _CASTLE[Color.WHITE], _CASTLE[Color.BLACK]
    return CastleRights(
        wk and white["k_rook"] not in touched,
        wq and white["q_rook"] not in touched,
        bk and black["k_rook"] not in touched,
        bq and black["q_rook"] not in touched,
    )


def legal_transitions(pos: Position) -> list[tuple[Move, Position]]:
    """All legal (move, successor) pairs in canonical move order.

    Order is lexicographic on (from square, to square, promotion kind).
    Raises ValidationError if the position itself is malformed (wrong
    king counts, or the side not to move already in check).
    """
    spec = pos.spec
    geo = geometry(spec.width, spec.height)
    board = pos.placement
    us = pos.side_to_move
    them = us.other()
    mine, theirs, my_king, their_king = _scan(board, us)
    if _attacked(board, their_king, mine, us.value, geo):
        raise ValidationError("side not to move is in check")

    sign = us.sign
    ep = pos.ep_square
    rights = pos.castle_rights
    next_ply = pos.ply_index + 1
    promo_rank = geo.pawn_promo_rank[us.value]
    promo_kinds = sorted(spec.promotion_kinds)
    width = spec.width
    out: list[tuple[Move, Position]] = []

    for from_sq, kind in mine:
        # (to_sq, promotion, new board, captured square or -1, sets_ep)
        pseudo: list[tuple[int, Optional[PieceKind], list, int, bool]] = []

        def push(to_sq, promotion=None, capture_sq=-1, sets_ep=False, extra=None):
            nb = list(board)
            nb[from_sq] = 0
            if capture_sq >= 0:
                nb[capture_sq] = 0
            nb[to_sq] = (promotion.value if promotion else kind) * sign
            if extra:  # castling rook relocation: (rook_from, rook_to)
                rf, rt = extra
                nb[rt] = nb[rf]
                nb[rf] = 0
            pseudo.append((to_sq, promotion, nb, capture_sq, sets_ep))

        if kind == 1:  # pawn
            fwd = geo.pawn_push[us.value][from_sq]
            if fwd >= 0 and board[fwd] == 0:
                if fwd // width == promo_rank:
                    for pk in promo_kinds:
                        push(fwd, pk)
                else:
                    push(fwd)
                    dbl = geo.pawn_double[us.value][from_sq]
                    if dbl >= 0 and board[dbl] == 0:
                        push(dbl, sets_ep=True)
            for cap in geo.pawn_caps[us.value][from_sq]:
                cell = board[cap]
                if cell * sign < 0 and abs(cell) != 6:
                    if cap // width == promo_rank:
                        for pk in promo_kinds:
                            push(cap, pk, capture_sq=cap)
                    else:
                        push(cap, capture_sq=cap)
                elif cell == 0 and ep is not None and cap == ep:
                    push(cap, capture_sq=ep - sign * width)
        elif kind == 2 or kind == 6:
            steps = geo.knight_steps[from_sq] if kind == 2 else geo.king_steps[from_sq]
            for to_sq in steps:
                cell = board[to_sq]
                if cell == 0:
                    push(to_sq)
                elif cell * sign < 0 and abs(cell) != 6:
                    push(to_sq, capture_sq=to_sq)
            if kind == 6 and spec.castling_enabled and rights.for_color(us):
                cc = _CASTLE[us]
                if from_sq == cc["king"]:
                    own_k = rights.white_kingside if us is Color.WHITE else rights.black_kingside
                    own_q = rights.white_queenside if us is Color.WHITE else rights.black_queenside
                    for flag, rook, empty, path, to_sq in (
                        (own_k, cc["k_rook"], cc["k_empty"], cc["k_path"], cc["k_path"][-1]),
                        (own_q, cc["q_rook"], cc["q_empty"], cc["q_path"], cc["q_path"][-1]),
                    ):
                        if (
                            flag
                            and board[rook] == 4 * sign
                            and all(board[s] == 0 for s in empty)
                            and not any(_attacked(board, s, theirs, them.value, geo) for s in path)
                        ):
                            push(to_sq, extra=(rook, path[1]))
        else:  # sliders
            rays = geo.ortho_rays[from_sq] if kind == 4 else geo.diag_rays[from_sq]
            if kind == 5:
                rays = geo.ortho_rays[from_sq] + geo.diag_rays[from_sq]
            for ray in rays:
                for to_sq in ray:
                    cell = board[to_sq]
                    if cell == 0:
                        push(to_sq)
                        continue
                    if cell * sign < 0 and abs(cell) != 6:
                        push(to_sq, capture_sq=to_sq)
                    break

        bucket = []
        for to_sq, promotion, nb, capture_sq, sets_ep in pseudo:
            king_after = to_sq if kind == 6 else my_king
            enemies = theirs if capture_sq < 0 else [p for p in theirs if p[0] != capture_sq]
            if _attacked(nb, king_after, enemies, them.value, geo):
                continue
            new_ep = None
            if sets_ep and spec.en_passant_enabled:
                new_ep = (from_sq + to_sq) // 2
            new_rights = rights
            if rights.any():
                new_rights = _update_rights(rights, from_sq, to_sq, kind == 6, us)
            move = Move(from_sq, to_sq, promotion)
            succ = Position(spec, tuple(nb), them, new_ep, new_rights, next_ply)
            bucket.append((to_sq, promotion.value if promotion else 0, move, succ))
        bucket.sort(key=lambda item: (item[0], item[1]))
        out.extend((move, succ) for _, _, move, succ in bucket)
    return out


def legal_moves(pos: Position) -> list[Move]:
    """Every legal move exactly once, in canonical order. Empty iff terminal."""
    return [move for move, _ in legal_transitions(pos)]


def apply_move(pos: Position, move: Move) -> Position:
    """Successor position after a legal move; raises IllegalMoveError otherwise."""
    for candidate, succ in legal_transitions(pos):
        if candidate == move:
            return succ
    raise IllegalMoveError(f"illegal move {move.text(pos.spec.width)}", move=move)


def play(pos: Position, move: Move) -> Position:
    """The successor after `move`, which the caller knows to be legal; unchecked.

    For positions with no castle rights and no en passant capture (all
    the tables can index): the move shifts one piece, removes at most
    the one on its target square, promotes, and sets ep_square only
    after a double push, exactly as ``legal_transitions`` builds the
    successor, without generating the other moves.
    """
    spec = pos.spec
    board = list(pos.placement)
    cell = board[move.from_sq]
    board[move.from_sq] = 0
    if move.promotion is not None:
        cell = move.promotion.value * pos.side_to_move.sign
    board[move.to_sq] = cell
    ep = None
    double = abs(cell) == PieceKind.PAWN and abs(move.to_sq - move.from_sq) == 2 * spec.width
    if double and spec.en_passant_enabled:
        ep = (move.from_sq + move.to_sq) // 2
    return Position(
        spec, tuple(board), pos.side_to_move.other(), ep, pos.castle_rights, pos.ply_index + 1
    )


def in_check(pos: Position) -> bool:
    geo = geometry(pos.spec.width, pos.spec.height)
    _, theirs, my_king, _ = _scan(pos.placement, pos.side_to_move)
    return _attacked(pos.placement, my_king, theirs, pos.side_to_move.other().value, geo)


def outcome(pos: Position) -> Outcome:
    """Checkmate, stalemate, or ongoing. No draw adjudication rules."""
    if legal_transitions(pos):
        return Outcome.ONGOING
    return Outcome.CHECKMATE if in_check(pos) else Outcome.STALEMATE


def perft(pos: Position, depth: int) -> int:
    """Exhaustive legal-move node count to the given depth."""
    if depth <= 0:
        return 1
    transitions = legal_transitions(pos)
    if depth == 1:
        return len(transitions)
    return sum(perft(succ, depth - 1) for _, succ in transitions)


def validate_position(pos: Position) -> None:
    """Check every Position invariant; raise ValidationError naming the first violated one."""
    spec = pos.spec
    board = pos.placement
    n = spec.num_squares
    if len(board) != n:
        raise ValidationError("placement length does not match board size")
    # `_scan` is the one walk over the board; the range and back-rank
    # tests run in C (min/max, and membership in the two back ranks).
    if min(board) < -6 or max(board) > 6:
        sq = next(sq for sq, cell in enumerate(board) if not -6 <= cell <= 6)
        raise ValidationError(f"invalid placement cell {board[sq]} at {spec.square_name(sq)}")
    geo = geometry(spec.width, spec.height)
    mine, theirs, my_king, their_king = _scan(board, pos.side_to_move)
    if their_king in geo.king_sets[my_king]:
        raise ValidationError("kings are adjacent")
    if _attacked(board, their_king, mine, pos.side_to_move.value, geo):
        raise ValidationError("side not to move is in check")
    back_ranks = board[: spec.width] + board[n - spec.width:]
    if 1 in back_ranks or -1 in back_ranks:
        raise ValidationError("pawn on a back rank")
    if pos.ep_square is not None:
        _validate_ep(pos, geo)
    if pos.castle_rights.any():
        _validate_rights(pos)


def _validate_ep(pos: Position, geo: _Geometry) -> None:
    spec = pos.spec
    if not spec.en_passant_enabled:
        raise ValidationError("ep_square set but en passant is disabled")
    ep = pos.ep_square
    if not 0 <= ep < spec.num_squares:
        raise ValidationError("ep_square outside the board")
    mover = pos.side_to_move.other()  # the side that just double-stepped
    step = mover.sign * spec.width
    pawn_sq = ep + step
    from_sq = ep - step
    expected_rank = geo.pawn_home_rank[mover.value] + (1 if mover is Color.WHITE else -1)
    if ep // spec.width != expected_rank:
        raise ValidationError("ep_square on the wrong rank")
    if pos.placement[ep] != 0 or pos.placement[from_sq] != 0:
        raise ValidationError("ep_square squares not empty")
    if pos.placement[pawn_sq] != PieceKind.PAWN.value * mover.sign:
        raise ValidationError("no double-stepped pawn ahead of ep_square")


def _validate_rights(pos: Position) -> None:
    spec = pos.spec
    if not spec.castling_enabled:
        raise ValidationError("castle rights set but castling is disabled")
    r = pos.castle_rights
    board = pos.placement
    for color, kingside, queenside in (
        (Color.WHITE, r.white_kingside, r.white_queenside),
        (Color.BLACK, r.black_kingside, r.black_queenside),
    ):
        cc, sign = _CASTLE[color], color.sign
        for flag, rook in ((kingside, cc["k_rook"]), (queenside, cc["q_rook"])):
            if flag and (board[cc["king"]] != 6 * sign or board[rook] != 4 * sign):
                raise ValidationError("castle rights inconsistent with placement")
