"""Independent oracles the test suite checks the package against.

Nothing here reuses the package's solver, indexing, movegen internals,
or file reader. The minimax oracle has its own board representation,
its own move generator (material classes never castle, and en passant
capture cannot occur in any supported class, so neither is modeled),
and computes values by horizon iteration: V_d is the minimax value
when play is adjudicated a draw after d plies, and the distance to
mate is the first horizon at which a state turns decisive.
"""

from __future__ import annotations

import struct
import zlib
from itertools import permutations

# Cell codes, deliberately the obvious ones: +kind White, -kind Black.
PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING = 1, 2, 3, 4, 5, 6

ORTHO = ((1, 0), (-1, 0), (0, 1), (0, -1))
DIAG = ((1, 1), (1, -1), (-1, 1), (-1, -1))
KNIGHT_JUMPS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))


class OracleRules:
    """Minimal legal-move rules for small boards: no castling, no en passant."""

    def __init__(self, width, height, promotion_kinds):
        self.width = width
        self.height = height
        # promotion codes sorted ascending, e.g. (2, 3, 4, 5)
        self.promotions = tuple(sorted(promotion_kinds))

    def inside(self, f, r):
        return 0 <= f < self.width and 0 <= r < self.height

    def attacked(self, board, target, by_white):
        """Whether the side (by_white) attacks `target`. Walks outward from it."""
        w = self.width
        tf, tr = target % w, target // w
        sign = 1 if by_white else -1
        for df, dr in KNIGHT_JUMPS:
            if self.inside(tf + df, tr + dr):
                if board[(tr + dr) * w + tf + df] == KNIGHT * sign:
                    return True
        for dirs, slider in ((ORTHO, ROOK), (DIAG, BISHOP)):
            for df, dr in dirs:
                f, r, dist = tf + df, tr + dr, 1
                while self.inside(f, r):
                    cell = board[r * w + f]
                    if cell != 0:
                        if cell * sign > 0:
                            kind = abs(cell)
                            if kind == slider or kind == QUEEN:
                                return True
                            if dist == 1 and kind == KING:
                                return True
                            if (
                                dist == 1
                                and kind == PAWN
                                and dirs is DIAG
                                and (dr == -1 if by_white else dr == 1)
                            ):
                                # A pawn attacks diagonally forward, so the
                                # target sees it one step diagonally backward.
                                return True
                        break
                    f, r, dist = f + df, r + dr, dist + 1
        return False

    def king_square(self, board, white):
        return board.index(KING if white else -KING)

    def pseudo_moves(self, board, white):
        """(from, to, placed cell, captured square or None) of every move of one
        side, king safety ignored; a promotion yields once per kind."""
        w, h = self.width, self.height
        sign = 1 if white else -1
        for sq, cell in enumerate(board):
            if cell == 0 or (cell > 0) != white:
                continue
            kind = abs(cell)
            f, r = sq % w, sq // w
            if kind == PAWN:
                step = 1 if white else -1
                promo_rank = h - 1 if white else 0
                home_rank = 1 if white else h - 2
                nf, nr = f, r + step
                if self.inside(nf, nr) and board[nr * w + nf] == 0:
                    if nr == promo_rank:
                        for promo in self.promotions:
                            yield sq, nr * w + nf, promo * sign, None
                    else:
                        yield sq, nr * w + nf, cell, None
                        dr = r + 2 * step
                        if (
                            r == home_rank
                            and self.inside(f, dr)
                            and dr != promo_rank
                            and board[dr * w + f] == 0
                        ):
                            yield sq, dr * w + f, cell, None
                for df in (-1, 1):
                    cf, cr = f + df, r + step
                    if self.inside(cf, cr):
                        victim = board[cr * w + cf]
                        if victim * sign < 0 and abs(victim) != KING:
                            if cr == promo_rank:
                                for promo in self.promotions:
                                    yield sq, cr * w + cf, promo * sign, cr * w + cf
                            else:
                                yield sq, cr * w + cf, cell, cr * w + cf
            elif kind == KNIGHT or kind == KING:
                jumps = KNIGHT_JUMPS if kind == KNIGHT else ORTHO + DIAG
                for df, dr in jumps:
                    nf, nr = f + df, r + dr
                    if not self.inside(nf, nr):
                        continue
                    victim = board[nr * w + nf]
                    if victim == 0 or (victim * sign < 0 and abs(victim) != KING):
                        yield sq, nr * w + nf, cell, None
            else:
                dirsets = []
                if kind in (ROOK, QUEEN):
                    dirsets.append(ORTHO)
                if kind in (BISHOP, QUEEN):
                    dirsets.append(DIAG)
                for dirs in dirsets:
                    for df, dr in dirs:
                        nf, nr = f + df, r + dr
                        while self.inside(nf, nr):
                            victim = board[nr * w + nf]
                            if victim == 0:
                                yield sq, nr * w + nf, cell, None
                            else:
                                if victim * sign < 0 and abs(victim) != KING:
                                    yield sq, nr * w + nf, cell, None
                                break
                            nf, nr = nf + df, nr + dr

    def legal_successors(self, board, white_to_move):
        """Successor (board, side) states; pure, no ep or castling."""
        sign = 1 if white_to_move else -1
        out = []
        for from_sq, to_sq, placed, extra_clear in self.pseudo_moves(board, white_to_move):
            nb = list(board)
            nb[from_sq] = 0
            if extra_clear is not None:
                nb[extra_clear] = 0
            nb[to_sq] = placed
            king_sq = nb.index(KING * sign)
            if not self.attacked(nb, king_sq, not white_to_move):
                out.append(tuple(nb))
        return out

    def pseudo_mobility(self, board, white):
        """Destination squares summed over one side's pieces: king safety
        ignored, a promotion counted once, no en passant or castling."""
        return len({(src, dest) for src, dest, _, _ in self.pseudo_moves(board, white)})

    def state_is_legal(self, board, white_to_move):
        """Kings present, not adjacent, pawns off back ranks, mover cannot take the king."""
        w = self.width
        try:
            wk = board.index(KING)
            bk = board.index(-KING)
        except ValueError:
            return False
        if board.count(KING) != 1 or board.count(-KING) != 1:
            return False
        if max(abs(wk % w - bk % w), abs(wk // w - bk // w)) <= 1:
            return False
        for sq, cell in enumerate(board):
            if abs(cell) == PAWN:
                rank = sq // w
                if rank == 0 or rank == self.height - 1:
                    return False
        enemy_king = bk if white_to_move else wk
        return not self.attacked(board, enemy_king, white_to_move)


def enumerate_class_states(rules: OracleRules, cells):
    """All legal (board, side) states placing exactly `cells` (a multiset)."""
    n = rules.width * rules.height
    states = []
    seen = set()
    for squares in permutations(range(n), len(cells)):
        board = [0] * n
        for sq, cell in zip(squares, cells):
            board[sq] = cell
        key = tuple(board)
        if key in seen:
            continue
        seen.add(key)
        for white in (True, False):
            if rules.state_is_legal(board, white):
                states.append((key, white))
    return states


def minimax_solve(rules: OracleRules, class_states):
    """Exhaustive memoized minimax over the closure of the given states.

    Returns {state: ("win"|"draw"|"loss", dtm or None)} for every state
    in the closure, values from the side-to-move perspective.
    """
    succs = {}
    work = list(class_states)
    in_graph = set(class_states)
    while work:
        state = work.pop()
        board, white = state
        children = [
            (child, not white) for child in rules.legal_successors(list(board), white)
        ]
        succs[state] = children
        for child in children:
            if child not in in_graph:
                in_graph.add(child)
                work.append(child)

    value = {}
    dtm = {}
    terminal = {}
    for state in succs:
        board, white = state
        if succs[state]:
            value[state] = "D"
            continue
        king_sq = list(board).index(KING if white else -KING)
        if rules.attacked(list(board), king_sq, not white):
            value[state] = "L"
            dtm[state] = 0
            terminal[state] = "L"
        else:
            value[state] = "D"
            terminal[state] = "D"

    horizon = 0
    while True:
        horizon += 1
        new_value = {}
        changed = False
        for state, children in succs.items():
            if state in terminal:
                new_value[state] = terminal[state]
                continue
            child_values = [value[c] for c in children]
            if any(v == "L" for v in child_values):
                verdict = "W"
            elif all(v == "W" for v in child_values):
                verdict = "L"
            else:
                verdict = "D"
            new_value[state] = verdict
            if verdict != value[state]:
                changed = True
                if state not in dtm:
                    dtm[state] = horizon
        value = new_value
        if not changed:
            break
        if horizon > len(succs) + 1:  # pragma: no cover
            raise RuntimeError("oracle failed to converge")

    out = {}
    for state in succs:
        verdict = value[state]
        if verdict == "W":
            out[state] = ("win", dtm[state])
        elif verdict == "L":
            out[state] = ("loss", dtm[state])
        else:
            out[state] = ("draw", None)
    return out


def read_ctb(path):
    """Independent byte-level reader for the tablebase file format.

    Returns (header dict, records list of (wdl, dtm)). Raises ValueError
    on any structural fault.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != b"CTB1":
        raise ValueError("magic mismatch")
    version = blob[4]
    if version != 1:
        raise ValueError(f"unsupported version {version}")
    width, height, piece_count = blob[5], blob[6], blob[7]
    pieces = []
    offset = 8
    for _ in range(piece_count):
        kind, color = blob[offset], blob[offset + 1]
        pieces.append((kind, color))
        offset += 2
    (entries,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    body = blob[offset:offset + entries * 3]
    if len(body) != entries * 3:
        raise ValueError("truncated body")
    (crc,) = struct.unpack_from("<I", blob, offset + entries * 3)
    if crc != zlib.crc32(body):
        raise ValueError("checksum failure")
    if len(blob) != offset + entries * 3 + 4:
        raise ValueError("trailing bytes after trailer")
    records = [
        (wdl, dtm_lo | (dtm_hi << 8))
        for wdl, dtm_lo, dtm_hi in struct.iter_unpack("<BBB", body)
    ]
    header = {
        "version": version,
        "width": width,
        "height": height,
        "pieces": pieces,
        "entries": entries,
    }
    return header, records
