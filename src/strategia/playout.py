"""Deterministic optimal-play move policy and playout generation.

The policy is a pure function of the position and a solved table: the
winning side plays the lexicographically first move that minimizes the
successor's distance to mate, the losing side the first move that
maximizes it (holding out as long as possible). Iterating the policy
from any decisive position yields a playout whose length in plies is
exactly the probed distance to mate, together with the encoded vector
at every ply. Drawn positions are refused: there is no canonical
drawing policy here.

The policy locates its position once (``Tablebase.locate``: one class
key and one ``index_of``) and values each successor from that index:
``Tablebase.locate_successor`` maps (table, index, move) to the
successor's (table, index) by digit arithmetic, and ``value_at`` reads
it. A playout passes the chosen successor's (table, index) on to the
next ply, so it computes one class key and one index in total.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Optional

from .board import (
    Color,
    Move,
    Outcome,
    Position,
    legal_transitions,
    outcome,
    square_name,
)
from .encoding import ConfigVector, Mode, SparseDelta, decode, delta, encode
from .errors import UnsupportedCaseError
from .tablebase import Tablebase, Wdl


@dataclass(frozen=True)
class PlayoutStep:
    move: Move
    position: Position
    vector: ConfigVector
    dtm: int


@dataclass(frozen=True)
class Playout:
    """A maximal optimal-play line from a decisive start to checkmate."""

    initial: Position
    initial_vector: ConfigVector
    initial_dtm: int
    mode: Mode
    steps: tuple
    terminal: Outcome

    @property
    def plies(self) -> int:
        return len(self.steps)

    def vectors(self) -> list:
        return [self.initial_vector] + [step.vector for step in self.steps]

    @property
    def final_position(self) -> Position:
        return self.steps[-1].position if self.steps else self.initial

    @property
    def winner(self) -> Optional[Color]:
        if self.terminal is not Outcome.CHECKMATE:
            return None
        return self.final_position.side_to_move.other()


def policy_step(pos: Position, tb: Tablebase) -> tuple:
    """The policy's (move, successor) for a decisive, nonterminal position.

    The position may belong to the table's class or to any class
    reachable from it (playouts cross material boundaries at captures
    and promotions).
    """
    move, succ, _ = _policy_move(pos, tb, tb.locate(pos))
    return move, succ


def _policy_move(pos: Position, tb: Tablebase, at: tuple) -> tuple:
    """policy_step from the position's (table, index); also returns the successor's."""
    table, idx = at
    value = table.value_at(idx)
    if not value.is_decisive:
        raise UnsupportedCaseError(
            "drawn positions have no defined policy; only decisive positions are supported"
        )
    transitions = legal_transitions(pos)
    if not transitions:
        raise UnsupportedCaseError("terminal position: no move to choose")

    best: Optional[tuple] = None
    if value.wdl is Wdl.WIN:
        # Pick the first successor lost for the opponent with minimal dtm.
        for move, succ in transitions:
            succ_at = tb.locate_successor(table, idx, move)
            sv = succ_at[0].value_at(succ_at[1])
            if sv.wdl is Wdl.LOSS and (best is None or sv.dtm < best[3]):
                best = (move, succ, succ_at, sv.dtm)
    else:
        for move, succ in transitions:
            succ_at = tb.locate_successor(table, idx, move)
            sv = succ_at[0].value_at(succ_at[1])
            if sv.wdl is not Wdl.WIN:  # pragma: no cover - contradicts a loss label
                raise RuntimeError("loss position has a non-winning successor")
            if best is None or sv.dtm > best[3]:
                best = (move, succ, succ_at, sv.dtm)
    if best is None:  # pragma: no cover - contradicts a win label
        raise RuntimeError("win position has no losing successor")
    move, succ, succ_at, succ_dtm = best
    if succ_dtm != value.dtm - 1:  # pragma: no cover - dtm recurrence violation
        raise RuntimeError(
            f"policy successor dtm {succ_dtm} is not dtm-1 of {value.dtm}"
        )
    return move, succ, succ_at


def policy_delta(
    vec: ConfigVector, tb: Tablebase, side: Optional[Color] = None
) -> SparseDelta:
    """The sparse vector displacement of one policy step, from the vector alone.

    Augmented vectors carry the side to move; strict vectors need it
    passed explicitly. Satisfies vec + result = encode(successor).
    """
    pos = decode(vec, tb.material.spec, side)
    _, succ = policy_step(pos, tb)
    return delta(vec, encode(succ, vec.mode))


def generate_playout(
    pos: Position, tb: Tablebase, mode: Mode = Mode.AUGMENTED
) -> Playout:
    """Iterate the policy from a decisive position until checkmate.

    The number of steps equals the probed distance to mate exactly, and
    the probed dtm falls by exactly one per ply; a failure of either is
    reported as an internal error rather than silently repaired.
    """
    at = tb.locate(pos)
    value = at[0].value_at(at[1])
    if not value.is_decisive:
        raise UnsupportedCaseError("cannot generate a playout from a drawn position")
    steps = []
    current = pos
    expected_dtm = value.dtm
    for ply in range(expected_dtm):
        # _policy_move raises unless the successor is decisive at dtm - 1.
        move, succ, at = _policy_move(current, tb, at)
        steps.append(PlayoutStep(move, succ, encode(succ, mode), expected_dtm - 1 - ply))
        current = succ
    terminal = outcome(current)
    if terminal is Outcome.ONGOING:  # pragma: no cover - dtm bookkeeping violation
        raise RuntimeError("playout did not terminate at the probed distance to mate")
    return Playout(
        initial=pos,
        initial_vector=encode(pos, mode),
        initial_dtm=expected_dtm,
        mode=mode,
        steps=tuple(steps),
        terminal=terminal,
    )


def playout_csv_header(playout: Playout) -> list:
    spec = playout.initial.spec
    columns = ["n", "move", "dtm"]
    columns += [square_name(sq, spec.width) for sq in range(spec.num_squares)]
    if playout.mode is Mode.AUGMENTED:
        columns.append("stm")
    return columns


def write_playout_csv(playout: Playout, stream: IO[str]) -> None:
    """One row per ply: index, move text, dtm, then the full vector."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(playout_csv_header(playout))
    width = playout.initial.spec.width
    writer.writerow([0, "", playout.initial_dtm, *playout.initial_vector.components])
    for n, step in enumerate(playout.steps, start=1):
        writer.writerow([n, step.move.text(width), step.dtm, *step.vector.components])
