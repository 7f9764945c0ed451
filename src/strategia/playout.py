"""Deterministic optimal-play move policy and playout generation.

The policy is a pure function of the position and a solved table: the
winning side plays the lexicographically first move that minimizes the
successor's distance to mate, the losing side the first move that
maximizes it (holding out as long as possible). Iterating the policy
from any decisive position yields a playout whose length in plies is
exactly the probed distance to mate, together with the encoded vector
at every ply. Drawn positions are refused: there is no canonical
drawing policy here.

The policy (``Tablebase.policy``) covers each class of the table's
closure: the move of every decisive, non-terminal index and the (class
slot, index) it reaches. It is kept one block of 4,096 indices at a
time: a row's first ask fills the block that holds it, so a line pays
for, and holds, the blocks its plies touch, and many playouts together
fill each block at most once. A playout locates its start once (one
class key and one ``index_of``) and then walks indices, one choice per
ply; only the chosen successor is built as a ``Position``
(``board.play``) and encoded. Experiments play no ``Playout``: ``Policy.walk`` walks all
their lines together and builds no ``Position`` per ply (see
``dynamics``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Optional

from .board import Color, Move, Outcome, Position, play, square_name
from .encoding import ConfigVector, Mode, SparseDelta, decode, delta, encode
from .errors import UnsupportedCaseError
from .tablebase import Tablebase


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
    table, idx = tb.locate(pos)
    value = table.value_at(idx)
    if not value.is_decisive:
        raise UnsupportedCaseError(
            "drawn positions have no defined policy; only decisive positions are supported"
        )
    if value.dtm == 0:
        raise UnsupportedCaseError("terminal position: no move to choose")
    policy = tb.policy()
    move, _, _ = policy.choice(policy.slots[table.material.key], idx)
    return move, play(pos, move)


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
    the probed dtm falls by exactly one per ply: the policy checks that
    every choice is at dtm - 1, and checked when it was made that every
    (LOSS, 0) entry is checkmate, and raises RuntimeError otherwise.
    """
    table, idx = tb.locate(pos)
    value = table.value_at(idx)
    if not value.is_decisive:
        raise UnsupportedCaseError("cannot generate a playout from a drawn position")
    policy = tb.policy()
    slot = policy.slots[table.material.key]
    steps = []
    current = pos
    for dtm in range(value.dtm - 1, -1, -1):
        move, slot, idx = policy.choice(slot, idx)
        current = play(current, move)
        steps.append(PlayoutStep(move, current, encode(current, mode), dtm))
    return Playout(
        initial=pos,
        initial_vector=encode(pos, mode),
        initial_dtm=value.dtm,
        mode=mode,
        steps=tuple(steps),
        terminal=Outcome.CHECKMATE,
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
