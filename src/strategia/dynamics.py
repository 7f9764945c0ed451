"""Sensitivity experiments: perturb a position, compare the two playouts.

A perturbation relocates exactly one piece to a king-step-adjacent
empty square, the smallest positional change the board admits. For a
base/perturbed pair the divergence record tracks the per-ply Euclidean
and Hamming distances between the encoded vectors over the common
prefix, the first ply at which the chosen moves differ, and a
finite-time divergence exponent. The experiment driver samples base
positions from a solved table under a fixed seed and aggregates the
records; identical inputs give byte-identical reports.

``divergence`` compares two ``Playout``s. The experiment plays none:
``Policy.walk`` walks the lines of every base and decisive perturbation
together, one batched choice per (class, side to move) group and ply.
Their vectors, and the starts of draw-involved pairs, are scattered from
digit columns into int8 code rows (``encoding.code_rows``), and one
helper, ``_separations``, computes every d and Hamming series from them.

All numbers reported here are observations about exactly solved small
classes. They say nothing about boards or material beyond what was
measured.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Callable, Optional

import numpy as np

from .board import (
    CastleRights,
    Color,
    PieceKind,
    Position,
    geometry,
    square_name,
    validate_position,
)
from .encoding import Mode, code_rows, mark_double_pushes
from .errors import UnsupportedCaseError, ValidationError
from .fen import format_fen
from .playout import Playout
from .tablebase import Tablebase, Wdl, WdlDtm, _decode_columns, _encode_columns, position_at

SCHEMA_VERSION = 1
SCOPE_NOTE = (
    "Desk-scale observations on exactly solved endgame classes; "
    "no claim is made about boards, material, or play beyond what was measured."
)

STANDARD_VALUES = {
    PieceKind.PAWN: 1,
    PieceKind.KNIGHT: 3,
    PieceKind.BISHOP: 3,
    PieceKind.ROOK: 5,
    PieceKind.QUEEN: 9,
    PieceKind.KING: 0,
}


class OutcomeClass(str, Enum):
    SAME_WINNER = "both-decisive-same-winner"
    FLIP = "outcome-flip"
    DRAW_INVOLVED = "draw-involved"


@dataclass(frozen=True)
class Perturbation:
    base: Position
    moved_from: int
    moved_to: int
    perturbed: Position


def perturbations(pos: Position) -> list:
    """All single-piece one-king-step relocations that stay valid.

    Targets must be empty; the relocated position keeps the side to
    move and must satisfy every position invariant. Output is ordered
    by (piece square, target square).
    """
    geo = geometry(pos.spec.width, pos.spec.height)
    out = []
    board = pos.placement
    for from_sq, cell in enumerate(board):
        if cell == 0:
            continue
        for to_sq in geo.king_steps[from_sq]:
            if board[to_sq] != 0:
                continue
            nb = list(board)
            nb[from_sq] = 0
            nb[to_sq] = cell
            candidate = Position(
                spec=pos.spec,
                placement=tuple(nb),
                side_to_move=pos.side_to_move,
                ep_square=pos.ep_square,
                castle_rights=pos.castle_rights,
                ply_index=pos.ply_index,
            )
            try:
                validate_position(candidate)
            except ValidationError:
                if pos.ep_square is None and not pos.castle_rights.any():
                    continue
                # Relocation may have broken only ep/castling bookkeeping;
                # retry with that state dropped before giving up.
                candidate = replace(candidate, ep_square=None, castle_rights=CastleRights())
                try:
                    validate_position(candidate)
                except ValidationError:
                    continue
            out.append(Perturbation(pos, from_sq, to_sq, candidate))
    return out


@dataclass(frozen=True)
class DivergenceRecord:
    """Separation measurements for one base/perturbed pair."""

    base: Position
    perturbed: Position
    base_value: WdlDtm
    perturbed_value: WdlDtm
    outcome_class: OutcomeClass
    d_series: tuple  # Euclidean distances d(0..m) over the common prefix
    hamming_series: tuple
    first_divergence_ply: Optional[int]
    lambda_ft: Optional[float] = None

    @property
    def prefix_plies(self) -> int:
        return len(self.d_series) - 1


def _value_from_playout(playout: Playout) -> WdlDtm:
    wdl = Wdl.WIN if playout.winner is playout.initial.side_to_move else Wdl.LOSS
    return WdlDtm(wdl, playout.initial_dtm)


def _separations(a, b) -> tuple:
    """Euclidean and Hamming distances between code rows `a` and `b`, along their last axis.

    The codes are widened to int64 before squaring. Returns float64 and
    int64 arrays over the broadcast leading axes, whose ``.tolist()``
    gives the Python floats and ints that records hold.
    """
    diff = np.asarray(b, dtype=np.int64) - np.asarray(a, dtype=np.int64)
    return np.sqrt((diff * diff).sum(axis=-1)), np.count_nonzero(diff, axis=-1)


def divergence(path_a: Playout, path_b: Playout) -> DivergenceRecord:
    """Compare two playouts over their common prefix.

    d(n) and hamming(n) run for n = 0..m where m is the shorter playout
    length in plies; first_divergence_ply is the first ply whose chosen
    moves differ (None if they agree over the whole prefix).
    """
    if path_a.mode is not path_b.mode:
        raise ValidationError("playout encoding modes differ")
    m = min(path_a.plies, path_b.plies)
    d_series, hamming_series = _separations(
        [vec.components for vec in path_a.vectors()[: m + 1]],
        [vec.components for vec in path_b.vectors()[: m + 1]],
    )
    first_div = None
    for n in range(1, m + 1):
        if path_a.steps[n - 1].move != path_b.steps[n - 1].move:
            first_div = n
            break
    winner_a, winner_b = path_a.winner, path_b.winner
    outcome_class = (
        OutcomeClass.SAME_WINNER if winner_a is winner_b else OutcomeClass.FLIP
    )
    return DivergenceRecord(
        base=path_a.initial,
        perturbed=path_b.initial,
        base_value=_value_from_playout(path_a),
        perturbed_value=_value_from_playout(path_b),
        outcome_class=outcome_class,
        d_series=tuple(d_series.tolist()),
        hamming_series=tuple(hamming_series.tolist()),
        first_divergence_ply=first_div,
    )


def finite_time_lyapunov(record: DivergenceRecord) -> float:
    """(1/m) * ln(d(m)/d(0)) over the common prefix, in nats per ply.

    Defined only for both-decisive-same-winner pairs with a prefix of
    at least 2 plies and a nonzero initial separation. Pairs whose
    paths merge (d(m) = 0) yield -inf; callers should count those
    separately rather than average them.
    """
    if record.outcome_class is not OutcomeClass.SAME_WINNER:
        raise UnsupportedCaseError(
            "finite-time exponent is defined only for same-winner decisive pairs"
        )
    m = record.prefix_plies
    if m < 2:
        raise UnsupportedCaseError(f"common prefix too short ({m} plies, need >= 2)")
    if record.d_series[0] == 0.0:
        raise UnsupportedCaseError("zero initial separation: identical starts")
    return _exponent(record.d_series)


def _exponent(d_series) -> float:
    """(1/m) * ln(d(m)/d(0)) of a series with a nonzero d(0), m its last ply; -inf if d(m) = 0."""
    m = len(d_series) - 1
    return math.log(d_series[m] / d_series[0]) / m if d_series[m] != 0.0 else float("-inf")


@dataclass(frozen=True)
class AtypicalityThresholds:
    depletion_max_pieces: int = 3
    forced_mate_max_dtm: int = 10
    material_gap_min: int = 5

    def __post_init__(self):
        values = self.as_dict().values()
        if any(isinstance(value, bool) or not isinstance(value, int) for value in values):
            raise ValidationError("atypicality thresholds must be integers")
        if min(values) <= 0:
            raise ValidationError("atypicality thresholds must be positive")

    def as_dict(self) -> dict:
        return {
            "depletion_max_pieces": self.depletion_max_pieces,
            "forced_mate_max_dtm": self.forced_mate_max_dtm,
            "material_gap_min": self.material_gap_min,
        }


DEFAULT_THRESHOLDS = AtypicalityThresholds()


@dataclass(frozen=True)
class AtypicalityResult:
    atypical: bool
    reasons: tuple
    piece_count: int
    dtm: Optional[int]
    material_gap: int


def material_points(pieces) -> dict:
    """Standard-value points per color of an iterable of pieces."""
    points = {Color.WHITE: 0, Color.BLACK: 0}
    for piece in pieces:
        points[piece.color] += STANDARD_VALUES[piece.kind]
    return points


def material_gap(pos: Position) -> int:
    points = material_points(piece for _, piece in pos.pieces())
    return abs(points[Color.WHITE] - points[Color.BLACK])


def is_atypical(
    pos: Position, tb: Tablebase, thresholds: AtypicalityThresholds = DEFAULT_THRESHOLDS
) -> AtypicalityResult:
    """Classify a position against the three atypicality conditions.

    A position is atypical when it is depleted of pieces, carries a
    forced mate within the threshold, or shows an overwhelming
    standard-value material gap. Reasons list every triggered condition.
    """
    reasons = []
    count = pos.piece_count()
    if count <= thresholds.depletion_max_pieces:
        reasons.append("depletion")
    value = tb.probe(pos)
    dtm = value.dtm if value.is_decisive else None
    if value.is_decisive and value.dtm <= thresholds.forced_mate_max_dtm:
        reasons.append("forced-mate")
    gap = material_gap(pos)
    if gap >= thresholds.material_gap_min:
        reasons.append("material-gap")
    return AtypicalityResult(bool(reasons), tuple(reasons), count, dtm, gap)


@dataclass(frozen=True)
class PairRecord:
    """Serializable per-pair experiment row."""

    base_index: int
    perturbed_index: int
    moved_from: int
    moved_to: int
    record: DivergenceRecord


@dataclass
class ExperimentReport:
    material: str
    board: tuple
    sample_size: int
    seed: int
    mode: Mode
    thresholds: AtypicalityThresholds
    table_checksum: int
    counts: dict
    lambda_summary: Optional[dict]
    first_divergence_histogram: dict
    atypicality: dict
    pairs: tuple

    def json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "divergence-experiment",
            "material": self.material,
            "board": {"width": self.board[0], "height": self.board[1]},
            "sample_size": self.sample_size,
            "seed": self.seed,
            "mode": self.mode.value,
            "thresholds": self.thresholds.as_dict(),
            "table_checksum": f"crc32:{self.table_checksum:08x}",
            "counts": self.counts,
            "lambda_per_ply": self.lambda_summary,
            "first_divergence_histogram": self.first_divergence_histogram,
            "atypicality_of_bases": self.atypicality,
            "records_file": "records.csv",
            "manifest_file": "manifest.jsonl",
            "scope_note": SCOPE_NOTE,
        }

    def json_text(self) -> str:
        return json.dumps(self.json_dict(), indent=2, sort_keys=True) + "\n"

    def write_records_csv(self, stream: IO[str]) -> None:
        import csv as _csv

        writer = _csv.writer(stream, lineterminator="\n")
        writer.writerow(
            [
                "base_index", "base_fen", "base_wdl", "base_dtm",
                "perturb_from", "perturb_to",
                "perturbed_index", "perturbed_fen", "perturbed_wdl", "perturbed_dtm",
                "outcome_class", "prefix_plies", "d0", "dm",
                "first_divergence_ply", "lambda_ft",
                "d_series", "hamming_series",
            ]
        )
        base_fens = {}
        for pair in self.pairs:
            rec = pair.record
            base, pert = rec.base, rec.perturbed
            if pair.base_index not in base_fens:
                base_fens[pair.base_index] = format_fen(base)
            width = base.spec.width
            lam = rec.lambda_ft
            writer.writerow(
                [
                    pair.base_index,
                    base_fens[pair.base_index],
                    rec.base_value.wdl.name.lower(),
                    "" if rec.base_value.dtm is None else rec.base_value.dtm,
                    square_name(pair.moved_from, width),
                    square_name(pair.moved_to, width),
                    pair.perturbed_index,
                    format_fen(pert),
                    rec.perturbed_value.wdl.name.lower(),
                    "" if rec.perturbed_value.dtm is None else rec.perturbed_value.dtm,
                    rec.outcome_class.value,
                    rec.prefix_plies,
                    repr(rec.d_series[0]),
                    repr(rec.d_series[-1]),
                    "" if rec.first_divergence_ply is None else rec.first_divergence_ply,
                    "" if lam is None else repr(lam),
                    "|".join(repr(d) for d in rec.d_series),
                    "|".join(str(h) for h in rec.hamming_series),
                ]
            )


@dataclass(frozen=True)
class _Base:
    """A sampled base, its value, and (perturbation, index, value) of each perturbation in order.

    Its lines are the base's, then each decisive perturbation's in order.
    """

    index: int
    position: Position
    value: WdlDtm
    perturbed: tuple

    @property
    def line_starts(self) -> list:
        return [self.index] + [idx for _, idx, value in self.perturbed if value.is_decisive]


def _locate_base(tb: Tablebase, base_idx: int) -> _Base:
    """The base at `base_idx`, and the index and value of each of its ``perturbations``.

    One ``_encode_columns`` call indexes every perturbation: the base's
    digit columns, each with its moved piece's square replaced.
    """
    base = position_at(base_idx, tb.material)
    moves = perturbations(base)
    side, squares = _decode_columns(tb.material, base_idx)
    digits = [np.int64([p.moved_to if p.moved_from == sq else sq for p in moves]) for sq in squares]
    indices = _encode_columns(tb.material, side, digits).tolist()
    perturbed = tuple((p, idx, tb.value_at(idx)) for p, idx in zip(moves, indices))
    return _Base(base_idx, base, tb.value_at(base_idx), perturbed)


def _line_vectors(policy, slots, indices, keys, mode: Mode) -> np.ndarray:
    """int8 (plies + 1, lines, components) vectors of walked lines (``Policy.walk`` arrays).

    Each class's rows are decoded into digit columns at once and
    scattered into code rows (``code_rows``); the pawn a move has just
    double-pushed is marked where the board allows en passant.
    """
    spec = policy.material.spec
    lines = slots.shape[1]
    flat_slot, flat_index = slots.ravel(), indices.ravel()
    rows = np.empty((flat_slot.size, spec.num_squares + (mode is Mode.AUGMENTED)), dtype=np.int8)
    for slot in np.flatnonzero(np.bincount(flat_slot)).tolist():
        at = np.flatnonzero(flat_slot == slot)
        material = policy.tables[slot].material
        side, squares = _decode_columns(material, flat_index[at])
        cells = [piece.cell for piece in material.pieces]
        rows[at] = code_rows(cells, squares, side, spec.num_squares, mode)
    if spec.en_passant_enabled:
        src, dest = np.divmod(keys.ravel() >> 3, spec.num_squares)
        mark_double_pushes(rows[lines:], src, dest, spec.width)
    return rows.reshape(slots.shape + (-1,))


def _pairs_for_base(policy, base: _Base, slots, indices, keys, mode: Mode) -> list:
    """The pair records of one base from its walked lines (``_Base.line_starts`` order).

    A decisive pair's d, Hamming and first divergence ply run over its
    common prefix of plies. A draw-involved pair's d(0) and hamming(0)
    compare the base's first code row with the code row of its index.
    """
    dtm = np.array([base.value.dtm] + [v.dtm for _, _, v in base.perturbed if v.is_decisive])
    plies = int(dtm.max())
    vectors = _line_vectors(policy, slots[: plies + 1], indices[: plies + 1], keys[:plies], mode)
    d_series, hamming_series = _separations(vectors[:, :1], vectors[:, 1:])
    prefix = np.minimum(dtm[0], dtm[1:])
    # Row n: whether the pair's moves at ply n differ inside its prefix. Row 0 never does.
    differ = np.zeros((plies + 1, prefix.size), dtype=bool)
    differ[1:] = keys[:plies, 1:] != keys[:plies, :1]
    differ &= np.arange(plies + 1)[:, None] <= prefix
    first_div = differ.argmax(axis=0).tolist()
    lines = zip(d_series.T.tolist(), hamming_series.T.tolist(), prefix.tolist(), first_div)
    side, squares = _decode_columns(
        policy.material, np.int64([idx for _, idx, v in base.perturbed if not v.is_decisive])
    )
    cells = [piece.cell for piece in policy.material.pieces]
    starts = code_rows(cells, squares, side, policy.material.spec.num_squares, mode)
    drawn = zip(*(column.tolist() for column in _separations(vectors[0, 0], starts)))
    out = []
    for p, pert_idx, pert_value in base.perturbed:
        if pert_value.is_decisive:
            d, hamming, m, first = next(lines)
            d, hamming, first = d[: m + 1], hamming[: m + 1], first or None
            same = pert_value.wdl is base.value.wdl
            outcome = OutcomeClass.SAME_WINNER if same else OutcomeClass.FLIP
        else:
            (d0, hamming0), first, outcome = next(drawn), None, OutcomeClass.DRAW_INVOLVED
            d, hamming = [d0], [hamming0]
        lam = _exponent(d) if outcome is OutcomeClass.SAME_WINNER and len(d) > 2 else None
        record = DivergenceRecord(
            base.position, p.perturbed, base.value, pert_value, outcome,
            tuple(d), tuple(hamming), first, lam,
        )
        out.append(PairRecord(base.index, pert_idx, p.moved_from, p.moved_to, record))
    return out


def _percentile(arr: np.ndarray, q: int) -> float:
    """``np.percentile(arr, q)`` of the sorted, finite float64 `arr`, bit for bit.

    numpy's linear rule: interpolate at (n - 1) * q / 100 between its
    two neighbours, from the upper one at or past halfway. Calling
    ``np.percentile`` would import ``numpy.ma`` into every experiment.
    """
    at = (arr.size - 1) * (q / 100)
    lo = math.floor(at)
    below, above, t = arr[lo], arr[min(lo + 1, arr.size - 1)], at - lo
    return float(above - (above - below) * (1 - t) if t >= 0.5 else below + (above - below) * t)


def sample_experiment(
    tb: Tablebase,
    sample_size: int,
    seed: int,
    *,
    thresholds: AtypicalityThresholds = DEFAULT_THRESHOLDS,
    mode: Mode = Mode.AUGMENTED,
    progress: Optional[Callable[[str], None]] = None,
) -> ExperimentReport:
    """Sample decisive bases, perturb each, and aggregate the divergence records.

    The lines of every base and decisive perturbation are walked
    together, one batched choice per ply (``Policy.walk``, reported
    through `progress`), before the records are built base by base
    from them; no block of the policy is filled.

    A pure function of (table, sample_size, seed, mode, thresholds):
    records come in canonical (base index, perturbation) order.
    """
    # A table with no decisive entry is refused before a size that is
    # not positive, so such a size still draws one base to find out.
    base_indices = tb.decisive_sample(random.Random(seed), max(sample_size, 1)).tolist()
    if not base_indices:
        raise UnsupportedCaseError("table has no decisive entries to sample")
    if sample_size <= 0:
        raise ValidationError("sample_size must be positive")

    bases = [_locate_base(tb, idx) for idx in base_indices]
    starts = [idx for base in bases for idx in base.line_starts]
    policy = tb.policy()
    top = np.full(len(starts), policy.slots[tb.material.key])
    slots, indices, keys = policy.walk(top, starts, progress=progress)
    pairs = []
    end = 0
    for base in bases:
        lines = slice(end, end + len(base.line_starts))
        end = lines.stop
        pairs += _pairs_for_base(
            policy, base, slots[:, lines], indices[:, lines], keys[:, lines], mode
        )

    counts = {
        "bases": len(base_indices),
        "pairs_total": len(pairs),
        "same_winner": 0,
        "outcome_flip": 0,
        "draw_involved": 0,
        "merged_pairs": 0,
        "short_prefix_pairs": 0,
    }
    lambdas = []
    first_div_hist: dict = {}
    for pair in pairs:
        rec = pair.record
        if rec.outcome_class is OutcomeClass.SAME_WINNER:
            counts["same_winner"] += 1
            if rec.prefix_plies < 2:
                counts["short_prefix_pairs"] += 1
            elif rec.lambda_ft == float("-inf"):
                counts["merged_pairs"] += 1
            else:
                lambdas.append(rec.lambda_ft)
        elif rec.outcome_class is OutcomeClass.FLIP:
            counts["outcome_flip"] += 1
        else:
            counts["draw_involved"] += 1
        if rec.first_divergence_ply is not None:
            key = str(rec.first_divergence_ply)
            first_div_hist[key] = first_div_hist.get(key, 0) + 1
        elif rec.outcome_class is not OutcomeClass.DRAW_INVOLVED:
            first_div_hist["none"] = first_div_hist.get("none", 0) + 1
    counts["lambda_count"] = len(lambdas)
    counts["outcome_flip_rate"] = (
        counts["outcome_flip"] / counts["pairs_total"] if pairs else 0.0
    )

    lambda_summary = None
    if lambdas:
        arr = np.sort(np.asarray(lambdas, dtype=np.float64))
        deciles = {f"p{q}": _percentile(arr, q) for q in range(10, 100, 10)}
        lambda_summary = {
            "count": int(arr.size),
            "min": float(arr[0]),
            "median": deciles["p50"],
            "max": float(arr[-1]),
            **deciles,
        }

    atypicality = {"depletion": 0, "forced-mate": 0, "material-gap": 0, "typical": 0}
    for base in bases:
        result = is_atypical(base.position, tb, thresholds)
        if not result.atypical:
            atypicality["typical"] += 1
        for reason in result.reasons:
            atypicality[reason] += 1

    return ExperimentReport(
        material=tb.material.name,
        board=(tb.material.spec.width, tb.material.spec.height),
        sample_size=sample_size,
        seed=seed,
        mode=mode,
        thresholds=thresholds,
        table_checksum=tb.checksum,
        counts=counts,
        lambda_summary=lambda_summary,
        first_divergence_histogram=dict(sorted(first_div_hist.items())),
        atypicality=atypicality,
        pairs=tuple(pairs),
    )
