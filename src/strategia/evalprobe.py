"""Capacity-bounded static evaluators fitted against tablebase truth.

A static evaluator scores a position from its surface features alone,
with no search. The model family here is linear least squares over a
fixed, named feature chain; capacity = how many leading features of
the chain the model may use. Regression targets are signed distances
to mate (positive when the side to move wins, negative when it loses),
so the sign of a prediction doubles as a win/loss call. Fitting and
evaluation are deterministic given dataset order and seed.

Features are computed in numpy batches of rows, not one position at a
time: a dataset's table indices are decoded into one square column per
piece slot with the solver's decode, and mobility counts the bits of
the solver's move rule (``tablebase._MoveTables.moves``), which the
solver narrows by king safety, so the rules keep one vectorized form.
``extract_features`` feeds one position's pieces through the same
column code.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .board import BoardSpec, Color, Piece, PieceKind, Position
from .dynamics import material_points
from .errors import UnknownFeatureError, ValidationError
from .tablebase import _BUILD_BLOCK, Tablebase, Wdl, _decode_columns, _move_tables, _wdl


_MATERIAL_FEATURES = {
    f"material_{c}{k}": Piece(kind, color)
    for color, c in ((Color.WHITE, "w"), (Color.BLACK, "b"))
    for kind, k in zip(
        (PieceKind.PAWN, PieceKind.KNIGHT, PieceKind.BISHOP, PieceKind.ROOK, PieceKind.QUEEN), "pnbrq"
    )
}

# The nested capacity sweep walks this chain front to back; 16 features.
DEFAULT_FEATURE_CHAIN = (
    "side_to_move",
    "king_distance",
    "mobility_white",
    "defender_edge_distance",
    "defender_corner_distance",
    "mobility_black",
    "material_wp",
    "material_wn",
    "material_wb",
    "material_wr",
    "material_wq",
    "material_bp",
    "material_bn",
    "material_bb",
    "material_br",
    "material_bq",
)


def _feature_matrix(spec: BoardSpec, pieces, squares, side, names) -> np.ndarray:
    """Feature rows over slot columns, one column per name.

    `squares[i]` holds the square of `pieces[i]` in every row and `side`
    the side to move (0 White, 1 Black). The defender is the side with
    fewer standard-value points (Black on ties); mobility counts a
    side's pseudo-legal moves as the bits of ``_MoveTables.moves``,
    ignoring king safety, never landing on a king, counting a
    promotion once and omitting en passant and castling.
    """
    width, height = spec.width, spec.height
    tables = _move_tables(width, height)
    rows = side.size
    kings = {p.color: sq for p, sq in zip(pieces, squares) if p.kind is PieceKind.KING}
    points = material_points(pieces)
    defender = kings[Color.WHITE if points[Color.WHITE] < points[Color.BLACK] else Color.BLACK]
    file, rank = defender % width, defender // width
    edge_file = np.minimum(file, width - 1 - file)
    edge_rank = np.minimum(rank, height - 1 - rank)
    occ = tables.occupancy(squares, rows)

    def mobility(color: Color) -> np.ndarray:
        enemy = tables.occupancy(
            (sq for p, sq in zip(pieces, squares) if p.color is not color and p.kind is not PieceKind.KING), rows
        )
        total = np.zeros(rows, dtype=np.int64)
        for p, sq in zip(pieces, squares):
            if p.color is color:
                total += np.bitwise_count(tables.moves(p.kind, color, sq, occ, enemy))
        return total

    white_king, black_king = kings[Color.WHITE], kings[Color.BLACK]
    columns = {
        "side_to_move": lambda: 1 - 2 * side,
        "king_distance": lambda: np.maximum(
            abs(white_king % width - black_king % width),
            abs(white_king // width - black_king // width),
        ),
        "defender_edge_distance": lambda: np.minimum(edge_file, edge_rank),
        # Chebyshev distance to the nearest corner: the nearest corner
        # lies on the nearest file edge and the nearest rank edge.
        "defender_corner_distance": lambda: np.maximum(edge_file, edge_rank),
        "mobility_white": lambda: mobility(Color.WHITE),
        "mobility_black": lambda: mobility(Color.BLACK),
    }
    X = np.empty((rows, len(names)), dtype=np.float64)
    for j, name in enumerate(names):
        if name in columns:
            X[:, j] = columns[name]()
        elif name in _MATERIAL_FEATURES:
            X[:, j] = pieces.count(_MATERIAL_FEATURES[name])
        else:
            raise UnknownFeatureError(f"unknown feature {name!r}")
    return X


def extract_features(pos: Position, names: Sequence[str] = DEFAULT_FEATURE_CHAIN) -> np.ndarray:
    """Feature vector for one position, in the order of `names`."""
    placed = list(pos.pieces())
    squares = [np.array([sq], dtype=np.int64) for sq, _ in placed]
    side = np.array([pos.side_to_move.value], dtype=np.int64)
    return _feature_matrix(pos.spec, [p for _, p in placed], squares, side, names)[0]


def _check_sample_size(sample_size: Optional[int]) -> None:
    if sample_size is not None and sample_size < 1:
        raise ValidationError(f"sample size must be at least 1, got {sample_size}")


def _check_capacity(capacity, feature_count: int) -> None:
    """Refuse a capacity that is not an integer (a bool is not) in 0..`feature_count`."""
    if isinstance(capacity, bool) or not isinstance(capacity, (int, np.integer)):
        raise ValidationError(f"capacity must be an integer, got {capacity!r}")
    if not 0 <= capacity <= feature_count:
        raise ValidationError(f"capacity {capacity} outside 0..{feature_count}")


def _dataset(tb: Tablebase, names: Sequence[str], sample_size: Optional[int], seed: int,
             bias: bool):
    """`build_dtm_dataset`, with a last column of ones after the features when `bias` is set."""
    _check_sample_size(sample_size)
    if sample_size is None:
        decisive = tb.decisive_indices()
    else:
        decisive = tb.decisive_sample(random.Random(seed), sample_size)
    if not decisive.size:
        raise ValidationError("table has no decisive entries")
    pieces = list(tb.material.pieces)
    X = np.empty((decisive.size, len(names) + bias), dtype=np.float64)
    if bias:
        X[:, -1] = 1.0
    for lo in range(0, decisive.size, _BUILD_BLOCK):
        rows = decisive[lo:lo + _BUILD_BLOCK]
        side, squares = _decode_columns(tb.material, rows)
        X[lo:lo + rows.size, :len(names)] = _feature_matrix(
            tb.material.spec, pieces, squares, side, names
        )
    code = tb.code[decisive]
    y = np.where(_wdl(code) == Wdl.WIN.value, 1.0, -1.0) * code
    return X, y, decisive


def build_dtm_dataset(
    tb: Tablebase,
    names: Sequence[str] = DEFAULT_FEATURE_CHAIN,
    sample_size: Optional[int] = None,
    seed: int = 0,
):
    """(X, y, indices) over decisive entries, optionally a seeded subsample.

    Rows are ordered by table index, so the dataset is a pure function
    of (table, names, sample_size, seed); the subsample is
    ``Tablebase.decisive_sample`` drawn by ``Random(seed)``. The targets
    are signed dtm: +dtm for wins, -dtm for losses, from the side to
    move's view. X has one column per name. The feature rows are filled
    ``_BUILD_BLOCK`` rows at a time, so their temporaries stay bounded;
    ``capacity_sweep`` builds its train rows the same way into a buffer
    with one more column, of ones, that its fits use as the bias column.
    """
    return _dataset(tb, names, sample_size, seed, bias=False)


class LinearEvaluator:
    """Least-squares linear evaluator over the first `capacity` chain features.

    Minimal estimator interface: fit/predict plus get_params/set_params,
    so it slots into standard tooling. Capacity 0 is the bias-only
    model. Rank-deficient designs fall back to the minimal-norm
    solution (np.linalg.lstsq); `rank_deficient_` records that.
    """

    def __init__(self, features: Sequence[str] = DEFAULT_FEATURE_CHAIN, capacity: Optional[int] = None):
        self.features = tuple(features)
        self.capacity = len(self.features) if capacity is None else capacity

    def get_params(self, deep: bool = True) -> dict:
        return {"features": self.features, "capacity": self.capacity}

    def set_params(self, **params) -> "LinearEvaluator":
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValidationError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def _columns(self, X: np.ndarray) -> np.ndarray:
        """The first `capacity` columns of the feature matrix `X`, as float64."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < self.capacity:
            raise ValidationError(
                f"feature matrix must have at least {self.capacity} columns"
            )
        return X[:, : self.capacity]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearEvaluator":
        _check_capacity(self.capacity, len(self.features))
        y = np.asarray(y, dtype=np.float64)
        if y.size == 0:
            raise ValidationError("empty training dataset")
        columns = self._columns(X)
        design = np.concatenate([columns, np.ones((columns.shape[0], 1))], axis=1)
        return self._fit_design(design, y)

    def _fit_design(self, design: np.ndarray, y: np.ndarray) -> "LinearEvaluator":
        """Fit on `design`: the first `capacity` features, then a column of ones."""
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        self.weights_ = coef[:-1]
        self.bias_ = float(coef[-1])
        self.rank_ = int(rank)
        self.rank_deficient_ = rank < design.shape[1]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "weights_"):
            raise ValidationError("evaluator is not fitted")
        return self._columns(X) @ self.weights_ + self.bias_


def fit_evaluator(X: np.ndarray, y: np.ndarray, capacity: int,
                  features: Sequence[str] = DEFAULT_FEATURE_CHAIN) -> LinearEvaluator:
    return LinearEvaluator(features=features, capacity=capacity).fit(X, y)


@dataclass(frozen=True)
class ErrorReport:
    dtm_mae: float
    wdl_misclassification: float
    sample_size: int
    capacity: int

    def __post_init__(self):
        if not 0.0 <= self.wdl_misclassification <= 1.0:
            raise ValidationError("misclassification rate must lie in [0, 1]")
        if self.dtm_mae < 0:
            raise ValidationError("MAE must be nonnegative")


def mae(predicted: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean(np.abs(predicted - target)))


def wdl_misclassification(predicted: np.ndarray, target: np.ndarray) -> float:
    """Sign rule: predicted > 0 calls a win, < 0 a loss; 0 is always wrong."""
    return float(np.mean(np.sign(predicted) != np.sign(target)))


def evaluator_error(
    model: LinearEvaluator,
    tb: Tablebase,
    sample_size: Optional[int],
    seed: int,
) -> ErrorReport:
    """Model error against table truth on a seeded decisive sample."""
    X, y, _ = build_dtm_dataset(tb, model.features, sample_size, seed)
    predicted = model.predict(X)
    return ErrorReport(
        dtm_mae=mae(predicted, y),
        wdl_misclassification=wdl_misclassification(predicted, y),
        sample_size=int(y.size),
        capacity=model.capacity,
    )


def capacity_sweep(
    tb: Tablebase,
    capacities: Sequence[int],
    *,
    features: Sequence[str] = DEFAULT_FEATURE_CHAIN,
    train_sample: Optional[int] = None,
    eval_sample: Optional[int] = None,
    seed: int = 0,
) -> list:
    """Fit one model per capacity on a shared train set; report train/eval error.

    Returns rows of (capacity, train_mae, eval_mae, wdl_misclassification,
    train_size, eval_size), equal to what ``fit_evaluator`` on
    ``build_dtm_dataset``'s train set gives. The eval sample is drawn
    with a shifted seed so it differs from the train sample when
    subsampling. Both sample sizes and every capacity are checked
    before any dataset is built.

    The train rows are built once, with a last column of ones, and no
    design is copied out of them. Each distinct capacity is fitted once,
    greatest first: capacity c overwrites column c with ones, which no
    smaller capacity reads, and is fitted on the view of the first
    c + 1 columns. So least squares reads the values of
    ``LinearEvaluator.fit``'s design in its column order, and its own
    copy of the design is the only other one. One dataset is alive at
    a time: every model is fitted and its train MAE taken before the
    train set is dropped and the eval set built.
    """
    _check_sample_size(train_sample)
    _check_sample_size(eval_sample)
    capacities = list(capacities)
    for capacity in capacities:
        _check_capacity(capacity, len(features))
    X, y = _dataset(tb, features, train_sample, seed, bias=True)[:2]
    fitted = {}
    for capacity in sorted(set(capacities), reverse=True):
        X[:, capacity] = 1.0
        model = LinearEvaluator(features, capacity)._fit_design(X[:, :capacity + 1], y)
        fitted[capacity] = (model, mae(model.predict(X), y))
    train_size = int(y.size)
    del X, y
    X, y = build_dtm_dataset(tb, features, eval_sample, seed + 1)[:2]
    rows = []
    for capacity in capacities:
        model, train_mae = fitted[capacity]
        eval_pred = model.predict(X)
        rows.append(
            (
                capacity,
                train_mae,
                mae(eval_pred, y),
                wdl_misclassification(eval_pred, y),
                train_size,
                int(y.size),
            )
        )
    return rows


def write_sweep_csv(rows, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["capacity", "train_mae", "eval_mae", "wdl_misclassification", "train_size", "eval_size"]
    )
    for capacity, train_mae_v, eval_mae_v, misclass, train_size, eval_size in rows:
        writer.writerow(
            [capacity, repr(train_mae_v), repr(eval_mae_v), repr(misclass), train_size, eval_size]
        )
