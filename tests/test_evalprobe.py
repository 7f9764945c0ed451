import tracemalloc

import numpy as np
import pytest

import oracles
import strategia as sg
from strategia import evalprobe
from strategia.evalprobe import (
    DEFAULT_FEATURE_CHAIN,
    LinearEvaluator,
    build_dtm_dataset,
    capacity_sweep,
    evaluator_error,
    fit_evaluator,
    mae,
    wdl_misclassification,
    write_sweep_csv,
)


def fen(text, spec=None):
    return sg.parse_fen(text, spec or sg.BoardSpec.standard())


class TestFeatures:
    def test_king_distance_is_chebyshev(self):
        pos = fen("8/8/4k3/8/4K3/8/8/8 w - -")
        values = sg.extract_features(pos, ("king_distance",))
        assert values[0] == 2.0

    def test_material_counts(self):
        pos = fen("4k3/8/8/8/8/8/8/R3K3 w - -")
        values = sg.extract_features(pos, ("material_wr", "material_br"))
        assert list(values) == [1.0, 0.0]

    def test_defender_distances_use_the_weaker_side(self):
        pos = fen("k3r3/8/8/8/8/8/8/4K3 w - -")
        values = sg.extract_features(
            pos, ("defender_edge_distance", "defender_corner_distance")
        )
        # White (bare king) is the defender here and sits on e1: edge 0, corner 3.
        assert values[0] == 0.0
        assert values[1] == 3.0

    def test_defender_king_in_the_corner_has_zero_distances(self):
        pos = fen("4k3/8/8/8/4r3/8/8/K7 w - -")
        values = sg.extract_features(
            pos, ("defender_edge_distance", "defender_corner_distance")
        )
        assert values[0] == 0.0
        assert values[1] == 0.0

    def test_side_to_move_flag_is_signed(self):
        white = fen("8/8/4k3/8/4K3/8/8/8 w - -")
        black = fen("8/8/4k3/8/4K3/8/8/8 b - -")
        assert sg.extract_features(white, ("side_to_move",))[0] == 1.0
        assert sg.extract_features(black, ("side_to_move",))[0] == -1.0

    def test_mobility_counts_pseudo_legal_moves(self):
        pos = fen("7k/8/8/8/3R4/8/8/K7 w - -")
        values = sg.extract_features(pos, ("mobility_white", "mobility_black"))
        # Rook d4: 14 ray squares; Ka1: 3 steps. Black kh8: 3 steps.
        assert values[0] == 17.0
        assert values[1] == 3.0

    def test_mobility_with_pawns_on_both_sides(self):
        pos = fen("k7/8/8/3pP3/8/8/8/4K3 w - d6")
        values = sg.extract_features(
            pos, ("mobility_white", "mobility_black", "material_wp", "material_bp",
                  "defender_corner_distance")
        )
        # Pe5: e6 only (no en passant); Ke1: 5. Pd5: d4; Ka8: 3.
        # Equal points: Black defends, and Ka8 sits in a corner.
        assert list(values) == [6.0, 4.0, 1.0, 1.0, 0.0]

    def test_unknown_feature_rejected(self):
        pos = fen("8/8/4k3/8/4K3/8/8/8 w - -")
        with pytest.raises(sg.UnknownFeatureError):
            sg.extract_features(pos, ("zobrist",))

    def test_default_chain_has_sixteen_features(self):
        assert len(DEFAULT_FEATURE_CHAIN) == 16


class TestLinearEvaluator:
    def test_exact_linear_target_is_recovered(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 5))
        y = 2.0 * X[:, 0] - 1.5 * X[:, 3] + 4.0
        model = LinearEvaluator(features=("a", "b", "c", "d", "e"), capacity=5).fit(X, y)
        assert mae(model.predict(X), y) < 1e-9

    def test_capacity_zero_is_the_mean_model(self):
        X = np.zeros((6, 3))
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        model = LinearEvaluator(features=("a", "b", "c"), capacity=0).fit(X, y)
        assert model.bias_ == pytest.approx(np.mean(y))
        assert mae(model.predict(X), y) == pytest.approx(np.mean(np.abs(y - np.mean(y))))

    def test_degenerate_constant_features_fall_back_to_minimal_norm(self):
        X = np.ones((10, 2))
        y = np.arange(10, dtype=float)
        model = LinearEvaluator(features=("a", "b"), capacity=2).fit(X, y)
        assert model.rank_deficient_
        assert np.isfinite(model.predict(X)).all()

    def test_capacity_out_of_range_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(sg.ValidationError):
            LinearEvaluator(features=("a", "b"), capacity=3).fit(X, np.zeros(4))

    @pytest.mark.parametrize("capacity", [1.5, True])
    def test_capacity_must_be_an_integer(self, capacity):
        X = np.zeros((4, 2))
        with pytest.raises(sg.ValidationError, match="capacity"):
            LinearEvaluator(features=("a", "b"), capacity=capacity).fit(X, np.zeros(4))

    def test_get_set_params(self):
        model = LinearEvaluator(capacity=4)
        params = model.get_params()
        assert params["capacity"] == 4
        model.set_params(capacity=2)
        assert model.capacity == 2

    def test_fit_is_bit_for_bit_deterministic(self, kqk4):
        X, y, _ = build_dtm_dataset(kqk4)
        a = fit_evaluator(X, y, 6)
        b = fit_evaluator(X, y, 6)
        assert np.array_equal(a.weights_, b.weights_)
        assert a.bias_ == b.bias_


class TestDatasetAndError:
    def test_targets_are_signed_dtm(self, kqk4):
        X, y, indices = build_dtm_dataset(kqk4)
        for row, idx in enumerate(indices[:200]):
            wdl = int(sg.tablebase._wdl(kqk4.code[idx]))
            dtm = int(kqk4.code[idx])
            expected = float(dtm) if wdl == sg.Wdl.WIN.value else -float(dtm)
            assert y[row] == expected

    def test_sampling_is_deterministic(self, kqk4):
        a = build_dtm_dataset(kqk4, sample_size=200, seed=5)
        b = build_dtm_dataset(kqk4, sample_size=200, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_training_error_matches_evaluator_error_on_full_class(self, kqk4):
        X, y, _ = build_dtm_dataset(kqk4)
        model = fit_evaluator(X, y, 8)
        report = evaluator_error(model, kqk4, sample_size=None, seed=0)
        assert report.dtm_mae == pytest.approx(mae(model.predict(X), y))
        assert report.sample_size == len(y)
        assert 0.0 <= report.wdl_misclassification <= 1.0

    def test_random_weights_are_no_better_than_the_fit(self, kqk4):
        X, y, _ = build_dtm_dataset(kqk4)
        fitted = fit_evaluator(X, y, 8)
        rng = np.random.default_rng(123)
        random_model = LinearEvaluator(capacity=8)
        random_model.weights_ = rng.normal(size=8)
        random_model.bias_ = float(rng.normal())
        random_model.rank_ = 9
        random_model.rank_deficient_ = False
        assert mae(fitted.predict(X), y) <= mae(random_model.predict(X), y)

    @pytest.mark.parametrize("size", [None, 1, 5])
    def test_empty_decisive_set_is_an_error(self, size):
        tb = sg.solve(sg.MaterialClass.from_string("KvK", sg.BoardSpec(4, 4)))
        with pytest.raises(sg.ValidationError, match="no decisive entries"):
            build_dtm_dataset(tb, sample_size=size)

    def test_misclassification_sign_rule(self):
        predicted = np.array([3.0, -2.0, 0.0, 5.0])
        target = np.array([4.0, -1.0, 2.0, -5.0])
        assert wdl_misclassification(predicted, target) == pytest.approx(0.5)


class TestCapacitySweep:
    def test_training_mse_non_increasing_and_mae_positive(self, krk5):
        # Nested least squares guarantees monotone squared error; MAE
        # monotonicity is a property of the shipped default chain on the
        # class the acceptance suite probes, not of least squares itself.
        X, y, _ = build_dtm_dataset(krk5)
        mses = []
        for capacity in range(0, 17):
            model = fit_evaluator(X, y, capacity)
            residual = model.predict(X) - y
            mses.append(float(np.mean(residual**2)))
            assert mae(model.predict(X), y) > 0
        assert all(b <= a + 1e-9 for a, b in zip(mses, mses[1:]))

    def test_sweep_scores_each_fit_on_the_eval_set(self, krk5, kqk4):
        # A non-monotone order with a repeat, on samples and on every
        # decisive entry: each row must be the one fit_evaluator gives
        # on build_dtm_dataset's rows, bit for bit.
        capacities = [16, 0, 7, 7, 3, 15]
        for tb, train, evaluate, seed in ((krk5, 900, 700, 4), (kqk4, None, None, 2)):
            rows = capacity_sweep(tb, capacities, train_sample=train, eval_sample=evaluate, seed=seed)
            X_train, y_train, _ = build_dtm_dataset(tb, sample_size=train, seed=seed)
            X_eval, y_eval, _ = build_dtm_dataset(tb, sample_size=evaluate, seed=seed + 1)
            expected = []
            for capacity in capacities:
                model = fit_evaluator(X_train, y_train, capacity)
                predicted = model.predict(X_eval)
                expected.append((capacity, mae(model.predict(X_train), y_train),
                                 mae(predicted, y_eval), wdl_misclassification(predicted, y_eval),
                                 y_train.size, y_eval.size))
            assert rows == expected

    @pytest.mark.parametrize("train,evaluate", [(0, 10), (10, 0)])
    def test_a_bad_sample_size_is_refused_before_any_fit(self, kqk4, train, evaluate):
        with pytest.raises(sg.ValidationError, match="sample size"):
            capacity_sweep(kqk4, [99], train_sample=train, eval_sample=evaluate)

    @pytest.mark.parametrize("capacities", [[0, 17], [2.5], [True], [3, -1]])
    def test_a_bad_capacity_is_refused_before_any_dataset(self, kqk4, monkeypatch, capacities):
        def unreachable(*args, **kwargs):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(evalprobe, "_dataset", unreachable)
        monkeypatch.setattr(evalprobe, "build_dtm_dataset", unreachable)
        with pytest.raises(sg.ValidationError, match="capacity"):
            capacity_sweep(kqk4, capacities, train_sample=50, eval_sample=50)

    def test_sweep_holds_one_design_beside_its_dataset(self):
        # tracemalloc counts numpy's buffers but not the copy lstsq
        # makes inside LAPACK's wrapper. A sweep that copied a design
        # out of the train rows for each fit would hold the rows, the
        # design and more: over 2.1 train buffers on this class.
        tb = sg.solve(sg.MaterialClass.from_string("KRvK", sg.BoardSpec(6, 6)))
        build_dtm_dataset(tb, sample_size=10)  # the move tables are cached
        train_buffer = tb.decisive_indices().size * (len(DEFAULT_FEATURE_CHAIN) + 1) * 8
        tracemalloc.start()
        try:
            capacity_sweep(tb, range(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * train_buffer

    def test_sweep_csv_shape(self, kqk4, tmp_path):
        rows = capacity_sweep(kqk4, range(0, 5), train_sample=500, eval_sample=300, seed=1)
        import io

        buffer = io.StringIO()
        write_sweep_csv(rows, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "capacity,train_mae,eval_mae,wdl_misclassification,train_size,eval_size"
        assert len(lines) == 6


POINTS = {1: 1, 2: 3, 3: 3, 4: 5, 5: 9, 6: 0}


def reference_row(rules, board, white_to_move):
    """The default chain for one board, computed square by square."""
    width, height = rules.width, rules.height

    def chebyshev(a, b):
        return max(abs(a % width - b % width), abs(a // width - b // width))

    wk, bk = board.index(6), board.index(-6)
    white_points = sum(POINTS[c] for c in board if c > 0)
    black_points = sum(POINTS[-c] for c in board if c < 0)
    defender = wk if white_points < black_points else bk
    f, r = defender % width, defender // width
    corners = (0, width - 1, (height - 1) * width, height * width - 1)
    expected = {
        "side_to_move": 1 if white_to_move else -1,
        "king_distance": chebyshev(wk, bk),
        "defender_edge_distance": min(f, width - 1 - f, r, height - 1 - r),
        "defender_corner_distance": min(chebyshev(defender, c) for c in corners),
        "mobility_white": rules.pseudo_mobility(board, True),
        "mobility_black": rules.pseudo_mobility(board, False),
    }
    for color, sign in (("w", 1), ("b", -1)):
        for letter, code in zip("pnbrq", (1, 2, 3, 4, 5)):
            expected[f"material_{color}{letter}"] = board.count(sign * code)
    return [float(expected[name]) for name in DEFAULT_FEATURE_CHAIN]


def assert_rows_match_oracle(tb, X, indices):
    """Each row equals the square-by-square reference, with the oracle's
    mobility, and extract_features of its position."""
    spec = tb.material.spec
    rules = oracles.OracleRules(
        spec.width, spec.height, [k.value for k in sorted(spec.promotion_kinds)]
    )
    for row, idx in zip(X, indices):
        pos = sg.position_at(int(idx), tb.material)
        white_to_move = pos.side_to_move is sg.Color.WHITE
        assert row.tolist() == reference_row(rules, list(pos.placement), white_to_move), f"index {idx}"
        assert np.array_equal(row, sg.extract_features(pos)), f"index {idx}"


@pytest.mark.parametrize(
    "name,width,height",
    [("KQvK", 4, 4), ("KRvK", 5, 5), ("KPvK", 4, 4), ("KPvKN", 4, 4), ("KQvKR", 3, 4), ("KBNvK", 4, 4)],
)
def test_dataset_rows_match_oracle_on_every_decisive_index(name, width, height):
    tb = sg.solve(sg.MaterialClass.from_string(name, sg.BoardSpec(width, height)))
    X, _, indices = build_dtm_dataset(tb)
    assert np.array_equal(indices, tb.decisive_indices())
    assert_rows_match_oracle(tb, X, indices)


def test_dataset_rows_match_oracle_on_sampled_kpk6_indices(kpk6):
    X, _, indices = build_dtm_dataset(kpk6, sample_size=2000, seed=17)
    assert_rows_match_oracle(kpk6, X, indices)
