import dataclasses
import math
import random
import sys

import pytest

import strategia as sg
from strategia import dynamics, tablebase
from strategia.dynamics import (
    DivergenceRecord,
    OutcomeClass,
    material_gap,
)
from test_policy import false_mates, not_checkmate, plant_false_mate


def fen(text, spec=None):
    return sg.parse_fen(text, spec or sg.BoardSpec.standard())


class TestPerturbations:
    def test_lone_rook_with_free_neighborhood_gets_eight(self):
        pos = fen("7k/8/8/8/3R4/8/8/K7 w - -")
        perts = sg.perturbations(pos)
        from_rook = [p for p in perts if p.moved_from == 27]
        assert len(from_rook) == 8

    def test_targets_must_be_empty(self):
        pos = fen("7k/8/8/8/8/8/8/KR6 w - -")
        for p in sg.perturbations(pos):
            assert pos.placement[p.moved_to] == 0

    def test_relocation_next_to_enemy_king_is_excluded(self):
        pos = fen("k7/2R5/8/8/8/8/8/7K w - -")
        # c7 -> b7/b8 would sit next to (or give check held by) the black king
        perts = sg.perturbations(pos)
        rook_targets = {p.moved_to for p in perts if p.moved_from == 50}
        assert 57 not in rook_targets  # b8 adjacent... rook checks from b-file anyway
        for p in perts:
            sg.validate_position(p.perturbed)

    def test_exposing_the_non_mover_to_check_is_excluded(self):
        pos = fen("k7/8/8/8/8/8/8/1QK5 w - -")
        # Relocating the queen to a2 would check the side not to move.
        perts = sg.perturbations(pos)
        queen_targets = {p.moved_to for p in perts if p.moved_from == 1}
        assert 8 not in queen_targets
        for p in perts:
            sg.validate_position(p.perturbed)

    def test_canonical_ordering(self):
        pos = fen("7k/8/8/8/3R4/8/8/K7 w - -")
        perts = sg.perturbations(pos)
        keys = [(p.moved_from, p.moved_to) for p in perts]
        assert keys == sorted(keys)

    def test_side_to_move_and_ply_preserved(self):
        pos = fen("7k/8/8/8/3R4/8/8/K7 w - -")
        for p in sg.perturbations(pos):
            assert p.perturbed.side_to_move is pos.side_to_move
            assert p.perturbed.ply_index == pos.ply_index


class TestDivergence:
    def _pair(self, tb, rng):
        indices = tb.decisive_indices().tolist()
        while True:
            base = sg.position_at(rng.choice(indices), tb.material)
            perts = sg.perturbations(base)
            rng.shuffle(perts)
            for p in perts:
                value = tb.probe(p.perturbed)
                if value.is_decisive:
                    return base, p.perturbed

    def test_self_comparison_is_identically_zero(self, krk5):
        rng = random.Random(1)
        base, _ = self._pair(krk5, rng)
        playout = sg.generate_playout(base, krk5)
        record = sg.divergence(playout, playout)
        assert all(d == 0.0 for d in record.d_series)
        assert all(h == 0 for h in record.hamming_series)
        assert record.first_divergence_ply is None
        with pytest.raises(sg.UnsupportedCaseError, match="zero initial"):
            sg.finite_time_lyapunov(record)

    def test_d0_matches_encoding_distance(self, krk5):
        rng = random.Random(2)
        base, perturbed = self._pair(krk5, rng)
        pa = sg.generate_playout(base, krk5)
        pb = sg.generate_playout(perturbed, krk5)
        record = sg.divergence(pa, pb)
        va, vb = sg.encode(base), sg.encode(perturbed)
        expected = math.sqrt(
            sum((a - b) ** 2 for a, b in zip(va.components, vb.components))
        )
        assert record.d_series[0] == pytest.approx(expected, abs=0)
        assert record.d_series[0] > 0

    def test_symmetry(self, krk5):
        rng = random.Random(3)
        for _ in range(12):
            base, perturbed = self._pair(krk5, rng)
            pa = sg.generate_playout(base, krk5)
            pb = sg.generate_playout(perturbed, krk5)
            ab = sg.divergence(pa, pb)
            ba = sg.divergence(pb, pa)
            assert ab.d_series == ba.d_series
            assert ab.hamming_series == ba.hamming_series
            assert ab.first_divergence_ply == ba.first_divergence_ply
            assert ab.outcome_class == ba.outcome_class

    def test_series_span_the_common_prefix(self, krk5):
        rng = random.Random(4)
        base, perturbed = self._pair(krk5, rng)
        pa = sg.generate_playout(base, krk5)
        pb = sg.generate_playout(perturbed, krk5)
        record = sg.divergence(pa, pb)
        assert len(record.d_series) == min(pa.plies, pb.plies) + 1
        assert len(record.hamming_series) == len(record.d_series)

    def test_distance_constant_before_first_divergence(self, krk5):
        rng = random.Random(5)
        found = False
        for _ in range(60):
            base, perturbed = self._pair(krk5, rng)
            pa = sg.generate_playout(base, krk5)
            pb = sg.generate_playout(perturbed, krk5)
            record = sg.divergence(pa, pb)
            n = record.first_divergence_ply
            if n is not None and n >= 2:
                for i in range(n):
                    assert record.d_series[i] == record.d_series[0]
                found = True
                break
        assert found, "no pair with a late first divergence sampled"

    def test_mode_mismatch_rejected(self, krk5):
        rng = random.Random(6)
        base, perturbed = self._pair(krk5, rng)
        pa = sg.generate_playout(base, krk5, sg.Mode.STRICT)
        pb = sg.generate_playout(perturbed, krk5, sg.Mode.AUGMENTED)
        with pytest.raises(sg.ValidationError, match="mode"):
            sg.divergence(pa, pb)

    def test_outcome_flip_detected(self, kqkr34):
        tb = kqkr34
        winners = {}
        for idx in tb.decisive_indices().tolist():
            pos = sg.position_at(idx, tb.material)
            value = tb.probe(pos)
            winner = (
                pos.side_to_move
                if value.wdl is sg.Wdl.WIN
                else pos.side_to_move.other()
            )
            winners.setdefault(winner, pos)
            if len(winners) == 2:
                break
        assert len(winners) == 2, "class unexpectedly one-sided"
        pa = sg.generate_playout(winners[sg.Color.WHITE], tb)
        pb = sg.generate_playout(winners[sg.Color.BLACK], tb)
        record = sg.divergence(pa, pb)
        assert record.outcome_class is OutcomeClass.FLIP


class TestFiniteTimeLyapunov:
    def _record(self, d_series, outcome_class=OutcomeClass.SAME_WINNER):
        pos = fen("7k/8/8/8/3R4/8/8/K7 w - -")
        value = sg.WdlDtm(sg.Wdl.WIN, 5)
        return DivergenceRecord(
            base=pos, perturbed=pos, base_value=value, perturbed_value=value,
            outcome_class=outcome_class, d_series=tuple(d_series),
            hamming_series=tuple(0 for _ in d_series), first_divergence_ply=None,
        )

    def test_flat_series_gives_zero(self):
        record = self._record([2.0, 2.0, 2.0, 2.0, 2.0])
        assert sg.finite_time_lyapunov(record) == 0.0

    def test_exponential_series_gives_one(self):
        m = 6
        record = self._record([1.0] + [0.0] * (m - 1) + [math.exp(m)])
        assert sg.finite_time_lyapunov(record) == pytest.approx(1.0, abs=1e-12)

    def test_short_prefix_rejected(self):
        record = self._record([1.0, 2.0])
        with pytest.raises(sg.UnsupportedCaseError, match="short"):
            sg.finite_time_lyapunov(record)

    def test_draw_involved_rejected(self):
        record = self._record([1.0, 1.0, 1.0], OutcomeClass.DRAW_INVOLVED)
        with pytest.raises(sg.UnsupportedCaseError):
            sg.finite_time_lyapunov(record)

    def test_merged_paths_give_minus_infinity(self):
        record = self._record([1.0, 1.0, 0.0])
        assert sg.finite_time_lyapunov(record) == float("-inf")


class TestAtypicality:
    def test_depletion_triggers_on_small_piece_count(self, krk5):
        pos = sg.position_at(int(krk5.decisive_indices()[0]), krk5.material)
        result = sg.is_atypical(pos, krk5)
        assert result.atypical and "depletion" in result.reasons

    def test_forced_mate_triggers_at_low_dtm(self, krk5):
        indices = krk5.decisive_indices().tolist()
        idx = next(i for i in indices if int(krk5.dtm[i]) == 2)
        pos = sg.position_at(idx, krk5.material)
        result = sg.is_atypical(pos, krk5)
        assert "forced-mate" in result.reasons
        assert result.dtm == 2

    def test_material_gap_values(self):
        pos = fen("4k3/8/8/8/8/8/8/QR2K3 w - -")
        assert material_gap(pos) == 14

    def test_thresholds_must_be_positive(self):
        with pytest.raises(sg.ValidationError):
            sg.AtypicalityThresholds(depletion_max_pieces=0)

    def test_custom_thresholds_change_the_verdict(self, krk5):
        indices = krk5.decisive_indices().tolist()
        idx = max(indices, key=lambda i: int(krk5.dtm[i]))
        pos = sg.position_at(idx, krk5.material)
        strict = sg.AtypicalityThresholds(1, 1, 50)
        result = sg.is_atypical(pos, krk5, strict)
        assert not result.atypical


class TestSampleExperiment:
    def test_deterministic_reports(self, krk5):
        a = sg.sample_experiment(krk5, 25, seed=9)
        b = sg.sample_experiment(krk5, 25, seed=9)
        assert a.json_text() == b.json_text()
        import io

        ba, bb = io.StringIO(), io.StringIO()
        a.write_records_csv(ba)
        b.write_records_csv(bb)
        assert ba.getvalue() == bb.getvalue()

    def test_different_seeds_differ(self, krk5):
        a = sg.sample_experiment(krk5, 25, seed=9)
        b = sg.sample_experiment(krk5, 25, seed=10)
        assert a.json_text() != b.json_text()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_policy_is_built_before_the_bases_are_forked(self, kqkr34, monkeypatch, seed):
        # The walk chooses every row; building each base's records after it,
        # in the same process, chooses none.
        pairs_for_base = dynamics._pairs_for_base

        def no_build(*args):
            raise AssertionError("a policy row was chosen after the walk")

        def building(*args):
            monkeypatch.setattr(tablebase.Policy, "_fill_block", no_build)
            monkeypatch.setattr(tablebase, "_choose", no_build)
            return pairs_for_base(*args)

        monkeypatch.setattr(dynamics, "_pairs_for_base", building)
        report = sg.sample_experiment(dataclasses.replace(kqkr34), 6, seed=seed)
        assert report.counts["bases"] == 6

    def test_empty_decisive_set_is_an_error(self):
        tb = sg.solve(sg.MaterialClass.from_string("KvK", sg.BoardSpec(4, 4)))
        # Refused before a size that is not positive.
        for size in (5, 0, -1):
            with pytest.raises(sg.UnsupportedCaseError, match="decisive"):
                sg.sample_experiment(tb, size, seed=1)

    @pytest.mark.parametrize("size", [0, -1])
    def test_a_size_that_is_not_positive_is_an_error(self, krk5, size):
        with pytest.raises(sg.ValidationError, match="positive"):
            sg.sample_experiment(krk5, size, seed=1)

    def test_record_invariants(self, krk5):
        report = sg.sample_experiment(krk5, 25, seed=11)
        assert report.counts["pairs_total"] == len(report.pairs)

        def winner(pos, value):
            return pos.side_to_move if value.wdl is sg.Wdl.WIN else pos.side_to_move.other()

        for pair in report.pairs:
            record = pair.record
            assert record.d_series[0] > 0
            assert len(record.d_series) == len(record.hamming_series)
            if record.outcome_class is OutcomeClass.DRAW_INVOLVED:
                assert record.lambda_ft is None
                assert not (record.base_value.is_decisive and record.perturbed_value.is_decisive)
            else:
                # flip exactly when the winner identities differ
                flipped = winner(record.base, record.base_value) is not winner(
                    record.perturbed, record.perturbed_value
                )
                assert flipped == (record.outcome_class is OutcomeClass.FLIP)
                if record.lambda_ft is not None and math.isfinite(record.lambda_ft):
                    m = record.prefix_plies
                    assert record.lambda_ft == pytest.approx(
                        math.log(record.d_series[m] / record.d_series[0]) / m
                    )

    def test_counts_add_up(self, krk5):
        report = sg.sample_experiment(krk5, 30, seed=13)
        c = report.counts
        assert c["same_winner"] + c["outcome_flip"] + c["draw_involved"] == c["pairs_total"]
        assert c["lambda_count"] + c["merged_pairs"] + c["short_prefix_pairs"] == c["same_winner"]

    def test_scope_note_present(self, krk5):
        report = sg.sample_experiment(krk5, 5, seed=2)
        assert "scope_note" in report.json_dict()
        assert "measured" in report.json_dict()["scope_note"]


class TestWalkedLines:
    """An experiment walks its lines together (``Policy.walk``); each must be its playout."""

    CLASSES = ["kpk6", "kqkr34", "krk5"]  # double pushes; captures into subclasses; plain

    @pytest.mark.parametrize("mode", list(sg.Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("name", CLASSES)
    def test_walked_vectors_are_the_encoded_playout_positions(self, request, monkeypatch, name, mode):
        tb = request.getfixturevalue(name)
        walked = []
        line_vectors = dynamics._line_vectors

        def recording(policy, slots, indices, keys, mode):
            vectors = line_vectors(policy, slots, indices, keys, mode)
            walked.append((indices[0].tolist(), keys, vectors))
            return vectors

        monkeypatch.setattr(dynamics, "_line_vectors", recording)
        sg.sample_experiment(tb, 30, seed=4, mode=mode)
        squares = tb.material.spec.num_squares
        lines = ep_marks = 0
        for starts, keys, vectors in walked:
            for j, idx in enumerate(starts):
                line = sg.generate_playout(sg.position_at(idx, tb.material), tb, mode)
                want = [list(vec.components) for vec in line.vectors()]
                assert vectors[: line.plies + 1, j].tolist() == want, (name, idx)
                moves = [
                    (step.move.from_sq * squares + step.move.to_sq) * 8 + (step.move.promotion or 0)
                    for step in line.steps
                ]
                assert keys[: line.plies, j].tolist() == moves, (name, idx)
                ep_marks += sum(abs(c) == sg.encoding.EP_PAWN for row in want for c in row[:squares])
                lines += 1
        assert lines > 30
        assert (ep_marks > 0) == (name == "kpk6")

    @pytest.mark.parametrize("name", CLASSES)
    def test_each_decisive_pair_is_the_divergence_of_its_playouts(self, request, name):
        tb = request.getfixturevalue(name)
        report = sg.sample_experiment(tb, 30, seed=4)
        checked = 0
        for pair in report.pairs:
            record = pair.record
            if record.outcome_class is OutcomeClass.DRAW_INVOLVED:
                continue
            want = sg.divergence(
                sg.generate_playout(record.base, tb), sg.generate_playout(record.perturbed, tb)
            )
            assert dataclasses.replace(record, lambda_ft=None) == want, pair
            checked += 1
        assert checked > 30

    def test_an_experiment_never_sweeps_the_policy(self, kqkr34, monkeypatch):
        def no_fill(*args):
            raise AssertionError("a policy block was filled")

        monkeypatch.setattr(tablebase.Policy, "_fill_block", no_fill)
        table = dataclasses.replace(kqkr34)
        messages = []
        sg.sample_experiment(table, 20, seed=1, progress=messages.append)
        policy = table.policy()
        assert policy.blocks == {}
        assert len(messages) == 1 and messages[0].startswith("policy KQvKR: "), messages

    @pytest.mark.parametrize("case", ["stalemate", "has-a-move"])
    def test_a_loss_at_dtm_0_that_is_not_checkmate_raises(self, kqk4, case):
        # The policy checks every (LOSS, 0) entry when it is made, so an
        # experiment refuses a false mate before it walks any line.
        idx = dict(false_mates(kqk4))[case]
        broken = plant_false_mate(kqk4, idx)
        message = not_checkmate("KQvK", idx)
        with pytest.raises(RuntimeError, match=message):
            broken.policy()
        with pytest.raises(RuntimeError, match=message):
            sg.generate_playout(sg.position_at(idx, kqk4.material), broken)
        with pytest.raises(RuntimeError, match=message):
            sg.sample_experiment(broken, broken.decisive_indices().size, seed=1)
        with pytest.raises(RuntimeError, match=message):
            broken.policy()

    def test_a_dtm_broken_by_two_raises(self, kqk4):
        broken = dataclasses.replace(kqk4, dtm=kqk4.dtm.copy())
        idx = next(i for i in kqk4.decisive_indices().tolist() if kqk4.wdl[i] == sg.Wdl.WIN.value)
        broken.dtm[idx] += 2
        with pytest.raises(RuntimeError, match="dtm - 1"):
            sg.sample_experiment(broken, broken.decisive_indices().size, seed=1)


@pytest.fixture(scope="module")
def krrk4():
    # Two rooks: a rook stepping past its twin changes the group's square order.
    return sg.solve(sg.MaterialClass.from_string("KRRvK", sg.BoardSpec(4, 4)))


class TestPairsThroughTheCodec:
    """An experiment indexes perturbations through the codec and reads separations off code rows."""

    def count_calls(self, monkeypatch, module, name, calls):
        """Count calls of ``module.name`` through every ``strategia`` module that binds it."""
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "strategia" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)

    def test_an_experiment_encodes_and_rebuilds_no_record_and_indexes_only_its_bases(
        self, kqkr34, monkeypatch
    ):
        calls = {"encode": 0, "replace": 0, "index_of": 0}
        self.count_calls(monkeypatch, sg.encoding, "encode", calls)
        self.count_calls(monkeypatch, dynamics, "replace", calls)
        self.count_calls(monkeypatch, tablebase, "index_of", calls)
        report = sg.sample_experiment(kqkr34, 40, seed=1)
        assert report.counts["draw_involved"] > 0 and report.counts["lambda_count"] > 0
        # One index_of per base: is_atypical probes it.
        assert calls == {"encode": 0, "replace": 0, "index_of": report.counts["bases"]}

    @pytest.mark.parametrize("name", ["krrk4", "kpk6"])
    def test_perturbed_indices_are_the_index_of_each_perturbation(self, request, name):
        tb = request.getfixturevalue(name)
        crossings = 0
        for idx in tb.decisive_sample(random.Random(5), 60).tolist():
            base = dynamics._locate_base(tb, idx)
            assert [p for p, _, _ in base.perturbed] == sg.perturbations(base.position)
            rooks = [sq for sq, piece in base.position.pieces() if piece.kind is sg.PieceKind.ROOK]
            for p, pert_idx, value in base.perturbed:
                assert pert_idx == sg.index_of(p.perturbed, tb.material), (name, idx, p)
                assert value == tb.probe(p.perturbed)
                if len(rooks) == 2 and p.moved_from in rooks:
                    lo, hi = sorted((p.moved_from, p.moved_to))
                    crossings += lo < sum(rooks) - p.moved_from < hi  # past its twin
        assert (crossings > 0) == (name == "krrk4")

    @pytest.mark.parametrize("mode", list(sg.Mode), ids=lambda m: m.value)
    def test_draw_involved_pairs_compare_the_encoded_starts(self, kqkr34, mode):
        report = sg.sample_experiment(kqkr34, 40, seed=1, mode=mode)
        drawn = [
            pair.record for pair in report.pairs
            if pair.record.outcome_class is OutcomeClass.DRAW_INVOLVED
        ]
        assert drawn
        for record in drawn:
            a = sg.encode(record.base, mode).components
            b = sg.encode(record.perturbed, mode).components
            assert record.d_series == (math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b))),)
            assert record.hamming_series == (sum(x != y for x, y in zip(a, b)),)
