import io
import random

import pytest

import strategia as sg
from strategia import tablebase


def sample_decisive(tb, rng, count):
    indices = tb.decisive_indices().tolist()
    return [sg.position_at(i, tb.material) for i in rng.sample(indices, count)]


class TestPolicyStep:
    def test_mate_in_one_delivers_mate(self, kqk4):
        rng = random.Random(2)
        ones = [i for i in kqk4.decisive_indices().tolist() if kqk4.code[i] == 1]
        for idx in rng.sample(ones, 25):
            pos = sg.position_at(idx, kqk4.material)
            move, succ = sg.policy_step(pos, kqk4)
            assert sg.outcome(succ) is sg.Outcome.CHECKMATE

    def test_single_legal_move_is_forced(self, kqk4):
        rng = random.Random(4)
        indices = kqk4.decisive_indices().tolist()
        for idx in rng.sample(indices, min(len(indices), 2000)):
            pos = sg.position_at(idx, kqk4.material)
            transitions = sg.legal_transitions(pos)
            if len(transitions) == 1:
                move, _ = sg.policy_step(pos, kqk4)
                assert move == transitions[0][0]
                break
        else:
            pytest.skip("no forced-move position sampled")

    def test_successor_dtm_is_exactly_one_less(self, krk5):
        rng = random.Random(8)
        for pos in sample_decisive(krk5, rng, 800):
            value = krk5.probe(pos)
            if value.dtm == 0:
                continue
            _, succ = sg.policy_step(pos, krk5)
            assert krk5.resolve(succ).dtm == value.dtm - 1

    def test_drawn_position_is_unsupported(self, krk5):
        draws = (tablebase._wdl(krk5.code) == sg.Wdl.DRAW.value).nonzero()[0]
        pos = sg.position_at(int(draws[0]), krk5.material)
        with pytest.raises(sg.UnsupportedCaseError, match="drawn"):
            sg.policy_step(pos, krk5)

    def test_terminal_position_is_an_error(self, kqk4):
        pos = sg.parse_fen("k3/1Q2/2K1/4 b - -", sg.BoardSpec(4, 4))
        with pytest.raises(sg.UnsupportedCaseError, match="terminal"):
            sg.policy_step(pos, kqk4)

    def test_deterministic_tie_break(self, kqk4):
        rng = random.Random(6)
        for pos in sample_decisive(kqk4, rng, 100):
            if kqk4.probe(pos).dtm == 0:
                continue
            assert sg.policy_step(pos, kqk4) == sg.policy_step(pos, kqk4)


class TestPolicyDelta:
    def test_identity_vec_plus_delta_is_successor(self, krk5):
        rng = random.Random(12)
        for pos in sample_decisive(krk5, rng, 150):
            if krk5.probe(pos).dtm == 0:
                continue
            vec = sg.encode(pos)
            d = sg.policy_delta(vec, krk5)
            _, succ = sg.policy_step(pos, krk5)
            assert sg.apply_delta(vec, d) == sg.encode(succ)

    def test_strict_mode_needs_side(self, krk5):
        rng = random.Random(14)
        pos = next(p for p in sample_decisive(krk5, rng, 10) if krk5.probe(p).dtm > 0)
        vec = sg.encode(pos, sg.Mode.STRICT)
        with pytest.raises(sg.ValidationError, match="side"):
            sg.policy_delta(vec, krk5)
        d = sg.policy_delta(vec, krk5, side=pos.side_to_move)
        assert d.entries

    def test_autonomy_same_vector_same_delta(self, krk5):
        rng = random.Random(16)
        pos = next(p for p in sample_decisive(krk5, rng, 10) if krk5.probe(p).dtm > 0)
        # An equal vector built from a different ply index gives an equal delta.
        shifted = sg.Position(
            spec=pos.spec, placement=pos.placement, side_to_move=pos.side_to_move,
            ep_square=pos.ep_square, castle_rights=pos.castle_rights,
            ply_index=pos.ply_index + 2,
        )
        va, vb = sg.encode(pos), sg.encode(shifted)
        assert va == vb
        assert sg.policy_delta(va, krk5) == sg.policy_delta(vb, krk5)


class TestGeneratePlayout:
    def test_length_equals_dtm_and_ends_in_checkmate(self, krk5):
        rng = random.Random(18)
        for pos in sample_decisive(krk5, rng, 120):
            value = krk5.probe(pos)
            playout = sg.generate_playout(pos, krk5)
            assert playout.plies == value.dtm
            assert playout.terminal is sg.Outcome.CHECKMATE
            assert sg.outcome(playout.final_position) is sg.Outcome.CHECKMATE

    def test_dtm_decrements_by_one_per_ply(self, krk5):
        rng = random.Random(20)
        for pos in sample_decisive(krk5, rng, 60):
            playout = sg.generate_playout(pos, krk5)
            dtms = [playout.initial_dtm] + [s.dtm for s in playout.steps]
            assert dtms == list(range(playout.initial_dtm, -1, -1))

    def test_checkmate_start_gives_empty_playout(self, kqk4):
        pos = sg.parse_fen("k3/1Q2/2K1/4 b - -", sg.BoardSpec(4, 4))
        playout = sg.generate_playout(pos, kqk4)
        assert playout.plies == 0
        assert playout.terminal is sg.Outcome.CHECKMATE
        assert playout.winner is sg.Color.WHITE

    def test_drawn_start_is_unsupported(self, kqk4):
        draws = (tablebase._wdl(kqk4.code) == sg.Wdl.DRAW.value).nonzero()[0]
        pos = sg.position_at(int(draws[5]), kqk4.material)
        with pytest.raises(sg.UnsupportedCaseError):
            sg.generate_playout(pos, kqk4)

    def test_two_runs_are_identical(self, krk5):
        rng = random.Random(22)
        pos = sample_decisive(krk5, rng, 1)[0]
        a = sg.generate_playout(pos, krk5)
        b = sg.generate_playout(pos, krk5)
        assert a == b

    def test_playout_crosses_promotion_boundary(self, kpk4):
        indices = kpk4.decisive_indices().tolist()
        deep = max(indices, key=lambda i: int(kpk4.code[i]) if tablebase._wdl(kpk4.code[i]) == 1 else -1)
        pos = sg.position_at(deep, kpk4.material)
        playout = sg.generate_playout(pos, kpk4)
        assert playout.plies == int(kpk4.code[deep])
        assert playout.terminal is sg.Outcome.CHECKMATE
        materials = {sg.material_key_of(s.position) for s in playout.steps}
        assert len(materials) > 1, "expected the line to promote into another class"

    def test_eq_identity_along_playouts(self, krk5):
        rng = random.Random(24)
        for pos in sample_decisive(krk5, rng, 40):
            playout = sg.generate_playout(pos, krk5)
            vectors = playout.vectors()
            for n in range(playout.plies):
                d = sg.policy_delta(vectors[n], krk5)
                assert sg.apply_delta(vectors[n], d) == vectors[n + 1]


class TestPlayoutCsv:
    def test_header_and_rows(self, krk5):
        rng = random.Random(26)
        pos = next(
            p for p in sample_decisive(krk5, rng, 20) if krk5.probe(p).dtm >= 2
        )
        playout = sg.generate_playout(pos, krk5)
        buffer = io.StringIO()
        from strategia.playout import write_playout_csv

        write_playout_csv(playout, buffer)
        lines = buffer.getvalue().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["n", "move", "dtm"]
        assert header[3] == "a1"
        assert header[-1] == "stm"
        assert len(lines) == playout.plies + 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == ""
        assert int(first[2]) == playout.initial_dtm

    def test_csv_bytes_are_deterministic(self, krk5):
        rng = random.Random(28)
        pos = sample_decisive(krk5, rng, 1)[0]
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            from strategia.playout import write_playout_csv

            write_playout_csv(sg.generate_playout(pos, krk5), buffer)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
