import random

import pytest

import strategia as sg
from positions import random_position


def fen(text, spec=None):
    return sg.parse_fen(text, spec or sg.BoardSpec.standard())


class TestLegalMoves:
    def test_two_kings_exact_move_list(self):
        pos = fen("8/8/4k3/8/4K3/8/8/8 w - -")
        # d5/e5/f5 are excluded by king adjacency.
        assert [m.text(8) for m in sg.legal_moves(pos)] == [
            "e4d3", "e4e3", "e4f3", "e4d4", "e4f4",
        ]

    def test_checkmated_position_has_no_moves(self):
        pos = fen("8/8/8/8/8/8/1qk5/K7 w - -")
        assert sg.legal_moves(pos) == []

    def test_initial_array_has_twenty_moves(self):
        pos = fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -")
        assert len(sg.legal_moves(pos)) == 20

    def test_ordering_is_from_to_promotion_lexicographic(self):
        pos = fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -")
        moves = sg.legal_moves(pos)
        keys = [(m.from_sq, m.to_sq, m.promotion.value if m.promotion else 0) for m in moves]
        assert keys == sorted(keys)

    def test_ordering_is_pure_function_of_position(self):
        rng = random.Random(11)
        for _ in range(50):
            pos = random_position(rng)
            assert sg.legal_moves(pos) == sg.legal_moves(pos)

    def test_promotion_moves_expand_in_kind_order(self):
        pos = fen("8/P6k/8/8/8/8/8/K7 w - -")
        promos = [m.promotion for m in sg.legal_moves(pos) if m.promotion]
        assert promos == [
            sg.PieceKind.KNIGHT, sg.PieceKind.BISHOP, sg.PieceKind.ROOK, sg.PieceKind.QUEEN,
        ]

    def test_non_mover_in_check_is_rejected(self):
        board = [0] * 64
        board[4] = 6    # Ke1
        board[52] = 5   # Qe7, checking the side not to move
        board[60] = -6  # ke8
        pos = sg.Position(
            spec=sg.BoardSpec.standard(),
            placement=tuple(board),
            side_to_move=sg.Color.WHITE,
        )
        with pytest.raises(sg.ValidationError, match="not to move"):
            sg.legal_moves(pos)

    def test_pinned_rook_stays_on_the_pin_line(self):
        pos = fen("4k3/4r3/8/8/8/4R3/8/4K3 w - -")
        rook_moves = [m for m in sg.legal_moves(pos) if m.from_sq == 20]
        assert all(m.to_sq % 8 == 4 for m in rook_moves)

    def test_en_passant_capture_generated(self):
        pos = fen("4k3/8/8/3Pp3/8/8/8/4K3 w - e6")
        texts = [m.text(8) for m in sg.legal_moves(pos)]
        assert "d5e6" in texts

    def test_en_passant_pin_is_illegal(self):
        pos = fen("8/8/8/r2Pp2K/8/8/8/4k3 w - e6")
        texts = [m.text(8) for m in sg.legal_moves(pos)]
        assert "d5e6" not in texts

    def test_castling_through_check_is_illegal(self):
        pos = fen("4k3/8/8/8/8/8/5r2/R3K2R w KQ -")
        texts = [m.text(8) for m in sg.legal_moves(pos)]
        assert "e1g1" not in texts  # f1 is attacked
        assert "e1c1" in texts

    def test_movegen_closure_on_random_positions(self):
        rng = random.Random(5)
        for _ in range(120):
            pos = random_position(rng)
            for move, succ in sg.legal_transitions(pos):
                sg.validate_position(succ)
                assert succ.ply_index == pos.ply_index + 1


class TestApplyMove:
    def test_double_step_sets_ep_square(self):
        pos = fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -")
        succ = sg.apply_move(pos, sg.Move(12, 28))
        assert succ.ep_square == 20
        assert succ.side_to_move is sg.Color.BLACK

    def test_ply_index_increments(self):
        rng = random.Random(3)
        for _ in range(30):
            pos = random_position(rng)
            transitions = sg.legal_transitions(pos)
            if transitions:
                move, succ = transitions[0]
                assert sg.apply_move(pos, move).ply_index == pos.ply_index + 1

    def test_capture_reduces_piece_count(self):
        pos = fen("4k3/8/8/3p4/3R4/8/8/4K3 w - -")
        succ = sg.apply_move(pos, sg.Move(27, 35))
        assert succ.piece_count() == pos.piece_count() - 1

    def test_illegal_move_raises_with_move_attached(self):
        pos = fen("8/8/4k3/8/4K3/8/8/8 w - -")
        bad = sg.Move(28, 44)
        with pytest.raises(sg.IllegalMoveError) as exc_info:
            sg.apply_move(pos, bad)
        assert exc_info.value.move == bad

    def test_input_position_is_unchanged(self):
        pos = fen("8/8/4k3/8/4K3/8/8/8 w - -")
        snapshot = pos.placement
        sg.apply_move(pos, sg.Move(28, 19))
        assert pos.placement == snapshot

    def test_ep_square_never_coexists_with_non_pawn_on_landing(self):
        rng = random.Random(17)
        for _ in range(80):
            pos = random_position(rng)
            for _, succ in sg.legal_transitions(pos):
                if succ.ep_square is None:
                    continue
                mover = succ.side_to_move.other()
                pawn_sq = succ.ep_square + mover.sign * succ.spec.width
                assert succ.placement[pawn_sq] == sg.PieceKind.PAWN.value * mover.sign


    @pytest.mark.parametrize(
        "text, spec",
        [("KPvKN", sg.BoardSpec(4, 4)), ("KPvK", sg.BoardSpec(6, 6)), ("KRPvK", sg.BoardSpec(3, 4))],
    )
    def test_play_builds_the_successor_legal_transitions_builds(self, text, spec):
        # Indexable positions: pushes, double pushes, captures and promotions.
        from strategia.board import play

        material = sg.MaterialClass.from_string(text, spec)
        rng = random.Random(5)
        checked = 0
        for idx in rng.sample(range(material.index_size), 400):
            pos = sg.position_at(idx, material)
            if pos is None:
                continue
            for move, succ in sg.legal_transitions(pos):
                assert play(pos, move) == succ, (text, idx, move)
                checked += 1
        assert checked > 0


class TestOutcome:
    def test_checkmate(self):
        assert sg.outcome(fen("8/8/8/8/8/8/1qk5/K7 w - -")) is sg.Outcome.CHECKMATE

    def test_stalemate(self):
        assert sg.outcome(fen("8/8/8/8/8/1q6/2k5/K7 w - -")) is sg.Outcome.STALEMATE

    def test_bare_kings_ongoing(self):
        rng = random.Random(9)
        for _ in range(40):
            pos = random_position(rng, spec=sg.BoardSpec(4, 4), max_extra=0)
            assert sg.outcome(pos) is sg.Outcome.ONGOING


class TestBoardSpec:
    def test_bounds(self):
        with pytest.raises(sg.ValidationError):
            sg.BoardSpec(1, 8)
        with pytest.raises(sg.ValidationError):
            sg.BoardSpec(9, 8)
        with pytest.raises(sg.ValidationError):
            sg.BoardSpec(2, 2, castling_enabled=True)
        with pytest.raises(sg.ValidationError):
            sg.BoardSpec(3, 8, en_passant_enabled=True)

    def test_promotion_kinds_exclude_king_and_pawn(self):
        with pytest.raises(sg.ValidationError):
            sg.BoardSpec(8, 8, promotion_kinds=frozenset({sg.PieceKind.KING}))

    def test_en_passant_defaults_off_for_narrow_boards(self):
        assert not sg.BoardSpec(3, 3).en_passant_enabled
        assert sg.BoardSpec(4, 4).en_passant_enabled


class TestValidatePosition:
    def test_kings_adjacent_rejected(self):
        board = [0] * 64
        board[0] = 6
        board[1] = -6
        pos = sg.Position(spec=sg.BoardSpec.standard(), placement=tuple(board),
                          side_to_move=sg.Color.WHITE)
        with pytest.raises(sg.ValidationError, match="adjacent"):
            sg.validate_position(pos)

    def test_pawn_on_back_rank_rejected(self):
        board = [0] * 64
        board[4] = 6
        board[60] = -6
        board[7] = 1
        pos = sg.Position(spec=sg.BoardSpec.standard(), placement=tuple(board),
                          side_to_move=sg.Color.WHITE)
        with pytest.raises(sg.ValidationError, match="back rank"):
            sg.validate_position(pos)

    @pytest.mark.parametrize("cells,message", [
        ({4: 6, 20: 9}, "invalid placement cell 9 at e3"),
        ({0: 6, 2: 6, 63: -7}, "invalid placement cell -7 at h8"),
        ({0: 6, 1: -6, 7: 1}, "kings are adjacent"),
    ], ids=["range-and-missing-king", "two-kings-then-range", "back-rank-pawn-and-adjacent-kings"])
    def test_first_violated_invariant_is_named(self, cells, message):
        board = [0] * 64
        for sq, cell in cells.items():
            board[sq] = cell
        pos = sg.Position(spec=sg.BoardSpec.standard(), placement=tuple(board),
                          side_to_move=sg.Color.WHITE)
        with pytest.raises(sg.ValidationError, match=f"^{message}$"):
            sg.validate_position(pos)

    def test_ply_parity_enforced_at_construction(self):
        board = [0] * 64
        board[4] = 6
        board[60] = -6
        with pytest.raises(sg.ValidationError, match="parity"):
            sg.Position(spec=sg.BoardSpec.standard(), placement=tuple(board),
                        side_to_move=sg.Color.WHITE, ply_index=1)
