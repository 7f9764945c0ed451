import random

import pytest

import strategia as sg
from positions import random_position

STANDARD = sg.BoardSpec.standard()


class TestParse:
    def test_two_kings(self):
        pos = sg.parse_fen("8/8/4k3/8/4K3/8/8/8 w - -", STANDARD)
        assert pos.placement[28] == sg.PieceKind.KING.value
        assert pos.placement[44] == -sg.PieceKind.KING.value
        assert pos.side_to_move is sg.Color.WHITE
        assert pos.ply_index == 0

    def test_checkmate_position_transcription(self):
        pos = sg.parse_fen("8/8/8/8/8/8/1qk5/K7 w - -", STANDARD)
        assert sg.outcome(pos) is sg.Outcome.CHECKMATE

    def test_black_to_move_gets_odd_ply(self):
        pos = sg.parse_fen("8/8/4k3/8/4K3/8/8/8 b - -", STANDARD)
        assert pos.ply_index == 1

    def test_rank_width_mismatch_is_parse_error_with_offset(self):
        with pytest.raises(sg.ParseError) as exc_info:
            sg.parse_fen("8/8/4k3/7/4K3/8/8/8 w - -", STANDARD)
        assert exc_info.value.offset >= 0

    def test_wrong_rank_count_for_small_board(self):
        with pytest.raises(sg.ParseError):
            sg.parse_fen("8/8/8 w - -", sg.BoardSpec(4, 4))

    def test_bad_side_field(self):
        with pytest.raises(sg.ParseError):
            sg.parse_fen("8/8/4k3/8/4K3/8/8/8 x - -", STANDARD)

    def test_bad_castle_flag(self):
        with pytest.raises(sg.ParseError):
            sg.parse_fen("8/8/4k3/8/4K3/8/8/8 w Kz -", STANDARD)

    def test_bad_piece_letter(self):
        with pytest.raises(sg.ParseError):
            sg.parse_fen("8/8/4x3/8/4K3/8/8/8 w - -", STANDARD)

    @pytest.mark.parametrize("fen,spec", [
        # str.isdigit accepts a superscript two, which int() refuses.
        pytest.param("4/4/4/k\u00b2QK b - -", sg.BoardSpec(4, 4), id="superscript-2"),
        # int() reads a fullwidth eight as 8.
        pytest.param("8/8/4k3/8/4K3/8/8/\uff18 w - -", STANDARD, id="fullwidth-8"),
    ])
    def test_non_ascii_digit_is_not_a_run_length(self, fen, spec):
        with pytest.raises(sg.ParseError):
            sg.parse_fen(fen, spec)

    @pytest.mark.parametrize("name", [
        pytest.param("a\u00b2", id="superscript-2"),
        pytest.param("a\uff18", id="fullwidth-8"),
    ])
    def test_non_ascii_rank_is_not_a_square(self, name):
        with pytest.raises(sg.ValidationError, match="bad square name"):
            STANDARD.parse_square(name)

    @pytest.mark.parametrize("ep", [
        pytest.param("e\u00b2", id="superscript-2"),
        pytest.param("e\uff16", id="fullwidth-6"),
    ])
    def test_non_ascii_rank_is_not_an_en_passant_square(self, ep):
        with pytest.raises(sg.ParseError, match="bad en passant square"):
            sg.parse_fen(f"4k3/8/8/3Pp3/8/8/8/4K3 w - {ep}", STANDARD)

    def test_missing_fields(self):
        with pytest.raises(sg.ParseError):
            sg.parse_fen("8/8/4k3/8/4K3/8/8/8 w -", STANDARD)

    def test_ep_square_parsed(self):
        pos = sg.parse_fen("4k3/8/8/3Pp3/8/8/8/4K3 w - e6", STANDARD)
        assert pos.ep_square == STANDARD.parse_square("e6")

    def test_inconsistent_ep_rejected(self):
        with pytest.raises(sg.ValidationError):
            sg.parse_fen("4k3/8/8/8/8/8/8/4K3 w - e6", STANDARD)

    def test_castle_rights_need_home_pieces(self):
        with pytest.raises(sg.ValidationError, match="castle"):
            sg.parse_fen("4k3/8/8/8/8/8/8/4K3 w KQ -", STANDARD)

    def test_small_board_parsing(self):
        spec = sg.BoardSpec(4, 4)
        pos = sg.parse_fen("k3/4/4/2K1 w - -", spec)
        assert pos.placement[2] == sg.PieceKind.KING.value
        assert pos.placement[12] == -sg.PieceKind.KING.value


class TestRoundTrip:
    def test_initial_array(self):
        text = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -"
        assert sg.format_fen(sg.parse_fen(text, STANDARD)) == text

    def test_random_positions_round_trip_exactly(self):
        rng = random.Random(23)
        for _ in range(300):
            pos = random_position(rng)
            text = sg.format_fen(pos)
            again = sg.parse_fen(text, pos.spec)
            assert again.placement == pos.placement
            assert again.side_to_move == pos.side_to_move
            assert again.ep_square == pos.ep_square
            assert again.castle_rights == pos.castle_rights
            assert sg.format_fen(again) == text
