import random

import numpy as np
import pytest

import strategia as sg
from strategia.tablebase import _canonical, _decode_columns, _encode_columns

STANDARD = sg.BoardSpec.standard()


class TestMaterialClass:
    def test_parse_and_canonical_name(self):
        mc = sg.MaterialClass.from_string("KRvK", STANDARD)
        assert mc.name == "KRvK"
        assert [p.kind for p in mc.pieces] == [
            sg.PieceKind.KING, sg.PieceKind.ROOK, sg.PieceKind.KING,
        ]

    def test_index_space_size_formula(self):
        assert sg.MaterialClass.from_string("KRvK", STANDARD).index_size == 2 * 64 ** 3
        assert sg.MaterialClass.from_string("KvK", sg.BoardSpec(4, 4)).index_size == 2 * 16 ** 2

    def test_rejects_missing_or_extra_kings(self):
        with pytest.raises(sg.ValidationError):
            sg.MaterialClass.from_string("RvK", STANDARD)
        with pytest.raises(sg.ValidationError):
            sg.MaterialClass.from_string("KKvK", STANDARD)

    def test_rejects_more_than_five_pieces(self):
        with pytest.raises(sg.ValidationError):
            sg.MaterialClass.from_string("KQRRvKR", STANDARD)

    def test_rejects_pawns_on_both_sides(self):
        with pytest.raises(sg.ValidationError, match="pawns on both sides"):
            sg.MaterialClass.from_string("KPvKP", STANDARD)


class TestIndexRoundTrip:
    def test_thousand_random_krk_positions(self):
        mc = sg.MaterialClass.from_string("KRvK", STANDARD)
        rng = random.Random(7)
        count = 0
        while count < 1000:
            pos = _random_class_position(rng, mc)
            idx = sg.index_of(pos, mc)
            again = sg.position_at(idx, mc)
            assert again is not None
            assert again.placement == pos.placement
            assert again.side_to_move == pos.side_to_move
            count += 1

    def test_every_valid_index_round_trips(self, kqk4):
        mc = kqk4.material
        for idx in range(mc.index_size):
            pos = sg.position_at(idx, mc)
            if pos is not None:
                assert sg.index_of(pos, mc) == idx

    def test_overlapping_squares_are_invalid(self):
        mc = sg.MaterialClass.from_string("KRvK", STANDARD)
        # digits (0, 0, 1): king and rook share a1
        assert sg.position_at(0 + 0 * 64 + 1 * 64 ** 2, mc) is None

    def test_adjacent_kings_are_invalid(self):
        mc = sg.MaterialClass.from_string("KvK", STANDARD)
        assert sg.position_at(0 + 1 * 64, mc) is None

    def test_out_of_range_index_raises(self):
        mc = sg.MaterialClass.from_string("KvK", STANDARD)
        with pytest.raises(sg.ValidationError):
            sg.position_at(mc.index_size, mc)

    def test_material_mismatch_raises(self):
        mc = sg.MaterialClass.from_string("KRvK", STANDARD)
        pos = sg.parse_fen("8/8/4k3/8/4K3/8/8/8 w - -", STANDARD)
        with pytest.raises(sg.MaterialMismatchError):
            sg.index_of(pos, mc)

    def test_castle_rights_are_not_indexable(self):
        mc = sg.MaterialClass.from_string("KRvK", STANDARD)
        pos = sg.parse_fen("4k3/8/8/8/8/8/8/4K2R w K -", STANDARD)
        with pytest.raises(sg.ValidationError, match="castle"):
            sg.index_of(pos, mc)

    def test_duplicate_pieces_canonicalize_ascending(self):
        spec = sg.BoardSpec(4, 4)
        mc = sg.MaterialClass.from_string("KRRvK", spec)
        rng = random.Random(3)
        seen_valid = 0
        for idx in rng.sample(range(mc.index_size), 4000):
            pos = sg.position_at(idx, mc)
            if pos is None:
                continue
            seen_valid += 1
            assert sg.index_of(pos, mc) == idx
        assert seen_valid > 100

    def test_swapped_duplicate_squares_map_to_one_index(self):
        spec = sg.BoardSpec(4, 4)
        mc = sg.MaterialClass.from_string("KRRvK", spec)
        board = [0] * 16
        board[0] = 6
        board[5] = 4
        board[6] = 4
        board[15] = -6
        pos = sg.Position(spec=spec, placement=tuple(board), side_to_move=sg.Color.WHITE)
        idx = sg.index_of(pos, mc)
        again = sg.position_at(idx, mc)
        assert again.placement == pos.placement

    def test_pawn_on_back_rank_is_invalid(self):
        mc = sg.MaterialClass.from_string("KPvK", STANDARD)
        # digits: WK a1 (0), WP b1 (1) on the back rank, BK h8 (63)
        idx = 0 + 1 * 64 + 63 * 64 ** 2
        assert sg.position_at(idx, mc) is None


# Classes with duplicate pieces: KRRvK, and KRPvK beside KRRvK 3x4, the
# class its rook promotions reach.
CODEC_CLASSES = (
    ("KRRvK", sg.BoardSpec(3, 3)),
    ("KRPvK", sg.BoardSpec(3, 4)),
    ("KRRvK", sg.BoardSpec(3, 4)),
)


@pytest.fixture(params=CODEC_CLASSES, ids=lambda c: f"{c[0]}-{c[1].width}x{c[1].height}")
def codec_class(request):
    return sg.MaterialClass.from_string(*request.param)


class TestIndexCodec:
    """The digit codec's contract, on every index of each class."""

    def test_encode_inverts_decode_on_every_canonical_index(self, codec_class):
        idx = np.arange(codec_class.index_size, dtype=np.int64)
        side, digits = _decode_columns(codec_class, idx)
        canonical = _canonical(codec_class, digits)
        assert 0 < np.count_nonzero(canonical) < idx.size
        again = _encode_columns(codec_class, side, digits)
        assert np.array_equal(again[canonical], idx[canonical])

    def test_duplicate_order_does_not_change_the_index(self, codec_class):
        idx = np.arange(codec_class.index_size, dtype=np.int64)
        side, digits = _decode_columns(codec_class, idx)
        idx = idx[_canonical(codec_class, digits)]
        side, digits = _decode_columns(codec_class, idx)
        for lo, hi in codec_class._dup_groups:
            digits[lo:hi] = digits[lo:hi][::-1]
        assert np.array_equal(_encode_columns(codec_class, side, digits), idx)

    def test_int_and_array_digits_give_the_same_indices(self, codec_class):
        idx = np.arange(codec_class.index_size, dtype=np.int64)
        side, digits = _decode_columns(codec_class, idx)
        canonical = _canonical(codec_class, digits).tolist()
        encoded = _encode_columns(codec_class, side, digits).tolist()
        for i in range(codec_class.index_size):
            side, digits = _decode_columns(codec_class, i)
            assert _canonical(codec_class, digits) == canonical[i]
            assert _encode_columns(codec_class, side, digits) == encoded[i]


def test_int32_indices_decode_and_encode_at_the_top_of_the_largest_index():
    # A class has at most 5 pieces on at most 8x8, so its indices fit in
    # int32, which the solve's un-moves compute in. KQRvKR 8x8 has the
    # most: 2 * 64**5 = 2**31.
    mc = sg.MaterialClass.from_string("KQRvKR", STANDARD)
    assert mc.index_size == 2 ** 31
    tops = [0, 2 ** 30, 2 ** 31 - 1]
    idx = np.array(tops, dtype=np.int32)
    side, digits = _decode_columns(mc, idx)
    assert side.dtype == np.int32 and all(d.dtype == np.int32 for d in digits)
    for i, top in enumerate(tops):
        expected_side, expected_digits = _decode_columns(mc, top)
        assert side[i] == expected_side
        assert [int(d[i]) for d in digits] == expected_digits
    again = _encode_columns(mc, side, digits)
    assert again.dtype == np.int32
    assert again.tolist() == tops


def _random_class_position(rng, mc):
    spec = mc.spec
    while True:
        squares = rng.sample(range(spec.num_squares), len(mc.pieces))
        board = [0] * spec.num_squares
        for sq, piece in zip(squares, mc.pieces):
            board[sq] = piece.cell
        side = rng.choice((sg.Color.WHITE, sg.Color.BLACK))
        pos = sg.Position(spec=spec, placement=tuple(board), side_to_move=side,
                          ply_index=side.value)
        try:
            sg.validate_position(pos)
        except sg.ValidationError:
            continue
        return pos
