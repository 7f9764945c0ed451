"""The vectorized move generation against the scalar rules engine.

The reference row of an index is built one position at a time from
`position_at`, `legal_transitions` and `index_of` (in-class successors)
or the subtable's `probe` (captures and promotions). Rows are compared
as multisets, since the fixpoint reads them without regard to order.

Three vectorized views are held to it on every index of small classes:
the forward rows that `_successor_values` gives (the policy's view),
the solver's build (`_build_side`: terminal classes, the count of
moves not won by a move that leaves the class, and those moves folded
into one `exit_at`), and the in-class predecessors that `_unmoves`
generates among its candidates. The solve keeps only the
candidates it marks open, so a solved table must hold no open mark
and an illegal entry exactly where `_legal_rows` says so. The attack
test and the target bitboards all of them use are held to the
independent oracle's walk.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import strategia as sg
from strategia.tablebase import (
    _BUILD_BLOCK,
    _OPEN,
    DTM_ABSENT,
    _build_blocks,
    _build_side,
    _side_blocks,
    _in_check,
    _legal_rows,
    _max_move_bound,
    _move_tables,
    _successor_values,
    _unmoves,
)

ROOK_KNIGHT = frozenset({sg.PieceKind.ROOK, sg.PieceKind.KNIGHT})

# (wins, losses) labeled per fixpoint pass, as the generational pass
# loop counted them before the retrograde frontier replaced it.
KRK8_PASSES = (
    (1512, 0), (0, 624), (4676, 0), (0, 1948), (3852, 0), (0, 648), (1900, 0),
    (0, 1584), (4848, 0), (0, 3768), (8708, 0), (0, 4728), (11320, 0), (0, 5444),
    (17172, 0), (0, 11448), (20088, 0), (0, 13672), (19016, 0), (0, 15872), (20476, 0),
    (0, 22788), (21480, 0), (0, 28732), (17824, 0), (0, 33516), (16136, 0), (0, 36372),
    (5244, 0), (0, 17284), (916, 0), (0, 3056), (0, 0),
)
KQK8_PASSES = (
    (2448, 0), (0, 1352), (5012, 0), (0, 2956), (9064, 0), (0, 7480), (19964, 0),
    (0, 14144), (26164, 0), (0, 25484), (32064, 0), (0, 39908), (32104, 0), (0, 54052),
    (15000, 0), (0, 43800), (2680, 0), (0, 11300), (8, 0), (0, 56), (0, 0),
)
KPK6_PASSES = (
    (46, 0), (0, 14), (146, 0), (0, 42), (308, 0), (0, 98), (618, 0), (0, 316),
    (1464, 0), (0, 734), (2458, 0), (0, 1656), (3590, 0), (0, 3410), (4014, 0),
    (0, 2906), (3530, 0), (0, 2270), (586, 0), (0, 676), (334, 0), (0, 260), (178, 0),
    (0, 140), (172, 0), (0, 112), (174, 0), (0, 144), (28, 0), (0, 32), (10, 0), (0, 6),
    (0, 0),
)
# The first pinned class that many decisive captures label: KQvKR 6x6.
KQKR6_PASSES = (
    (21312, 0), (0, 2624), (16844, 0), (0, 1952), (27468, 0), (0, 3232), (54776, 0),
    (0, 5500), (97812, 0), (0, 10056), (141544, 0), (0, 19404), (116076, 0), (0, 22808),
    (68748, 0), (0, 17856), (65148, 0), (0, 13632), (64796, 0), (0, 11192), (62328, 0),
    (0, 10668), (33740, 0), (0, 15776), (17764, 0), (0, 20276), (19244, 0), (0, 23544),
    (21324, 0), (0, 29404), (23996, 0), (0, 36792), (27144, 0), (0, 46116), (26032, 0),
    (0, 57112), (19060, 0), (0, 49380), (11472, 0), (0, 35800), (5992, 0), (0, 21016),
    (1684, 0), (0, 6648), (288, 0), (0, 1264), (0, 0),
)


def _static_code(wdl, dtm):
    """Edge code of an out-of-class successor value; dtm is DTM_ABSENT for draws.

    Works on ints and on int64 arrays alike, and is always below -1, so
    it never meets an in-class index.
    """
    return -(2 + (wdl << 17) + dtm)


def _static_value(code):
    """(wdl, dtm) of the edge code `code`: the inverse of `_static_code`."""
    raw = -code - 2
    return raw >> 17, raw & 0x1FFFF


EXHAUSTIVE = (
    ("KvK", sg.BoardSpec(2, 2)),
    ("KQvK", sg.BoardSpec(4, 4)),
    ("KPvK", sg.BoardSpec(4, 4)),
    ("KRRvK", sg.BoardSpec(3, 3)),
    ("KQvKR", sg.BoardSpec(3, 4)),
    ("KPvKN", sg.BoardSpec(4, 4)),
    ("KPvK", sg.BoardSpec(3, 5)),
    ("KPvK", sg.BoardSpec(4, 4, promotion_kinds=ROOK_KNIGHT)),
    ("KRPvK", sg.BoardSpec(3, 4)),  # promotion to a rook: duplicate rooks in the subclass
    ("KNvKP", sg.BoardSpec(3, 5)),  # a black pawn: pushes and double pushes down the board
    ("KPvKQ", sg.BoardSpec(3, 4)),  # a pawn facing a slider: pinned pushes, captures of the pinner
)


def reference_class(material, registry, idx):
    """'invalid', 'loss', 'draw' or the sorted successor row, from the scalar rules."""
    pos = sg.position_at(idx, material)
    if pos is None:
        return "invalid"
    transitions = sg.legal_transitions(pos)
    if not transitions:
        return "loss" if sg.in_check(pos) else "draw"
    row = []
    for _, succ in transitions:
        key = sg.material_key_of(succ)
        if key == material.key:
            row.append(sg.index_of(succ, material))
        else:
            value = registry[key].probe(succ)
            dtm = DTM_ABSENT if value.dtm is None else value.dtm
            row.append(_static_code(value.wdl.value, dtm))
    return sorted(row)


def build_range(material, registry, lo, hi):
    """(invalid, losses, draws, open indices, counts, edges) of [lo, hi), from `_successor_values`.

    The edges list each open index's successors in turn: in-class ones
    as indices, out-of-class ones as static codes of their values in
    `registry`. The class's own values are read from an empty
    placeholder table and never used.
    """
    n = material.index_size
    placeholder = sg.Tablebase(material, np.zeros(n, np.uint8), np.zeros(n, np.uint16))
    tables = {material.key: placeholder, **registry}
    slots = {key: slot for slot, key in enumerate(tables)}
    parts = []
    for side, start, stop in _build_blocks(material, lo, hi):
        idx = np.arange(start, stop, dtype=np.int64)
        ok, digits, occ = _legal_rows(material, side, idx)
        idx, occ, digits = idx[ok], occ[ok], [d[ok] for d in digits]
        per_slot = _successor_values(
            material, side, idx, SimpleNamespace(table=tables.__getitem__, slots=slots)
        )
        legal, _, to_slot, to_idx, wdl, dtm = (np.hstack(columns) for columns in zip(*per_slot))
        wdl = wdl.astype(np.int64)
        dtm = np.where(wdl == sg.Wdl.DRAW.value, DTM_ABSENT, dtm.astype(np.int64))
        values = np.where(to_slot == slots[material.key], to_idx, _static_code(wdl, dtm))
        counts = np.count_nonzero(legal, axis=1)
        stuck = counts == 0
        mated = _in_check(material, side, [d[stuck] for d in digits], occ[stuck])
        live = ~stuck
        parts.append((
            int(ok.size - np.count_nonzero(ok)), idx[stuck][mated], idx[stuck][~mated],
            idx[live], counts[live], values[live][legal[live]],
        ))
    return (sum(p[0] for p in parts), *(np.concatenate([p[i] for p in parts]) for i in range(1, 6)))


def built_classes(material, registry, lo, hi):
    """Index -> class as the forward rows label [lo, hi)."""
    invalid, losses, draws, open_idx, counts, edges = build_range(material, registry, lo, hi)
    assert int(counts.sum()) == edges.size
    out = {int(i): "loss" for i in losses}
    out.update((int(i), "draw") for i in draws)
    rows = np.split(edges, np.cumsum(counts)[:-1])
    for idx, row in zip(open_idx.tolist(), rows):
        out[idx] = sorted(row.tolist())
    assert invalid == (hi - lo) - len(out)
    return out


def solver_classes(material, registry, lo, hi, max_moves=None):
    """Index -> 'loss', 'draw' or (moves, exit_at), as `_build_side` labels [lo, hi)."""
    if max_moves is None:
        max_moves = _max_move_bound(material)
    out = {}
    for block in _build_blocks(material, lo, hi):
        invalid, losses, draws, live, moves, exit_at, _ = _build_side(
            material, registry, *block, max_moves
        )
        out.update((int(i), "loss") for i in losses)
        out.update((int(i), "draw") for i in draws)
        out.update(zip(live.tolist(), zip(moves.tolist(), exit_at.tolist())))
        assert invalid == block[2] - block[1] - losses.size - draws.size - live.size
    return out


def counted(row):
    """What the solver's build keeps of a class: (moves not won by an exit, exit_at).

    exit_at is 1 + the least dtm of a lost exit if there is one, else
    1 + the greatest dtm of a won exit if there is one, else 0.
    """
    if isinstance(row, str):
        return row
    values = [_static_value(code) for code in row if code < 0]
    lost = [dtm for wdl, dtm in values if wdl == sg.Wdl.LOSS.value]
    won = [dtm for wdl, dtm in values if wdl == sg.Wdl.WIN.value]
    if lost:
        exit_at = 1 + min(lost)
    elif won:
        exit_at = 1 + max(won)
    else:
        exit_at = 0
    return (len(row) - len(won), exit_at)


def assert_builds_match(material, registry, lo, hi, reference):
    """Both the forward rows and the solver's build of [lo, hi) match `reference(idx)`."""
    built = built_classes(material, registry, lo, hi)
    solver = solver_classes(material, registry, lo, hi)
    for idx in range(lo, hi):
        expected = reference(idx)
        assert built.get(idx, "invalid") == expected, idx
        assert solver.get(idx, "invalid") == counted(expected), idx


def registry_of(table):
    return dict(table.subtables)


@pytest.fixture(
    scope="module", params=EXHAUSTIVE,
    ids=[f"{t}-{s.width}x{s.height}-{len(s.promotion_kinds)}promo" for t, s in EXHAUSTIVE],
)
def exhaustive(request):
    """(table, scalar class of every index) of one EXHAUSTIVE class."""
    text, spec = request.param
    table = sg.solve(sg.MaterialClass.from_string(text, spec))
    material, registry = table.material, registry_of(table)
    reference = [reference_class(material, registry, idx) for idx in range(material.index_size)]
    return table, reference


def test_build_matches_scalar_rules_on_every_index(exhaustive):
    table, reference = exhaustive
    material = table.material
    assert_builds_match(material, registry_of(table), 0, material.index_size, reference.__getitem__)


def test_unmoves_match_scalar_rules_on_every_index(exhaustive):
    # The predecessors of F are the P whose legal moves include a quiet,
    # in-class move to F: the in-class entries of P's scalar row. The
    # un-moves yield candidates, and the solve keeps the legal ones. A
    # row's candidates are those of `_unmoves` on that row alone, and a
    # block yields the candidates of all its rows.
    table, reference = exhaustive
    material = table.material
    expected = {}
    for p, row in enumerate(reference):
        if isinstance(row, list):
            for f in row:
                if f >= 0:
                    expected.setdefault(f, []).append(p)
    for side, lo, hi in _build_blocks(material, 0, material.index_size):
        targets = np.array([f for f in range(lo, hi) if reference[f] != "invalid"], dtype=np.int64)
        if targets.size == 0:
            continue
        rows = [_unmoves(material, side, targets[i:i + 1]) for i in range(targets.size)]
        assert sorted(_unmoves(material, side, targets).tolist()) == sorted(np.concatenate(rows).tolist())
        for f, row in zip(targets.tolist(), rows):
            legal = sorted(p for p in row.tolist() if reference[p] != "invalid")
            assert legal == expected.get(f, []), f


def test_int32_unmoves_match_int64_at_the_top_of_the_largest_index():
    # The passes un-move int32 indices. KQRvKR 8x8 has 2**31 indices,
    # the most of any class, and the top 4096 of each side's half must
    # give the candidates that the codec gives in int64.
    material = sg.MaterialClass.from_string("KQRvKR", sg.BoardSpec(8, 8))
    assert material.index_size == 2 ** 31
    for side in (0, 1):
        top = np.arange((side + 1) * material._half - _BUILD_BLOCK, (side + 1) * material._half)
        wide = _unmoves(material, side, top)
        narrow = _unmoves(material, side, top.astype(np.int32))
        assert wide.size > 0
        assert np.array_equal(np.sort(narrow), np.sort(wide))
        assert 0 <= wide.min() and wide.max() < material.index_size


def assert_solved_marks(table, tmp_path):
    """`table` and each subtable: wdl 0 exactly where `_legal_rows` is false, no open entry, and a lossless file in `tmp_path`.

    A file records no promotion kinds, so a class of other kinds refuses to make one.
    """
    for solved in (table, *table.subtables.values()):
        material = solved.material
        for side, lo, hi in _build_blocks(material, 0, material.index_size):
            ok, _, _ = _legal_rows(material, side, np.arange(lo, hi, dtype=np.int64))
            assert np.array_equal(solved.wdl[lo:hi] == 0, ~ok), (material.name, lo)
        assert not (solved.wdl >= _OPEN).any(), material.name
        path = tmp_path / f"{material.name}.ctb"
        if material.spec.promotion_kinds != sg.BoardSpec().promotion_kinds:
            with pytest.raises(sg.ValidationError, match="promotion kinds"):
                solved.save(path)
            continue
        solved.save(path)
        loaded = sg.Tablebase.load(path)
        assert np.array_equal(loaded.wdl, solved.wdl), material.name
        assert np.array_equal(loaded.dtm, solved.dtm), material.name


def test_solve_marks_every_entry_final_on_exhaustive_classes(exhaustive, tmp_path):
    assert_solved_marks(exhaustive[0], tmp_path)


@pytest.mark.parametrize("fixture", ["krk8", "kqk8", "kpk6", "kqkr6"])
def test_solve_marks_every_entry_final_on_pinned_classes(request, fixture, tmp_path):
    assert_solved_marks(request.getfixturevalue(fixture), tmp_path)


@pytest.mark.parametrize("width,height", [(8, 8), (3, 5), (2, 7)])
def test_attacks_match_the_oracle_walk(width, height):
    # Every (src, target) pair, each under an occupancy of only the two
    # squares and under seeded random blockers. The target holds the
    # defending king and the blockers are defending pawns, so the
    # attacker on src is the only piece that can attack it. Both the
    # attack test and the target bitboard (bit t) are held to the walk;
    # on a board two files wide a diagonal steps by one square, as a
    # rank does.
    tables = _move_tables(width, height)
    rules = oracles.OracleRules(width, height, ())
    n = width * height
    src, target = (a.ravel() for a in np.indices((n, n)))
    src, target = src[src != target], target[src != target]
    rng = np.random.default_rng(19)
    bits = tables.bit[:n]
    for density in (0.0, 0.25, 0.5):
        blockers = rng.random((src.size, n)) < density
        occ = np.bitwise_or.reduce(np.where(blockers, bits, 0), axis=1) | bits[src] | bits[target]
        for kind in sg.PieceKind:
            for color in (0, 1):
                got = tables.attacks(kind, color, src, target, occ)
                hit = (tables.targets(kind, color, src, occ) & bits[target]) != 0
                sign = 1 if color == 0 else -1
                for row, (s, t) in enumerate(zip(src.tolist(), target.tolist())):
                    board = [-sign * oracles.PAWN if blocked else 0 for blocked in blockers[row].tolist()]
                    board[s] = sign * getattr(oracles, kind.name)
                    board[t] = -sign * oracles.KING
                    attacked = rules.attacked(board, t, color == 0)
                    assert bool(got[row]) == attacked, (kind.name, color, s, t)
                    assert bool(hit[row]) == attacked, (kind.name, color, s, t)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_matches_scalar_rules_on_sampled_kqk8_indices(kqk8, data):
    material = kqk8.material
    registry = registry_of(kqk8)
    idx = data.draw(st.integers(0, material.index_size - 1))
    assert_builds_match(material, registry, idx, idx + 1,
                        lambda i: reference_class(material, registry, i))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_matches_scalar_rules_on_sampled_kpk6_indices(kpk6, data):
    material = kpk6.material
    registry = registry_of(kpk6)
    idx = data.draw(st.integers(0, material.index_size - 1))
    assert_builds_match(material, registry, idx, idx + 1,
                        lambda i: reference_class(material, registry, i))


@pytest.mark.parametrize("fixture", ["kqk4", "kpk6"])
def test_build_blocks_split_at_the_side_bit(request, fixture):
    # KPvK 6x6 has 46,656 indices per side, not a multiple of the block.
    table = request.getfixturevalue(fixture)
    material = table.material
    n, half = material.index_size, material.index_size // 2
    for lo, hi in ((0, n), (half - 300, half + 300)):
        blocks = _build_blocks(material, lo, hi)
        covered = np.concatenate([np.arange(start, stop) for _, start, stop in blocks])
        assert np.array_equal(covered, np.arange(lo, hi))
        for side, start, stop in blocks:
            assert 0 < stop - start <= _BUILD_BLOCK
            assert side == start // half == (stop - 1) // half
    # Sorted index lists (a policy's rows, a frontier) split the same way.
    for idx in (table.decisive_indices(), np.arange(half - 300, half + 300), np.arange(half)):
        blocks = list(_side_blocks(material, idx))
        assert np.array_equal(np.concatenate([block for _, block in blocks]), idx)
        for side, block in blocks:
            assert 0 < block.size <= _BUILD_BLOCK
            assert (block // half == side).all()
    registry = registry_of(table)
    assert_builds_match(material, registry, half - 300, half + 300,
                        lambda i: reference_class(material, registry, i))


def test_row_over_the_move_bound_raises_instead_of_truncating(kqk4):
    material = kqk4.material
    with pytest.raises(RuntimeError, match="bound"):
        solver_classes(material, registry_of(kqk4), 0, material.index_size, max_moves=2)


@pytest.mark.parametrize("fixture,crc", [
    ("krk8", 0xE6FCB2C2),
    ("kqk8", 0x5BBF070E),
    ("kpk6", 0x514883FC),
    ("kqkr6", 0x95587C52),
])
def test_table_checksums_are_pinned(request, fixture, crc):
    assert request.getfixturevalue(fixture).checksum == crc


def test_kqkr6_subtable_checksums_are_pinned(kqkr6):
    crcs = {table.material.name: table.checksum for table in kqkr6.subtables.values()}
    assert crcs == {"KQvK": 0xF9760C2A, "KvKR": 0x08EF44C1, "KvK": 0xCAA2AB6D}


@pytest.mark.parametrize("fixture,passes", [
    ("krk8", KRK8_PASSES),
    ("kqk8", KQK8_PASSES),
    ("kpk6", KPK6_PASSES),
    ("kqkr6", KQKR6_PASSES),
])
def test_fixpoint_passes_are_pinned(request, fixture, passes):
    assert request.getfixturevalue(fixture).stats.passes == passes
