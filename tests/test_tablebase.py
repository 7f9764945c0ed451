import dataclasses
import os
import random
import re
import struct
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import strategia as sg
import oracles
from strategia import tablebase
from strategia.tablebase import (
    _CHUNK,
    _CHUNK_BYTES,
    _INDEX_BYTES,
    _OPEN,
    _block_bytes,
    _closure,
    _max_move_bound,
    _solve_bytes,
    _successor_classes,
)

STANDARD = sg.BoardSpec.standard()


def oracle_values_by_index(material):
    """Solve a class with the independent minimax oracle, keyed by table index."""
    spec = material.spec
    rules = oracles.OracleRules(
        spec.width, spec.height, [k.value for k in sorted(spec.promotion_kinds)]
    )
    cells = [p.cell for p in material.pieces]
    states = oracles.enumerate_class_states(rules, cells)
    values = oracles.minimax_solve(rules, states)
    by_index = {}
    for board, white in states:
        side = sg.Color.WHITE if white else sg.Color.BLACK
        pos = sg.Position(spec=spec, placement=board, side_to_move=side,
                          ply_index=side.value)
        by_index[sg.index_of(pos, material)] = values[(board, white)]
    return by_index


def child_peak_rss(code):
    """Peak resident bytes of a fresh interpreter that runs `code`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sg.__file__)))
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], env)
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss * 1024  # KiB on Linux


def traced_peak(fn):
    """Peak bytes that tracemalloc traces while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_table_matches_oracle(tb):
    expected = oracle_values_by_index(tb.material)
    legal = set(np.flatnonzero(tb.wdl != 0).tolist())
    assert legal == set(expected), "legal position sets differ"
    names = {1: "win", 2: "draw", 3: "loss"}
    for idx, (wdl_name, dtm) in expected.items():
        got_wdl = names[int(tb.wdl[idx])]
        got_dtm = None if got_wdl == "draw" else int(tb.dtm[idx])
        assert (got_wdl, got_dtm) == (wdl_name, dtm), f"index {idx}"


class TestSolveAgainstOracle:
    def test_kqk_4x4_exact(self, kqk4):
        assert_table_matches_oracle(kqk4)

    def test_kpk_4x4_exact_across_promotions(self, kpk4):
        assert_table_matches_oracle(kpk4)

    def test_kvk_4x4_all_draws(self):
        tb = sg.solve(sg.MaterialClass.from_string("KvK", sg.BoardSpec(4, 4)))
        legal = tb.wdl != 0
        assert (tb.wdl[legal] == sg.Wdl.DRAW.value).all()

    def test_krrk_3x3_exact_with_duplicate_pieces(self):
        # Two identical rooks: exercises duplicate-square canonicalization in
        # the index and two capture steps of subclass descent (KRvK, KvK).
        tb = sg.solve(sg.MaterialClass.from_string("KRRvK", sg.BoardSpec(3, 3)))
        assert_table_matches_oracle(tb)

    def test_krk_5x5_sampled_probes_match_oracle(self, krk5):
        expected = oracle_values_by_index(krk5.material)
        rng = random.Random(19)
        names = {1: "win", 2: "draw", 3: "loss"}
        for idx in rng.sample(sorted(expected), 2000):
            pos = sg.position_at(idx, krk5.material)
            value = krk5.probe(pos)
            dtm = None if value.wdl is sg.Wdl.DRAW else value.dtm
            assert (names[value.wdl.value], dtm) == expected[idx]


# Boards of at most 12 squares, where an oracle solve of a closure takes seconds.
SMALL_BOARDS = [(w, h) for w in range(2, 7) for h in range(2, 7) if 4 <= w * h <= 12]


@st.composite
def small_closures(draw):
    """(class text, board spec) of 3 or 4 pieces, with pawns on one side only.

    A pawn class gets one promotion kind, which halves its closure; a
    class without pawns keeps the default kinds.
    """
    pieces = draw(st.lists(st.tuples(st.sampled_from("PNBRQ"), st.booleans()), min_size=1, max_size=2))
    pawn_sides = {white for kind, white in pieces if kind == "P"}
    assume(len(pawn_sides) <= 1)
    width, height = draw(st.sampled_from([b for b in SMALL_BOARDS if b[1] >= 3 or not pawn_sides]))
    spec = sg.BoardSpec(width, height)
    if pawn_sides:
        promotion = draw(st.sampled_from(sorted(spec.promotion_kinds)))
        spec = sg.BoardSpec(width, height, promotion_kinds={promotion})
    white = "".join(kind for kind, is_white in pieces if is_white)
    black = "".join(kind for kind, is_white in pieces if not is_white)
    return f"K{white}vK{black}", spec


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(small_closures())
@example(("KQvKR", sg.BoardSpec(3, 4)))  # captures by both sides
@example(("KRvKN", sg.BoardSpec(3, 4)))
# Black can have both a promotion to a subclass entry that White wins
# and a capture to one that White loses: its exit_at takes the loss.
@example(("KQvKP", sg.BoardSpec(3, 4, promotion_kinds={sg.PieceKind.QUEEN})))
def test_every_table_of_a_drawn_closure_matches_the_oracle(case):
    text, spec = case
    table = sg.solve(sg.MaterialClass.from_string(text, spec))
    for solved in (table, *table.subtables.values()):
        assert_table_matches_oracle(solved)


class TestSolveProperties:
    def test_dtm_recurrence(self, krk5):
        tb = krk5
        rng = random.Random(31)
        decisive = tb.decisive_indices().tolist()
        for idx in rng.sample(decisive, 600):
            pos = sg.position_at(idx, tb.material)
            value = tb.probe(pos)
            succ_values = [tb.resolve(s) for _, s in sg.legal_transitions(pos)]
            if value.wdl is sg.Wdl.WIN:
                losses = [v.dtm for v in succ_values if v.wdl is sg.Wdl.LOSS]
                assert losses and min(losses) == value.dtm - 1
            else:
                if value.dtm == 0:
                    assert not succ_values
                else:
                    assert all(v.wdl is sg.Wdl.WIN for v in succ_values)
                    assert max(v.dtm for v in succ_values) == value.dtm - 1

    def test_trichotomy_no_undecided_entries(self, kqk4, kpk4, krk5):
        for tb in (kqk4, kpk4, krk5):
            legal = tb.wdl != 0
            assert np.isin(tb.wdl[legal], (1, 2, 3)).all()
            decisive = (tb.wdl == 1) | (tb.wdl == 3)
            assert (tb.dtm[decisive] != 0xFFFF).all()
            draws = tb.wdl == 2
            assert (tb.dtm[draws] == 0xFFFF).all()

    def test_passes_grow_monotonically(self, kqk4):
        labeled = 0
        for wins, losses in kqk4.stats.passes:
            assert wins >= 0 and losses >= 0
            labeled += wins + losses
        counts = kqk4.counts()
        assert labeled == counts["win"] + counts["loss"] - kqk4.stats.terminal_losses

    def test_progress_lines_sum_the_passes_they_cover(self):
        # One pass labels only wins or only losses, so a line of one pass
        # would hide one of the two.
        messages = []
        table = sg.solve(sg.MaterialClass.from_string("KRvK", sg.BoardSpec(5, 5)), progress=messages.append)
        lines = [
            [int(g) for g in re.fullmatch(r"  passes (\d+)-(\d+): (\d+) wins, (\d+) losses, \d+ open", m).groups()]
            for m in messages if m.startswith("  passes ")
        ]
        assert lines and lines[0][0] == 1
        for (_, last, _, _), (first, _, _, _) in zip(lines, lines[1:]):
            assert first == last + 1
        for first, last, wins, losses in lines:
            covered = table.stats.passes[first - 1:last]
            assert (wins, losses) == (sum(w for w, _ in covered), sum(l for _, l in covered))
        assert any(wins > 0 for _, _, wins, _ in lines)

    def test_checkmate_probes_loss_zero(self, kqk4):
        pos = sg.parse_fen("k3/1Q2/2K1/4 b - -", sg.BoardSpec(4, 4))
        assert sg.outcome(pos) is sg.Outcome.CHECKMATE
        value = kqk4.probe(pos)
        assert value.wdl is sg.Wdl.LOSS and value.dtm == 0

    def test_stalemate_probes_draw(self, kqk4):
        pos = sg.parse_fen("k3/2Q1/4/2K1 b - -", sg.BoardSpec(4, 4))
        assert sg.outcome(pos) is sg.Outcome.STALEMATE
        value = kqk4.probe(pos)
        assert value.wdl is sg.Wdl.DRAW and value.dtm is None

    @pytest.mark.parametrize("raw", [
        "abc", "-5",
        pytest.param("\u00b2", id="superscript-2"),
        pytest.param("9" * 5000, id="5000-digits"),
    ])
    def test_malformed_budget_variable_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", raw)
        mc = sg.MaterialClass.from_string("KvK", sg.BoardSpec(4, 4))
        with pytest.raises(sg.ValidationError, match="STRATEGIA_MEM_BUDGET_MB"):
            sg.solve(mc)

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", "1")
        mc = sg.MaterialClass.from_string("KQvK", STANDARD)
        with pytest.raises(sg.BudgetExceededError):
            sg.solve(mc)

    def test_budget_refusal_rounds_the_estimate_up(self, monkeypatch):
        # KBvK 3x5 needs 2,363,850 bytes: over a 2 MiB budget, so the
        # message must not read "needs about 2 MiB, budget is 2 MiB".
        monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", "2")
        mc = sg.MaterialClass.from_string("KBvK", sg.BoardSpec(3, 5))
        with pytest.raises(sg.BudgetExceededError) as refusal:
            sg.solve(mc)
        match = re.search(r"needs about (\d+) MiB, budget is (\d+) MiB", str(refusal.value))
        estimate, budget = int(match.group(1)), int(match.group(2))
        assert (estimate, budget) == (3, 2)
        assert estimate > budget

    def test_the_widest_class_counts_its_moves_in_seven_bits(self):
        # An open row's wdl byte holds its count of moves not yet won
        # under the top bit. Three queens and a king on 8x8 have the
        # most moves of any class: 3 * 27 + 10.
        assert _max_move_bound(sg.MaterialClass.from_string("KQQQvK", STANDARD)) == 91 < _OPEN

    def test_a_move_bound_over_seven_bits_is_refused_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(tablebase, "_max_move_bound", lambda material: 128)
        messages = []
        with pytest.raises(RuntimeError, match="KQvK: a position may have 128 moves"):
            sg.solve(sg.MaterialClass.from_string("KQvK", sg.BoardSpec(4, 4)), progress=messages.append)
        assert messages == []

    @pytest.mark.parametrize("text, size", [("KRvK", 8), ("KQvK", 8), ("KPvK", 6), ("KQvKR", 6)],
                             ids=["KRvK", "KQvK", "KPvK-6x6", "KQvKR-6x6"])
    def test_budget_estimate_bounds_the_measured_peak(self, text, size):
        # KPvK 6x6 solves its subclasses first, and the closure peaks in
        # the KQvK 6x6 solve, whose blocks are wider than KPvK's. Most
        # KQvKR 6x6 captures reach a decisive value, which the build
        # folds into the dtm of the open row, at no extra byte.
        baseline = child_peak_rss("import numpy, strategia")
        peak = child_peak_rss(
            "import strategia as sg; "
            f"sg.solve(sg.MaterialClass.from_string({text!r}, sg.BoardSpec({size}, {size})))"
        )
        spec = sg.BoardSpec(size, size)
        assert peak <= baseline + _solve_bytes(sg.MaterialClass.from_string(text, spec))

    @pytest.mark.parametrize("text, size", [("KRvK", 8), ("KQvK", 8), ("KPvK", 6), ("KQvKR", 6)],
                             ids=["KRvK", "KQvK", "KPvK-6x6", "KQvKR-6x6"])
    def test_budget_estimate_bounds_the_solve_command_with_its_save(self, tmp_path, text, size):
        # The command saves the table and counts it while the solve's
        # columns are still held: the save streams one block of records
        # at a time, so it must fit in the solve's bound too.
        path = tmp_path / "table.ctb"
        baseline = child_peak_rss("import numpy, strategia.cli")
        peak = child_peak_rss(
            "import strategia.cli as cli; raise SystemExit(cli.main(["
            f"'solve', '--board', '{size}x{size}', '--material', {text!r}, '--out', {str(path)!r}]))"
        )
        assert path.exists()
        spec = sg.BoardSpec(size, size)
        assert peak <= baseline + _solve_bytes(sg.MaterialClass.from_string(text, spec))

    def test_budget_bytes_per_index_are_one_constant(self):
        # Without solving anything: past one chunk's temporaries, the
        # widest block of the closure and its subclass tables, the bound
        # is one number of bytes per index, whatever captures and
        # promotions the class has.
        per_index = set()
        for text, size in [("KRvK", 8), ("KPvK", 6), ("KQvKR", 6), ("KQvKR", 8)]:
            material = sg.MaterialClass.from_string(text, sg.BoardSpec(size, size))
            closure = _closure(material)
            rest = max(map(_block_bytes, closure)) + 3 * sum(sub.index_size for sub in closure[:-1])
            rest += _CHUNK_BYTES * min(_CHUNK, material.index_size)
            term, extra = divmod(_solve_bytes(material) - rest, material.index_size)
            assert extra == 0, text
            per_index.add(term)
        assert per_index == {_INDEX_BYTES} == {3}
        assert _solve_bytes(sg.MaterialClass.from_string("KQvKR", STANDARD)) < 1 << 30

    def test_kqkr5_solves_under_an_18_mib_budget(self, monkeypatch):
        # 18 MiB is above the 9.8 MiB bound of 3 bytes per index and one
        # chunk, and below the 20 MiB that 19 bytes per index would need.
        material = sg.MaterialClass.from_string("KQvKR", sg.BoardSpec(5, 5))
        monkeypatch.delenv("STRATEGIA_MEM_BUDGET_MB", raising=False)
        unbudgeted = sg.solve(material)
        monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", "18")
        budgeted = sg.solve(material)
        assert budgeted.checksum == unbudgeted.checksum
        assert budgeted.stats == unbudgeted.stats
        assert np.array_equal(budgeted.wdl, unbudgeted.wdl)
        assert np.array_equal(budgeted.dtm, unbudgeted.dtm)

    def test_probe_material_mismatch(self, kqk4):
        pos = sg.parse_fen("k3/4/4/K3 w - -", sg.BoardSpec(4, 4))
        with pytest.raises(sg.MaterialMismatchError):
            kqk4.probe(pos)


def solved_names(messages):
    """Class names in the order a solve's progress lines report them."""
    return [line.split()[1].rstrip(":") for line in messages if line.startswith("solving")]


class TestClosure:
    @pytest.mark.parametrize("text, spec, count", [
        ("KPvKN", sg.BoardSpec(4, 4), 10),
        ("KQvKR", sg.BoardSpec(3, 4), 2),
        ("KRPvK", sg.BoardSpec(3, 4), 6),
        ("KPvK", sg.BoardSpec(4, 4, promotion_kinds={sg.PieceKind.ROOK, sg.PieceKind.KNIGHT}), 3),
        ("KRRvK", sg.BoardSpec(3, 3), 1),
    ])
    def test_successor_classes_are_the_classes_legal_moves_reach(self, text, spec, count):
        material = sg.MaterialClass.from_string(text, spec)
        reached = set()
        for idx in range(material.index_size):
            pos = sg.position_at(idx, material)
            if pos is not None:
                reached |= {sg.material_key_of(succ) for _, succ in sg.legal_transitions(pos)}
        reached.discard(material.key)
        assert {sub.key for sub in _successor_classes(material)} == reached
        assert len(reached) == count

    @pytest.mark.parametrize("text, order", [
        ("KQvKR", ["KvK", "KQvK", "KvKR", "KQvKR"]),
        ("KRPvK", ["KvK", "KNvK", "KBvK", "KRvK", "KQvK", "KPvK",
                   "KRNvK", "KRBvK", "KRRvK", "KQRvK", "KRPvK"]),
    ])
    def test_solve_order(self, text, order):
        messages = []
        sg.solve(sg.MaterialClass.from_string(text, sg.BoardSpec(3, 4)), progress=messages.append)
        assert solved_names(messages) == order


class TestPersistence:
    def test_round_trip_entrywise(self, kqk4, tmp_path):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        again = sg.Tablebase.load(path)
        assert np.array_equal(kqk4.wdl, again.wdl)
        assert np.array_equal(kqk4.dtm, again.dtm)
        assert again.material.key == kqk4.material.key
        assert again.checksum == kqk4.checksum

    def test_independent_reader_agrees(self, kqk4, tmp_path):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        header, records = oracles.read_ctb(path)
        assert header["width"] == 4 and header["height"] == 4
        assert header["entries"] == kqk4.material.index_size
        assert header["pieces"] == [
            (p.kind.value, p.color.value) for p in kqk4.material.pieces
        ]
        for idx, (wdl, dtm) in enumerate(records):
            assert wdl == int(kqk4.wdl[idx])
            assert dtm == int(kqk4.dtm[idx])

    def test_a_replaced_table_computes_its_own_checksum(self, kqk4):
        # The checksum is a memo of the body, so dataclasses.replace must not copy it.
        assert kqk4.checksum == 0x0F4255FA
        changed = dataclasses.replace(kqk4, wdl=kqk4.wdl.copy())
        idx = int(kqk4.decisive_indices()[0])
        changed.wdl[idx] = sg.Wdl.DRAW.value
        assert changed.checksum == zlib.crc32(b"".join(changed._body_chunks()))
        assert changed.checksum != kqk4.checksum
        assert kqk4.checksum == 0x0F4255FA

    def test_equality_is_identity(self, kqk4):
        # Comparing the columns would ask numpy for one truth value of
        # an array, so two tables are equal only when they are one.
        copy = dataclasses.replace(kqk4, wdl=kqk4.wdl.copy(), dtm=kqk4.dtm.copy())
        assert kqk4 == kqk4 and kqk4 != copy
        assert copy in [kqk4, copy] and kqk4 not in [copy]
        assert {kqk4: 1}[kqk4] == 1

    def test_non_default_promotion_kinds_refuse_to_save(self, tmp_path):
        # The file records no promotion kinds: loaded, this table would
        # read as KPvK with all four, and its lines would break.
        spec = sg.BoardSpec(4, 4, promotion_kinds={sg.PieceKind.ROOK, sg.PieceKind.KNIGHT})
        table = sg.solve(sg.MaterialClass.from_string("KPvK", spec))
        path = tmp_path / "kpk4-rn.ctb"
        with pytest.raises(sg.ValidationError, match="KPvK: a table file cannot record non-default promotion kinds"):
            table.save(path)
        assert list(tmp_path.iterdir()) == []

    def test_checksum_corruption_detected(self, kqk4, tmp_path):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(sg.TablebaseFormatError, match="checksum"):
            sg.Tablebase.load(path)

    def test_version_bump_rejected(self, kqk4, tmp_path):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(sg.TablebaseFormatError, match="version"):
            sg.Tablebase.load(path)

    def test_truncation_rejected(self, kqk4, tmp_path):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(sg.TablebaseFormatError):
            sg.Tablebase.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ctb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(sg.TablebaseFormatError, match="magic"):
            sg.Tablebase.load(path)

    @pytest.mark.parametrize("code", [4, 255])
    def test_out_of_range_wdl_code_rejected(self, kqk4, code, tmp_path):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        blob = bytearray(path.read_bytes())
        body = len(blob) - 3 * kqk4.material.index_size - 4
        blob[body + 3 * 17] = code  # the wdl byte of record 17
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[body:-4]))
        path.write_bytes(bytes(blob))
        with pytest.raises(sg.TablebaseFormatError, match="out-of-range wdl codes"):
            sg.Tablebase.load(path)

    # Each way the reader refuses a file, as a change to the KQvK 4x4
    # file: magic, version, board, 3 pieces (kind, color), 8192 entries,
    # then 8192 records of 3 bytes and the CRC. The last case is a
    # KQRvKR 8x8 header, 2 * 64**5 entries (a 6 GiB body), and a CRC.
    @pytest.mark.parametrize("tamper, message", [
        (lambda blob: b"", "bad magic: not a tablebase file"),
        (lambda blob: blob[:7], "bad magic: not a tablebase file"),
        (lambda blob: blob[:11], "truncated header"),
        (lambda blob: blob[:10] + b"\x09" + blob[11:], "bad piece entry: 9 is not a valid PieceKind"),
        (lambda blob: blob[:11] + b"\x02" + blob[12:], "bad piece entry: 2 is not a valid Color"),
        (lambda blob: blob[:5] + b"\x09\x09" + blob[7:], "bad header fields: board sides must be 2..8 squares"),
        (lambda blob: blob[:10] + b"\x06\x00" + blob[12:],
         "bad header fields: material class needs exactly one king per color"),
        (lambda blob: blob[:14] + struct.pack("<Q", 8193) + blob[22:],
         "entry count 8193 does not match index space 8192"),
        (lambda blob: blob + b"\x00", "truncated or oversized file body"),
        (lambda blob: blob[:-1], "truncated or oversized file body"),
        (lambda blob: b"CTB1" + bytes([1, 8, 8, 5, 6, 0, 5, 0, 4, 0, 6, 1, 4, 1])
         + struct.pack("<Q", 2 * 64 ** 5) + bytes(4), "truncated or oversized file body"),
    ], ids=["empty", "7-bytes", "piece-list-cut-short", "piece-kind-9", "color-2", "9x9-board",
            "two-white-kings", "entry-count-off-by-one", "trailing-byte", "trailer-one-byte-short",
            "5-piece-header-in-30-bytes"])
    def test_malformed_file_rejected(self, kqk4, tmp_path, tamper, message):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        path.write_bytes(tamper(path.read_bytes()))

        def load():
            with pytest.raises(sg.TablebaseFormatError, match=re.escape(message)):
                sg.Tablebase.load(path)

        # Every refusal comes before the columns are allocated.
        assert traced_peak(load) < 1 << 20

    def test_a_file_cut_after_its_size_is_read_is_refused(self, kqk4, tmp_path, monkeypatch):
        path = tmp_path / "kqk4.ctb"
        kqk4.save(path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-10])
        monkeypatch.setattr(tablebase.os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size, 0, 0, 0)))
        with pytest.raises(sg.TablebaseFormatError, match="truncated or oversized file body"):
            sg.Tablebase.load(path)

    def test_load_peaks_at_most_two_and_a_half_bodies(self, krk8_file):
        # The file's bytes, then the wdl and dtm columns: twice the body. A
        # copy of the body, or a temporary of several bytes per entry,
        # breaks the bound.
        body = 3 * sg.MaterialClass.from_string("KRvK", STANDARD).index_size
        assert traced_peak(lambda: sg.Tablebase.load(krk8_file)) <= 2.5 * body

    def test_load_holds_the_body_once(self, krk8_file):
        # The wdl and dtm columns and one reused chunk of records: a copy
        # of the file's bytes breaks the bound.
        n = sg.MaterialClass.from_string("KRvK", STANDARD).index_size
        bound = 3 * n + 3 * min(_CHUNK, n) + (64 << 10)
        assert traced_peak(lambda: sg.Tablebase.load(krk8_file)) <= bound


class TestDecisiveSample:
    @pytest.fixture(scope="class")
    def tables(self, krk8, kpk6):
        return [krk8, kpk6] + list(kpk6.subtables.values())

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_equals_the_draw_over_every_decisive_index(self, tables, seed):
        for table in tables:
            decisive = table.decisive_indices()
            count = decisive.size
            for k in sorted({k for k in (1, count // 2, count - 1) if 0 < k < count}):
                rng, reference = random.Random(seed), random.Random(seed)
                got = table.decisive_sample(rng, k)
                assert np.array_equal(got, decisive[sorted(reference.sample(range(count), k))])
                assert rng.getstate() == reference.getstate()
            rng = random.Random(seed)
            state = rng.getstate()
            for k in (count, count + 1):
                assert np.array_equal(table.decisive_sample(rng, k), decisive)
            assert rng.getstate() == state
        # KvK 6x6 has no decisive entry, so the empty table is covered too.
        assert {table.decisive_indices().size == 0 for table in tables} == {False, True}


class TestCounts:
    @pytest.fixture(scope="class")
    def tables(self, kqk4, kpk4, krk5, kqkr34, krk8, kpk6):
        solved = [kqk4, kpk4, krk5, kqkr34, krk8, kpk6]
        return solved + [sub for table in solved for sub in table.subtables.values()]

    def test_equals_the_whole_array_count(self, tables):
        for table in tables:
            wdl, dtm = table.wdl, table.dtm
            decisive = (wdl == 1) | (wdl == 3)
            assert table.counts() == {
                "entries": wdl.size,
                "invalid": int((wdl == 0).sum()),
                "win": int((wdl == 1).sum()),
                "draw": int((wdl == 2).sum()),
                "loss": int((wdl == 3).sum()),
                "max_dtm": int(dtm[decisive].max()) if decisive.any() else 0,
            }, table.material.name
        # KvK has no decisive entry, so its max dtm of 0 is covered too.
        assert {table.counts()["max_dtm"] == 0 for table in tables} == {False, True}

    def test_counting_holds_one_block(self, krk8):
        # Five masks over the index held 1.2 MiB here.
        assert traced_peak(krk8.counts) <= 16 * sg.tablebase._BUILD_BLOCK


# The longest 8x8 mates are a published statistic of each ending, made
# without this solver: KQvK mates in at most 10 moves and KRvK in 16
# (Thompson, "Retrograde analysis of certain endgames", ICCA J. 9(3),
# 1986; the DTM statistics of the Nalimov tables, Nalimov, Haworth and
# Heinz, "Space-efficient indexing of chess endgame tables", ICGA J.
# 23(3), 2000). A winner to move mates in at most 2m - 1 plies, and a
# loser to move is mated in at most 2m.
@pytest.mark.parametrize("name, win, loss", [("kqk8", 19, 20), ("krk8", 31, 32)])
def test_the_longest_8x8_mates_are_the_published_ones(name, win, loss, request):
    table = request.getfixturevalue(name)
    greatest = [int(table.dtm[table.wdl == code.value].max()) for code in (sg.Wdl.WIN, sg.Wdl.LOSS)]
    assert greatest == [win, loss]


# The 4-piece 8x8 longest mates, in moves for the winner to move: KQvKR
# 35 and KRvKN 40 (Thompson 1986, above); KQvKB 17, KQvKN 21, KBBvK 19
# and KBNvK 33 (the Nalimov DTM statistics, above). The loser's greatest
# dtm is the solver's own reading. KRvKB reads 29 moves, which no source
# was checked for, so it is left out. Each closure solves in 8-20 s, so
# the test is slow-marked: Tier-1 deselects it and `python -m pytest -m
# slow` runs it. The CRCs are those of BENCH_published-mates.json.
@pytest.mark.slow
@pytest.mark.parametrize("name, moves, loss, crc", [
    ("KQvKB", 17, 34, 0x300FB48A),
    ("KQvKN", 21, 42, 0x88394B30),
    ("KRvKN", 40, 80, 0x39DACB2A),
    ("KQvKR", 35, 70, 0x11B88172),
    ("KBBvK", 19, 38, 0xA7C96D88),
    ("KBNvK", 33, 66, 0xE44A7093),
])
def test_the_longest_4_piece_8x8_mates_are_the_published_ones(name, moves, loss, crc, spec88):
    table = sg.solve(sg.MaterialClass.from_string(name, spec88))
    greatest = [int(table.dtm[table.wdl == code.value].max()) for code in (sg.Wdl.WIN, sg.Wdl.LOSS)]
    assert greatest == [2 * moves - 1, loss]
    assert table.checksum == crc
