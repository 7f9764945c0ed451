"""The array policy against the scalar policy, one lookup per successor.

`reference_policy` plays every legal move with `legal_transitions` and
values each successor by its class key and `index_of`. The array
policy (`Tablebase.policy`) must pick the same move and reach the same
(table, index) on every decisive, non-terminal index of each class of
`CLASSES` and of every subtable.
"""

import dataclasses
import io
import random

import numpy as np
import pytest

import strategia as sg
from strategia import tablebase
from test_tablebase import traced_peak

SPEC4 = sg.BoardSpec(4, 4)
PROMOTING_FEN = "4/1P1k/4/K3 w - -"  # b3-b4 promotes at once on 4x4

CLASSES = (
    ("KQvK", SPEC4),
    ("KPvK", SPEC4),  # promotions
    ("KPvKN", SPEC4),  # promotion-captures
    ("KQvKR", sg.BoardSpec(3, 4)),  # captures by both sides
    ("KRRvK", sg.BoardSpec(3, 3)),  # duplicate rooks
    ("KRPvK", sg.BoardSpec(3, 4)),  # promotion to a rook: duplicate rooks in the subclass
)


def reference_location(tb, pos):
    """(table, index) of a position by its material key, as resolve used to find it."""
    key = sg.material_key_of(pos)
    table = tb if key == tb.material.key else tb.subtables[key]
    return table, sg.index_of(pos, table.material)


def reference_policy(pos, tb):
    """The policy as one lookup per successor: the loop policy_step replaced."""
    value = tb.resolve(pos)
    best = None
    for move, succ in sg.legal_transitions(pos):
        sv = tb.resolve(succ)
        if value.wdl is sg.Wdl.WIN:
            if sv.wdl is sg.Wdl.LOSS and (best is None or sv.dtm < best[2]):
                best = (move, succ, sv.dtm)
        else:
            assert sv.wdl is sg.Wdl.WIN
            if best is None or sv.dtm > best[2]:
                best = (move, succ, sv.dtm)
    assert best[2] == value.dtm - 1
    return best[0], best[1]


@pytest.fixture(scope="module", params=CLASSES, ids=lambda c: f"{c[0]}-{c[1].width}x{c[1].height}")
def closure(request):
    text, spec = request.param
    return sg.solve(sg.MaterialClass.from_string(text, spec))


def decisive_positions(table):
    """(index, position) of every decisive, non-terminal index of `table`."""
    for idx in table.decisive_indices().tolist():
        if table.dtm[idx] > 0:
            yield idx, sg.position_at(idx, table.material)


def assert_successors_match(tb, table):
    """The swept policy's successor (table, index) equals the scalar lookup of the reference successor."""
    policy = tb.policy().sweep()
    checked = 0
    for idx, pos in decisive_positions(table):
        _, succ = reference_policy(pos, tb)
        want_table, want_idx = reference_location(tb, succ)
        _, got_slot, got_idx = policy.choice(policy.slots[table.material.key], idx)
        assert policy.tables[got_slot] is want_table and got_idx == want_idx, (table.material.name, idx)
        checked += 1
    assert checked > 0


def test_successor_index_matches_the_scalar_lookup(closure):
    assert_successors_match(closure, closure)


def test_successor_index_from_a_subtable_matches_the_scalar_lookup(kpk4):
    # A playout goes on inside the subtable a promotion or capture reaches.
    for table in kpk4.subtables.values():
        if table.decisive_indices().size:
            assert_successors_match(kpk4, table)


def test_policy_step_matches_the_per_successor_lookup(closure):
    for table in [closure, *closure.subtables.values()]:
        for idx, pos in decisive_positions(table):
            assert sg.policy_step(pos, closure) == reference_policy(pos, closure), (
                table.material.name, idx,
            )


def test_policy_on_a_loaded_table_names_each_missing_promotion_class(kpk4, tmp_path):
    path = tmp_path / "kpk4.ctb"
    kpk4.save(path)
    loaded = sg.Tablebase.load(path)
    pos = sg.parse_fen(PROMOTING_FEN, SPEC4)
    assert loaded.probe(pos).is_decisive
    with pytest.raises(sg.MaterialMismatchError, match="no table loaded for KNvK on 4x4"):
        sg.policy_step(pos, loaded)
    # The policy reads every promotion, not just the first: with all
    # subclasses but one in place, it names the one that is missing.
    for missing in ("KQvK", "KRvK", "KBvK", "KNvK"):
        key = sg.MaterialClass.from_string(missing, SPEC4).key
        loaded.subtables = {k: t for k, t in kpk4.subtables.items() if k != key}
        with pytest.raises(sg.MaterialMismatchError, match=f"no table loaded for {missing} on 4x4"):
            sg.policy_step(pos, loaded)
    loaded.subtables = dict(kpk4.subtables)
    assert sg.policy_step(pos, loaded) == sg.policy_step(pos, kpk4)


@pytest.mark.parametrize("wdl", [sg.Wdl.WIN, sg.Wdl.LOSS])
def test_an_illegal_successor_entry_raises_instead_of_being_skipped(kqk4, wdl):
    # An in-class successor the policy would not choose: for a win, one
    # that is not a loss at dtm - 1; for a loss, one below the maximal dtm.
    for idx in kqk4.decisive_indices().tolist():
        if kqk4.wdl[idx] != wdl.value or kqk4.dtm[idx] == 0:
            continue
        pos = sg.position_at(idx, kqk4.material)
        _, chosen = sg.policy_step(pos, kqk4)
        for _, succ in sg.legal_transitions(pos):
            in_class = sg.material_key_of(succ) == kqk4.material.key
            if in_class and succ != chosen and kqk4.resolve(succ).dtm != kqk4.dtm[idx] - 1:
                break
        else:
            continue
        break
    else:
        pytest.fail(f"no {wdl.name} position with a successor the policy skips")
    broken = dataclasses.replace(kqk4, wdl=kqk4.wdl.copy())
    broken.wdl[sg.index_of(succ, kqk4.material)] = 0
    with pytest.raises(sg.ValidationError, match="illegal table entry"):
        sg.policy_step(pos, broken)


def test_a_table_loaded_without_its_subclasses_plays_out(krk8_file):
    # Decisive KRvK rows never reach KvK, so the policy builds without it.
    loaded = sg.Tablebase.load(krk8_file)
    idx = int(np.flatnonzero(loaded.dtm == loaded.counts()["max_dtm"])[0])
    playout = sg.generate_playout(sg.position_at(idx, loaded.material), loaded)
    assert playout.plies == loaded.counts()["max_dtm"]
    assert playout.terminal is sg.Outcome.CHECKMATE
    assert loaded.policy().sweep().rows > 0
    assert loaded.subtables == {}


def test_lookups_never_build_the_policy(kpk4, monkeypatch):
    def no_build(*args):
        raise AssertionError("a lookup built the policy")

    monkeypatch.setattr(tablebase, "_policy_arrays", no_build)
    monkeypatch.setattr(tablebase, "_choose", no_build)
    table = dataclasses.replace(kpk4)
    pos = sg.parse_fen(PROMOTING_FEN, SPEC4)
    at = table.locate(pos)
    assert table.probe(pos) == table.resolve(pos) == table.value_at(at[1])


def test_playouts_and_policy_steps_share_one_build(kpk4, monkeypatch):
    table = dataclasses.replace(kpk4)
    pos = sg.parse_fen(PROMOTING_FEN, SPEC4)
    messages = []
    policy = table.policy().sweep(progress=messages.append)
    assert len(messages) == 1 and messages[0].startswith(f"policy KPvK: {policy.rows} rows in ")
    monkeypatch.setattr(tablebase, "_policy_arrays", lambda *args: pytest.fail("built twice"))
    monkeypatch.setattr(tablebase, "_choose", lambda *args: pytest.fail("a row chosen alone"))
    assert table.policy() is policy and policy.sweep() is policy
    line = sg.generate_playout(pos, table)
    assert sg.policy_step(pos, table) == (line.steps[0].move, line.steps[0].position)


def test_one_line_chooses_its_rows_alone_and_many_lines_sweep(krk8_file, monkeypatch):
    loaded = sg.Tablebase.load(krk8_file)
    starts = [int(i) for i in np.flatnonzero(loaded.dtm == loaded.counts()["max_dtm"])]
    policy = loaded.policy()
    sweep = tablebase._policy_arrays
    monkeypatch.setattr(tablebase, "_policy_arrays", lambda *args: pytest.fail("one line swept"))
    first = sg.generate_playout(sg.position_at(starts[0], loaded.material), loaded)
    assert policy.move is None and policy.rows_alone == first.plies
    monkeypatch.setattr(tablebase, "_policy_arrays", sweep)
    lines = [first]
    while policy.move is None:
        lines.append(sg.generate_playout(sg.position_at(starts[len(lines)], loaded.material), loaded))
    assert policy.rows_alone == tablebase._ROWS_BEFORE_SWEEP
    # The lines played before and after the sweep are the lines it picks.
    for idx, line in zip(starts, lines):
        assert sg.generate_playout(sg.position_at(idx, loaded.material), loaded) == line


def test_rows_chosen_alone_equal_the_sweep(closure, monkeypatch):
    swept = closure.policy().sweep()
    monkeypatch.setattr(tablebase, "_ROWS_BEFORE_SWEEP", float("inf"))
    alone = tablebase.Policy(closure.material, swept.tables, swept.slots, closure._table_for)
    rng = random.Random(7)
    for table in [closure, *closure.subtables.values()]:
        slot = swept.slots[table.material.key]
        rows = [idx for idx, _ in decisive_positions(table)]
        for idx in rng.sample(rows, min(len(rows), 200)):
            assert alone.choice(slot, idx) == swept.choice(slot, idx), (table.material.name, idx)
    assert alone.move is None


def test_small_blocks_choose_the_same_moves(kqkr34, monkeypatch):
    # Blocks of 16 rows make the walk and the sweep choose in many blocks.
    def run():
        table = dataclasses.replace(kqkr34)
        report = sg.sample_experiment(table, 40, seed=1)
        records = io.StringIO()
        report.write_records_csv(records)
        policy = table.policy().sweep()
        return report.json_text(), records.getvalue(), policy

    want = run()
    monkeypatch.setattr(tablebase, "_BUILD_BLOCK", 16)
    got = run()
    assert got[:2] == want[:2]
    for name in ("move", "succ_slot", "succ_index"):
        for a, b in zip(getattr(got[2], name), getattr(want[2], name)):
            assert (a is None and b is None) or np.array_equal(a, b), name
    assert got[2].rows == want[2].rows > 0


def test_a_broken_dtm_recurrence_raises_and_memoizes_nothing(kqk4):
    broken = dataclasses.replace(kqk4, dtm=kqk4.dtm.copy())
    idx = next(i for i in kqk4.decisive_indices().tolist() if kqk4.wdl[i] == sg.Wdl.WIN.value)
    broken.dtm[idx] += 2
    pos = sg.position_at(idx, kqk4.material)
    with pytest.raises(RuntimeError, match="dtm - 1"):
        sg.policy_step(pos, broken)
    with pytest.raises(RuntimeError, match="dtm - 1"):
        broken.policy().sweep()
    assert broken.policy().move is None
    broken.dtm[idx] -= 2
    assert sg.policy_step(pos, broken) == sg.policy_step(pos, kqk4)


def false_mates(table):
    """(label, index) of a stalemate and of a position with a move, each valued (LOSS, 0) below."""
    found = {}
    for idx in range(table.material.index_size):
        pos = sg.position_at(idx, table.material)
        if pos is None:
            continue
        if table.wdl[idx] == sg.Wdl.DRAW.value and not sg.legal_transitions(pos):
            found.setdefault("stalemate", idx)
        elif table.wdl[idx] == sg.Wdl.LOSS.value and table.dtm[idx] > 0:
            found.setdefault("has-a-move", idx)
    return sorted(found.items())


def plant_false_mate(table, idx):
    """A copy of `table` whose entry `idx` is (LOSS, 0)."""
    broken = dataclasses.replace(table, wdl=table.wdl.copy(), dtm=table.dtm.copy())
    broken.wdl[idx], broken.dtm[idx] = sg.Wdl.LOSS.value, 0
    return broken


def not_checkmate(name, idx):
    return f"{name} index {idx}: a \\(LOSS, 0\\) entry is not checkmate"


@pytest.mark.parametrize("case", ["stalemate", "has-a-move"])
def test_a_loss_at_dtm_0_that_is_not_checkmate_raises(kqk4, case):
    # A line ends on a (LOSS, 0) entry without asking the rules, so
    # making the policy checks each such entry against them.
    idx = dict(false_mates(kqk4))[case]
    broken = plant_false_mate(kqk4, idx)
    pos = sg.position_at(idx, kqk4.material)
    with pytest.raises(RuntimeError, match=not_checkmate("KQvK", idx)):
        broken.policy()
    with pytest.raises(RuntimeError, match=not_checkmate("KQvK", idx)):
        sg.generate_playout(pos, broken)
    with pytest.raises(RuntimeError, match=not_checkmate("KQvK", idx)):
        sg.sample_experiment(broken, 5, seed=1)
    # Nothing was memoized, so asking again checks again.
    with pytest.raises(RuntimeError, match=not_checkmate("KQvK", idx)):
        broken.policy()


def test_a_false_mate_no_line_reaches_still_raises(kpk4):
    # The false mate sits in a subtable that the line played never
    # reaches; the policy refuses the whole closure before any move.
    sub = kpk4.subtables[sg.MaterialClass.from_string("KQvK", SPEC4).key]
    idx = dict(false_mates(sub))["has-a-move"]
    table = dataclasses.replace(kpk4, subtables=dict(kpk4.subtables))
    table.subtables[sub.material.key] = plant_false_mate(sub, idx)
    def reaches_kqk(idx):
        line = sg.generate_playout(sg.position_at(idx, kpk4.material), kpk4)
        return sub.material.key in {sg.material_key_of(step.position) for step in line.steps}

    starts = kpk4.decisive_indices().tolist()
    start = next(i for i in starts if kpk4.dtm[i] > 0 and not reaches_kqk(i))
    with pytest.raises(RuntimeError, match=not_checkmate("KQvK", idx)):
        table.policy()
    with pytest.raises(RuntimeError, match=not_checkmate("KQvK", idx)):
        sg.generate_playout(sg.position_at(start, kpk4.material), table)


def test_a_win_at_dtm_0_raises(kqk4):
    idx = next(i for i in kqk4.decisive_indices().tolist() if kqk4.wdl[i] == sg.Wdl.WIN.value)
    broken = dataclasses.replace(kqk4, dtm=kqk4.dtm.copy())
    broken.dtm[idx] = 0
    with pytest.raises(RuntimeError, match=f"KQvK index {idx}: a \\(WIN, 0\\) entry"):
        broken.policy()


@pytest.mark.parametrize("name", ["krk8", "kpk6"])
def test_a_sweep_holds_the_arrays_and_one_block(name, request):
    # A fresh table of the same values, so no other test's sweep is memoized.
    policy = dataclasses.replace(request.getfixturevalue(name)).policy()
    tables = [t.material for t in policy.tables if t is not None]
    arrays = sum(7 * material.index_size for material in tables)  # uint16 + uint8 + uint32
    block = max(tablebase._block_bytes(material) for material in tables)
    assert traced_peak(policy.sweep) <= arrays + block
