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


def chosen_rows(table):
    """The decisive, non-terminal indices of `table`: the rows the policy chooses."""
    return np.flatnonzero(tablebase._decisive(table.wdl) & (table.dtm > 0))


def fill_every_block(policy):
    """`policy` after one ``choice`` miss per ``_build_blocks`` block: the block's first chosen row."""
    for slot, table in enumerate(policy.tables):
        if table is None:
            continue
        for _, lo, hi in tablebase._build_blocks(table.material, 0, table.material.index_size):
            # Found block by block, so the fill holds no index-long temporary.
            rows = np.flatnonzero(tablebase._decisive(table.wdl[lo:hi]) & (table.dtm[lo:hi] > 0))
            if rows.size:
                policy.choice(slot, lo + int(rows[0]))
    return policy


def filled_choices(policy, slot, rows):
    """(move keys, successor slots, successor indices) of `rows` of `slot`, read from its filled blocks."""
    material = policy.tables[slot].material
    choices = []
    for idx in rows.tolist():
        _, lo, _ = tablebase._block_of(material, idx)
        choices.append([int(array[idx - lo]) for array in policy.blocks[slot, lo]])
    return np.array(choices, dtype=np.int64).reshape(-1, 3).T


def assert_successors_match(tb, table):
    """The policy's successor (table, index) equals the scalar lookup of the reference successor."""
    policy = tb.policy()
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
    policy = fill_every_block(loaded.policy())
    slot = policy.slots[loaded.material.key]
    chosen = sum(np.count_nonzero(moves) for (s, _), (moves, _, _) in policy.blocks.items() if s == slot)
    assert chosen == chosen_rows(loaded).size > 0
    assert loaded.subtables == {}


def test_lookups_never_build_the_policy(kpk4, monkeypatch):
    def no_build(*args):
        raise AssertionError("a lookup built the policy")

    monkeypatch.setattr(tablebase.Policy, "_fill_block", no_build)
    monkeypatch.setattr(tablebase, "_choose", no_build)
    table = dataclasses.replace(kpk4)
    pos = sg.parse_fen(PROMOTING_FEN, SPEC4)
    at = table.locate(pos)
    assert table.probe(pos) == table.resolve(pos) == table.value_at(at[1])


def test_playouts_and_policy_steps_share_one_build(kpk4, monkeypatch):
    table = dataclasses.replace(kpk4)
    pos = sg.parse_fen(PROMOTING_FEN, SPEC4)
    line = sg.generate_playout(pos, table)
    policy = table.policy()
    monkeypatch.setattr(tablebase.Policy, "_fill_block", lambda *args: pytest.fail("built twice"))
    monkeypatch.setattr(tablebase, "_choose", lambda *args: pytest.fail("a row chosen twice"))
    assert sg.generate_playout(pos, table) == line
    assert sg.policy_step(pos, table) == (line.steps[0].move, line.steps[0].position)
    assert table.policy() is policy


def test_one_line_fills_only_the_blocks_it_touches(krk8_file):
    loaded = sg.Tablebase.load(krk8_file)
    material = loaded.material
    starts = [int(i) for i in np.flatnonzero(loaded.dtm == loaded.counts()["max_dtm"])]
    policy = loaded.policy()
    slot = policy.slots[material.key]
    first = sg.generate_playout(sg.position_at(starts[0], material), loaded)
    played = [first.initial] + [step.position for step in first.steps[:-1]]
    touched = {tablebase._block_of(material, sg.index_of(pos, material)) for pos in played}
    blocks = tablebase._build_blocks(material, 0, material.index_size)
    rows = chosen_rows(loaded)
    assert set(policy.blocks) == {(slot, lo) for _, lo, _ in touched} and len(touched) < len(blocks)
    for _, lo, hi in touched:
        block = rows[(rows >= lo) & (rows < hi)]
        assert block.size and policy.blocks[slot, lo][0][block - lo].all()
    chosen = sum(np.count_nonzero(moves) for moves, _, _ in policy.blocks.values())
    assert chosen == sum(int(((rows >= lo) & (rows < hi)).sum()) for _, lo, hi in touched)
    lines = [first] + [sg.generate_playout(sg.position_at(i, material), loaded) for i in starts[1:4]]
    # The lines played block by block are the lines of a policy filled in full.
    full = dataclasses.replace(loaded)
    full_blocks = fill_every_block(full.policy()).blocks
    assert sum(np.count_nonzero(moves) for moves, _, _ in full_blocks.values()) == rows.size
    for idx, line in zip(starts, lines):
        assert sg.generate_playout(sg.position_at(idx, material), full) == line


def test_one_line_holds_only_its_blocks(krk8_file):
    # A line keeps the blocks its plies touch, 7 bytes a row each (uint16
    # + uint8 + uint32), beside one block's temporaries: no array as long
    # as the index of a class it enters.
    loaded = sg.Tablebase.load(krk8_file)
    material = loaded.material
    start = sg.position_at(int(np.flatnonzero(loaded.dtm == loaded.counts()["max_dtm"])[0]), material)
    line = []
    peak = traced_peak(lambda: line.append(sg.generate_playout(start, loaded)))
    played = [start] + [step.position for step in line[0].steps[:-1]]
    touched = {tablebase._block_of(material, sg.index_of(pos, material)) for pos in played}
    assert peak <= tablebase._block_bytes(material) + 7 * tablebase._BUILD_BLOCK * len(touched)


def test_one_miss_fills_one_block(krk8_file, monkeypatch):
    loaded = sg.Tablebase.load(krk8_file)
    policy = loaded.policy()
    calls = []
    choose = tablebase._choose

    def counting(table, side, idx, *args):
        calls.append(idx.size)
        return choose(table, side, idx, *args)

    monkeypatch.setattr(tablebase, "_choose", counting)
    rows = chosen_rows(loaded)
    idx = int(rows[rows.size // 2])
    _, lo, hi = tablebase._block_of(loaded.material, idx)
    slot = policy.slots[loaded.material.key]
    policy.choice(slot, idx)
    assert len(calls) == 1 and 0 < calls[0] <= tablebase._BUILD_BLOCK
    neighbour = int(rows[(rows >= lo) & (rows < hi) & (rows != idx)][0])
    policy.choice(slot, neighbour)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, spec", [("KRvK", sg.BoardSpec.standard()), ("KPvK", sg.BoardSpec(6, 6))], ids=["8x8", "6x6"]
)
def test_block_of_finds_each_build_block(name, spec):
    # 6x6 cuts a block at the side bit; 8x8 does not.
    material = sg.MaterialClass.from_string(name, spec)
    for side, lo, hi in tablebase._build_blocks(material, 0, material.index_size):
        assert tablebase._block_of(material, lo) == tablebase._block_of(material, hi - 1) == (side, lo, hi)


def test_misses_in_any_order_and_the_walk_choose_alike(closure):
    # Fresh policies of copies of the table fill their blocks only
    # through choice, one miss at a time.
    ordered, shuffled, walked = (dataclasses.replace(closure).policy() for _ in range(3))
    fill_every_block(ordered)
    rng = random.Random(7)
    for table in [closure, *closure.subtables.values()]:
        slot = ordered.slots[table.material.key]
        rows = chosen_rows(table)
        for idx in rng.sample(rows.tolist(), rows.size):
            assert shuffled.choice(slot, idx) == ordered.choice(slot, idx), (table.material.name, idx)
        if rows.size:
            # The walk's first ply from each row is the row's choice.
            slots, indices, keys = walked.walk(np.full(rows.size, slot), rows)
            want = filled_choices(ordered, slot, rows)
            assert np.array_equal(np.stack([keys[0], slots[1], indices[1]]), want), table.material.name
    # The walk fills nothing, and a block with no row to choose is never missed.
    assert walked.blocks == {}
    assert shuffled.blocks.keys() == ordered.blocks.keys()
    for at, block in ordered.blocks.items():
        assert block[0].any(), at
        assert all(np.array_equal(a, b) for a, b in zip(shuffled.blocks[at], block)), at


def test_small_blocks_choose_the_same_moves(kqkr34, monkeypatch):
    # Blocks of 16 rows make the walk and the misses choose in many blocks.
    def run():
        table = dataclasses.replace(kqkr34)
        report = sg.sample_experiment(table, 40, seed=1)
        records = io.StringIO()
        report.write_records_csv(records)
        policy = fill_every_block(table.policy())
        choices = [
            filled_choices(policy, slot, chosen_rows(t)) for slot, t in enumerate(policy.tables) if t is not None
        ]
        return report.json_text(), records.getvalue(), choices

    want = run()
    monkeypatch.setattr(tablebase, "_BUILD_BLOCK", 16)
    got = run()
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2]) and all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))
    assert sum(b.shape[1] for b in want[2]) > 0 and all(b[0].all() for b in want[2])


def test_a_broken_dtm_recurrence_raises_and_memoizes_nothing(kqk4):
    broken = dataclasses.replace(kqk4, dtm=kqk4.dtm.copy())
    idx = next(i for i in kqk4.decisive_indices().tolist() if kqk4.wdl[i] == sg.Wdl.WIN.value)
    broken.dtm[idx] += 2
    pos = sg.position_at(idx, kqk4.material)
    policy = broken.policy()
    slot = policy.slots[kqk4.material.key]
    with pytest.raises(RuntimeError, match="dtm - 1"):
        sg.policy_step(pos, broken)
    assert policy.blocks == {}
    # Nothing was kept, so asking again checks again.
    with pytest.raises(RuntimeError, match="dtm - 1"):
        sg.policy_step(pos, broken)
    with pytest.raises(RuntimeError, match="dtm - 1"):
        policy.walk([slot], [idx])
    assert policy.blocks == {}
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
    # Filling every block, one miss each, on a fresh table of the same
    # values, so no other test's fill is memoized.
    policy = dataclasses.replace(request.getfixturevalue(name)).policy()
    tables = [t.material for t in policy.tables if t is not None]
    arrays = sum(7 * material.index_size for material in tables)  # uint16 + uint8 + uint32
    block = max(tablebase._block_bytes(material) for material in tables)
    assert traced_peak(lambda: fill_every_block(policy)) <= arrays + block


def test_making_a_policy_holds_no_index_long_mask(krk8_file):
    loaded = sg.Tablebase.load(krk8_file)
    assert traced_peak(dataclasses.replace(loaded).policy) <= tablebase._block_bytes(loaded.material)
    # With the move tables cached, finding the mates block by block and
    # checking them peaks at 0.1 MiB, where a mask over the index alone
    # held a byte per index (0.5 MiB).
    assert traced_peak(dataclasses.replace(loaded).policy) <= loaded.material.index_size // 2


def test_choosing_a_block_holds_one_slot_of_candidates(krk8_file):
    # On block 0 of KRvK 8x8 (2,922 rows), stacking every mover's
    # candidate columns into one matrix each peaks at 3.16 MiB; one
    # slot's columns at a time take about 2.4 MiB.
    loaded = sg.Tablebase.load(krk8_file)
    policy = loaded.policy()
    side, lo, hi = tablebase._block_of(loaded.material, 0)
    rows = np.flatnonzero(tablebase._decisive(loaded.wdl[lo:hi]) & (loaded.dtm[lo:hi] > 0)) + lo
    assert rows.size == 2922
    tablebase._choose(loaded, side, rows, policy)  # the move tables, cached once
    assert traced_peak(lambda: tablebase._choose(loaded, side, rows, policy)) < 2.7 * 2**20
