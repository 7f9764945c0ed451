"""The policy reads successor values by index arithmetic.

`Tablebase.locate_successor` is held to the scalar lookup (the
successor's class table and `index_of`) for every legal transition of
every legal index of each class, and `policy_step` to the
per-successor lookup loop it replaced, on every decisive index.
"""

import dataclasses

import pytest

import strategia as sg

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


def assert_successors_match(tb, table):
    """locate_successor equals the scalar lookup on every legal transition of every legal index of `table`."""
    checked = 0
    for idx in range(table.material.index_size):
        pos = sg.position_at(idx, table.material)
        if pos is None:
            continue
        for move, succ in sg.legal_transitions(pos):
            want_table, want_idx = reference_location(tb, succ)
            got_table, got_idx = tb.locate_successor(table, idx, move)
            assert got_table is want_table and got_idx == want_idx, (table.material.name, idx, move)
            checked += 1
    assert checked > 0


def test_successor_index_matches_the_scalar_lookup(closure):
    assert_successors_match(closure, closure)


def test_successor_index_from_a_subtable_matches_the_scalar_lookup(kpk4):
    # A playout goes on inside the subtable a promotion or capture reaches.
    for table in kpk4.subtables.values():
        assert_successors_match(kpk4, table)


def test_policy_step_matches_the_per_successor_lookup(closure):
    for idx in closure.decisive_indices().tolist():
        if closure.dtm[idx] == 0:
            continue
        pos = sg.position_at(idx, closure.material)
        assert sg.policy_step(pos, closure) == reference_policy(pos, closure), idx


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
