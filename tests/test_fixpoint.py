"""The retrograde frontier against the generational pass loop it replaced.

The reference below is that loop, kept plain: every pass reads the
values of every successor of every open row and labels a row won if
some successor was lost at the previous depth, lost if all successors
are won and the deepest was won at the previous depth. The solver must
give the same tables and the same SolveStats, per-pass counts included,
on every table of each closure. A table's values are compared as its
file records them, a wdl and a dtm column (``positions.wdl_dtm``),
which fails on a code the solve left open.
"""

import numpy as np
import pytest

import strategia as sg
from strategia import tablebase
from strategia.tablebase import DTM_ABSENT, SolveStats, _max_move_bound
from positions import wdl_dtm
from test_build import build_range

ROOK_KNIGHT = frozenset({sg.PieceKind.ROOK, sg.PieceKind.KNIGHT})
PAD = 255

CLOSURES = (
    ("KQvK", sg.BoardSpec(4, 4)),
    ("KRvK", sg.BoardSpec(5, 5)),
    ("KPvK", sg.BoardSpec(4, 4)),
    ("KQvKR", sg.BoardSpec(3, 4)),
    ("KPvKN", sg.BoardSpec(4, 4)),
    ("KRRvK", sg.BoardSpec(4, 4)),
    ("KBNvK", sg.BoardSpec(4, 4)),
    ("KRPvK", sg.BoardSpec(3, 4)),
    ("KPvK", sg.BoardSpec(4, 4, promotion_kinds=ROOK_KNIGHT)),
)


def reference_solve(material, registry):
    """(wdl, dtm, SolveStats) of `material` by the generational pass loop."""
    n = material.index_size
    invalid, term_loss, term_draw, open_idx, counts, edges = build_range(material, registry, 0, n)
    # Out-of-class values become slots after the index space, in
    # descending code order; one more slot pads the rows.
    codes = sorted(set(edges[edges < 0].tolist()), reverse=True)
    edges = edges.astype(np.int64)
    pad_slot = n + len(codes)
    wdl_full = np.zeros(pad_slot + 1, dtype=np.uint8)
    dtm_full = np.full(pad_slot + 1, DTM_ABSENT, dtype=np.uint16)
    static_trigger = 0
    for slot, code in enumerate(codes, start=n):
        raw = -code - 2
        w, d = raw >> 17, raw & 0x1FFFF
        wdl_full[slot], dtm_full[slot] = w, d
        edges[edges == code] = slot
        if w != sg.Wdl.DRAW.value:
            static_trigger = max(static_trigger, d + 1)
    # Row r holds its counts[r] successors, then pad slots up to the move bound.
    matrix = np.full((open_idx.size, _max_move_bound(material)), pad_slot, dtype=np.int64)
    rows = np.repeat(np.arange(open_idx.size), counts)
    matrix[rows, np.arange(edges.size) - np.repeat(np.cumsum(counts) - counts, counts)] = edges
    wdl_full[pad_slot], dtm_full[pad_slot] = PAD, 0

    wdl, dtm = wdl_full[:n], dtm_full[:n]
    wdl[term_loss], dtm[term_loss] = sg.Wdl.LOSS.value, 0
    wdl[term_draw] = sg.Wdl.DRAW.value
    passes = []
    depth = 0
    while open_idx.size:
        depth += 1
        succ_wdl, succ_dtm = wdl_full[matrix], dtm_full[matrix]
        win = ((succ_wdl == sg.Wdl.LOSS.value) & (succ_dtm == depth - 1)).any(axis=1)
        is_win = succ_wdl == sg.Wdl.WIN.value
        loss = (is_win | (succ_wdl == PAD)).all(axis=1) & (
            np.where(is_win, succ_dtm, 0).max(axis=1, initial=0) == depth - 1
        )
        wdl[open_idx[win]], dtm[open_idx[win]] = sg.Wdl.WIN.value, depth
        wdl[open_idx[loss]], dtm[open_idx[loss]] = sg.Wdl.LOSS.value, depth
        passes.append((int(win.sum()), int(loss.sum())))
        if win.any() or loss.any():
            keep = ~(win | loss)
            open_idx, matrix = open_idx[keep], matrix[keep]
        elif depth >= static_trigger:
            break
    wdl[open_idx] = sg.Wdl.DRAW.value
    decisive = (wdl == sg.Wdl.WIN.value) | (wdl == sg.Wdl.LOSS.value)
    stats = SolveStats(
        legal=n - invalid,
        invalid=invalid,
        terminal_losses=int(term_loss.size),
        terminal_draws=int(term_draw.size + open_idx.size),
        passes=tuple(passes),
        max_dtm=int(dtm[decisive].max()) if decisive.any() else 0,
    )
    return wdl.copy(), dtm.copy(), stats


@pytest.fixture(autouse=True)
def file_columns(monkeypatch):
    """Every table reads here as the wdl and dtm columns of its file (``wdl_dtm``), which no open code has."""
    for i, name in enumerate(("wdl", "dtm")):
        column = property(lambda table, i=i: wdl_dtm(table)[i])
        monkeypatch.setattr(sg.Tablebase, name, column, raising=False)


@pytest.fixture(scope="module", params=CLOSURES, ids=lambda c: f"{c[0]}-{c[1].width}x{c[1].height}-{len(c[1].promotion_kinds)}promo")
def closure(request):
    text, spec = request.param
    return sg.solve(sg.MaterialClass.from_string(text, spec))


def test_frontier_matches_the_pass_loop_on_every_table_of_the_closure(closure):
    for table in [closure, *closure.subtables.values()]:
        wdl, dtm, stats = reference_solve(table.material, table.subtables)
        name = table.material.name
        assert np.array_equal(table.wdl, wdl), name
        assert np.array_equal(table.dtm, dtm), name
        assert table.stats == stats, name


def test_passes_in_small_chunks_match_one_chunk(closure, monkeypatch):
    # Every table of these closures fits in one chunk of the passes. In
    # chunks of 1009 indices, each pass makes a chunk's static labels and
    # takes its frontier after the un-moves of earlier chunks have
    # labeled rows of later ones.
    monkeypatch.setattr(tablebase, "_CHUNK", 1009)
    chunked = sg.solve(closure.material)
    for table in [closure, *closure.subtables.values()]:
        again = chunked if table.material == closure.material else chunked.subtables[table.material.key]
        name = table.material.name
        assert np.array_equal(again.wdl, table.wdl), name
        assert np.array_equal(again.dtm, table.dtm), name
        assert again.stats == table.stats, name


def test_a_static_value_labels_after_a_quiet_pass():
    # Termination waits for static values deeper than the in-class
    # frontier; KQvKR 3x4, one of the closures above, labels again
    # after a pass that labeled nothing.
    passes = sg.solve(sg.MaterialClass.from_string("KQvKR", sg.BoardSpec(3, 4))).stats.passes
    assert any(quiet == (0, 0) and after != (0, 0) for quiet, after in zip(passes, passes[1:]))
