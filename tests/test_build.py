"""The vectorized successor build against the scalar rules engine.

The reference row of an index is built one position at a time from
`position_at`, `legal_transitions` and `index_of` (in-class successors)
or the subtable's `probe` (captures and promotions). Rows are compared
as multisets, since the fixpoint reads them without regard to order.
"""

import pytest
from hypothesis import given, settings, strategies as st

import strategia as sg
from strategia.tablebase import DTM_ABSENT, _build_chunk, _max_move_bound, _static_code

ROOK_KNIGHT = frozenset({sg.PieceKind.ROOK, sg.PieceKind.KNIGHT})

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


def built_classes(material, registry, lo, hi):
    """Index -> class as the vectorized build labels [lo, hi)."""
    invalid, losses, draws, open_idx, matrix = _build_chunk(
        material, registry, lo, hi, _max_move_bound(material)
    )
    out = {int(i): "loss" for i in losses}
    out.update((int(i), "draw") for i in draws)
    for idx, row in zip(open_idx.tolist(), matrix.tolist()):
        out[idx] = sorted(code for code in row if code != -1)
    assert invalid == (hi - lo) - len(out)
    return out


def registry_of(table):
    return dict(table.subtables)


@pytest.mark.parametrize(
    "text,spec", EXHAUSTIVE,
    ids=[f"{t}-{s.width}x{s.height}-{len(s.promotion_kinds)}promo" for t, s in EXHAUSTIVE],
)
def test_build_matches_scalar_rules_on_every_index(text, spec):
    material = sg.MaterialClass.from_string(text, spec)
    registry = registry_of(sg.solve(material))
    built = built_classes(material, registry, 0, material.index_size)
    for idx in range(material.index_size):
        assert built.get(idx, "invalid") == reference_class(material, registry, idx), idx


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_matches_scalar_rules_on_sampled_kqk8_indices(kqk8, data):
    material = kqk8.material
    registry = registry_of(kqk8)
    idx = data.draw(st.integers(0, material.index_size - 1))
    built = built_classes(material, registry, idx, idx + 1)
    assert built.get(idx, "invalid") == reference_class(material, registry, idx)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_matches_scalar_rules_on_sampled_kpk6_indices(kpk6, data):
    material = kpk6.material
    registry = registry_of(kpk6)
    idx = data.draw(st.integers(0, material.index_size - 1))
    built = built_classes(material, registry, idx, idx + 1)
    assert built.get(idx, "invalid") == reference_class(material, registry, idx)


def test_chunk_straddling_the_side_bit(kqk4):
    material = kqk4.material
    half = material.index_size // 2
    registry = registry_of(kqk4)
    built = built_classes(material, registry, half - 300, half + 300)
    for idx in range(half - 300, half + 300):
        assert built.get(idx, "invalid") == reference_class(material, registry, idx), idx


def test_row_over_the_move_bound_raises_instead_of_truncating(kqk4):
    material = kqk4.material
    with pytest.raises(RuntimeError, match="bound"):
        _build_chunk(material, registry_of(kqk4), 0, material.index_size, 2)


@pytest.mark.parametrize("fixture,crc", [
    ("krk8", 0xE6FCB2C2),
    ("kqk8", 0x5BBF070E),
    ("kpk6", 0x514883FC),
])
def test_table_checksums_are_pinned(request, fixture, crc):
    assert request.getfixturevalue(fixture).checksum == crc
