"""One lookup path: probe reads one class, resolve never solves, loaded tables solve subclasses in the open."""

import io
import json
import re

import numpy as np
import pytest

import strategia as sg
from strategia.cli import main
from strategia.playout import write_playout_csv
from strategia.runio import sidecar_manifest_path

SPEC4 = sg.BoardSpec(4, 4)
PROMOTING_FEN = "4/1P1k/4/K3 w - -"  # b3-b4 promotes at once on 4x4


@pytest.fixture(scope="module")
def kpk4_file(tmp_path_factory, kpk4):
    path = tmp_path_factory.mktemp("lookup") / "kpk4.ctb"
    kpk4.save(path)
    return path


def promotion_successors(pos):
    return [succ for move, succ in sg.legal_transitions(pos) if move.promotion is not None]


def test_resolve_on_a_loaded_table_names_the_missing_class(kpk4_file):
    loaded = sg.Tablebase.load(kpk4_file)
    pos = sg.parse_fen(PROMOTING_FEN, SPEC4)
    queen = next(
        succ for succ in promotion_successors(pos)
        if any(piece.kind is sg.PieceKind.QUEEN for _, piece in succ.pieces())
    )
    with pytest.raises(sg.MaterialMismatchError, match="KQvK on 4x4"):
        loaded.resolve(queen)
    assert loaded.subtables == {}


def test_solve_subclasses_matches_the_solved_closure(kpk4, kpk4_file):
    loaded = sg.Tablebase.load(kpk4_file)
    solved = []
    loaded.solve_subclasses(progress=solved.append)
    assert set(loaded.subtables) == set(kpk4.subtables)
    for key, table in kpk4.subtables.items():
        assert np.array_equal(loaded.subtables[key].code, table.code)
    names = {table.material.name for table in kpk4.subtables.values()}
    assert {line.split()[1].rstrip(":") for line in solved if line.startswith("solving")} == names

    pos = sg.parse_fen(PROMOTING_FEN, SPEC4)
    assert sg.generate_playout(pos, loaded) == sg.generate_playout(pos, kpk4)
    assert any(
        sg.material_key_of(step.position) != kpk4.material.key
        for step in sg.generate_playout(pos, loaded).steps
    )


def test_solve_subclasses_on_a_solved_table_solves_nothing(kpk4):
    before = dict(kpk4.subtables)
    messages = []
    kpk4.solve_subclasses(progress=messages.append)
    assert messages == []
    assert all(kpk4.subtables[key] is table for key, table in before.items())


def test_solve_subclasses_refuses_before_solving_any(kpk4_file, monkeypatch):
    # KQvK 4x4 needs more than 2 MiB; the smaller subclasses come first in solve order.
    monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", "2")
    loaded = sg.Tablebase.load(kpk4_file)
    messages = []
    with pytest.raises(sg.BudgetExceededError, match="KQvK"):
        loaded.solve_subclasses(progress=messages.append)
    assert messages == []
    assert loaded.subtables == {}


def test_cli_path_refuses_before_solving_any(kpk4_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", "2")
    out = tmp_path / "path.csv"
    code = main(["path", "--tb", str(kpk4_file), "--fen", PROMOTING_FEN, "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("solving")] == []
    assert err == ["error: budget: solving KQvK needs about 5 MiB, budget is 2 MiB"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["path", "path-drawn-start", "experiment", "experiment-sample-0", "experiment-sample-negative"],
)
def test_cli_malformed_input_exits_3_before_solving_any(kpk4_file, tmp_path, capsys, command):
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text('{"forced_mate_max_dtm": 0}')
    sample = ["experiment", "--tb", str(kpk4_file), "--seed", "3", "--out", str(tmp_path / "exp"), "--sample"]
    argv = {
        "path": ["path", "--tb", str(kpk4_file), "--fen", "4/1P1k/4/K3 w - - x",
                 "--out", str(tmp_path / "p.csv")],
        # A drawn start of the table's own class is refused before any subclass is solved.
        "path-drawn-start": ["path", "--tb", str(kpk4_file), "--fen", "4/4/Pk2/3K w - -",
                             "--out", str(tmp_path / "p.csv")],
        "experiment": ["experiment", "--tb", str(kpk4_file), "--sample", "5", "--seed", "3",
                       "--thresholds", str(thresholds), "--out", str(tmp_path / "exp")],
        "experiment-sample-0": sample + ["0"],
        "experiment-sample-negative": sample + ["-2"],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not any(line.startswith("solving") for line in err)


def test_cli_path_and_experiment_name_each_solved_subclass(kpk4, kpk4_file, tmp_path, capsys):
    names = sorted(table.material.name for table in kpk4.subtables.values())
    runs = {
        "path": ["path", "--tb", str(kpk4_file), "--fen", PROMOTING_FEN,
                 "--out", str(tmp_path / "path.csv")],
        "experiment": ["experiment", "--tb", str(kpk4_file), "--sample", "20", "--seed", "3",
                       "--out", str(tmp_path / "exp")],
    }
    for label, argv in runs.items():
        capsys.readouterr()
        assert main(argv) == 0, label
        err = capsys.readouterr().err
        for name in names:
            assert f"solving {name}:" in err, (label, name)


def test_cli_experiment_reports_the_policy_sweep_after_the_solves_and_path_runs_none(
    kpk4_file, tmp_path, capsys
):
    # A line fills the blocks it touches and reports none; an experiment
    # walks its lines together and reports the walk in one line.
    runs = {
        "path": ["path", "--tb", str(kpk4_file), "--fen", PROMOTING_FEN,
                 "--out", str(tmp_path / "p.csv")],
        "experiment": ["experiment", "--tb", str(kpk4_file), "--sample", "5", "--seed", "3",
                       "--out", str(tmp_path / "exp")],
    }
    for label, argv in runs.items():
        capsys.readouterr()
        assert main(argv) == 0, label
        err = capsys.readouterr().err.splitlines()
        built = [n for n, line in enumerate(err) if line.startswith("policy ")]
        assert any(line.startswith("solving") for line in err), label
        if label == "path":
            assert built == [], err
            continue
        assert len(built) == 1, err
        assert re.fullmatch(r"policy KPvK: \d+ rows in \d+\.\d\d s", err[built[0]])
        assert not any(line.startswith("solving") for line in err[built[0]:])


QUEEN_FEN = "4/4/4/k1QK b - -"  # KQvK: a subclass of KPvK 4x4, outside KRvK 4x4's closure


@pytest.fixture(scope="module")
def krk4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lookup") / "krk4.ctb"
    sg.solve(sg.MaterialClass.from_string("KRvK", SPEC4)).save(path)
    return path


def run_path(table_file, fen, out, capsys):
    """(exit code, stderr lines, its `solving` lines) of ``strategia path``."""
    capsys.readouterr()
    code = main(["path", "--tb", str(table_file), "--fen", fen, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    return code, err, [line for line in err if line.startswith("solving")]


class TestPathFromASubclassStart:
    """A line never leaves its start's closure, so ``path`` solves only that closure."""

    def test_a_drawn_start_solves_only_its_class(self, kpk4_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, err, solving = run_path(kpk4_file, "4/4/1k2/3K w - -", out, capsys)  # KvK
        assert code == 3
        assert solving == ["solving KvK: 512 indices"]
        assert err[-1] == (
            "error: UnsupportedCaseError: cannot generate a playout from a drawn position"
        )
        assert not out.exists()

    def test_a_class_outside_the_closure_is_refused_before_any_solve(
        self, krk4_file, tmp_path, capsys
    ):
        out = tmp_path / "p.csv"
        code, err, _ = run_path(krk4_file, QUEEN_FEN, out, capsys)
        assert code == 3
        assert err == ["error: MaterialMismatchError: no table loaded for KQvK on 4x4"]
        assert not out.exists()

    def test_a_decisive_start_plays_its_line_in_its_closure(
        self, kpk4_file, kqk4, tmp_path, capsys
    ):
        out = tmp_path / "p.csv"
        code, _, solving = run_path(kpk4_file, QUEEN_FEN, out, capsys)
        assert code == 0
        assert [line.split(":")[0] for line in solving] == ["solving KvK", "solving KQvK"]
        want = io.StringIO()
        write_playout_csv(sg.generate_playout(sg.parse_fen(QUEEN_FEN, SPEC4), kqk4), want)
        assert out.read_text() == want.getvalue()
        entry = json.loads(sidecar_manifest_path(out).read_text().splitlines()[-1])
        assert entry["tablebase_checksum"] == f"crc32:{sg.Tablebase.load(kpk4_file).checksum:08x}"


class TestProbeRefusals:
    def test_wrong_board_size(self, kpk4):
        pos = sg.parse_fen("5/5/1P1k1/5/K4 w - -", sg.BoardSpec(5, 5))
        with pytest.raises(sg.MaterialMismatchError, match="5x5"):
            kpk4.probe(pos)

    def test_castle_rights(self, krk8):
        pos = sg.parse_fen("4k3/8/8/8/8/8/8/4K2R w K -", sg.BoardSpec.standard())
        with pytest.raises(sg.ValidationError, match="castle"):
            krk8.probe(pos)
