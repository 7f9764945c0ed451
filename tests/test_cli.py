import dataclasses
import json
import subprocess
import sys

import pytest

import strategia as sg
from strategia.cli import main


@pytest.fixture(scope="module")
def kqk4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "kqk4.ctb"
    code = main(["solve", "--board", "4x4", "--material", "KQvK", "--out", str(path)])
    assert code == 0
    return path


WON_FEN = "k3/4/1Q2/K3 w - -"  # some decisive KQvK position on 4x4


def probe_fen(kqk4_file):
    tb = sg.Tablebase.load(kqk4_file)
    idx = int(tb.decisive_indices()[0])
    return sg.format_fen(sg.position_at(idx, tb.material))


class TestSolveCommand:
    def test_solve_writes_loadable_table_and_manifest(self, kqk4_file):
        tb = sg.Tablebase.load(kqk4_file)
        assert tb.material.name == "KQvK"
        manifest = kqk4_file.parent / (kqk4_file.name + ".manifest.jsonl")
        assert manifest.exists()
        entry = json.loads(manifest.read_text().splitlines()[0])
        assert entry["tool_version"] == sg.__version__
        assert entry["tablebase_checksum"].startswith("crc32:")

    def test_budget_refusal_exits_4_and_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", "1")
        out = tmp_path / "too-big.ctb"
        code = main(["solve", "--board", "8x8", "--material", "KQvK", "--out", str(out)])
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("raw", [
        "abc", "-5",
        pytest.param("\u00b2", id="superscript-2"),
        pytest.param("9" * 5000, id="5000-digits"),
    ])
    def test_malformed_budget_variable_exits_3(self, tmp_path, monkeypatch, capsys, raw):
        monkeypatch.setenv("STRATEGIA_MEM_BUDGET_MB", raw)
        out = tmp_path / "x.ctb"
        code = main(["solve", "--board", "4x4", "--material", "KvK", "--out", str(out)])
        assert code == 3
        assert "STRATEGIA_MEM_BUDGET_MB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        # solve runs in process and has no --workers option, so argparse refuses it
        out = tmp_path / "x.ctb"
        code = main(["solve", "--board", "4x4", "--material", "KvK", "--out", str(out),
                     "--workers", workers])
        assert code == 2
        assert f"unrecognized arguments: --workers {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("board", [
        "8by8",
        pytest.param("9" * 5000 + "x8", id="5000-digit-side"),
    ])
    def test_bad_board_flag_exits_3(self, tmp_path, board):
        code = main(["solve", "--board", board, "--material", "KQvK",
                     "--out", str(tmp_path / "x.ctb")])
        assert code == 3

    def test_unwritable_output_exits_5(self, tmp_path):
        code = main(["solve", "--board", "4x4", "--material", "KvK",
                     "--out", str(tmp_path / "missing-dir" / "x.ctb")])
        assert code == 5
        assert not (tmp_path / "missing-dir").exists()

    @pytest.mark.parametrize("made", [False, True], ids=["in-a-missing-directory", "at-a-directory"])
    def test_unwritable_out_exits_5_before_solving(self, tmp_path, capsys, made):
        out = tmp_path / "missing" / "x.ctb"
        if made:
            out.mkdir(parents=True)
        code = main(["solve", "--board", "4x4", "--material", "KQvK", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 5
        assert "solving" not in captured.err and "policy" not in captured.err
        assert f"cannot write {out}" in captured.err
        assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


class TestProbePathPerturb:
    def test_probe_prints_value(self, kqk4_file, capsys):
        code = main(["probe", "--tb", str(kqk4_file), "--fen", probe_fen(kqk4_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wdl=" in out and "dtm=" in out and "material=KQvK" in out

    def test_probe_bad_fen_exits_3(self, kqk4_file):
        assert main(["probe", "--tb", str(kqk4_file), "--fen", "8/8 w - -"]) == 3

    def test_missing_table_exits_5(self, tmp_path):
        assert main(["probe", "--tb", str(tmp_path / "none.ctb"), "--fen", WON_FEN]) == 5

    def test_corrupt_table_exits_3(self, tmp_path, kqk4_file):
        bad = tmp_path / "bad.ctb"
        blob = bytearray(kqk4_file.read_bytes())
        blob[-1] ^= 0xFF
        bad.write_bytes(bytes(blob))
        assert main(["probe", "--tb", str(bad), "--fen", WON_FEN]) == 3

    def test_path_writes_csv(self, kqk4_file, tmp_path, capsys):
        out = tmp_path / "line.csv"
        code = main(["path", "--tb", str(kqk4_file), "--fen", probe_fen(kqk4_file),
                     "--mode", "augmented", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,move,dtm,a1,")
        assert len(lines) >= 2

    def test_path_on_drawn_position_exits_3(self, kqk4_file, tmp_path):
        tb = sg.Tablebase.load(kqk4_file)
        draws = (tb.wdl == sg.Wdl.DRAW.value).nonzero()[0]
        drawn = sg.format_fen(sg.position_at(int(draws[0]), tb.material))
        out = tmp_path / "nope.csv"
        code = main(["path", "--tb", str(kqk4_file), "--fen", drawn, "--out", str(out)])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["path", "--fen", WON_FEN],
        ["perturb", "--fen", WON_FEN],
        ["evalprobe", "--capacity-sweep", "0..2", "--seed", "1"],
    ], ids=["path", "perturb", "evalprobe"])
    def test_out_in_a_missing_directory_exits_5_and_writes_nothing(self, kqk4_file, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out.csv"
        code = main(command + ["--tb", str(kqk4_file), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 5
        assert "solving" not in captured.err and "policy" not in captured.err
        assert f"cannot write {out}" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_perturb_prints_csv_to_stdout(self, kqk4_file, capsys):
        code = main(["perturb", "--tb", str(kqk4_file), "--fen", probe_fen(kqk4_file)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("perturb_from,perturb_to,")
        assert len(out) > 1


class TestExperimentCommand:
    def test_deterministic_outputs_and_appending_manifest(self, kqk4_file, tmp_path):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        for target in (d1, d2):
            code = main(["experiment", "--tb", str(kqk4_file), "--sample", "12",
                         "--seed", "5", "--out", str(target)])
            assert code == 0
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        # a rerun into the same directory appends a manifest line
        code = main(["experiment", "--tb", str(kqk4_file), "--sample", "12",
                     "--seed", "5", "--out", str(d1)])
        assert code == 0
        assert len((d1 / "manifest.jsonl").read_text().splitlines()) == 2
        report = json.loads((d1 / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["seed"] == 5

    def test_thresholds_file_changes_digest(self, kqk4_file, tmp_path):
        cfg = tmp_path / "thresholds.json"
        cfg.write_text(json.dumps({"forced_mate_max_dtm": 3}))
        out = tmp_path / "run-cfg"
        code = main(["experiment", "--tb", str(kqk4_file), "--sample", "6",
                     "--seed", "1", "--thresholds", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["thresholds"]["forced_mate_max_dtm"] == 3

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, kqk4_file, tmp_path, capsys, workers):
        # experiment runs in process and has no --workers option, so argparse refuses it
        out = tmp_path / "run"
        code = main(["experiment", "--tb", str(kqk4_file), "--sample", "6",
                     "--seed", "1", "--workers", workers, "--out", str(out)])
        assert code == 2
        assert f"unrecognized arguments: --workers {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["the-file", "under-the-file"])
    def test_out_at_a_file_exits_5_before_the_walk(self, kqk4_file, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / under if under else taken
        code = main(["experiment", "--tb", str(kqk4_file), "--sample", "6",
                     "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 5
        assert "solving" not in captured.err and "policy" not in captured.err
        assert f"cannot write {out}" in captured.err
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("text", [
        b'{"zorp": 1}',
        b"not json",
        b"[1, 2]",
        b'{"forced_mate_max_dtm": "3"}',
        b'{"forced_mate_max_dtm": true}',
        b"\xff\xfe",
    ], ids=["unknown-key", "not-json", "not-object", "string-value", "bool-value", "not-utf8"])
    def test_unknown_threshold_key_exits_3(self, kqk4_file, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text)
        out = tmp_path / "x"
        code = main(["experiment", "--tb", str(kqk4_file), "--sample", "6",
                     "--seed", "1", "--thresholds", str(cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()


class TestTamperedTable:
    """A file with a valid CRC whose values fail the policy's checks exits 3 and writes nothing."""

    # Case -> (index, the dtm written there, the refusal). KQvK 4x4 index
    # 4131 is a loss at dtm 8 made a false mate; index 99 is a win at
    # dtm 7 raised to 9, which no successor at dtm 8 backs.
    CASES = {
        "false-mate": (4131, 0, "KQvK index 4131: a (LOSS, 0) entry is not checkmate"),
        "dtm-plus-2": (99, 9, "KQvK index 99: the chosen successor's dtm is not dtm - 1"),
    }

    @pytest.fixture(scope="class")
    def tampered(self, kqk4_file, tmp_path_factory):
        tb = sg.Tablebase.load(kqk4_file)
        files = {}
        for name, (idx, dtm, _) in self.CASES.items():
            broken = dataclasses.replace(tb, dtm=tb.dtm.copy())
            broken.dtm[idx] = dtm
            files[name] = tmp_path_factory.mktemp("tampered") / f"{name}.ctb"
            broken.save(files[name])
        return tb, files

    @pytest.mark.parametrize("case", CASES)
    def test_path_exits_3_and_writes_no_csv(self, tampered, tmp_path, capsys, case):
        tb, files = tampered
        idx, _, message = self.CASES[case]
        fen = sg.format_fen(sg.position_at(idx, tb.material))
        out = tmp_path / "line.csv"
        assert main(["path", "--tb", str(files[case]), "--fen", fen, "--out", str(out)]) == 3
        assert f"error: TableValueError: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", CASES)
    def test_experiment_exits_3_and_writes_no_report(self, tampered, tmp_path, capsys, case):
        _, files = tampered
        _, _, message = self.CASES[case]
        out = tmp_path / "exp"
        # Every decisive base is sampled, so the walk reaches the tampered row.
        code = main(["experiment", "--tb", str(files[case]), "--sample", "100000",
                     "--seed", "1", "--out", str(out)])
        assert code == 3
        assert f"error: TableValueError: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestEvalprobeCommand:
    def test_sweep_csv(self, kqk4_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["evalprobe", "--tb", str(kqk4_file), "--features", "default",
                     "--capacity-sweep", "0..4", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("capacity,train_mae,")
        assert len(lines) == 6

    def test_sweep_beyond_feature_count_exits_3(self, kqk4_file, tmp_path):
        code = main(["evalprobe", "--tb", str(kqk4_file), "--features",
                     "king_distance,side_to_move", "--capacity-sweep", "0..5",
                     "--seed", "3", "--out", str(tmp_path / "s.csv")])
        assert code == 3

    @pytest.mark.parametrize("digits", [31, 5000])
    def test_a_huge_bound_is_refused_before_the_range_is_built(self, kqk4_file, tmp_path, capsys, digits):
        out = tmp_path / "s.csv"
        code = main(["evalprobe", "--tb", str(kqk4_file), "--features", "default",
                     "--capacity-sweep", "0.." + "1" + "0" * (digits - 1), "--seed", "3",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "exceeds feature count" in err[0]
        assert not out.exists()

    def test_non_ascii_digits_are_not_a_range(self, kqk4_file, tmp_path, capsys):
        # Arabic-Indic threes: a regex \d and int() would read them as 3..3.
        out = tmp_path / "s.csv"
        code = main(["evalprobe", "--tb", str(kqk4_file), "--features", "default",
                     "--capacity-sweep", "\u0663..\u0663", "--seed", "3", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--capacity-sweep" in err[0]
        assert not out.exists()

    def test_bad_range_exits_3(self, kqk4_file, tmp_path):
        code = main(["evalprobe", "--tb", str(kqk4_file), "--features", "default",
                     "--capacity-sweep", "16..0", "--seed", "3",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 3

    def test_negative_train_sample_exits_3(self, kqk4_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["evalprobe", "--tb", str(kqk4_file), "--features", "default",
                     "--capacity-sweep", "0..4", "--seed", "3",
                     "--train-sample", "-1", "--out", str(out)])
        assert code == 3
        assert "sample size must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_eval_sample_exits_3(self, kqk4_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["evalprobe", "--tb", str(kqk4_file), "--features", "default",
                     "--capacity-sweep", "0..4", "--seed", "3",
                     "--eval-sample", "0", "--out", str(out)])
        assert code == 3
        assert "sample size must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestMiscCommands:
    def test_atypical(self, kqk4_file, capsys):
        code = main(["atypical", "--tb", str(kqk4_file), "--fen", probe_fen(kqk4_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("atypical") or out.startswith("typical")

    def test_info(self, kqk4_file, capsys):
        code = main(["info", "--tb", str(kqk4_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "material=KQvK" in out and "checksum=crc32:" in out

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, kqk4_file, capsys):
        assert main(["info", "--tb", str(kqk4_file), "--format", "yaml"]) == 2

    def test_console_entry_point_runs(self, kqk4_file):
        result = subprocess.run(
            [sys.executable, "-m", "strategia.cli", "info", "--tb", str(kqk4_file)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "material=KQvK" in result.stdout
