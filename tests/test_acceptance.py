"""Acceptance criteria, one test per criterion, run at stated tolerances.

Where a criterion names a material class without a board size, the full
8x8 board is used; oracle-equivalence criteria name their own reduced
boards. Every test prints one [PASS] line with the measured numbers
(visible under pytest -s / -rP; the test name carries the criterion
number either way).
"""

import csv
import io
import json
import random
import time

import numpy as np

import strategia as sg
import oracles
import refengine
from strategia.cli import main
from strategia.evalprobe import build_dtm_dataset, fit_evaluator, mae
from test_encoding import case_tag, expected_delta_squares
from test_perft import PERFT_SUITE
from test_tablebase import oracle_values_by_index
from positions import random_position, wdl_dtm

STANDARD = sg.BoardSpec.standard()


def _report(n, message):
    print(f"[PASS] criterion {n}: {message}")


class TestAcceptance:
    def test_criterion_1_oracle_equivalence_kqk_4x4(self):
        material = sg.MaterialClass.from_string("KQvK", sg.BoardSpec(4, 4))
        started = time.monotonic()
        table = sg.solve(material)
        solve_seconds = time.monotonic() - started
        assert solve_seconds < 60.0, f"solve took {solve_seconds:.1f}s, bound is 60s"
        expected = oracle_values_by_index(material)
        table_wdl, table_dtm = wdl_dtm(table)
        legal = set(np.flatnonzero(table_wdl != 0).tolist())
        assert legal == set(expected)
        names = {1: "win", 2: "draw", 3: "loss"}
        for idx, (wdl_name, dtm) in expected.items():
            got_wdl = names[int(table_wdl[idx])]
            got_dtm = None if got_wdl == "draw" else int(table_dtm[idx])
            assert (got_wdl, got_dtm) == (wdl_name, dtm), f"index {idx}"
        _report(1, f"4x4 KQvK solve matches minimax oracle on all "
                   f"{len(expected)} legal positions, WDL and DTM exact "
                   f"({solve_seconds:.2f}s < 60s)")

    def test_criterion_2_perft_against_independent_counter(self):
        checked = 0
        for fen_text in PERFT_SUITE:
            pos = sg.parse_fen(fen_text, STANDARD)
            for depth in (1, 2, 3, 4):
                ours = sg.perft(pos, depth)
                theirs = refengine.perft(fen_text, depth)
                assert ours == theirs, (fen_text, depth, ours, theirs)
                checked += 1
        _report(2, f"perft matches the independent counter on "
                   f"{len(PERFT_SUITE)} positions x depths 1-4 ({checked} counts)")

    def test_criterion_3_step_identity_over_thousand_playouts(self, krk8):
        rng = random.Random(1003)
        indices = rng.sample(krk8.decisive_indices().tolist(), 1000)
        plies_checked = 0
        for idx in sorted(indices):
            playout = sg.generate_playout(sg.position_at(idx, krk8.material), krk8)
            vectors = playout.vectors()
            for n in range(playout.plies):
                step = sg.policy_delta(vectors[n], krk8)
                assert sg.apply_delta(vectors[n], step) == vectors[n + 1]
                plies_checked += 1
        _report(3, f"x + step(x) equals the next vector exactly on 1000 "
                   f"playouts, {plies_checked} plies, zero tolerance")

    def test_criterion_4_playout_length_equals_dtm(self, krk8):
        rng = random.Random(1004)
        indices = rng.sample(krk8.decisive_indices().tolist(), 10_000)
        for idx in sorted(indices):
            pos = sg.position_at(idx, krk8.material)
            value = krk8.probe(pos)
            playout = sg.generate_playout(pos, krk8)
            assert playout.plies == value.dtm
            dtms = [playout.initial_dtm] + [s.dtm for s in playout.steps]
            assert dtms == list(range(value.dtm, -1, -1))
        _report(4, "playout length equals probed DTM and DTM falls by exactly "
                   "1 per ply on 10000 sampled decisive positions")

    def test_criterion_5_trichotomy(self, krk8, kqk8):
        for table in (krk8, kqk8):
            wdl, dtm = wdl_dtm(table)
            legal = wdl != 0
            assert np.isin(wdl[legal], (1, 2, 3)).all()
            decisive = (wdl == 1) | (wdl == 3)
            assert (dtm[decisive] != 0xFFFF).all()
            assert (dtm[wdl == 2] == 0xFFFF).all()
        _report(5, f"every legal position is exactly one of win/draw/loss "
                   f"(KRvK: {int((wdl_dtm(krk8)[0] != 0).sum())} legal, "
                   f"KQvK: {int((wdl_dtm(kqk8)[0] != 0).sum())} legal)")

    def test_criterion_6_experiment_determinism(self, krk8_file, tmp_path):
        durations = []
        out_dirs = [tmp_path / "run-a", tmp_path / "run-b"]
        for out_dir in out_dirs:
            started = time.monotonic()
            code = main([
                "experiment", "--tb", str(krk8_file), "--sample", "500",
                "--seed", "42", "--out", str(out_dir),
            ])
            durations.append(time.monotonic() - started)
            assert code == 0
            assert durations[-1] < 300.0, f"run took {durations[-1]:.0f}s, bound 300s"
        report_a = (out_dirs[0] / "report.json").read_bytes()
        assert report_a == (out_dirs[1] / "report.json").read_bytes()
        records_a = (out_dirs[0] / "records.csv").read_bytes()
        assert records_a == (out_dirs[1] / "records.csv").read_bytes()

        rows = list(csv.DictReader(io.StringIO(records_a.decode())))
        assert rows, "no records produced"
        for row in rows:
            d_series = [float(x) for x in row["d_series"].split("|")]
            hamming = [int(x) for x in row["hamming_series"].split("|")]
            assert d_series[0] > 0.0
            assert len(d_series) == len(hamming)
            if row["outcome_class"] != "draw-involved":
                assert len(d_series) == int(row["prefix_plies"]) + 1

        table = sg.Tablebase.load(krk8_file)
        spot_checked = 0
        for row in rows:
            if spot_checked >= 50 or row["outcome_class"] == "draw-involved":
                continue
            base = sg.parse_fen(row["base_fen"], table.material.spec)
            pert = sg.parse_fen(row["perturbed_fen"], table.material.spec)
            pa = sg.generate_playout(base, table)
            pb = sg.generate_playout(pert, table)
            fwd = sg.divergence(pa, pb)
            rev = sg.divergence(pb, pa)
            assert fwd.d_series == rev.d_series
            assert fwd.hamming_series == rev.hamming_series
            assert fwd.d_series == tuple(float(x) for x in row["d_series"].split("|"))
            spot_checked += 1
        assert spot_checked == 50
        report = json.loads(report_a)
        _report(6, f"experiment sample=500 seed=42 reruns byte-identically "
                   f"({durations[0]:.0f}s and {durations[1]:.0f}s < 300s), "
                   f"{report['counts']['pairs_total']} records hold their "
                   f"invariants, 50 symmetry spot-checks pass")

    def test_criterion_7_evaluator_error_floor(self, krk8):
        X, y, _ = build_dtm_dataset(krk8)
        train_maes = []
        for capacity in range(0, 17):
            model = fit_evaluator(X, y, capacity)
            train_maes.append(mae(model.predict(X), y))
        assert all(value > 0.0 for value in train_maes), train_maes
        for prev, nxt in zip(train_maes, train_maes[1:]):
            assert nxt <= prev + 1e-12, train_maes
        _report(7, f"training MAE stays positive (floor {min(train_maes):.3f} "
                   f"plies at capacity 16) and is non-increasing over "
                   f"capacities 0..16 on {len(y)} KRvK positions")

    def test_criterion_8_persistence_round_trip(self, krk8, kqk8, tmp_path):
        checked = []
        for table in (krk8, kqk8):
            path = tmp_path / f"{table.material.name.lower()}.ctb"
            table.save(path)
            again = sg.Tablebase.load(path)
            assert np.array_equal(table.code, again.code)
            header, records = oracles.read_ctb(path)
            assert header["entries"] == table.material.index_size
            assert header["pieces"] == [
                (p.kind.value, p.color.value) for p in table.material.pieces
            ]
            sample = random.Random(1008).sample(range(header["entries"]), 50_000)
            table_wdl, table_dtm = wdl_dtm(table)
            for idx in sample:
                wdl, dtm = records[idx]
                assert wdl == int(table_wdl[idx])
                assert dtm == int(table_dtm[idx])
            checked.append(table.material.name)
        _report(8, f"save/load is entrywise equal and the independent "
                   f"byte-level reader verifies the format for {checked}")

    def test_criterion_9_encoding_round_trip_and_sparsity(self):
        rng = random.Random(1009)
        round_trips = 0
        for i in range(100_000):
            pos = random_position(rng)
            mode = sg.Mode.AUGMENTED if i % 2 == 0 else sg.Mode.STRICT
            side = pos.side_to_move if mode is sg.Mode.STRICT else None
            vec = sg.encode(pos, mode)
            again = sg.decode(vec, pos.spec, side)
            assert again.placement == pos.placement
            assert again.side_to_move == pos.side_to_move
            assert again.ep_square == pos.ep_square
            assert again.castle_rights == pos.castle_rights
            round_trips += 1

        from test_encoding import TestDeltaSparsity

        moves_checked = 0
        seen = set()
        corpus = [sg.parse_fen(t, STANDARD) for t in TestDeltaSparsity.CASE_FENS]
        corpus += [random_position(rng) for _ in range(400)]
        for pos in corpus:
            base = sg.encode(pos)
            for move, succ in sg.legal_transitions(pos):
                d = sg.delta(base, sg.encode(succ))
                seen.add(case_tag(pos, move))
                expected = expected_delta_squares(pos, move, succ)
                assert {sq for sq, _ in d.entries} == expected
                assert len(d.entries) in (2, 3, 4, 5)
                moves_checked += 1
        assert {"quiet", "capture", "double-step", "ep-capture",
                "promotion", "castle"} <= seen
        _report(9, f"decode(encode(p)) == p on {round_trips} random positions; "
                   f"delta composition matches its case tag on {moves_checked} "
                   f"legal moves across {sorted(seen)}")
