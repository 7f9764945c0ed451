"""Playout and experiment outputs are pinned byte for byte.

The digests are the sha256 of files the CLI wrote before the policy
became an array, when every ply chose its move from
`legal_transitions`. The KPvK 6x6 line double-pushes its pawn (an
en passant vector code) and promotes it; the experiments cover a pawn
class with promotions and a class where both sides can win.
"""

import hashlib
import random

import pytest

import strategia as sg
from strategia.cli import main

PATHS = {
    "KPvK-6x6": ("K5/6/6/6/P5/k5 w - -",
                 "1419f5b17363cbfc372c0e83736cfd3442458243fcf603f2ce5f54a39fad5990"),
    "KRvK-8x8": ("8/8/8/3k4/8/8/8/R3K3 w - -",
                 "5ebb3cc999d181747c06ffb6ca1e5ac2b8ce0a7cb4bcd71e585d315d3cf15c08"),
}
# (class, seed) -> (report.json, records.csv) of `experiment --sample 40`.
EXPERIMENTS = {
    ("KPvK-6x6", 1): ("7671c21299ce3535c11cc425a7dc313c5e2136f977c01d0b2ab7f4e478307e7c",
                      "ec0d008fb64ffd376cfe73531ae55fc47b56ce54938d95d259e2fa46f8d271d5"),
    ("KPvK-6x6", 42): ("9afb071f7426dd4a2d63f116bdf91d1eeb604d7704705e596bcd4057a47deb2d",
                       "8e8b46e0d717aeff9c88c54e9c10ccfef0884665898bba082fec31fa6cb413f8"),
    ("KQvKR-3x4", 1): ("4e90681c4d6a09d660658381b5b9f7263e6ac56a7a40b413fa8b36601b38038b",
                       "aecff489f68ca2f5432d64da5b965477fb1288e45ef59e28ca2e429ba6d27650"),
    ("KQvKR-3x4", 42): ("4dcdcc67fc64d1d9567648d5e196dd650baf748379e4a738911735b4ba05b0a2",
                        "0337d4c43effac1987f0b1dcad967364c8357281b834ba09bdbbb7af2e92e160"),
}


@pytest.fixture(scope="module")
def tables(kpk6, krk8, kqkr34):
    return {"KPvK-6x6": kpk6, "KRvK-8x8": krk8, "KQvKR-3x4": kqkr34}


@pytest.fixture(scope="module")
def table_files(tables, tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    files = {}
    for name, table in tables.items():
        files[name] = root / f"{name}.ctb"
        table.save(files[name])
    return files


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PATHS))
def test_path_csv_is_pinned(name, table_files, tmp_path):
    fen, digest = PATHS[name]
    out = tmp_path / "path.csv"
    assert main(["path", "--tb", str(table_files[name]), "--fen", fen, "--out", str(out)]) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("name,seed", sorted(EXPERIMENTS))
def test_experiment_outputs_are_pinned(name, seed, table_files, tmp_path):
    out = tmp_path / "experiment"
    argv = ["experiment", "--tb", str(table_files[name]), "--sample", "40", "--seed", str(seed),
            "--out", str(out)]
    assert main(argv) == 0
    assert (sha256(out / "report.json"), sha256(out / "records.csv")) == EXPERIMENTS[name, seed]


@pytest.mark.parametrize("name", sorted(PATHS))
def test_every_playout_step_is_the_rules_successor(name, tables):
    # Each step's Position, ep_square and ply_index included, is the one
    # legal_transitions gives for its move, and the line ends in checkmate.
    table = tables[name]
    fen, _ = PATHS[name]
    rng = random.Random(7)
    starts = [sg.parse_fen(fen, table.material.spec)] + [
        sg.position_at(idx, table.material)
        for idx in rng.sample(table.decisive_indices().tolist(), 30)
    ]
    for start in starts:
        line = sg.generate_playout(start, table)
        previous = line.initial
        for step in line.steps:
            assert dict(sg.legal_transitions(previous))[step.move] == step.position
            previous = step.position
        assert sg.outcome(previous) is line.terminal is sg.Outcome.CHECKMATE
    pinned = sg.generate_playout(starts[0], table).steps
    if name.startswith("KPvK"):
        assert any(step.position.ep_square is not None for step in pinned)
        assert any(step.move.promotion is not None for step in pinned)
