"""Command-line surface: solve, probe, path, perturb, experiment, evalprobe, atypical, info.

All flags are long-form. Exit codes: 0 success, 2 bad command line,
3 validation failure, 4 memory-budget refusal, 5 I/O failure. Data
outputs are deterministic for fixed inputs and seeds; every artifact
gets an append-only manifest next to it.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from pathlib import Path

from . import __version__
from .board import BoardSpec, square_name
from .dynamics import (
    DEFAULT_THRESHOLDS,
    AtypicalityThresholds,
    is_atypical,
    perturbations,
    sample_experiment,
)
from .encoding import Mode
from .errors import BudgetExceededError, StrategiaError, UnsupportedCaseError, ValidationError
from .evalprobe import DEFAULT_FEATURE_CHAIN, capacity_sweep, write_sweep_csv
from .fen import format_fen, parse_fen
from .playout import generate_playout, write_playout_csv
from .runio import (
    append_manifest,
    atomic_write_group,
    atomic_write_text,
    check_out,
    manifest_entry,
    sidecar_manifest_path,
)
from .tablebase import MaterialClass, Tablebase, Wdl, _closure, index_of, material_key_of, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_IO = 5

_BOARD_RE = re.compile(r"^([0-9]+)x([0-9]+)$")


def _parse_board(text: str) -> BoardSpec:
    match = _BOARD_RE.match(text)
    if not match:
        raise ValidationError(f"--board must look like 8x8, got {text!r}")
    try:
        width, height = int(match.group(1)), int(match.group(2))
    except ValueError:  # more digits than int() converts
        raise ValidationError("--board must look like 8x8, got a side too long to read") from None
    return BoardSpec(width, height)


def _parse_thresholds(path) -> AtypicalityThresholds:
    if path is None:
        return DEFAULT_THRESHOLDS
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise ValidationError(f"thresholds file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("thresholds file must hold a JSON object")
    known = {"depletion_max_pieces", "forced_mate_max_dtm", "material_gap_min"}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown threshold keys: {sorted(unknown)}")
    return AtypicalityThresholds(**{**DEFAULT_THRESHOLDS.as_dict(), **raw})


def _parse_capacity_range(text: str, feature_count: int) -> list:
    """The capacities lo..hi of `text`, its bound checked against `feature_count` before any is listed."""
    match = re.match(r"^([0-9]+)\.\.([0-9]+)$", text)
    if not match:
        raise ValidationError(f"--capacity-sweep must look like 0..16, got {text!r}")
    try:
        lo, hi = int(match.group(1)), int(match.group(2))
    except ValueError:  # more digits than int() converts
        raise ValidationError(f"capacity sweep exceeds feature count {feature_count}") from None
    if lo > hi:
        raise ValidationError("capacity sweep range is empty")
    if hi > feature_count:
        raise ValidationError(f"capacity sweep exceeds feature count {feature_count}")
    return list(range(lo, hi + 1))


def _stderr(message: str) -> None:
    print(message, file=sys.stderr)


def _log_run(manifest_path, argv, config: dict, table: Tablebase, seed=None) -> None:
    """Append the manifest entry of a run that read or wrote `table`."""
    entry = manifest_entry(
        argv, config, seed=seed, tablebase_checksum=table.checksum, version=__version__
    )
    append_manifest(manifest_path, entry)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategia",
        description="Exact endgame solving and strategy-dynamics experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="retrograde-solve a material class to a table file")
    p.add_argument("--board", required=True, help="board size, e.g. 8x8")
    p.add_argument("--material", required=True, help="material class, e.g. KRvK")
    p.add_argument("--out", required=True, help="output tablebase file")

    p = sub.add_parser("probe", help="look up one position in a table")
    p.add_argument("--tb", required=True)
    p.add_argument("--fen", required=True)

    p = sub.add_parser("path", help="generate the optimal playout from a position")
    p.add_argument("--tb", required=True)
    p.add_argument("--fen", required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.AUGMENTED.value)
    p.add_argument("--out", required=True, help="output CSV file")

    p = sub.add_parser("perturb", help="enumerate one-step relocations and their values")
    p.add_argument("--tb", required=True)
    p.add_argument("--fen", required=True)
    p.add_argument("--out", help="optional CSV file; default prints to stdout")

    p = sub.add_parser("experiment", help="seeded divergence experiment over sampled bases")
    p.add_argument("--tb", required=True)
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--thresholds", help="JSON file overriding atypicality thresholds")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.AUGMENTED.value)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("evalprobe", help="capacity sweep of linear evaluators vs table truth")
    p.add_argument("--tb", required=True)
    p.add_argument("--features", default="default",
                   help="comma-separated feature names, or 'default'")
    p.add_argument("--capacity-sweep", required=True, help="range like 0..16")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-sample", type=int, help="cap the training set size")
    p.add_argument("--eval-sample", type=int, help="cap the evaluation set size")
    p.add_argument("--out", required=True, help="output CSV file")

    p = sub.add_parser("atypical", help="classify a position against the atypicality conditions")
    p.add_argument("--tb", required=True)
    p.add_argument("--fen", required=True)
    p.add_argument("--thresholds")

    p = sub.add_parser("info", help="print table header and label counts")
    p.add_argument("--tb", required=True)

    return parser


def _cmd_solve(args, argv) -> int:
    check_out(args.out)
    spec = _parse_board(args.board)
    material = MaterialClass.from_string(args.material, spec)
    table = solve(material, progress=_stderr)
    table.save(args.out)
    config = {"board": args.board, "material": args.material}
    _log_run(sidecar_manifest_path(args.out), argv, config, table)
    counts = table.counts()
    print(
        f"solved {material.name} on {args.board}: {counts['win']} wins, "
        f"{counts['draw']} draws, {counts['loss']} losses, max dtm {counts['max_dtm']}"
    )
    return EXIT_OK


def _cmd_probe(args, argv) -> int:
    table = Tablebase.load(args.tb)
    pos = parse_fen(args.fen, table.material.spec)
    idx = index_of(pos, table.material)
    value = table.value_at(idx)
    dtm = "-" if value.dtm is None else value.dtm
    print(f"material={table.material.name} index={idx} wdl={value.wdl.name.lower()} dtm={dtm}")
    return EXIT_OK


def _cmd_path(args, argv) -> int:
    check_out(args.out)
    table = line_table = Tablebase.load(args.tb)
    pos = parse_fen(args.fen, table.material.spec)
    # A line stays in its start's closure; the lookup names a class outside the table's.
    key = material_key_of(pos)
    subclasses = {material.key: material for material in _closure(table.material)[:-1]}
    if key in subclasses:
        line_table = solve(subclasses[key], progress=_stderr)
    elif key == table.material.key:
        if not table.probe(pos).is_decisive:
            raise UnsupportedCaseError("cannot generate a playout from a drawn position")
        table.solve_subclasses(progress=_stderr)
    playout = generate_playout(pos, line_table, Mode(args.mode))
    buffer = io.StringIO()
    write_playout_csv(playout, buffer)
    atomic_write_text(args.out, buffer.getvalue())
    _log_run(sidecar_manifest_path(args.out), argv, {"fen": args.fen, "mode": args.mode}, table)
    print(f"playout: {playout.plies} plies to {playout.terminal.name.lower()}")
    return EXIT_OK


def _cmd_perturb(args, argv) -> int:
    if args.out:
        check_out(args.out)
    table = Tablebase.load(args.tb)
    pos = parse_fen(args.fen, table.material.spec)
    base_value = table.probe(pos)
    width = pos.spec.width
    lines = ["perturb_from,perturb_to,perturbed_fen,wdl,dtm,winner_flipped"]
    for perturbation in perturbations(pos):
        value = table.probe(perturbation.perturbed)
        flipped = (
            value.is_decisive
            and base_value.is_decisive
            and (value.wdl is Wdl.WIN) != (base_value.wdl is Wdl.WIN)
        )
        lines.append(
            ",".join(
                [
                    square_name(perturbation.moved_from, width),
                    square_name(perturbation.moved_to, width),
                    format_fen(perturbation.perturbed),
                    value.wdl.name.lower(),
                    "" if value.dtm is None else str(value.dtm),
                    str(flipped).lower(),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        _log_run(sidecar_manifest_path(args.out), argv, {"fen": args.fen}, table)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_experiment(args, argv) -> int:
    check_out(args.out, directory=True)
    thresholds = _parse_thresholds(args.thresholds)
    if args.sample < 1:
        raise ValidationError(f"--sample must be at least 1, got {args.sample}")
    table = Tablebase.load(args.tb)
    table.solve_subclasses(progress=_stderr)
    report = sample_experiment(
        table,
        args.sample,
        args.seed,
        thresholds=thresholds,
        mode=Mode(args.mode),
        progress=_stderr,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = io.StringIO()
    report.write_records_csv(records)
    atomic_write_group(
        [
            (out_dir / "report.json", report.json_text()),
            (out_dir / "records.csv", records.getvalue()),
        ]
    )
    config = {
        "sample": args.sample,
        "seed": args.seed,
        "mode": args.mode,
        "thresholds": thresholds.as_dict(),
    }
    _log_run(out_dir / "manifest.jsonl", argv, config, table, seed=args.seed)
    print(
        f"experiment: {report.counts['pairs_total']} pairs from "
        f"{report.counts['bases']} bases -> {out_dir}"
    )
    return EXIT_OK


def _cmd_evalprobe(args, argv) -> int:
    check_out(args.out)
    table = Tablebase.load(args.tb)
    if args.features == "default":
        features = DEFAULT_FEATURE_CHAIN
    else:
        features = tuple(name.strip() for name in args.features.split(",") if name.strip())
    capacities = _parse_capacity_range(args.capacity_sweep, len(features))
    rows = capacity_sweep(
        table,
        capacities,
        features=features,
        train_sample=args.train_sample,
        eval_sample=args.eval_sample,
        seed=args.seed,
    )
    buffer = io.StringIO()
    write_sweep_csv(rows, buffer)
    atomic_write_text(args.out, buffer.getvalue())
    config = {
        "features": list(features),
        "capacities": capacities,
        "seed": args.seed,
        "train_sample": args.train_sample,
        "eval_sample": args.eval_sample,
    }
    _log_run(sidecar_manifest_path(args.out), argv, config, table, seed=args.seed)
    print(f"evalprobe: {len(rows)} capacities -> {args.out}")
    return EXIT_OK


def _cmd_atypical(args, argv) -> int:
    table = Tablebase.load(args.tb)
    pos = parse_fen(args.fen, table.material.spec)
    thresholds = _parse_thresholds(args.thresholds)
    result = is_atypical(pos, table, thresholds)
    verdict = "atypical" if result.atypical else "typical"
    reasons = ",".join(result.reasons) if result.reasons else "-"
    dtm = "-" if result.dtm is None else result.dtm
    print(
        f"{verdict} reasons={reasons} pieces={result.piece_count} "
        f"dtm={dtm} material_gap={result.material_gap}"
    )
    return EXIT_OK


def _cmd_info(args, argv) -> int:
    table = Tablebase.load(args.tb)
    counts = table.counts()
    mc = table.material
    print(f"material={mc.name} board={mc.spec.width}x{mc.spec.height}")
    print(f"pieces={''.join(p.letter for p in mc.pieces)}")
    print(f"entries={counts['entries']} invalid={counts['invalid']}")
    print(f"win={counts['win']} draw={counts['draw']} loss={counts['loss']}")
    print(f"max_dtm={counts['max_dtm']}")
    print(f"checksum=crc32:{table.checksum:08x}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "probe": _cmd_probe,
    "path": _cmd_path,
    "perturb": _cmd_perturb,
    "experiment": _cmd_experiment,
    "evalprobe": _cmd_evalprobe,
    "atypical": _cmd_atypical,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, ["strategia"] + argv)
    except BudgetExceededError as exc:
        _stderr(f"error: budget: {exc}")
        return EXIT_BUDGET
    except StrategiaError as exc:
        _stderr(f"error: {type(exc).__name__}: {exc}")
        return EXIT_VALIDATION
    except OSError as exc:
        _stderr(f"error: io: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
