"""One measured command, run in its own process by perfbench/run.py.

    child.py [--trace FILE] cli <strategia arguments...>
    child.py [--trace FILE] playouts JOB.json RESULT.json

``cli`` runs ``strategia.cli.main`` exactly as the ``strategia``
console script does. ``playouts`` loads a table the way the CLI does
and times ``generate_playout`` from each start in the job, one by one.
With ``--trace`` the span tracer is installed before the command runs
and its record is written to FILE afterwards.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def run_playouts(job_path, result_path) -> int:
    from strategia import playout, tablebase
    from strategia.board import BoardSpec, Color, Outcome, Position
    from strategia.encoding import Mode

    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    table = tablebase.Tablebase.load(job["tb"])
    spec = BoardSpec(*job["board"])
    starts = []
    for cells, side in job["starts"]:
        placement = [0] * spec.num_squares
        for square, cell in cells:
            placement[square] = cell
        starts.append(Position(spec=spec, placement=tuple(placement),
                               side_to_move=Color(side), ply_index=side))
    clock = time.perf_counter
    seconds, plies, mates, finals = [], [], [], []
    for pos in starts:
        t0 = clock()
        line = playout.generate_playout(pos, table, Mode.AUGMENTED)
        seconds.append(clock() - t0)
        plies.append(line.plies)
        mates.append(line.terminal is Outcome.CHECKMATE)
        final = line.final_position
        finals.append([list(final.placement), final.side_to_move.value])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"seconds": seconds, "plies": plies, "mates": mates, "finals": finals}, handle)
    return 0


def main(argv) -> int:
    trace_path = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    import strategia.cli

    tracer = None
    if trace_path:
        tracer = spans.Tracer()
        tracer.install()
    if kind == "cli":
        code = strategia.cli.main(rest)
    elif kind == "playouts":
        code = run_playouts(*rest)
    else:
        raise SystemExit(f"unknown command kind {kind!r}")
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
