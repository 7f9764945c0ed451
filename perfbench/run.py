"""strategia benchmark: single-process workloads, end to end and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

NAME is one of WORKLOADS or ``all``. Every command runs in its own
cold child process (perfbench/child.py) with one worker, one caller at
a time, so each workload is a closed loop with a single client. Set-up
runs first; then whole passes of the workload's commands repeat until
``--seconds`` have been measured (at least one pass). With ``--trace 1``
set-up is followed by one untraced and one traced pass, and the per-layer
metrics come from the traced one.

Every output is checked: table files against pinned CRCs and counts,
playouts against distances read from the table file by the benchmark's
own reader (perfbench/ctb.py), experiment reports and sweep CSVs
against invariants and, for pinned seeds, against pinned digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it print every metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import ctb

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
PINS = BENCH / "pins.json"
RUN_DEADLINE_S = 170.0
IMPORT_PROBES = 9
CAPACITIES = range(17)  # evalprobe --capacity-sweep 0..16
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    board: str
    material: str
    solve_in_setup: bool  # True: set-up solves the table; False: every pass solves it
    playouts: int  # API playouts per pass, from starts drawn on the set-up table
    bases: int  # experiment --sample per pass
    samples: int  # evalprobe --train-sample and --eval-sample per pass


WORKLOADS = {w.name: w for w in (
    Workload("solve-krk8", "cold KRvK 8x8 solve: move generation, index build and fixpoint",
             "8x8", "KRvK", False, 0, 0, 0),
    Workload("analysis-krk8", "lookups on a loaded KRvK 8x8 table: playouts, experiment, evalprobe",
             "8x8", "KRvK", True, 500, 40, 20000),
    Workload("pawn-kpk6", "KPvK 6x6 closure solve, then experiment with hidden subclass solves",
             "6x6", "KPvK", False, 0, 40, 20000),
)}

# End-to-end metrics printed in the JSON line of an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metrics printed in the JSON line of a traced run.
TIMED_LAYERS = (
    "board.legal_transitions",
    "tablebase.solve",
    "tablebase.material_key_of",
    "tablebase.index_of",
    "tablebase.probe",
    "tablebase.resolve",
    "tablebase.position_at",
    "encoding.encode",
    "playout.generate_playout",
    "playout.policy_step",
    "dynamics.perturbations",
    "dynamics.divergence",
    "dynamics.is_atypical",
    "evalprobe.extract_features",
    "evalprobe.build_dtm_dataset",
    "evalprobe.LinearEvaluator.fit",
)
PER_LAYER = tuple(
    metric for layer in TIMED_LAYERS
    for metric in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s"))
) + (
    ("tablebase.legal_ratio", "ratio"),
    ("tablebase.ondemand_solves", "count"),
    ("tablebase.ondemand_solve_s", "s"),
    ("tablebase.load.s", "s"),
    ("tablebase.load.bytes", "bytes"),
    ("playout.plies", "count"),
    ("playout.probes_per_ply", "ratio"),
    ("dynamics.pairs", "count"),
    ("dynamics.merged_pair_ratio", "ratio"),
    ("cli.main.self_s", "s"),
    ("runio.write_s", "s"),
    ("runio.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_s", "s"),
)

# The per-command metrics, printed for every workload (n=0 where a
# workload does not run the command).
NAMED = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("playout_ms", "ms"),
    ("playout_plies_per_s", "1/s"),
    ("experiment_s", "s"),
    ("evalprobe_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("failed_ratio", "ratio"),
)


class Run:
    """State of one benchmark run: work directory, tallies and records."""

    def __init__(self, workload, seed, pins, work):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.commands = []
        self.table = None
        self.starts = None
        self.first_digests = {}

    def check(self, ok, what):
        """Count one operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def command(self, label, pass_no, args, trace=False):
        """Run child.py with args in a fresh process; wall time and peak RSS."""
        trace_path = self.work / f"{label}-{pass_no}.trace.json"
        argv = [sys.executable, str(CHILD)]
        if trace:
            argv += ["--trace", str(trace_path)]
        argv += args
        env = dict(os.environ, **CHILD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        status = []
        with open(self.work / f"{label}.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=self.work)
            waiter = threading.Thread(target=lambda: status.append(os.wait4(proc.pid, 0)))
            waiter.start()
            waiter.join(max(1.0, self.deadline - time.monotonic()))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
            wall = time.perf_counter() - start
        _, raw_status, usage = status[0]
        proc.returncode = os.waitstatus_to_exitcode(raw_status)
        record = {
            "label": label,
            "pass": pass_no,
            "traced": trace,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
        }
        if trace and proc.returncode == 0:
            with open(trace_path, encoding="utf-8") as handle:
                record["trace"] = json.load(handle)
        self.commands.append(record)
        self.check(proc.returncode == 0, f"{label} (pass {pass_no}) exited {proc.returncode}")
        return record

    # -- outputs and their checks -------------------------------------

    def read_table(self, path):
        """Read a solved table with the benchmark's own reader and check its pins."""
        w = self.workload
        try:
            table = ctb.Table.read(path)
        except (OSError, ctb.TableFileError) as exc:
            self.check(False, f"table {path.name}: {exc}")
            return None
        pin = self.pins.get("tables", {}).get(f"{w.material}-{w.board}")
        counts = table.counts()
        ok = table.material == w.material
        if pin is not None:
            ok = ok and f"{table.crc32:08x}" == pin["crc32"] and all(
                counts[key] == pin[key] for key in ("legal", "invalid", "max_dtm"))
        self.check(ok, f"table {table.material} crc {table.crc32:08x} counts {counts} "
                       f"do not match pin {pin}")
        return table

    def seeded_starts(self, table):
        """Decisive playout starts drawn from the seed, valued by the benchmark's reader."""
        rng = random.Random(self.seed)
        starts = []
        while len(starts) < self.workload.playouts:
            squares = rng.sample(range(table.squares), len(table.pieces))
            side = rng.randrange(2)
            wdl, dtm = table.value(table.index(squares, side))
            if wdl in (ctb.WIN, ctb.LOSS):
                starts.append((squares, side, dtm))
        return starts

    def check_playouts(self, table, result_path):
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        for i, (squares, side, dtm) in enumerate(self.starts):
            final_placement, final_side = result["finals"][i]
            final = table.squares_of(final_placement)
            mated = final is None or table.value(table.index(final, final_side)) == (ctb.LOSS, 0)
            self.check(
                result["plies"][i] == dtm and result["mates"][i] and mated,
                f"playout {i}: {result['plies'][i]} plies, table dtm {dtm}, "
                f"checkmate {result['mates'][i]}, final valued as mate {mated}")
        return result

    def check_digests(self, digests, pass_no):
        """Outputs must repeat across passes and match the pins of a recorded seed."""
        pinned = self.pins.get("outputs", {}).get(self.workload.name, {}).get(str(self.seed), {})
        for name, digest in digests.items():
            first = self.first_digests.setdefault(name, digest)
            self.check(first == digest, f"{name} differs between passes")
            if name in pinned:
                self.check(pinned[name] == digest,
                           f"{name} digest {digest} does not match pin {pinned[name]}")

    def check_experiment(self, table, out_dir, pass_no):
        report_bytes = (out_dir / "report.json").read_bytes()
        records_bytes = (out_dir / "records.csv").read_bytes()
        counts = json.loads(report_bytes)["counts"]
        rows = list(csv.DictReader(records_bytes.decode("utf-8").splitlines()))
        decisive = table.counts()["decisive"]
        ok = (
            counts["bases"] == min(self.workload.bases, decisive)
            and counts["same_winner"] + counts["outcome_flip"] + counts["draw_involved"]
            == counts["pairs_total"]
            and counts["merged_pairs"] + counts["short_prefix_pairs"] + counts["lambda_count"]
            == counts["same_winner"]
            and len(rows) == counts["pairs_total"]
        )
        for row in rows:
            for side in ("base", "perturbed"):
                wdl, dtm = table.value(int(row[f"{side}_index"]))
                ok = ok and ctb.WDL_NAMES.get(wdl) == row[f"{side}_wdl"] and (
                    "" if dtm is None else str(dtm)) == row[f"{side}_dtm"]
        self.check(ok, f"experiment report (pass {pass_no}) breaks an invariant: {counts}")
        self.check_digests({"report.json": sha256(report_bytes),
                            "records.csv": sha256(records_bytes)}, pass_no)
        return counts

    def check_sweep(self, table, path, pass_no):
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        size = min(self.workload.samples, table.counts()["decisive"])
        body = rows[1:]
        ok = [int(r[0]) for r in body] == list(CAPACITIES) and all(
            int(r[4]) == size and int(r[5]) == size and 0.0 <= float(r[3]) <= 1.0
            and all(math.isfinite(float(v)) for v in r[1:4]) for r in body)
        self.check(ok, f"sweep CSV (pass {pass_no}) breaks an invariant")
        # lstsq goes through BLAS, whose last bits may differ between CPU
        # kernels; the digest therefore covers floats at 10 significant digits.
        text = "\n".join(",".join(_round_field(v) for v in r) for r in rows)
        self.check_digests({"sweep.csv@10g": sha256(text.encode("utf-8"))}, pass_no)

    # -- set-up and passes --------------------------------------------

    def setup(self):
        """Set-up seconds: the table solve, or the median cold start of the CLI."""
        w = self.workload
        if w.solve_in_setup:
            start = time.perf_counter()
            path = self.work / "setup.ctb"
            self.command("setup-solve", 0, ["cli", "solve", "--board", w.board,
                                            "--material", w.material, "--out", str(path)])
            self.table = self.read_table(path)
            if self.table is not None and w.playouts:
                self.starts = self.seeded_starts(self.table)
            return [time.perf_counter() - start]
        return [self.command("setup-import", 0, ["cli", "--version"])["wall_s"]
                for _ in range(IMPORT_PROBES)]

    def run_pass(self, pass_no, trace):
        """One pass of the workload's commands; returns their command records."""
        w = self.workload
        pass_dir = self.work / f"pass{pass_no}"
        pass_dir.mkdir()
        table, path = self.table, self.work / "setup.ctb"
        first = len(self.commands)
        if not w.solve_in_setup:
            path = pass_dir / "table.ctb"
            record = self.command("solve", pass_no, ["cli", "solve", "--board", w.board,
                                                     "--material", w.material,
                                                     "--out", str(path)], trace)
            table = self.read_table(path) if record["exit"] == 0 else None
        if table is None:
            return self.commands[first:]
        if w.playouts:
            job, result = pass_dir / "playouts.json", pass_dir / "playouts.result.json"
            with open(job, "w", encoding="utf-8") as handle:
                json.dump({"tb": str(path), "board": [table.width, table.height],
                           "starts": [[table.cells(sq), side] for sq, side, _ in self.starts]},
                          handle)
            record = self.command("playouts", pass_no, ["playouts", str(job), str(result)], trace)
            if record["exit"] == 0:
                record["playouts"] = self.check_playouts(table, result)
        if w.bases:
            out_dir = pass_dir / "experiment"
            record = self.command("experiment", pass_no, [
                "cli", "experiment", "--tb", str(path), "--sample", str(w.bases),
                "--seed", str(self.seed), "--out", str(out_dir)], trace)
            if record["exit"] == 0:
                record["counts"] = self.check_experiment(table, out_dir, pass_no)
        if w.samples:
            sweep = pass_dir / "sweep.csv"
            record = self.command("evalprobe", pass_no, [
                "cli", "evalprobe", "--tb", str(path), "--capacity-sweep",
                f"{CAPACITIES[0]}..{CAPACITIES[-1]}",
                "--seed", str(self.seed), "--train-sample", str(w.samples),
                "--eval-sample", str(w.samples), "--out", str(sweep)], trace)
            if record["exit"] == 0:
                self.check_sweep(table, sweep, pass_no)
        return self.commands[first:]


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _round_field(text: str) -> str:
    try:
        return text if text.lstrip("-").isdigit() else format(float(text), ".10g")
    except ValueError:
        return text


def summary(values) -> dict:
    """Median plus the highest of p90/p95/p99 with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    ordered = sorted(values)
    for pct in (99, 95, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            rank = max(0, math.ceil(len(ordered) * pct / 100) - 1)
            out[f"p{pct}"] = ordered[rank]
            break
    return out


def named_metrics(bench, setup_times, passes) -> dict:
    """The per-command metrics over the untraced passes."""
    measured = [c for p in passes for c in p]

    def walls(label):
        return summary([c["wall_s"] for c in measured if c["label"] == label])

    playout_ms, plies, busy = [], 0, 0.0
    for c in measured:
        if "playouts" in c:
            playout_ms += [s * 1000.0 for s in c["playouts"]["seconds"]]
            plies += sum(c["playouts"]["plies"])
            busy += sum(c["playouts"]["seconds"])
    return {
        "setup_s": summary(setup_times),
        "solve_s": walls("solve"),
        "playout_ms": summary(playout_ms),
        "playout_plies_per_s": {"n": len(playout_ms), "median": plies / busy if busy else None},
        "experiment_s": walls("experiment"),
        "evalprobe_s": walls("evalprobe"),
        "peak_rss_mib": {"n": len(measured),
                         "median": max((c["rss_mib"] for c in measured), default=None)},
        "failed_ratio": {"n": bench.attempted,
                         "median": bench.failed / max(bench.attempted, 1)},
    }


def layer_metrics(traced, untraced) -> tuple:
    """Per-layer metrics from the traced pass, and per-command trace accounting."""
    calls, self_s, total_s, ondemand = {}, {}, {}, [0, 0.0]
    counters, solved = {}, {}
    accounting = []
    resolves_in_playouts = 0
    untraced_wall = {c["label"]: c["wall_s"] for c in untraced}
    for command in traced:
        trace = command.get("trace")
        if trace is None:
            continue
        top = 0.0
        for name, parent, n, total, own in trace["agg"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + total
            if parent is None:
                top += total
            if name == "tablebase.solve" and parent == "tablebase.resolve":
                ondemand[0] += n
                ondemand[1] += total
            if name == "tablebase.resolve" and parent in ("playout.policy_step",
                                                          "playout.generate_playout"):
                resolves_in_playouts += n
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for material, sizes in trace["solved"].items():
            solved[(command["label"], material)] = sizes
        own_sum = sum(row[4] for row in trace["agg"])
        accounting.append({
            "command": command["label"],
            "wall_s": command["wall_s"],
            "traced_s": top,
            "untraced_s": command["wall_s"] - top,
            "self_sum_s": own_sum,
            "overhead_s": command["wall_s"] - untraced_wall.get(command["label"], math.nan),
            "consistent": abs(own_sum - top) <= 1e-6 * max(1.0, top)
            and top <= command["wall_s"]
            and all(row[4] >= -1e-6 for row in trace["agg"]),
        })
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    legal = sum(sizes[0] for sizes in solved.values())
    space = sum(sizes[1] for sizes in solved.values())
    plies = counters.get("playout.plies", 0)
    pairs = counters.get("dynamics.pairs", 0)
    metrics.update({
        "tablebase.legal_ratio": legal / space if space else 0.0,
        "tablebase.ondemand_solves": ondemand[0],
        "tablebase.ondemand_solve_s": ondemand[1],
        "tablebase.load.s": total_s.get("tablebase.load", 0.0),
        "tablebase.load.bytes": counters.get("tablebase.load.bytes", 0),
        "playout.plies": plies,
        "playout.probes_per_ply": resolves_in_playouts / plies if plies else 0.0,
        "dynamics.pairs": pairs,
        "dynamics.merged_pair_ratio": counters.get("dynamics.merged_pairs", 0) / pairs
        if pairs else 0.0,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "runio.write_s": sum(v for k, v in self_s.items() if k.startswith("runio.")),
        "runio.bytes_written": counters.get("runio.bytes_written", 0),
        "trace.overhead_s": sum(c["wall_s"] for c in traced) - sum(c["wall_s"] for c in untraced),
        "trace.untraced_s": sum(a["untraced_s"] for a in accounting),
    })
    return metrics, accounting


def run(workload, seed, seconds, trace, pins) -> dict:
    """Run one workload; returns the full result record."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}-{time.time_ns()}"
    work.mkdir()
    try:
        bench = Run(workload, seed, pins, work)
        setup_times = bench.setup()
        passes = []
        if bench.failed == 0:
            if trace:
                passes.append(bench.run_pass(1, trace=False))
                traced = bench.run_pass(2, trace=True)
            else:
                start = time.perf_counter()
                while not passes or time.perf_counter() - start < seconds:
                    passes.append(bench.run_pass(len(passes) + 1, trace=False))
        record = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(bool(trace)),
            "machine": machine(),
            "correct": False,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "problems": bench.problems,
            "digests": bench.first_digests,
            "named": named_metrics(bench, setup_times, passes),
            "commands": [{k: v for k, v in c.items() if k not in ("trace", "playouts")}
                         for c in bench.commands],
        }
        if bench.failed:
            return record
        if trace:
            metrics, accounting = layer_metrics(traced, passes[0])
            for row in accounting:
                bench.check(row["consistent"], f"trace of {row['command']} does not add up")
            record["accounting"] = accounting
            record["metrics"] = {name: {"value": metrics[name], "unit": unit}
                                 for name, unit in PER_LAYER}
        else:
            pass_walls = [sum(c["wall_s"] for c in p) for p in passes]
            values = {
                "setup_s": statistics.median(setup_times),
                "pass_s": statistics.median(pass_walls),
                "peak_rss_mib": record["named"]["peak_rss_mib"]["median"],
            }
            record["metrics"] = {name: {"value": values[name], "unit": unit}
                                 for name, unit in END_TO_END}
            record["pass_walls"] = pass_walls
        record["attempted"], record["failed"] = bench.attempted, bench.failed
        record["named"]["failed_ratio"]["median"] = bench.failed / bench.attempted
        record["correct"] = bench.failed == 0
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def machine() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "strategia").glob("*.py")):
        src.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "child_env": CHILD_ENV,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def print_record(record, out=sys.stdout) -> None:
    name = record["workload"]
    print(f"# workload={name} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}", file=out)
    print(f"# machine={json.dumps(record['machine'], sort_keys=True)}", file=out)
    units = dict(NAMED)
    for metric, stats in record["named"].items():
        unit = units[metric]
        if stats["median"] is None:
            print(f"{name:<14} {metric:<22} {'-':>14} {unit:<6} n=0", file=out)
            continue
        label = "playout_ms_p50" if metric == "playout_ms" else metric
        print(f"{name:<14} {label:<22} {stats['median']:>14.6g} {unit:<6} n={stats['n']}",
              file=out)
        for key in ("p99", "p95", "p90"):
            if key in stats:
                print(f"{name:<14} {metric + '_' + key:<22} {stats[key]:>14.6g} {unit:<6} "
                      f"n={stats['n']}", file=out)
    for row in record.get("accounting", ()):
        print(f"# trace {row['command']}: wall {row['wall_s']:.4f} s, traced spans "
              f"{row['traced_s']:.4f} s, untraced remainder {row['untraced_s']:.4f} s, "
              f"overhead {row['overhead_s']:.4f} s", file=out)
    for metric, value in record.get("metrics", {}).items():
        print(f"{name:<14} {metric:<36} {value['value']:>14.6g} {value['unit']}", file=out)
    for problem in record["problems"]:
        print(f"# FAILED: {problem}", file=out)


def result_line(record) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record.get("metrics", {}),
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record(s) as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strategia" / "cli.py").is_file():
        print(f"error: no strategia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run(WORKLOADS[name], args.seed, args.seconds, args.trace, pins)
        print_record(record)
        records.append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(records if len(records) > 1 else records[0], handle, indent=1)
            handle.write("\n")
    if len(records) == 1:
        print(result_line(records[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}/{k}": v for r in records
                        for k, v in r.get("metrics", {}).items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
