"""Span tracing of strategia's public functions, installed from outside.

The tracer wraps each traced function and rebinds the wrapper in every
``strategia.*`` module that holds the function under any name, because
``from .board import legal_transitions`` makes ``strategia.tablebase``
and ``strategia.playout`` call their own bindings. Methods are wrapped
on their class. Nothing in ``src/`` is edited.

Each call records its name, start, end and parent (the innermost open
span). Functions called 10^5-10^6 times are aggregated in memory per
(name, parent) as calls, total seconds and self seconds, where self
time is the span minus the time its child spans cover. Rare calls
(``keep=True``) are also kept as individual spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name, keep individual spans)
FUNCTIONS = (
    ("strategia.board", "legal_transitions", "board.legal_transitions", False),
    ("strategia.tablebase", "solve", "tablebase.solve", True),
    ("strategia.tablebase", "material_key_of", "tablebase.material_key_of", False),
    ("strategia.tablebase", "index_of", "tablebase.index_of", False),
    ("strategia.tablebase", "position_at", "tablebase.position_at", False),
    ("strategia.encoding", "encode", "encoding.encode", False),
    ("strategia.playout", "policy_step", "playout.policy_step", False),
    ("strategia.playout", "generate_playout", "playout.generate_playout", False),
    ("strategia.dynamics", "perturbations", "dynamics.perturbations", False),
    ("strategia.dynamics", "divergence", "dynamics.divergence", False),
    ("strategia.dynamics", "is_atypical", "dynamics.is_atypical", False),
    ("strategia.dynamics", "sample_experiment", "dynamics.sample_experiment", True),
    ("strategia.evalprobe", "extract_features", "evalprobe.extract_features", False),
    ("strategia.evalprobe", "build_dtm_dataset", "evalprobe.build_dtm_dataset", True),
    ("strategia.cli", "main", "cli.main", True),
    ("strategia.runio", "atomic_write_bytes", "runio.atomic_write_bytes", True),
    ("strategia.runio", "atomic_write_group", "runio.atomic_write_group", True),
    ("strategia.runio", "append_manifest", "runio.append_manifest", True),
)

# (module, class, method, span name, keep individual spans)
METHODS = (
    ("strategia.tablebase", "Tablebase", "probe", "tablebase.probe", False),
    ("strategia.tablebase", "Tablebase", "resolve", "tablebase.resolve", False),
    ("strategia.tablebase", "Tablebase", "load", "tablebase.load", True),
    ("strategia.evalprobe", "LinearEvaluator", "fit", "evalprobe.LinearEvaluator.fit", True),
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans as [name, seconds covered by children]
        self.agg = {}  # (name, parent) -> [calls, total_s, self_s]
        self.spans = []  # (name, parent, start, end) of keep=True calls
        self.counters = {}
        self.solved = {}  # material name -> (legal, index size)
        self._hooks = {
            "tablebase.solve": self._on_solve,
            "tablebase.load": self._on_load,
            "playout.generate_playout": self._on_playout,
            "dynamics.sample_experiment": self._on_experiment,
            "runio.atomic_write_bytes": self._on_write_bytes,
            "runio.atomic_write_group": self._on_write_group,
            "runio.append_manifest": self._on_manifest,
        }

    def wrap(self, name, fn, keep=False):
        stack, agg, spans = self.stack, self.agg, self.spans
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                rec = agg.get((name, parent))
                if rec is None:
                    agg[(name, parent)] = [1, elapsed, elapsed - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]
                if keep:
                    spans.append((name, parent, start, end))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "strategia" or key.startswith("strategia.")]
        for module_name, attr, name, keep in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for module_name, cls_name, attr, name, keep in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, keep)))
            else:
                setattr(cls, attr, self.wrap(name, raw, keep))

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_solve(self, args, table):
        if table.stats is not None:
            self.solved[table.material.name] = (table.stats.legal, table.material.index_size)

    def _on_load(self, args, table):
        self.count("tablebase.load.bytes", os.path.getsize(args[1]))

    def _on_playout(self, args, playout):
        self.count("playout.plies", playout.plies)

    def _on_experiment(self, args, report):
        self.count("dynamics.pairs", report.counts["pairs_total"])
        self.count("dynamics.merged_pairs", report.counts["merged_pairs"])

    def _on_write_bytes(self, args, result):
        self.count("runio.bytes_written", len(args[1]))

    def _on_write_group(self, args, result):
        self.count("runio.bytes_written", sum(len(text.encode("utf-8")) for _, text in args[0]))

    def _on_manifest(self, args, result):
        self.count("runio.bytes_written", len(json.dumps(args[1], sort_keys=True)) + 1)

    def dump(self) -> dict:
        return {
            "agg": [[name, parent, *rec] for (name, parent), rec in self.agg.items()],
            "spans": self.spans,
            "counters": self.counters,
            "solved": self.solved,
        }
