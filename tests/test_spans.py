"""The benchmark tracer's span tables name code that exists.

``perfbench/spans.py`` wraps strategia functions and methods by name,
so deleting or renaming one would crash every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_exists():
    spans = _load_spans()
    for module_name, attr, *_ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
    for module_name, cls_name, attr, *_ in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, f"{module_name}.{cls_name}.{attr}"
