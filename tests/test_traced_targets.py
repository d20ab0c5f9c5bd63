import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolve(dotted):
    """The object named `module.attr[.attr]` inside the stripmwis package."""
    mod, *attrs = dotted.split(".")
    obj = importlib.import_module("stripmwis." + mod)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_traced_run_targets_resolve():
    # the traced benchmark run wraps these program names from outside
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [f"{mod}.{fn}" for mod, fn, _ in spans.TIMED]
    names += [spans.GENERATOR, "graph.WeightedGraph.subgraph", "border.BorderProfile.update"]
    for dotted in names:
        assert callable(_resolve(dotted)), dotted
    for module in spans.SOLVER_MODULES:
        importlib.import_module(module)
