"""The benchmark tracer's wrap targets exist, so a traced run wraps every span."""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = []
    for _, _, _, targets in bench_trace.WRAPS:
        for module, path in targets:
            owner = importlib.import_module(module)
            for attr in path.split("."):
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(f"{module}.{path}")
    assert not missing
