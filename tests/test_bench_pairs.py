"""``tools/bench_pairs.py`` records its command line with ``--out`` cut to
the report's file name, wherever the report was written."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_is_recorded_as_its_file_name():
    recorded_argv = load_tool().recorded_argv
    head = ["--parent", "HEAD", "--pairs", "10"]
    for out, recorded in [
        (["--out", "/var/reports/run 1/BENCH_39.json"], ["--out", "BENCH_39.json"]),
        (["--out=../reports/BENCH_39.json"], ["--out=BENCH_39.json"]),
        (["--ou", "reports/BENCH_39.json"], ["--ou", "BENCH_39.json"]),
        (["--out", "BENCH_39.json"], ["--out", "BENCH_39.json"]),
    ]:
        assert recorded_argv(head + out) == ["tools/bench_pairs.py", *head, *recorded]
        # the options after --out's path are recorded whole
        tail = ["--claim-workload", "high_rank", "--claim-metric", "analyze_ms_p90"]
        assert recorded_argv(out + tail) == ["tools/bench_pairs.py", *recorded, *tail]
