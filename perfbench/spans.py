"""Outside-in span recorder for the traced run.

The recorder wraps the functions where ``delpezzo``'s layers meet and
records one span per call: name, start, end and parent.  The package
imports these functions by name (``from .lattice import solve_linear``),
so each wrapper is bound at every module that holds the original, not only
at its home module; ``uninstall`` puts the originals back.  The pairing
``PicardLattice.pair`` runs too often for a span per call and is only
counted.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# (home module, function); lattice calls also record the matrix size
LAYER_FUNCTIONS = (
    ("lattice", "is_negative_definite"),
    ("lattice", "solve_linear"),
    ("zariski", "zariski_decompose"),
    ("singular", "contract"),
    ("singular", "discrepancies_with_boundary"),
    ("pairs", "certify_class_equalities"),
    ("pairs", "decide_klt_pair_exists"),
    ("pairs", "decide_weak_lc_pair_exists"),
    ("pairs", "_witness"),
    ("pairs", "check_EP_condition"),
    ("pairs", "find_redundant_points"),
    ("pairs", "cox_finitely_generated"),
    ("surface", "from_description"),
    ("surface", "blow_up"),
    ("corpus", "random_surface"),
    ("cli", "_load"),
    ("cli", "_analysis"),
    ("cli", "cmd_analyze"),
)
SIZED = frozenset({"lattice.is_negative_definite", "lattice.solve_linear"})

TIMES = (
    "lattice.is_negative_definite.ms",
    "lattice.solve_linear.ms",
    "zariski.zariski_decompose.ms",
    "zariski.zariski_decompose.self_ms",
    "pairs.certify_class_equalities.ms",
    "pairs.decide_klt_pair_exists.ms",
    "pairs.decide_weak_lc_pair_exists.ms",
    "pairs._witness.ms",
    "pairs.find_redundant_points.ms",
    "pairs.cox_finitely_generated.ms",
    "singular.contract.ms",
    "singular.discrepancies_with_boundary.ms",
    "surface.from_description.ms",
    "surface.blow_up.ms",
    "corpus.random_surface.ms",
    "cli._load.ms",
    "cli._analysis.ms",
    "cli.render.self_ms",
)
COUNTS = (
    "lattice.is_negative_definite.calls",
    "lattice.is_negative_definite.max_n",
    "lattice.is_negative_definite.sum_n",
    "lattice.solve_linear.calls",
    "lattice.solve_linear.max_n",
    "lattice.solve_linear.sum_n",
    "lattice.pair.calls",
    "zariski.zariski_decompose.calls",
    "zariski.zariski_decompose.rounds",
    "zariski.zariski_decompose.failed",
    "pairs.decompositions_per_analyze",
    "pairs.check_EP_condition.calls",
    "singular.contract.calls",
    "singular.discrepancies_with_boundary.calls",
    "surface.blow_up.calls",
    "corpus.random_surface.calls",
    "corpus.accept_ratio",
)


def unit(name: str) -> str:
    if name in TIMES:
        return "ms"
    if name.endswith(("_per_analyze", "accept_ratio", "overhead")):
        return "ratio"
    return "count"


class Span:
    __slots__ = ("name", "parent", "start", "end", "size", "failed", "returned_none")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.size = 0
        self.failed = False
        self.returned_none = False


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.pair_calls = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.pair_calls = 0

    def _timed(self, name: str, fn):
        sized = name in SIZED
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_ = recorder._open
            span = Span(name, open_[-1] if open_ else -1)
            if sized:
                span.size = args[0].size
            open_.append(len(recorder.spans))
            recorder.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                open_.pop()
            span.returned_none = result is None
            return result

        return wrapper

    def _counted(self, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args):
            recorder.pair_calls += 1
            return fn(*args)

        return wrapper

    def install(self) -> int:
        """Bind the wrappers at every import site; returns the site count."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "delpezzo" or name.startswith("delpezzo.")
        ]
        for home, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"delpezzo.{home}"], attr)
            wrapper = self._timed(f"{home}.{attr}", original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        lattice_class = sys.modules["delpezzo.lattice"].PicardLattice
        original = vars(lattice_class)["pair"]
        self._undo.append((lattice_class, "pair", original))
        lattice_class.pair = self._counted(original)
        return len(self._undo)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start

        def under_analysis(span: Span) -> bool:
            while span.parent >= 0:
                span = spans[span.parent]
                if span.name == "cli._analysis":
                    return True
            return False

        out = {key: 0 for key in TIMES + COUNTS}
        out["lattice.pair.calls"] = self.pair_calls
        analyses = decompositions = kept = 0
        for index, span in enumerate(spans):
            seconds = span.end - span.start
            name = span.name
            if f"{name}.ms" in out:
                out[f"{name}.ms"] += 1000 * seconds
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if name in SIZED:
                out[f"{name}.sum_n"] += span.size
                out[f"{name}.max_n"] = max(out[f"{name}.max_n"], span.size)
                if span.parent >= 0 and spans[span.parent].name == "zariski.zariski_decompose":
                    out["zariski.zariski_decompose.rounds"] += name == "lattice.solve_linear"
            elif name == "zariski.zariski_decompose":
                out["zariski.zariski_decompose.self_ms"] += 1000 * (seconds - child_time[index])
                out["zariski.zariski_decompose.failed"] += span.failed
                decompositions += under_analysis(span)
            elif name == "cli.cmd_analyze":
                out["cli.render.self_ms"] += 1000 * (seconds - child_time[index])
            elif name == "cli._analysis":
                analyses += 1
            elif name == "corpus.random_surface":
                kept += not (span.failed or span.returned_none)
        if analyses:
            out["pairs.decompositions_per_analyze"] = decompositions / analyses
        if out["corpus.random_surface.calls"]:
            out["corpus.accept_ratio"] = kept / out["corpus.random_surface.calls"]
        return out

    def dump(self) -> list[dict]:
        """The recorded spans as plain records (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "start": s.start - origin,
                "end": s.end - origin,
                **({"n": s.size} if s.name in SIZED else {}),
                **({"failed": True} if s.failed else {}),
            }
            for s in self.spans
        ]
