"""In-memory span recording around the library's layer functions.

A traced run replaces each function listed in TRACED with a wrapper that
records a span (name, start, end, parent) around the call. The wrapper is
installed in the namespace the caller looks the name up in, so
``training.backward`` is wrapped where the training loop imports it and
``geometry.geometry_path_features`` where the model module calls it. The
library's files are never edited; the originals are restored on exit.

Per-layer metrics are derived per phase: each phase is a root span opened by
the harness ("setup", "train", "infer") and every span below it belongs to
that phase. Busy time is the union of a layer's span intervals, self time is
a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


# -- counters taken from the traced calls ------------------------------------
# Each hook reads a call's arguments or result and returns counter
# increments. A hook that no longer understands the data (a refactor changed
# its form) raises one of HOOK_ERRORS and its counters are reported absent.

HOOK_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


def _groups(obj):
    return getattr(obj, "groups", obj)


def _rows(group):
    if isinstance(group, tuple):       # (roots, columns)
        return len(group[0])
    return len(getattr(group, "roots", group))


def count_cache_paths(result, args):
    """Paths per length in one molecule's path cache."""
    return {f"paths.len{k}": _rows(g) for k, g in _groups(result).items()}


def count_degenerate_dihedrals(result, args):
    return {"geometry.degenerate_dihedrals": int(bool(result.dihedral_degenerate))}


def count_sampled_paths(result, args):
    """Sampled citation paths per length in one draw."""
    return {f"citation.paths_len{k}": _rows(g) for k, g in _groups(result).items()}


def count_tape_nodes(result, args):
    """Tensors reachable from the loss, i.e. the tape one backward replays."""
    seen = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return {"tensor.tape_nodes_per_step": len(seen)}


# -- the traced functions: the one list to edit when the library moves -------
# (module, attribute, layer, hook, hook runs before the call)

TRACED = (
    ("pathmpnn.data", "load_dataset", "data.load", None, False),
    ("pathmpnn.data", "parse_citation_files", "data.load", None, False),
    ("pathmpnn.molgraph", "build_graph", "molgraph.build_graph", None, False),
    ("pathmpnn.training", "build_graph", "molgraph.build_graph", None, False),
    ("pathmpnn.model", "enumerate_paths", "paths.enumerate", None, False),
    ("pathmpnn.geometry", "geometry_path_features", "geometry.features",
     count_degenerate_dihedrals, False),
    ("pathmpnn.chem", "ring_membership", "chem.rings", None, False),
    ("pathmpnn.chem", "detect_groups", "chem.groups", None, False),
    ("pathmpnn.chem", "substructure_path_features", "chem.path_flags", None, False),
    ("pathmpnn.model", "build_path_cache", "model.path_cache", count_cache_paths, False),
    ("pathmpnn.model", "merge_batch", "model.merge_batch", None, False),
    ("pathmpnn.model", "message_path", "model.message", None, False),
    ("pathmpnn.model", "attention_aggregate", "model.attention", None, False),
    ("pathmpnn.model", "node_update", "model.update", None, False),
    ("pathmpnn.model", "set2set_readout_batched", "model.set2set", None, False),
    ("pathmpnn.model", "forward_batched", "model.forward", None, False),
    ("pathmpnn.training", "backward", "tensor.backward", count_tape_nodes, True),
    ("pathmpnn.training", "adam_step", "tensor.adam", None, False),
    ("pathmpnn.training", "predict_values", "training.predict", None, False),
    ("pathmpnn.training", "rmse_loss", "training.loss", None, False),
    ("pathmpnn.training", "cross_entropy", "training.loss", None, False),
    ("pathmpnn.training", "train_regression", "training.loop", None, False),
    ("pathmpnn.training", "train_node_classification", "training.loop", None, False),
    ("pathmpnn.citation", "normalize_adjacency", "citation.normalize", None, False),
    ("pathmpnn.citation", "sample_citation_paths", "citation.sample",
     count_sampled_paths, False),
    ("pathmpnn.citation", "path_gcn_forward", "citation.forward", None, False),
)

# Metrics per phase: (metric, kind, layer). Kinds: busy and self are
# seconds, p50/p95 are per-call milliseconds, calls counts the layer's spans,
# total sums a hook counter over the phase, median takes the median of a
# per-call hook counter.
FEATURIZE = (
    ("molgraph.build_graph_s", "busy", "molgraph.build_graph"),
    ("molgraph.graphs", "calls", "molgraph.build_graph"),
    ("paths.enumerate_s", "busy", "paths.enumerate"),
    ("paths.len1", "total", "model.path_cache"),
    ("paths.len2", "total", "model.path_cache"),
    ("paths.len3", "total", "model.path_cache"),
    ("geometry.features_s", "busy", "geometry.features"),
    ("geometry.calls", "calls", "geometry.features"),
    ("geometry.degenerate_dihedrals", "total", "geometry.features"),
    ("chem.rings_s", "busy", "chem.rings"),
    ("chem.groups_s", "busy", "chem.groups"),
    ("chem.path_flags_s", "busy", "chem.path_flags"),
    ("model.path_cache_self_s", "self", "model.path_cache"),
)
FORWARD = (
    ("model.merge_batch_s", "busy", "model.merge_batch"),
    ("model.message_s", "busy", "model.message"),
    ("model.attention_s", "busy", "model.attention"),
    ("model.update_s", "busy", "model.update"),
    ("model.set2set_s", "busy", "model.set2set"),
    ("model.forward_self_s", "self", "model.forward"),
    ("model.forward_calls", "calls", "model.forward"),
    ("training.predict_s", "busy", "training.predict"),
)
STEP = (
    ("tensor.backward_s", "busy", "tensor.backward"),
    ("tensor.backward_ms_p50", "p50", "tensor.backward"),
    ("tensor.backward_ms_p95", "p95", "tensor.backward"),
    ("tensor.adam_s", "busy", "tensor.adam"),
    ("tensor.tape_nodes_per_step", "median", "tensor.backward"),
    ("training.loss_s", "busy", "training.loss"),
    ("training.loop_self_s", "self", "training.loop"),
)
CITATION = (
    ("citation.sample_s", "busy", "citation.sample"),
    ("citation.forward_s", "busy", "citation.forward"),
    ("citation.paths_len2", "total", "citation.sample"),
    ("citation.paths_len3", "total", "citation.sample"),
)
WALL = (("wall_s", "wall", None),)
NORMALIZE = (("citation.normalize_s", "busy", "citation.normalize"),)

PHASE_METRICS = {
    "setup": WALL + (("data.load_s", "busy", "data.load"),) + FEATURIZE + NORMALIZE,
    "train": WALL + FEATURIZE + FORWARD + STEP + CITATION + NORMALIZE,
    "infer": WALL + FEATURIZE + FORWARD + CITATION,
}
OVERHEAD = "trace.overhead"
UNITS = {"wall": "s", "busy": "s", "self": "s", "p50": "ms", "p95": "ms",
         "calls": "count", "total": "count", "median": "count"}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{phase}.{metric}" for phase, specs in PHASE_METRICS.items()
             for metric, _, _ in specs]
    return names + [OVERHEAD]


# -- recording ---------------------------------------------------------------

class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()          # (root span, counter)
        self.samples = defaultdict(list)            # (root span, counter)
        self.layers: set[str] = set()               # layers with a wrapper
        self.broken: set[str] = set()               # layers whose hook failed
        self._open: list[int] = []

    def start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield
        finally:
            self.end(index)

    def record(self, layer: str, hook, result, args) -> None:
        """Add a hook's counters to the phase that is open."""
        if layer in self.broken or not self._open:
            return
        try:
            counts = hook(result, args)
        except HOOK_ERRORS:
            self.broken.add(layer)
            return
        root = self._open[0]
        for name, value in counts.items():
            self.counters[root, name] += value
            self.samples[root, name].append(value)


def _wrap(tracer: Tracer, fn, layer: str, hook, before: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if hook is not None and before:
            # counted in a span of its own, so no layer's time includes it
            with tracer.span("trace.count"):
                tracer.record(layer, hook, None, args)
        index = tracer.start(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None and not before:
            tracer.record(layer, hook, result, args)
        return result
    return traced


@contextmanager
def installed(tracer: Tracer, traced=TRACED):
    """Wrap every listed function that exists; restore the originals after.
    A function missing at this commit is skipped, and the metrics of a layer
    with no wrapper at all are reported absent."""
    saved = []
    try:
        for module_name, attr, layer, hook, before in traced:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, layer, hook, before))
            tracer.layers.add(layer)
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# -- arithmetic over the span tree ---------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[i])
        out.append((s.end - s.start) - covered)
    return out


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's root ancestor (parents precede their children)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s.parent is None else out[s.parent])
    return out


def phase_residuals(tracer: Tracer) -> dict[str, float]:
    """Per phase: sum of the self times of its spans minus its wall time.
    Zero up to rounding when every span closed inside its parent."""
    spans = tracer.spans
    selfs = self_times(spans)
    root_of = roots(spans)
    sums = defaultdict(float)
    for i, r in enumerate(root_of):
        sums[r] += selfs[i]
    return {spans[r].name: sums[r] - (spans[r].end - spans[r].start) for r in sums}


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of every phase that ran, as {name: (value, unit)}.
    Metrics of layers without a wrapper, and the counters of a layer whose
    hook failed, are absent."""
    spans = tracer.spans
    selfs = self_times(spans)
    root_of = roots(spans)
    by_phase = defaultdict(lambda: defaultdict(list))   # root -> layer -> [i]
    for i, r in enumerate(root_of):
        if i != r:
            by_phase[r][spans[i].name].append(i)

    out = {}
    for r in (i for i, s in enumerate(spans) if s.parent is None):
        phase = spans[r].name
        members = by_phase[r]
        for metric, kind, layer in PHASE_METRICS.get(phase, ()):
            if kind != "wall" and layer not in tracer.layers:
                continue
            if kind in ("total", "median") and layer in tracer.broken:
                continue
            idx = members.get(layer, [])
            durations = [spans[i].end - spans[i].start for i in idx]
            if kind == "wall":
                value = spans[r].end - spans[r].start
            elif kind == "busy":
                value = union_length((spans[i].start, spans[i].end) for i in idx)
            elif kind == "self":
                value = sum(selfs[i] for i in idx)
            elif kind == "calls":
                value = len(idx)
            elif kind == "total":
                value = tracer.counters[r, metric]
            elif kind == "median":
                samples = tracer.samples[r, metric]
                value = statistics.median(samples) if samples else 0
            else:
                q = 0.5 if kind == "p50" else 0.95
                value = _percentile(durations, q) * 1e3 if durations else 0.0
            out[f"{phase}.{metric}"] = (value, UNITS[kind])
    return out
