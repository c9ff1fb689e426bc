"""In-memory span tracer that wraps mg-audit's public functions at their call sites.

The pipeline imports most helpers by name (``from .conllu import
read_conllu``), so a span has to be installed where the caller looks the
name up, e.g. ``mg_audit.stages.read_conllu``. Every target must exist:
a missing one raises ``TraceTargetError``, so a refactor that moves a
function cannot silently zero its layer.

Spans are kept in a list and summarised once the run ends. A span's self
time is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time
from collections import defaultdict


class TraceTargetError(LookupError):
    """A trace target no longer exists in the program."""


def _docs(args, kwargs, result):
    return len(result)


def _docs_arg(args, kwargs, result):
    return len(args[0] if args else kwargs["documents"])


def _doc_key(args, kwargs, result):
    doc = args[0] if args else kwargs["doc"]
    return (doc.dataset_tag, doc.doc_id)


def _parse_error(args, kwargs, result):
    return result.parse_error is not None


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _lr_iterations(args, kwargs, result):
    return result.n_iter


def _gbt_rounds(args, kwargs, result):
    return len(result.train_losses)


def _stage_name(args, kwargs):
    stage = args[0] if args else kwargs["stage"]
    return "stages." + stage.replace("-", "_")


# (span name, module, attribute path, info extractor). The module is the one
# whose namespace the pipeline reads the name from at call time.
TARGETS = (
    (_stage_name, "mg_audit.stages", "run_stage", None),
    ("conllu.read", "mg_audit.stages", "read_conllu", _docs),
    ("conllu.write", "mg_audit.stages", "write_conllu", _docs_arg),
    ("filters.filter_document", "mg_audit.stages", "filter_document", _doc_key),
    ("analysis.find_candidates", "mg_audit.stages", "find_candidates", None),
    ("analysis.find_candidates", "mg_audit.analysis", "find_candidates", None),
    ("analysis.analyze_text", "mg_audit.stages", "analyze_text", None),
    ("markers.detect_markers", "mg_audit.analysis", "detect_markers", None),
    ("validation.build_prompt", "mg_audit.stages", "build_validation_prompt", None),
    ("validation.parse", "mg_audit.stages", "parse_validation_response", _parse_error),
    ("transport.complete", "mg_audit.transport", "MockTransport.complete", None),
    ("transport.complete", "mg_audit.transport", "HttpChatTransport.complete", None),
    ("transport.fixture_load", "mg_audit.transport", "MockTransport.__init__", None),
    ("dispatch.dispatch", "mg_audit.stages", "dispatch", None),
    ("dispatch.store_append", "mg_audit.dispatch", "ExchangeStore.append", None),
    ("dispatch.store_load", "mg_audit.dispatch", "ExchangeStore.load", None),
    ("narrowing.narrow", "mg_audit.stages", "apportion", None),
    ("narrowing.narrow", "mg_audit.stages", "narrow_proportional", None),
    ("lexicon.load", "mg_audit.lexicon", "HumanNounDB.load_jsonl", None),
    ("lexicon.load", "mg_audit.lexicon", "MGLexicon.load_jsonl", None),
    ("ingest.source", "mg_audit.stages", "ingest_source", None),
    ("manifest.checksum", "mg_audit.manifest", "sha256_file", _file_size),
    ("report.emit", "mg_audit.stages", "emit_report", None),
    ("resources.embeddings_load", "mg_audit.resources", "EmbeddingTable.load_text", None),
    ("features.matrix", "mg_audit.stages", "feature_matrix", None),
    ("ensemble.train_member", "mg_audit.stages", "train_member", None),
    ("logistic.fit", "mg_audit.logistic", "LogisticRegressionL1.fit", _lr_iterations),
    ("boosting.fit", "mg_audit.boosting", "GradientBoostedTrees.fit", _gbt_rounds),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent, end=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None):
        """Return `fn` wrapped so each call records one span."""
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for name, module_name, path, info in targets:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, info))
            else:
                wrapped = self.wrap(name, raw, info)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def _resolve(module_name: str, path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError as err:
        raise TraceTargetError(f"trace target module {module_name} is gone") from err
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetError(f"trace target {module_name}.{path} is gone")
    present = parts[-1] in owner.__dict__ if isinstance(owner, type) else hasattr(owner, parts[-1])
    if not present:
        raise TraceTargetError(f"trace target {module_name}.{path} is gone")
    return owner, parts[-1]


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def summarize(spans: list[Span], model_ids: list[str]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    infos: dict[str, list] = defaultdict(list)
    for span, own in zip(spans, selfs):
        self_s[span.name] += own
        total_s[span.name] += span.end - span.start
        calls[span.name] += 1
        if span.info is not None:
            infos[span.name].append(span.info)

    m: dict[str, float] = {}
    for name in sorted(n for n in total_s if n.startswith("stages.")):
        m[name + "_s"] = total_s[name]
    filter_keys = infos["filters.filter_document"]
    response_keys = [k for k in filter_keys if k[0] in model_ids]
    docs_read = sum(infos["conllu.read"])
    m.update({
        "conllu.read_s": self_s["conllu.read"],
        "conllu.docs_read": docs_read,
        "conllu.write_s": self_s["conllu.write"],
        "conllu.docs_written": sum(infos["conllu.write"]),
        "filters.filter_document_s": self_s["filters.filter_document"],
        "filters.filter_document_calls": calls["filters.filter_document"],
        "filters.calls_per_doc": _ratio(len(filter_keys), len(set(filter_keys))),
        "filters.calls_per_response": _ratio(len(response_keys), len(set(response_keys))),
        "analysis.find_candidates_s": self_s["analysis.find_candidates"],
        "analysis.analyze_text_s": self_s["analysis.analyze_text"],
        "markers.detect_markers_s": self_s["markers.detect_markers"],
        "validation.build_prompt_s": self_s["validation.build_prompt"],
        "validation.parse_s": self_s["validation.parse"],
        "validation.parse_errors": sum(infos["validation.parse"]),
        "transport.complete_s": self_s["transport.complete"],
        "transport.complete_calls": calls["transport.complete"],
        "transport.fixture_loads": calls["transport.fixture_load"],
        "transport.fixture_load_s": self_s["transport.fixture_load"],
        "transport.fixture_loads_per_model": _ratio(calls["transport.fixture_load"], len(model_ids)),
        "dispatch.store_appends": calls["dispatch.store_append"],
        "dispatch.store_append_s": self_s["dispatch.store_append"],
        "dispatch.store_load_s": self_s["dispatch.store_load"],
        "narrowing.narrow_s": self_s["narrowing.narrow"],
        "lexicon.loads": calls["lexicon.load"],
        "lexicon.load_s": self_s["lexicon.load"],
        "ingest.source_s": self_s["ingest.source"],
        "manifest.checksum_s": self_s["manifest.checksum"],
        "manifest.checksum_bytes": sum(infos["manifest.checksum"]),
        "report.emit_s": self_s["report.emit"],
        "resources.embeddings_load_s": self_s["resources.embeddings_load"],
        "features.matrix_s": self_s["features.matrix"],
        "logistic.fit_s": self_s["logistic.fit"],
        "logistic.iterations": sum(infos["logistic.fit"]),
        "boosting.fit_s": self_s["boosting.fit"],
        "boosting.rounds": sum(infos["boosting.fit"]),
        "boosting.round_s": _ratio(self_s["boosting.fit"], sum(infos["boosting.fit"])),
        "ensemble.train_member_s": self_s["ensemble.train_member"],
        "trace.spans": len(spans),
    })
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted(set().union(*runs))
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in keys}
