"""Call tracing for traced benchmark runs, implemented outside the program.

``install`` wraps public apekit functions at every module attribute they
are bound under (``ter_sentence`` is imported into four modules), so a
call is seen however the caller reached it. Ordinary functions record one
span per call: name, start, end, parent span and run id. The hottest
functions record aggregated counters per run instead of spans. Both kinds
charge their duration to the enclosing span, so every span's self time
excludes all wrapped work below it, and the self times of one run add up
to the wall time of its ``cli.main`` calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

SPAN = "span"
COUNTER = "counter"


def _removed_reasons(args, kwargs, result):
    return dict(Counter(t.meta["removed_reason"] for t in result[1]))


def _ter_sentence_attrs(args, kwargs, result):
    # Bound through the signature so an omitted tokenizer and an explicit
    # default one give the same (hyp, ref, tokenizer) key.
    call = inspect.signature(sys.modules["apekit.ter"].ter_sentence).bind(*args, **kwargs)
    call.apply_defaults()
    key = hash((call.arguments["hyp"], call.arguments["ref"], call.arguments["tok"]))
    score = result[0]
    return {"ref_len": score.ref_len, "shifts": score.shifts, "key": key}


# (module, attribute path, kind, attrs(args, kwargs, result) -> dict).
# Span attrs are stored per call; counter attrs are summed per run.
TARGETS = [
    ("apekit.cli", "main", SPAN, None),
    ("apekit.corpus", "read_corpus", SPAN, lambda a, k, r: {"rows": len(r)}),
    ("apekit.corpus", "write_corpus", SPAN, lambda a, k, r: {"rows": len(a[0])}),
    ("apekit.filtering", "run_filter_pipeline", SPAN, None),
    ("apekit.filtering", "compute_global_ratio", SPAN, None),
    ("apekit.filtering", "ratio_filter", SPAN, _removed_reasons),
    ("apekit.filtering", "normalize_corpus", SPAN, None),
    ("apekit.filtering", "dedup", SPAN, _removed_reasons),
    ("apekit.filtering", "language_filter", SPAN, _removed_reasons),
    ("apekit.filtering", "split_holdout", SPAN, None),
    ("apekit.langid", "NgramLanguageClassifier.classify", COUNTER, lambda a, k, r: {"chars": len(a[1])}),
    ("apekit.segments", "preprocess", SPAN, lambda a, k, r: {"records": len(r[1].records)}),
    ("apekit.segments", "strip_markup", COUNTER, None),
    ("apekit.segments", "postprocess_with_report", SPAN, lambda a, k, r: {"dropped": r[1]}),
    ("apekit.tokenizer", "tokenize", COUNTER, None),
    ("apekit.ter", "ter_corpus", SPAN, None),
    ("apekit.ter", "ter_sentence", SPAN, _ter_sentence_attrs),
    ("apekit.ter", "edit_distance", COUNTER, None),
    ("apekit.bleu", "bleu_corpus", SPAN, None),
    ("apekit.bleu", "corpus_stats_matrix", SPAN, None),
    ("apekit.bleu", "sentence_stats", COUNTER, None),
    ("apekit.bleu", "sentence_bleu", COUNTER, None),
    ("apekit.chrf", "chrf", SPAN, None),
    ("apekit.chrf", "chrf_sentence_stats", COUNTER, None),
    ("apekit.bootstrap", "bootstrap_significance", SPAN, lambda a, k, r: {"n_samples": r.n_samples}),
    ("apekit.analysis", "ter_buckets", SPAN, None),
]


class Tracer:
    """In-memory spans and per-run counters, written out by ``dump``."""

    def __init__(self):
        self.run_id = 0
        self.spans = []  # [name, start, end, parent, run_id, self_s, attrs]
        self.counters = {}  # (run_id, name) -> {"calls", "total_s", "self_s", attrs...}
        self._stack = []  # open frames: [covered_s, enclosing span index]
        self._patches = []  # (owner, attribute, original) for restore()

    def wrap(self, name, fn, kind, attrs_fn):
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if kind == SPAN:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                attrs = attrs_fn(args, kwargs, result) if attrs_fn and result is not None else None
                if kind == SPAN:
                    spans[index] = [name, start, end, parent, self.run_id, duration - frame[0], attrs]
                else:
                    self._count(name, duration, duration - frame[0], attrs)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, duration, self_s, attrs):
        key = (self.run_id, name)
        entry = self.counters.get(key)
        if entry is None:
            entry = self.counters[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += self_s
        if attrs:
            for attr, value in attrs.items():
                entry[attr] = entry.get(attr, 0) + value

    def fired_names(self):
        names = {span[0] for span in self.spans if span is not None}
        names.update(name for _, name in self.counters)
        return names

    def restore(self):
        """Put back every original that install() replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        counters = [{"run_id": run_id, "name": name, **entry} for (run_id, name), entry in self.counters.items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": counters}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every target at every apekit binding.

    Raises if a target no longer exists, so a rename cannot silently turn
    a layer's numbers into zeros.
    """
    for module_name, _, _, _ in TARGETS:
        importlib.import_module(module_name)
    for module_name, path, kind, attrs_fn in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            raise RuntimeError(f"trace target {module_name}.{path} does not exist")
        name = f"{module_name.split('.')[-1]}.{attr}"
        wrapper = tracer.wrap(name, original, kind, attrs_fn)
        if owner_name:
            bindings = [(owner, attr)]
        else:
            bindings = [
                (loaded, binding)
                for loaded_name, loaded in list(sys.modules.items())
                if loaded_name == "apekit" or loaded_name.startswith("apekit.")
                for binding, value in list(vars(loaded).items())
                if value is original
            ]
        for binding_owner, binding in bindings:
            tracer._patches.append((binding_owner, binding, original))
            setattr(binding_owner, binding, wrapper)


# ------------------------------------------------------------ aggregation

LAYERS = ("cli", "corpus", "filtering", "langid", "segments", "tokenizer", "ter", "bleu", "chrf",
          "bootstrap", "analysis")
REMOVAL_REASONS = ("ratio", "degenerate", "dedup", "langid", "langid_error")
TER_LENGTH_BUCKETS = (("len_1-10", 1, 10), ("len_11-20", 11, 20), ("len_21-plus", 21, None))


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(path) -> dict:
    """Per-layer metrics from a dumped trace, as means over its runs.

    Means rather than medians, so the layer self times of the reported
    numbers still add up to the reported traced wall time. Raises if they
    do not, which would mean a wrapped call escaped its parent span, and
    if the filter's removal counts differ between repetitions.
    """
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    runs = {}

    def run(run_id):
        return runs.setdefault(run_id, {"spans": defaultdict(list), "counters": {}})

    for name, start, end, parent, run_id, self_s, attrs in trace["spans"]:
        run(run_id)["spans"][name].append((end - start, self_s, attrs or {}))
    for entry in trace["counters"]:
        run(entry["run_id"])["counters"][entry["name"]] = entry
    if not runs:
        raise RuntimeError(f"{path}: the trace holds no runs")

    per_run = [_run_metrics(runs[run_id]) for run_id in sorted(runs)]
    for reason in REMOVAL_REASONS:
        counts = {m[f"filtering.removed.{reason}"] for m in per_run}
        if len(counts) > 1:
            raise RuntimeError(f"filter removed {sorted(counts)} triplets as {reason!r} in different repetitions")
    metrics = {name: statistics.fmean(m[name] for m in per_run) for name in per_run[0]}
    durations = [d * 1000.0 for r in runs.values() for d, _, _ in r["spans"]["ter.ter_sentence"]]
    metrics["ter.sentence_p50_ms"] = _percentile(durations, 50)
    metrics["ter.sentence_p99_ms"] = _percentile(durations, 99)
    metrics["ter.sentence_samples"] = len(durations)
    return metrics


def _run_metrics(run) -> dict:
    spans, counters = run["spans"], run["counters"]

    def total(name):
        return sum(d for d, _, _ in spans[name]) + counters.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return sum(s for _, s, _ in spans[name]) + counters.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return len(spans[name]) + counters.get(name, {}).get("calls", 0)

    def attr_sum(name, attr):
        return sum(a.get(attr, 0) for _, _, a in spans[name]) + counters.get(name, {}).get(attr, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in set(spans) | set(counters):
        layer_self[name.split(".")[0]] += self_time(name)
    wall = total("cli.main")
    if abs(sum(layer_self.values()) - wall) > 1e-6 * wall + 1e-9:
        raise RuntimeError(f"layer self times sum to {sum(layer_self.values())}, traced wall is {wall}")

    ter_calls = [call for call in spans["ter.ter_sentence"] if call[2]]  # calls that returned
    removed = Counter()
    for stage in ("filtering.ratio_filter", "filtering.dedup", "filtering.language_filter"):
        for _, _, attrs in spans[stage]:
            removed.update(attrs)
    m = {"trace.wall_s": wall}
    m.update({f"{layer}.self_s": value for layer, value in layer_self.items()})
    m.update({
        "corpus.read_s": total("corpus.read_corpus"),
        "corpus.read_rows": attr_sum("corpus.read_corpus", "rows"),
        "corpus.write_s": total("corpus.write_corpus"),
        "corpus.write_rows": attr_sum("corpus.write_corpus", "rows"),
        "filtering.ratio_s": total("filtering.compute_global_ratio") + total("filtering.ratio_filter"),
        "filtering.normalize_s": total("filtering.normalize_corpus"),
        "filtering.dedup_s": total("filtering.dedup"),
        "filtering.split_s": total("filtering.split_holdout"),
        "filtering.language_filter_self_s": self_time("filtering.language_filter"),
        "langid.classify_calls": calls("langid.classify"),
        "langid.classify_s": total("langid.classify"),
        "langid.classify_chars": attr_sum("langid.classify", "chars"),
        "segments.preprocess_calls": calls("segments.preprocess"),
        "segments.preprocess_s": total("segments.preprocess"),
        "segments.strip_markup_s": total("segments.strip_markup"),
        "segments.records": attr_sum("segments.preprocess", "records"),
        "segments.postprocess_calls": calls("segments.postprocess_with_report"),
        "segments.postprocess_s": total("segments.postprocess_with_report"),
        "segments.records_dropped": attr_sum("segments.postprocess_with_report", "dropped"),
        "tokenizer.tokenize_calls": calls("tokenizer.tokenize"),
        "tokenizer.tokenize_s": total("tokenizer.tokenize"),
        "ter.sentence_calls": calls("ter.ter_sentence"),
        "ter.sentence_s": total("ter.ter_sentence"),
        "ter.edit_distance_calls": calls("ter.edit_distance"),
        "ter.edit_distance_s": total("ter.edit_distance"),
        "ter.shifts_applied": attr_sum("ter.ter_sentence", "shifts"),
        "ter.iteration_cap_hits": sum(1 for _, _, a in ter_calls if a["shifts"] == 2 * a["ref_len"]),
        "bleu.sentence_stats_calls": calls("bleu.sentence_stats"),
        "bleu.sentence_stats_s": total("bleu.sentence_stats"),
        "bleu.sentence_bleu_calls": calls("bleu.sentence_bleu"),
        "chrf.sentence_stats_calls": calls("chrf.chrf_sentence_stats"),
        "chrf.sentence_stats_s": total("chrf.chrf_sentence_stats"),
        "bootstrap.calls": calls("bootstrap.bootstrap_significance"),
        "bootstrap.samples": attr_sum("bootstrap.bootstrap_significance", "n_samples"),
        "analysis.ter_buckets_self_s": self_time("analysis.ter_buckets"),
    })
    m.update({f"filtering.removed.{reason}": removed[reason] for reason in REMOVAL_REASONS})
    for label, low, high in TER_LENGTH_BUCKETS:
        m[f"ter.sentence_s.{label}"] = sum(
            d for d, _, a in ter_calls if a["ref_len"] >= low and (high is None or a["ref_len"] <= high)
        )
    edit_calls = m["ter.edit_distance_calls"]
    m["ter.shift_yield"] = m["ter.shifts_applied"] / edit_calls if edit_calls else 0.0
    m["ter.distinct_pair_ratio"] = len({a["key"] for _, _, a in ter_calls}) / m["ter.sentence_calls"] if ter_calls else 0.0
    return m
