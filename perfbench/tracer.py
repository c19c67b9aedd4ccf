"""Outside-in span tracer for one threatbench run.

`Tracer.install()` replaces public functions of the threatbench modules with
wrappers that record a span (name, start, end, parent span) per call and a few
exact counts. Nothing inside the package changes; only names that the package
looks up at call time are rebound:

- every function `threatbench.pipeline` binds with `from .x import ...`;
- `neural.lstm_loss` and `neural.lstm_loss_and_grads`, which
  `fit_lstm_autoencoder` looks up as module globals;
- `evalx.roc_auc`, looked up by the metric helpers and importance scoring;
- the `synthgen.GENERATORS` entries, all traced as `synthgen.generate`;
- `RandomForestModel.predict_proba` and `GradientBoostingModel.predict_margin`;
- `cli.run_domain` and `cli.emit_report`.

Spans stay in memory until `dump()`; a span is named `<module>.<function>`
after the module that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import uuid
from collections import Counter, defaultdict


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('threatbench.')}.{fn.__qualname__}"


def _add_rows(position):
    def count(stats, args, result):
        stats["rows"] += len(args[position])

    return count


def _add_file_bytes(stats, args, result):
    stats["bytes"] += os.path.getsize(args[1])


def _add_boost_rounds(stats, args, result):
    stats["rounds"] += len(result.trees)
    stats["best_iteration"] += result.best_iteration


# Exact counts recorded after a call returns, keyed by span name.
_AFTER = {
    "forest.RandomForestModel.predict_proba": _add_rows(1),
    "forest.GradientBoostingModel.predict_margin": _add_rows(1),
    "forest.fit_gradient_boosting": _add_boost_rounds,
    "preprocess.smote_oversample": _add_rows(0),
    "tabular.save_dataset": _add_file_bytes,
    "synthgen.save_events_jsonl": _add_file_bytes,
    "modelio.save_model": _add_file_bytes,
}


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(Counter)
        self._stack = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(self.counts[name], args, result)
            return result

        return traced

    def _wrap_importance(self, fn):
        """Counts the rows that permutation importance sends to its scorer."""
        stats = self.counts["evalx.permutation_importance"]

        @functools.wraps(fn)
        def counted(predict_fn, *args, **kwargs):
            def scorer(X):
                stats["rows_scored"] += len(X)
                return predict_fn(X)

            return fn(scorer, *args, **kwargs)

        return self.wrap("evalx.permutation_importance", counted)

    def install(self) -> None:
        from threatbench import cli, evalx, forest, neural, pipeline, synthgen

        for attr, fn in list(vars(pipeline).items()):
            if inspect.isfunction(fn) and fn.__module__.startswith("threatbench.") and fn.__module__ != pipeline.__name__:
                name = _span_name(fn)
                wrapped = self._wrap_importance(fn) if name == "evalx.permutation_importance" else self.wrap(name, fn, _AFTER.get(name))
                setattr(pipeline, attr, wrapped)
        for module, attr in ((neural, "lstm_loss"), (neural, "lstm_loss_and_grads"), (evalx, "roc_auc"), (cli, "run_domain"), (cli, "emit_report")):
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(_span_name(fn), fn))
        for domain, fn in synthgen.GENERATORS.items():
            synthgen.GENERATORS[domain] = self.wrap("synthgen.generate", fn)
        for cls, attr in ((forest.RandomForestModel, "predict_proba"), (forest.GradientBoostingModel, "predict_margin")):
            fn = getattr(cls, attr)
            name = _span_name(fn)
            setattr(cls, attr, self.wrap(name, fn, _AFTER.get(name)))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": {k: dict(v) for k, v in self.counts.items()}}


def aggregate(trace: dict) -> dict:
    """Per span name: inclusive seconds `s`, `self_s` (minus time in direct
    child spans), `calls`, and the exact counts recorded under that name."""
    spans = trace["spans"]
    in_children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            in_children[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        stats = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        stats["s"] += end - start
        stats["self_s"] += end - start - in_children[i]
        stats["calls"] += 1
    for name, counts in trace["counts"].items():
        out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0}).update(counts)
    return out
