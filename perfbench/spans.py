"""Spans around eelm's layers, recorded from outside the package.

A function is wrapped by identity: every ``eelm`` module attribute that
is the function object gets the wrapper, so a call is seen whichever
module's binding the caller used. Each span records its parent, and a
span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# "<module>.<function>" under the eelm package.
SPANS = (
    "bench.run_sinc", "bench.run_dataset", "bench.validate_report",
    "cli.main",
    "datasets.gen_sinc", "datasets.load_csv", "datasets.split",
    "models.train_elm", "models.train_eelm", "models.select_hidden_layer",
    "ordering.invlex_sort_indices", "selection.select_weights",
    "models.build_hidden_matrix",
    "linalg.pinv_svd", "linalg.numerical_rank", "linalg.pinv_normal",
    "models.predict", "models.save_model", "models.load_model",
)

# Work counts taken from a span's result: hidden-matrix cells (rows x
# nodes) and the right-hand-side columns pinv_normal solves against
# (one per sample, since it returns the full n_hidden x n pseudoinverse).
WORK = {
    "models.build_hidden_matrix": ("cells", lambda h: h.shape[0] * h.shape[1]),
    "linalg.pinv_normal": ("rhs_cols", lambda p: p.shape[1]),
}


def _eelm_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "eelm"]


def span_function(span: str):
    module, attr = span.rsplit(".", 1)
    try:
        return getattr(sys.modules[f"eelm.{module}"], attr)
    except (KeyError, AttributeError):
        raise LookupError(f"span {span}: eelm.{module}.{attr} not found; "
                          f"import eelm and eelm.cli first") from None


@contextmanager
def wrapped(wrappers: dict):
    """Install ``wrappers[span](func)`` in place of each span's function
    in every eelm module that binds it; restore the originals on exit."""
    modules = _eelm_modules()
    saved = []
    for span, make_wrapper in wrappers.items():
        func = span_function(span)
        wrapper = make_wrapper(func)
        for mod in modules:
            names = [k for k, v in vars(mod).items() if v is func]
            for name in names:
                saved.append((mod, name, func))
                setattr(mod, name, wrapper)
    try:
        yield
    finally:
        for mod, name, func in reversed(saved):
            setattr(mod, name, func)


@dataclass
class Tracer:
    """Records one span per call of a wrapped function."""

    # [span, parent index or -1, start, end, work]
    records: list = field(default_factory=list)
    _open: list = field(default_factory=list)

    def wrappers(self) -> dict:
        return {span: self._factory(span) for span in SPANS}

    def _factory(self, span: str):
        work = WORK.get(span, (None, None))[1]

        def make(func):
            def traced(*args, **kwargs):
                parent = self._open[-1] if self._open else -1
                idx = len(self.records)
                rec = [span, parent, 0.0, 0.0, 0]
                self.records.append(rec)
                self._open.append(idx)
                rec[2] = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    rec[3] = time.perf_counter()
                    self._open.pop()
                if work is not None:
                    rec[4] = work(result)
                return result
            return traced
        return make

    def totals(self) -> dict:
        """Per span: calls, summed self time (s) and summed work."""
        child_time = [0.0] * len(self.records)
        for span, parent, start, end, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out = {span: {"calls": 0, "self_s": 0.0, "work": 0} for span in SPANS}
        for i, (span, _, start, end, work) in enumerate(self.records):
            entry = out[span]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["work"] += work
        return out
