"""Per-layer tracing for the traced benchmark run.

The tracer swaps wrappers in for the package's public functions at every
place a calling module resolves them: module globals (``cantornormal.verify.
build_P``), class attributes (``ConstructionSpec.digits_prefix``), lookup
tables such as the CLI's family builders, and the claim registry that
``run_all`` reads.  Each wrapped call records a span
(name, parent, start, end) in memory; very hot per-digit methods get a call
counter instead of a span.  ``uninstall`` puts every original back, so an
untraced pass in the same process runs the package unmodified.

A function bound as a default argument (``tally_fn=tally_blocks``) keeps
the original object and escapes the wrappers; such bindings are found at
install time and reported as untraced.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _len_of(text) -> int:
    return len(getattr(text, "digits", text))


def _blocks_checked(args, kwargs, verdict) -> int:
    """Blocks the band check compared before it returned."""
    y = args[0]
    mu = _arg(args, kwargs, 3, "mu")
    raw = getattr(y, "digits", y)
    top = int(np.frombuffer(raw, dtype=np.uint8).max()) if isinstance(raw, bytes) else max(raw)
    alphabet = max(mu.support_bound, top) + 1
    if verdict.witness is None:
        return sum(alphabet**m for m in range(1, verdict.k + 1))
    block = verdict.witness.block
    rank = 0
    for d in block:
        rank = rank * alphabet + d
    return sum(alphabet**m for m in range(1, len(block))) + rank + 1


# (module, attribute, work-count name, work function(args, kwargs, result))
SPANNED = (
    ("constructions", "build_P", "digits", lambda a, kw, r: len(r)),
    ("constructions", "qnex_spec", None, None),
    ("constructions", "qde_spec", None, None),
    ("blocks", "tally_blocks", "windows",
     lambda a, kw, r: max(0, _len_of(a[0]) - _arg(a, kw, 1, "length") + 1)),
    ("blocks", "count_prefix_occurrences", None, None),
    ("weightings", "check_eps_k_normal", "blocks_checked", _blocks_checked),
    ("cantor", "q_moment", "positions", lambda a, kw, r: _arg(a, kw, 1, "n")),
    ("cantor", "orbit_point", None, None),
    ("cantor", "scaled_value_counts", None, None),
    ("cantor", "normality_ratio", None, None),
    ("discrepancy", "star_discrepancy_from_counts", "distinct_values", lambda a, kw, r: len(a[0])),
    ("discrepancy", "unit_sequence", None, None),
    ("discrepancy", "star_discrepancy", None, None),
    ("discrepancy", "kn1_bound", None, None),
    ("discrepancy", "concat_bound", None, None),
    ("discrepancy", "epsbar", None, None),
    ("cli", "main", None, None),
)
# ConstructionSpec methods that get spans, and hot per-digit ones that get counts
SPEC_SPANNED = (("digits_prefix", "digits", lambda a, kw, r: len(r)),)
SPEC_COUNTED = ("digit_at", "q_at")


def job_label(claim: str, kwargs: dict) -> str:
    """Metric-safe name of one verification job: ``verify.eknu.b6-w4-k2``."""
    params = "-".join(f"{k.replace('_', '')}{v}" for k, v in sorted(kwargs.items()))
    return f"verify.{claim}.{params or 'default'}"


class Tracer:
    """Installs span wrappers into the ``cantornormal`` modules and aggregates spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, child seconds, work]
        self.counts: dict[str, int] = defaultdict(int)
        self.untraced_bindings: list[tuple[str, str]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn, work_name=None, work_fn=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, parent, time.perf_counter(), None, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[3] - rec[2]
            if work_fn is not None:
                rec[5] = (work_name, work_fn(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        from cantornormal import constructions, verify

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cantornormal" or n.startswith("cantornormal."))]
        originals = {}
        for mod_name, attr, work_name, work_fn in SPANNED:
            fn = getattr(sys.modules[f"cantornormal.{mod_name}"], attr)
            originals[id(fn)] = f"{mod_name}.{attr}"
            wrapper = self._span_wrapper(f"{mod_name}.{attr}", fn, work_name, work_fn)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._patch(mod, attr, wrapper)
                for table in [v for v in vars(mod).values() if isinstance(v, dict) and v is not verify.CLAIMS]:
                    for key in [k for k, v in table.items() if v is fn]:
                        self._patches.append((table, key, fn))
                        table[key] = wrapper
        spec_cls = constructions.ConstructionSpec
        for attr, work_name, work_fn in SPEC_SPANNED:
            fn = getattr(spec_cls, attr)
            self._patch(spec_cls, attr,
                        self._span_wrapper(f"constructions.{attr}", fn, work_name, work_fn))
        for attr in SPEC_COUNTED:
            self._patch(spec_cls, attr, self._count_wrapper(f"constructions.{attr}", getattr(spec_cls, attr)))
        self.untraced_bindings = []
        for claim, (fn, kind) in list(verify.CLAIMS.items()):
            for default in (fn.__defaults__ or ()):
                if id(default) in originals:
                    self.untraced_bindings.append((claim, originals[id(default)]))
            verify.CLAIMS[claim] = (self._job_wrapper(claim, fn), kind)
            self._patches.append((verify.CLAIMS, claim, (fn, kind)))

    def _job_wrapper(self, claim, fn):
        def wrapper(**kwargs):
            return self._span_wrapper(job_label(claim, kwargs), fn)(**kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, summed work."""
        out: dict[str, dict] = {}
        for name, _parent, start, end, child, work in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child
            if work is not None:
                agg[work[0]] = agg.get(work[0], 0) + work[1]
        return out

    def untraced_claims(self) -> set[str]:
        return {claim for claim, _ in self.untraced_bindings}

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"untraced_default_arg_bindings": self.untraced_bindings,
                                 "counts": dict(self.counts)}) + "\n")
            for name, parent, start, end, child, work in self.spans:
                fh.write(json.dumps([name, parent, round(start - t0, 9), round(end - t0, 9),
                                     round(child, 9), work]) + "\n")
