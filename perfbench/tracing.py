"""Spans around datalin's public functions, recorded from outside the library.

`Tracer.install` replaces each traced function wherever a datalin module
binds it (its defining module, every module that imported it, and the
package namespace), so calls between modules are seen too.  `restore` puts
every original back.  While `enabled` is false a wrapper only forwards the
call, so correctness checks made between timed operations leave no spans.
Spans stay in memory; `layer_metrics` turns them into the per-layer
metrics and `write_spans` stores them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from typing import Callable, NamedTuple, Optional

# Modules whose namespaces are searched for bindings of traced functions.
MODULES = ("core", "intlin", "zsolve", "calculus", "witness", "nsolve",
           "oracle", "cli")


def _weight_scanned(h, x, *_args, **_kwargs) -> int:
    """Entries core.weight scans: all of them unless it returns early."""
    return len(h.mu) if frozenset(x) <= h.vertices else 0


def _cells(m, *_args, **_kwargs) -> int:
    return m.rows * m.cols


def _terms(w) -> Optional[int]:
    return None if w is None else len(w.terms)


class Target(NamedTuple):
    """A traced function: `pre` summarises the arguments before the call,
    `post` the result after it; the span keeps whichever is given."""

    name: str  # "<module>.<function>"
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


TARGETS = (
    Target("core.weight", pre=_weight_scanned),
    Target("intlin.z_solve_system", pre=_cells),
    Target("intlin.cone_member"),
    Target("zsolve.z_solvable"),
    Target("zsolve.local_check", post=lambda r: r.decision),
    Target("zsolve.layer_columns"),
    Target("calculus.express_via_simple"),
    Target("calculus.nonzero_weight_sets"),
    Target("calculus.verify_simple"),
    Target("witness.extract_witness_general", post=_terms),
    Target("witness.extract_witness_k2", post=_terms),
    Target("witness.verify_witness"),
    Target("nsolve.n_solvable", post=lambda r: r.status),
    Target("nsolve.reversible_partition"),
    Target("nsolve.nonreversible_bound"),
    Target("oracle.brute_force", post=lambda r: r is not None),
    Target("oracle.brute_reversible", post=bool),
    Target("cli.main"),
    Target("cli.parse_instance"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    instance: int
    info: object  # the target's summary, or the name of a raised exception


class Tracer:
    """Records a span per call of each target while enabled."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.enabled = False
        self.instance = -1
        self._stack: list = []
        self._saved: list = []  # (namespace owner, attribute, original)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        owners = [self.package] + [
            getattr(self.package, m) for m in MODULES
        ]
        for target in TARGETS:
            module, func = target.name.split(".")
            original = getattr(getattr(self.package, module), func)
            wrapper = self._wrap(target, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, target: Target, fn):
        clock = time.perf_counter
        stack = self._stack
        name, pre, post = target

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            info = pre(*args, **kwargs) if pre else None
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = type(exc).__name__
                raise
            else:
                if post:
                    info = post(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.instance, info)

        wrapper.__traced__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for c in sorted(children.get(idx, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "core.weight.calls": "count",
    "core.weight.self_s": "s",
    "core.weight.entries_scanned": "count",
    "intlin.z_solve_system.calls": "count",
    "intlin.z_solve_system.self_s": "s",
    "intlin.z_solve_system.cells": "count",
    "intlin.cone_member.calls": "count",
    "intlin.cone_member.self_s": "s",
    "zsolve.local_check.calls": "count",
    "zsolve.local_check.self_s": "s",
    "zsolve.layer_columns.calls": "count",
    "zsolve.layer_columns.self_s": "s",
    "calculus.express_via_simple.calls": "count",
    "calculus.express_via_simple.self_s": "s",
    "calculus.nonzero_weight_sets.calls": "count",
    "calculus.nonzero_weight_sets.self_s": "s",
    "calculus.verify_simple.calls": "count",
    "calculus.verify_simple.self_s": "s",
    "witness.extract_witness_general.calls": "count",
    "witness.extract_witness_general.self_s": "s",
    "witness.extract_witness_k2.calls": "count",
    "witness.extract_witness_k2.self_s": "s",
    "witness.verify_witness.calls": "count",
    "witness.verify_witness.self_s": "s",
    "witness.terms": "count",
    "witness.cap_exceeded": "count",
    "nsolve.n_solvable.calls": "count",
    "nsolve.n_solvable.self_s": "s",
    "nsolve.reversible_partition.self_s": "s",
    "nsolve.nonreversible_bound.self_s": "s",
    "nsolve.residual_checks": "count",
    "nsolve.residual_hit_ratio": "ratio",
    "nsolve.inconclusive": "count",
    "oracle.brute_force.calls": "count",
    "oracle.brute_force.self_s": "s",
    "oracle.brute_reversible.calls": "count",
    "oracle.guard_trips": "count",
    "oracle.found_ratio": "ratio",
    "oracle.share": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.parse_instance.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

_ORACLE = ("oracle.brute_force", "oracle.brute_reversible")
_EXTRACTORS = ("witness.extract_witness_general", "witness.extract_witness_k2")


def layer_metrics(spans, op_seconds: float) -> dict:
    """Per-layer metrics of one traced pass whose timed operations took
    `op_seconds` in total.  trace.overhead_s is left to the caller."""
    calls: dict = {}
    self_s: dict = {}
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own

    def infos(name):
        return [s.info for s in spans if s.name == name]

    residual = [
        s.info for s in spans
        if s.name == "zsolve.local_check" and s.parent >= 0
        and spans[s.parent].name == "nsolve.n_solvable"
    ]
    oracle_calls = infos("oracle.brute_force")
    oracle_top = sum(
        s.end - s.start for s in spans
        if s.name in _ORACLE
        and (s.parent < 0 or spans[s.parent].name not in _ORACLE)
    )
    terms = [i for n in _EXTRACTORS for i in infos(n) if isinstance(i, int)]
    out: dict = {}
    for metric in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "self_s":
            out[metric] = self_s.get(base, 0.0)
    out.update({
        "core.weight.entries_scanned": sum(infos("core.weight")),
        "intlin.z_solve_system.cells": sum(infos("intlin.z_solve_system")),
        "witness.terms": sum(terms),
        "witness.cap_exceeded": sum(
            i == "CapExceeded" for n in _EXTRACTORS for i in infos(n)
        ),
        "nsolve.residual_checks": len(residual),
        "nsolve.residual_hit_ratio": _ratio(sum(r is True for r in residual),
                                            len(residual)),
        "nsolve.inconclusive": infos("nsolve.n_solvable").count("INCONCLUSIVE"),
        "oracle.guard_trips": oracle_calls.count("OracleGuardError"),
        "oracle.found_ratio": _ratio(oracle_calls.count(True), len(oracle_calls)),
        "oracle.share": _ratio(oracle_top, op_seconds),
        "trace.spans": len(spans),
    })
    return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def write_spans(path, spans, instance_names) -> None:
    """Store spans as gzipped JSON, times relative to the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    doc = {
        "fields": ["name", "start_s", "end_s", "parent", "instance", "info"],
        "instances": instance_names,
        "spans": [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent,
             s.instance, s.info]
            for s in spans
        ],
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
