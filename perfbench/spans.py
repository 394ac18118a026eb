"""Spans around the calls into each module of ``visioncost``, from outside.

``install`` replaces a module's public function with a timing wrapper in
every loaded ``visioncost`` module that holds a reference to it, so calls
made through ``from .cost import cost_report`` are seen too. A span's time
counts only at its outermost level (``report_to_json`` calls
``report_to_dict``; the pair counts once). Spans stay in memory; the run
reads the totals when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span). AnnotationTable.for_config is a method.
TARGETS = (
    ("arch", "spec_from_dict", "arch.load"),
    ("arch", "validate_spec", "arch.validate"),
    ("scaling", "make_config", "scaling.make_config"),
    ("scaling", "resolution_scale", "scaling.resolution_scale"),
    ("cost", "propagate_shapes", "cost.propagate"),
    ("cost", "cost_report", "cost.report"),
    ("cost", "report_to_dict", "cost.serialize"),
    ("cost", "report_to_json", "cost.serialize"),
    ("cost", "report_to_csv", "cost.serialize"),
    ("search", "enumerate_space", "search.enumerate"),
    ("search", "pareto_front", "search.pareto"),
    ("search", "match_flops_budget", "search.match"),
    ("search", "best_compressed", "search.best"),
    ("cli", "read_frontier_csv", "cli.read_frontier"),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.stack: list[str] = []
        self.covered = 0.0  # time of spans directly under cli.main

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "visioncost" or name.startswith("visioncost.")) and m is not None]
        for module, attr, span in TARGETS:
            original = getattr(sys.modules[f"visioncost.{module}"], attr)
            traced = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        table = sys.modules["visioncost.search"].AnnotationTable
        table.for_config = self._wrap("search.annotate", table.for_config)

    def command(self, fn, *args):
        """Run one CLI command as the root span."""
        self.stack.append(ROOT)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[ROOT] += time.perf_counter() - start
            self.stack.pop()

    def _wrap(self, span, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if span not in self.stack:
                    self.seconds[span] += elapsed
                if parent == ROOT:
                    self.covered += elapsed
            self.calls[span] += 1
            self._count(span, args, result)
            return result

        return traced

    def _count(self, span, args, result) -> None:
        if span == "cost.report":
            self.counts["cost.rows"] += len(result.per_layer)
            if "search.match" in self.stack:
                self.counts["search.match_probes"] += 1
        elif span == "cost.propagate" and "scaling.resolution_scale" in self.stack:
            self.counts["scaling.propagate_calls"] += 1
        elif span == "search.pareto":
            self.counts["search.pareto_points"] += len(args[0])
            self.counts["search.front_size"] += len(result)

    def metrics(self, rounds: int, configs: int, files: int, out_bytes: int) -> dict:
        """Per-layer (value, unit), per round so that counts repeat exactly."""
        s, c, n = self.seconds, self.calls, self.counts
        seconds = {
            "arch.load_s": s["arch.load"],
            "scaling.make_config_s": s["scaling.make_config"],
            "cost.report_s": s["cost.report"],
            "cost.serialize_s": s["cost.serialize"],
            "search.enumerate_s": s["search.enumerate"],
            "search.annotate_s": s["search.annotate"],
            "search.pareto_s": s["search.pareto"],
            "search.match_s": s["search.match"],
            "search.best_s": s["search.best"],
            "cli.read_frontier_s": s["cli.read_frontier"],
            "cli.self_s": s[ROOT] - self.covered,
        }
        counts = {
            "arch.validate_calls": c["arch.validate"],
            "scaling.make_config_calls": c["scaling.make_config"],
            "scaling.propagate_calls": n["scaling.propagate_calls"],
            "cost.report_calls": c["cost.report"],
            "cost.rows": n["cost.rows"],
            "search.pareto_points": n["search.pareto_points"],
            "search.front_size": n["search.front_size"],
            "search.match_probes": n["search.match_probes"],
            "cli.files_written": files,
        }
        out = {name: (value / rounds, "s") for name, value in seconds.items()}
        for name, value in counts.items():
            out[name] = (value // rounds if value % rounds == 0 else value / rounds, "count")
        out["cli.bytes_written"] = (out_bytes / rounds, "bytes")
        out["cost.reports_per_config"] = (c["cost.report"] / max(configs, 1), "ratio")
        return out
