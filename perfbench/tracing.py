"""Spans and counts around the calls into geomatch's layers, recorded from
the benchmark's side.

Each traced name is replaced where its caller looks it up (for instance
``geomatch.bottleneck.box_cover``, which ``decide`` calls, apart from
``geomatch.box_cover``, which the benchmark calls) by a wrapper that records a
span: name, start, end and the span open when it began.  A layer's self time
is its spans' time minus the part covered by their child spans.  Counts are
read from arguments and returned objects; the time spent reading them is
charged to no layer.  A name the program no longer has is skipped, and the
metrics that rest only on it are left out of the report.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _sigma(cover) -> int:
    return sum(len(ps) + len(rs) for ps, rs in cover.parts)


def _support(f) -> int:
    return len(f.flow if hasattr(f, "flow") else f)


def _count_cover(c, args, result, _before):
    c["sigma"] += _sigma(result)
    c["parts"] += len(result.parts)


def _count_network(c, args, result, _before):
    c["network_edges"] += result.edge_count


def _count_level_graph(c, args, result, _before):
    c["level_graph_edges"] += result.edge_count


def _count_phase(c, args, result, _before):
    c["phases"] += 1


def _support_in(args) -> int:
    # read before the call: the prune rewrites a phase state's flow in place
    return _support(args[0])


def _count_prune(c, args, result, support_in):
    c["support_in"] += support_in
    c["support_out"] += _support(result)


def _count_scale(c, args, result, _before):
    if isinstance(result, int):
        c["scale_bits"] = max(c["scale_bits"], result.bit_length())


def _count_link(c, args, result, _before):
    c["links"] += 1


def _count_cut(c, args, result, _before):
    c["cuts"] += 1


# (module, attribute, span name or None for a count alone, counting hook).
# A hook is called as hook(counts, args, result, before), where ``before`` is
# what the site's entry in _BEFORE read from the arguments ahead of the call.
SITES = [
    ("geomatch", "box_cover", "box_cover", _count_cover),
    ("geomatch.bottleneck", "box_cover", "box_cover", _count_cover),
    ("geomatch.cli", "box_cover", "box_cover", _count_cover),
    ("geomatch.bottleneck", "trivial_cover", "trivial_cover", _count_cover),
    ("geomatch.cli", "trivial_cover", "trivial_cover", _count_cover),
    ("geomatch.bottleneck", "build_network", "build_network", _count_network),
    ("geomatch.cli", "build_network", "build_network", _count_network),
    ("geomatch.bottleneck", "max_flow_dinitz", "max_flow_dinitz", None),
    ("geomatch.cli", "max_flow_dinitz", "max_flow_dinitz", None),
    ("geomatch.bottleneck", "flow_to_matching", "flow_to_matching", None),
    ("geomatch.cli", "flow_to_matching", "flow_to_matching", None),
    ("geomatch", "max_matching_implicit", "max_matching_implicit", None),
    ("geomatch.cli", "max_matching_implicit", "max_matching_implicit", None),
    ("geomatch.implicit_dinitz", "build_level_graph", "build_level_graph", None),
    ("geomatch.implicit_dinitz", "expand_level_graph", "expand_level_graph", _count_level_graph),
    ("geomatch.implicit_dinitz", "blocking_flow", "blocking_flow", None),
    ("geomatch.implicit_dinitz", "augment_and_project", "augment_and_project", _count_phase),
    ("geomatch.implicit_dinitz", "prune_to_forest", "prune_to_forest", _count_prune),
    ("geomatch", "bottleneck_search", "bottleneck_search", None),
    ("geomatch.bottleneck", "bottleneck_search", "bottleneck_search", None),
    ("geomatch.bottleneck", "decide", "decide", None),
    ("geomatch", "pd_bottleneck", "pd_bottleneck", None),
    ("geomatch.cli", "parse_points", "parse", None),
    ("geomatch.cli", "parse_ranges", "parse", None),
    ("geomatch.bottleneck", "integer_scale", None, _count_scale),
    ("geomatch.rblct", "integer_scale", None, _count_scale),
    ("geomatch.rblct", "RbForest.link", None, _count_link),
    ("geomatch.rblct", "RbForest.cut", None, _count_cut),
]

_BEFORE = {"prune_to_forest": _support_in}

_PD_DECISION_PARTS = ("box_cover", "build_network", "max_flow_dinitz")


class Tracer:
    """Installs the wrappers on ``install`` and removes them on
    ``uninstall``; spans and counts accumulate across installs."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.excluded = defaultdict(float)  # span index -> counting time inside it
        self.counts = defaultdict(int)
        self.stack = []
        self.present = set()  # (module, attribute) pairs found in the program
        self._patches = []  # (owner, attribute, original, wrapper)
        for mod_name, attr, span, hook in SITES:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            self.present.add((mod_name, attr))
            self._patches.append((owner, leaf, original, self._wrap(original, span, hook)))

    def _wrap(self, fn, name, hook):
        spans, stack, counts, excluded = self.spans, self.stack, self.counts, self.excluded
        clock = time.perf_counter
        before_of = _BEFORE.get(name)

        def account(args, result, before, t_end):
            hook(counts, args, result, before)
            if stack:
                excluded[stack[-1]] += clock() - t_end

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                account(args, result, None, clock())
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = None
            if before_of is not None:
                t_pre = clock()
                before = before_of(args)
                if stack:
                    excluded[stack[-1]] += clock() - t_pre
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if hook is not None:
                account(args, result, before, t1)
            return result

        return traced

    def install(self):
        for owner, leaf, _orig, wrapper in self._patches:
            setattr(owner, leaf, wrapper)

    def uninstall(self):
        for owner, leaf, original, _wrapper in self._patches:
            setattr(owner, leaf, original)

    def span(self, name):
        """Context manager for a root span around one timed operation."""
        return _Span(self, name)

    def has(self, *sites) -> bool:
        return any(s in self.present for s in sites)

    def metrics(self) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        self_time = [d - self.excluded.get(i, 0.0) for i, d in enumerate(dur)]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self_time[s[3]] -= dur[i]
        by_name = defaultdict(float)
        calls = defaultdict(int)
        for i, s in enumerate(spans):
            by_name[s[0]] += self_time[i]
            calls[s[0]] += 1

        decisions = calls["decide"]
        decision_time = sum(d for s, d in zip(spans, dur) if s[0] == "decide")
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0 and spans[parent][0] == "pd_bottleneck":
                if s[0] == "max_flow_dinitz":
                    decisions += 1
                if s[0] in _PD_DECISION_PARTS:
                    decision_time += dur[i]

        c = self.counts
        bn, cl, im = "geomatch.bottleneck", "geomatch.cli", "geomatch.implicit_dinitz"
        rows = [
            # name, unit, value, sites any of which the metric rests on
            ("cover.box_cover.s", "s", by_name["box_cover"],
             [("geomatch", "box_cover"), (bn, "box_cover"), (cl, "box_cover")]),
            ("cover.box_cover.calls", "count", calls["box_cover"],
             [("geomatch", "box_cover"), (bn, "box_cover"), (cl, "box_cover")]),
            ("cover.trivial_cover.s", "s", by_name["trivial_cover"],
             [(bn, "trivial_cover"), (cl, "trivial_cover")]),
            ("cover.trivial_cover.calls", "count", calls["trivial_cover"],
             [(bn, "trivial_cover"), (cl, "trivial_cover")]),
            ("cover.sigma", "count", c["sigma"],
             [("geomatch", "box_cover"), (bn, "box_cover"), (bn, "trivial_cover")]),
            ("cover.parts", "count", c["parts"],
             [("geomatch", "box_cover"), (bn, "box_cover"), (bn, "trivial_cover")]),
            ("flow.build_network.s", "s", by_name["build_network"],
             [(bn, "build_network"), (cl, "build_network")]),
            ("flow.max_flow_dinitz.s", "s", by_name["max_flow_dinitz"],
             [(bn, "max_flow_dinitz"), (cl, "max_flow_dinitz")]),
            ("flow.max_flow_dinitz.calls", "count", calls["max_flow_dinitz"],
             [(bn, "max_flow_dinitz"), (cl, "max_flow_dinitz")]),
            ("flow.network_edges", "count", c["network_edges"],
             [(bn, "build_network"), (cl, "build_network")]),
            ("flow.flow_to_matching.s", "s", by_name["flow_to_matching"],
             [(bn, "flow_to_matching"), (cl, "flow_to_matching")]),
            ("implicit_dinitz.build_level_graph.s", "s", by_name["build_level_graph"],
             [(im, "build_level_graph")]),
            ("implicit_dinitz.expand_level_graph.s", "s", by_name["expand_level_graph"],
             [(im, "expand_level_graph")]),
            ("implicit_dinitz.blocking_flow.s", "s", by_name["blocking_flow"],
             [(im, "blocking_flow")]),
            ("implicit_dinitz.augment_and_project.s", "s", by_name["augment_and_project"],
             [(im, "augment_and_project")]),
            ("implicit_dinitz.phases", "count", c["phases"], [(im, "augment_and_project")]),
            ("implicit_dinitz.level_graph_edges", "count", c["level_graph_edges"],
             [(im, "expand_level_graph")]),
            ("rblct.prune_to_forest.s", "s", by_name["prune_to_forest"],
             [(im, "prune_to_forest")]),
            ("rblct.support_in", "count", c["support_in"], [(im, "prune_to_forest")]),
            ("rblct.support_out", "count", c["support_out"], [(im, "prune_to_forest")]),
            ("rblct.links", "count", c["links"], [("geomatch.rblct", "RbForest.link")]),
            ("rblct.cuts", "count", c["cuts"], [("geomatch.rblct", "RbForest.cut")]),
            ("bottleneck.decisions", "count", decisions,
             [(bn, "decide"), ("geomatch", "pd_bottleneck")]),
            ("bottleneck.decision.s", "s", decision_time / decisions if decisions else 0.0,
             [(bn, "decide"), ("geomatch", "pd_bottleneck")]),
            ("bottleneck.select.s", "s",
             by_name["bottleneck_search"] + by_name["pd_bottleneck"],
             [("geomatch", "bottleneck_search"), ("geomatch", "pd_bottleneck")]),
            ("numeric.scale_bits", "count", c["scale_bits"],
             [(bn, "integer_scale"), ("geomatch.rblct", "integer_scale")]),
            ("cli.parse.s", "s", by_name["parse"],
             [(cl, "parse_points"), (cl, "parse_ranges")]),
        ]
        return {
            name: {"value": value, "unit": unit}
            for name, unit, value, sites in rows
            if self.has(*sites)
        }

    def dump(self, path, t_origin: float) -> None:
        """Write the spans (times relative to ``t_origin``) and the counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "spans": [[s[0], s[1] - t_origin, s[2] - t_origin, s[3]] for s in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(data))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append([self.name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1])
        tr.stack.append(self.idx)
        tr.spans[self.idx][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.idx][2] = time.perf_counter()
        tr.stack.pop()
        return False
