"""In-memory spans around the package's public calls, for the traced run.

``install()`` wraps each traced function once and rebinds the wrapper under
every name that refers to the original in any loaded ``logistic_kle``
module, because the modules import names from each other directly
(``from .density import f1n_collapsed``).  Methods of ``InitialLaw`` are
wrapped on the class.  Each span records its name, start, end, parent span
and a few counts; a span's self time is its duration minus the time its
direct children cover.  ``Tracer.metrics()`` turns the spans into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

ROW_POINTS = 2001          # per-row times are normalised to this many p values
ROW_KEYS = [("tensor", 1), ("tensor", 2), ("tensor", 3),
            ("collapsed", 1), ("collapsed", 2), ("exact", None)]
LAYERS = ("cli", "kle", "distributions", "quadrature", "density", "stats",
          "mc_oracle")


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent, attrs]
        self._stack = []

    def wrap(self, name, fn, attrs=None, before=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            state = before() if before else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = start
                stack.pop()
            if attrs:
                spans[idx][4] = attrs(out, state, *args, **kwargs)
            return out

        return traced

    def wrap_generator(self, name, fn, attrs):
        """Each ``next()`` on the generator is one span; consumer time between
        items is not counted."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    spans[idx][1:3] = [start, time.perf_counter()]
                    return
                spans[idx][1:3] = [start, time.perf_counter()]
                spans[idx][4] = attrs(item)
                yield item

        return traced

    # -----------------------------------------------------------------------

    def aggregate(self):
        """{name: {"n", "total", "self", attr sums...}} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {}
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            a = agg.setdefault(name, {"n": 0, "total": 0.0, "self": 0.0})
            a["n"] += 1
            a["total"] += end - start
            a["self"] += end - start - child[i]
            for key, val in (attrs or {}).items():
                if key.startswith("row:"):
                    a.setdefault(key, [0.0, 0])
                    a[key][0] += end - start
                    a[key][1] += val
                elif key.startswith("max:"):
                    a[key] = max(a.get(key, 0.0), val)
                else:
                    a[key] = a.get(key, 0) + val
        return agg

    def metrics(self, wall_s):
        """Per-layer metrics of a traced pass that took ``wall_s`` seconds.

        Every ``*_s`` metric is a self time, except the per-row times, which
        include the row's children; ``stats.moment_error_s`` includes the
        moment-curve loops."""
        agg = self.aggregate()

        def get(name, key="self"):
            return agg.get(name, {}).get(key, 0)

        rows = {path: get(f"density.{path}", "n")
                for path in ("tensor", "collapsed", "exact")}
        points = {path: get(f"density.{path}", "points") for path in rows}
        all_rows = sum(rows.values())
        requested = get("stats.curve", "n")
        computed = get("stats.curve", "computed")
        tensor_work = get("density.tensor", "point_nodes")
        sample_s = get("mc_oracle.sample", "total")
        draws = get("mc_oracle.check", "draws")
        rvt_calls = get("density.rvt_kernel", "n")
        m = {
            "cli.self_s": get("cli.main"),
            "kle.roots_s": get("kle.roots"),
            "kle.roots_calls": get("kle.roots", "n"),
            "kle.primitive_h_calls": get("kle.primitive_h", "n"),
            "kle.primitive_h_s": get("kle.primitive_h"),
            "distributions.norm_s": get("distributions.norm"),
            "distributions.pdf_points": get("distributions.pdf", "points"),
            "distributions.pdf_s": get("distributions.pdf"),
            "distributions.ppf_draws": get("distributions.ppf", "points"),
            "distributions.ppf_s": get("distributions.ppf"),
            "quadrature.rules_built": get("quadrature.rule", "n"),
            "quadrature.rule_s": get("quadrature.rule"),
            "quadrature.tensor_nodes": get("quadrature.chunk", "nodes"),
            "quadrature.chunk_s": get("quadrature.chunk"),
        }
        for path in rows:
            m[f"density.rows.{path}"] = rows[path]
            m[f"density.points.{path}"] = points[path]
            m[f"density.{path}_s"] = get(f"density.{path}")
            m[f"density.row_share.{path}"] = rows[path] / all_rows if all_rows else 0.0
        m.update({
            "density.tensor_ns_per_point_node":
                1e9 * get("density.tensor", "total") / tensor_work if tensor_work else 0.0,
            "density.rvt_kernel_calls": rvt_calls,
            "density.rvt_kernel_points": get("density.rvt_kernel", "points"),
            "density.rvt_kernel_s": get("density.rvt_kernel"),
            "density.points_per_rvt_call":
                get("density.rvt_kernel", "points") / rvt_calls if rvt_calls else 0.0,
        })
        for path, N in ROW_KEYS:
            key = f"row:{N}"
            span_s, pts = agg.get(f"density.{path}", {}).get(key, [0.0, 0])
            label = f"density.row_s_{ROW_POINTS}.{path}" + (f".N{N}" if N else "")
            m[label] = span_s / pts * ROW_POINTS if pts else 0.0
        m.update({
            "stats.moments_calls": get("stats.moments", "n"),
            "stats.moments_s": get("stats.moments"),
            "stats.curve_requests": requested,
            "stats.curves_computed": computed,
            "stats.curve_reuse": 1.0 - computed / requested if requested else 0.0,
            "stats.pdf_error_s": get("stats.pdf_error"),
            "stats.moment_error_s": get("stats.moment_error") + get("stats.curve"),
            "mc_oracle.checks": get("mc_oracle.check", "n"),
            "mc_oracle.checks_failed": get("mc_oracle.check", "failed"),
            "mc_oracle.draws": draws,
            "mc_oracle.self_s": get("mc_oracle.check") + get("mc_oracle.sample"),
            "mc_oracle.draws_per_s": draws / sample_s if sample_s else 0.0,
            "mc_oracle.s_per_1e6_draws": sample_s / draws * 1e6 if draws else 0.0,
            "mc_oracle.max_abs_z": get("mc_oracle.check", "max:z"),
            "trace.spans": len(self.spans),
        })
        # each layer's share of the pass: the sum of its spans' self times
        for layer in LAYERS:
            busy = sum(a["self"] for name, a in agg.items()
                       if name.split(".")[0] == layer)
            m[f"share.{layer}"] = busy / wall_s
        return m

    def dump(self, path):
        """Write the raw spans, one JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


# ---------------------------------------------------------------------------


def _size(x):
    return int(np.size(x))


def _row_attrs(path):
    def attrs(out, state, problem, p, *rest, **kw):
        n = _size(p)
        a = {"points": n, f"row:{problem.N}": n}
        if path == "tensor":
            a["point_nodes"] = n * problem.rule.order ** problem.N
        return a
    return attrs


def _exact_attrs(out, state, initial, p, *rest, **kw):
    return {"points": _size(p), "row:None": _size(p)}


def install(tracer: Tracer):
    """Wrap the traced calls in every ``logistic_kle`` namespace."""
    from logistic_kle import (cli, density, distributions, kle, mc_oracle,
                              quadrature, stats)

    def curve_attrs(out, before, *a, **kw):
        return {"computed": int(len(stats._CURVE_CACHE) > before)}

    def check_attrs(report, state, problem, t, cfg, *a, **kw):
        return {"draws": int(cfg.samples), "failed": int(report.max_abs_z > 5.0),
                "max:z": float(report.max_abs_z)}

    targets = [
        (cli, "main", "cli.main", {}),
        (kle, "expcov_roots", "kle.roots", {}),
        (kle, "primitive_h", "kle.primitive_h", {}),
        (distributions, "truncated_beta", "distributions.norm", {}),
        (distributions, "truncated_exponential", "distributions.norm", {}),
        (quadrature, "make_rule", "quadrature.rule", {}),
        (density, "_f1n_tensor_many", "density.tensor",
         {"attrs": _row_attrs("tensor")}),
        (density, "f1n_collapsed", "density.collapsed",
         {"attrs": _row_attrs("collapsed")}),
        (density, "f1_exact_wiener", "density.exact", {"attrs": _exact_attrs}),
        (density, "rvt_kernel", "density.rvt_kernel",
         {"attrs": lambda out, s, p, K: {"points": _size(p)}}),
        (stats, "moments_n", "stats.moments", {}),
        (stats, "e_pdf_exact", "stats.pdf_error", {}),
        (stats, "e_pdf_consecutive", "stats.pdf_error", {}),
        (stats, "e_moment_exact", "stats.moment_error", {}),
        (stats, "e_moment_consecutive", "stats.moment_error", {}),
        (stats, "_moment_curves", "stats.curve",
         {"attrs": curve_attrs, "before": lambda: len(stats._CURVE_CACHE)}),
        (stats, "_exact_moment_curves", "stats.curve",
         {"attrs": curve_attrs, "before": lambda: len(stats._CURVE_CACHE)}),
        (mc_oracle, "mc_density_check", "mc_oracle.check", {"attrs": check_attrs}),
        (mc_oracle, "_sample_block", "mc_oracle.sample", {}),
    ]
    swaps = {}
    for module, attr, name, opts in targets:
        orig = getattr(module, attr)
        swaps[id(orig)] = (orig, tracer.wrap(name, orig, **opts))
    chunks = quadrature.tensor_nodes_chunks
    swaps[id(chunks)] = (chunks, tracer.wrap_generator(
        "quadrature.chunk", chunks, lambda item: {"nodes": len(item[1])}))

    for modname, module in list(sys.modules.items()):
        if modname != "logistic_kle" and not modname.startswith("logistic_kle."):
            continue
        for attr, value in list(vars(module).items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    law = distributions.InitialLaw
    law.pdf = tracer.wrap("distributions.pdf", law.pdf,
                          attrs=lambda out, s, self, p: {"points": _size(p)})
    law.ppf = tracer.wrap("distributions.ppf", law.ppf,
                          attrs=lambda out, s, self, u: {"points": _size(u)})
