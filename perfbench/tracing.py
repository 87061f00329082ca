"""Tracing shim for the traced run: spans and counters around specmp's public calls.

The shim patches each public function at every place it is bound (module
globals, names imported into ``specmp.cli`` or ``specmp.simulator``, the
package namespace, and class methods), so calls made inside the library are
seen too.  Spans are kept in memory and written out after the run.  Hot scalar
calls (``SpectralDensity.__call__``, ``gamma_density``) are counted, not
spanned, because one continuous-model op makes about 161k of them.

Per-layer figures are reported per op.  A metric ending in ``.s`` is the time
in that function's spans minus the time in the nearest nested spans of other
layers (so ``stieltjes.default_grid.s`` keeps its own solves but not the rule
builds they trigger); ``.self_s`` subtracts every child span.  The figures therefore
overlap and do not add up to the op time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import specmp
import specmp.cli
from stats import self_time

OP = "op"


def _layer(name):
    return name.split(".", 1)[0]


class Tracer:
    """Span and counter recorder for one single-threaded traced pass."""

    def __init__(self):
        # span: [op id, parent span id, name, start, end, raised]
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patches = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, parent, name, time.perf_counter(), None, False])
        self._stack.append(sid)
        return sid

    def _close(self, sid, raised):
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def run_op(self, op_id, call):
        """Run one op under a root span; returns (latency, result or exception)."""
        self.op = op_id
        sid = self._open(OP)
        try:
            result = call()
        except Exception as exc:  # a failed op is data, not a benchmark error
            self._close(sid, True)
            return self.spans[sid][4] - self.spans[sid][3], exc
        self._close(sid, False)
        return self.spans[sid][4] - self.spans[sid][3], result

    def _spanned(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, True)
                raise
            self._close(sid, False)
            if after is not None:
                after(self.counters, result, args)
            return result

        return wrapper

    def _counted(self, name, fn, by_caller):
        counters, stack, spans = self.counters, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            if by_caller and stack:
                counters[name + "@" + spans[stack[-1]][2]] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self):
        """Patch specmp's public calls; ``uninstall`` restores them."""
        cli, tl, st, sim, lp = (
            specmp.cli,
            specmp.toeplitz_lsd,
            specmp.stieltjes,
            specmp.simulator,
            specmp.linear_process,
        )
        spanned = {
            "cli.main": ([cli], "main", None),
            "toeplitz_lsd.gamma_lsd": ([tl, cli, specmp], "gamma_lsd", None),
            "toeplitz_lsd.rule": ([tl.AbsContinuousLSD], "rule", None),
            "stieltjes.solve_fixed_point": ([st, specmp], "solve_fixed_point", _solution_iterations),
            "stieltjes.default_grid": ([st, cli, specmp], "default_grid", None),
            "stieltjes.invert_to_density": ([st, cli, specmp], "invert_to_density", _grid_points),
            "simulator.simulate_matrix": ([sim, cli, specmp], "simulate_matrix", _innovation_bytes),
            "simulator.sample_cov_eigenvalues": ([sim, cli, specmp], "sample_cov_eigenvalues", _gram_flops),
            "linear_process.ma_coefficients": ([lp, sim, specmp], "ma_coefficients", None),
        }
        # by_caller also counts per enclosing span name: gamma_density calls
        # inside rule spans are the quadrature nodes built
        counted = {
            "toeplitz_lsd.gamma_density": ([tl, specmp], "gamma_density", True),
            "linear_process.SpectralDensity": ([lp.SpectralDensity], "__call__", False),
        }
        for name, (owners, attr, after) in spanned.items():
            for owner in owners:
                self._patch(owner, attr, self._spanned(name, owner.__dict__[attr], after))
        for name, (owners, attr, by_caller) in counted.items():
            for owner in owners:
                self._patch(owner, attr, self._counted(name, owner.__dict__[attr], by_caller))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        keys = ("op", "parent", "name", "start", "end", "raised")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, untraced_latencies, tangential_warnings):
        """Per-op layer figures of this pass (see the module docstring)."""
        spans = self.spans
        children = defaultdict(list)
        for sid, span in enumerate(spans):
            if span[1] is not None:
                children[span[1]].append(sid)

        def foreign(sid, layer):
            # intervals of the nearest descendants that belong to another layer
            out = []
            for c in children[sid]:
                if _layer(spans[c][2]) != layer:
                    out.append((spans[c][3], spans[c][4]))
                else:
                    out.extend(foreign(c, layer))
            return out

        def own_time(sid, other_layers_only):
            start, end, name = spans[sid][3], spans[sid][4], spans[sid][2]
            if other_layers_only:
                return self_time(start, end, foreign(sid, _layer(name)))
            return self_time(start, end, [(spans[c][3], spans[c][4]) for c in children[sid]])

        totals = Counter()
        solves_in_inversion = 0
        rule_by_op = Counter()
        op_wall = {}
        for sid, span in enumerate(spans):
            name = span[2]
            if name == OP:
                op_wall[span[0]] = span[4] - span[3]
                continue
            own = own_time(sid, True)
            totals[name + ".s"] += own
            totals[name + ".self_s"] += own_time(sid, False)
            totals[name + ".calls"] += 1
            totals[name + ".failed"] += span[5]
            if name == "toeplitz_lsd.rule":
                rule_by_op[span[0]] += own
            if name == "stieltjes.solve_fixed_point" and _has_ancestor(spans, sid, "stieltjes.invert_to_density"):
                solves_in_inversion += 1

        ops = len(op_wall)
        traced = sum(op_wall.values())
        untraced = sum(untraced_latencies)
        rule_wall = sum(op_wall[o] for o in rule_by_op)
        c = self.counters
        per_op = {
            "toeplitz_lsd.rule.s": totals["toeplitz_lsd.rule.s"],
            "toeplitz_lsd.rule.nodes": c["toeplitz_lsd.gamma_density@toeplitz_lsd.rule"],
            "toeplitz_lsd.gamma_density.calls": c["toeplitz_lsd.gamma_density"],
            "linear_process.SpectralDensity.calls": c["linear_process.SpectralDensity"],
            "toeplitz_lsd.gamma_lsd.s": totals["toeplitz_lsd.gamma_lsd.s"],
            "toeplitz_lsd.tangential_warnings": tangential_warnings,
            "stieltjes.solve_fixed_point.calls": totals["stieltjes.solve_fixed_point.calls"],
            "stieltjes.solve_fixed_point.s": totals["stieltjes.solve_fixed_point.s"],
            "stieltjes.solve_fixed_point.iterations": c["stieltjes.solve_fixed_point.iterations"],
            "stieltjes.solve_fixed_point.failed": totals["stieltjes.solve_fixed_point.failed"],
            "stieltjes.invert_to_density.self_s": totals["stieltjes.invert_to_density.self_s"],
            "stieltjes.default_grid.s": totals["stieltjes.default_grid.s"],
            "simulator.simulate_matrix.s": totals["simulator.simulate_matrix.s"],
            "linear_process.ma_coefficients.s": totals["linear_process.ma_coefficients.s"],
            "simulator.sample_cov_eigenvalues.s": totals["simulator.sample_cov_eigenvalues.s"],
            "simulator.innovation_bytes.computed": c["simulator.innovation_bytes.computed"],
            "simulator.gram_flops.computed": c["simulator.gram_flops.computed"],
            "cli.self_s": totals["cli.main.self_s"],
            "trace.overhead_s": traced - untraced,
        }
        metrics = {name: value / ops for name, value in per_op.items()}
        grid_points = c["stieltjes.invert_to_density.grid_points"]
        metrics["stieltjes.solves_per_grid_point"] = solves_in_inversion / grid_points if grid_points else 0.0
        # rule time as a share of the wall time of the ops that reach the rule
        # layer, over all of them and for the op where it is least
        metrics["toeplitz_lsd.rule.op_share"] = totals["toeplitz_lsd.rule.s"] / rule_wall if rule_wall else 0.0
        metrics["toeplitz_lsd.rule.op_share_min"] = min(
            (rule_by_op[o] / op_wall[o] for o in rule_by_op), default=0.0
        )
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        metrics["trace.ops"] = ops
        return metrics


def _has_ancestor(spans, sid, name):
    parent = spans[sid][1]
    while parent is not None:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False


def _solution_iterations(counters, solution, args):
    counters["stieltjes.solve_fixed_point.iterations"] += solution.iterations


def _grid_points(counters, density, args):
    counters["stieltjes.invert_to_density.grid_points"] += density.grid.size


def _innovation_bytes(counters, X, args):
    # computed: the p x 2n float64 innovation array simulate_matrix draws
    p, n = X.shape
    counters["simulator.innovation_bytes.computed"] += p * 2 * n * 8


def _gram_flops(counters, spectrum, args):
    # computed: X X^T of a p x n matrix
    p, n = args[0].shape
    counters["simulator.gram_flops.computed"] += 2 * p * p * n
