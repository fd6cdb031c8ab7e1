"""Spans around the public functions of every branchknot module.

The package is not edited: `Tracer.install` replaces each public function
at every module attribute that binds it (knot, deformation and intersect
import names such as `find_double_points` and `evaluate_F` directly), and
`uninstall` puts the originals back.  A span records its name, start,
end, parent span and case id, plus work counts for a few functions.
Spans stay in memory until the runner writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "branchknot"
LAYERS = ("cli", "deformation", "intersect", "knot", "weierstrass", "cpoly",
          "_kernels")
# methods traced besides the module-level public functions
METHODS = {"cpoly": (("CPoly", "roots"),)}

# work counted at the span boundary: f(args, kwargs, result) -> counts
WORK = {
    "_kernels.newton_double_points":
        lambda a, k, r: {"seeds": len(a[0]), "converged": int(r[3].sum())},
    "_kernels.linking_sum": lambda a, k, r: {"pairs": len(a[0]) * len(a[1])},
    "intersect.find_double_points": lambda a, k, r: {"double_points": len(r)},
    "knot.trace_slice": lambda a, k, r: {"samples": int(r.samples.shape[0])},
    "deformation.sample_generic": lambda a, k, r: {"accepted": 1},
}

# span tuple fields
NAME, START, END, PARENT, CASE, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.case_id = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                counts = work(args, kwargs, result) if work and result is not None else None
                spans[sid] = (name, t0, t1, parent, self.case_id, counts)
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a package module binds it."""
        originals = {}          # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patched.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for sid, s in enumerate(spans):
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, s[START]), min(b, s[END])
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((s[END] - s[START]) - covered)
    return out


class SpanStats:
    """Totals over a list of spans by function name, optionally for one case."""

    def __init__(self, spans: list, case=None, outside: str | None = None):
        self.spans = spans
        self.selfs = self_times(spans)
        self.ids = [i for i, s in enumerate(spans)
                    if (case is None or s[CASE] == case)
                    and (outside is None or not self._under(i, outside))]

    def _under(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def _ids(self, names):
        names = {names} if isinstance(names, str) else set(names)
        return [i for i in self.ids if self.spans[i][NAME] in names], names

    def outer_s(self, names) -> float:
        """Inclusive time of the named spans, not counting nested repeats."""
        ids, names = self._ids(names)
        total = 0.0
        for i in ids:
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][NAME] not in names:
                p = self.spans[p][PARENT]
            if p < 0:
                total += self.spans[i][END] - self.spans[i][START]
        return total

    def self_s(self, names) -> float:
        ids, _ = self._ids(names)
        return sum((self.selfs[i] for i in ids), 0.0)

    def calls(self, name: str, parent: str | None = None) -> int:
        ids, _ = self._ids(name)
        if parent is None:
            return len(ids)
        return sum(1 for i in ids if self.spans[i][PARENT] >= 0
                   and self.spans[self.spans[i][PARENT]][NAME] == parent)

    def work(self, name: str, key: str) -> int:
        ids, _ = self._ids(name)
        return sum((self.spans[i][COUNTS] or {}).get(key, 0) for i in ids)

    def layer_self_s(self, layer: str) -> float:
        return sum((self.selfs[i] for i in self.ids
                    if self.spans[i][NAME].split(".", 1)[0] == layer), 0.0)


def _ratio(num: float, den: float):
    """num / den, or None where the base is 0 and the ratio is undefined."""
    return num / den if den else None


FIND = "intersect.find_double_points"
NEWTON = "_kernels.newton_double_points"
LINK = "_kernels.linking_sum"
TRACE = "knot.trace_slice"
BRAID = ("knot.braid_from_knot", "knot.stable_crossing_number")
SAMPLE = "deformation.sample_generic"

# ratios are reported with their bases but left out of the result line: on
# a workload that never calls their layer the base is 0 and they are
# undefined, while the counts and times they are made from read 0
RATIOS = ("intersect.useful_ratio", "kernels.newton_seeds_per_s",
          "kernels.newton_converged_ratio", "kernels.linking_pairs_per_s",
          "deformation.accept_ratio")


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics: name -> (value, unit, base of a ratio or None).

    A ratio's value is None where its base is 0.
    """
    st = SpanStats(spans)
    m = {}

    def put(name, value, unit, base=None):
        m[name] = (value, unit, base)

    seeds = st.work(NEWTON, "seeds")
    dps = st.work(FIND, "double_points")
    put("intersect.find_s", st.outer_s(FIND), "s")
    put("intersect.find_self_s", st.self_s(FIND), "s")
    put("intersect.find_calls", st.calls(FIND), "count")
    put("intersect.newton_seeds", seeds, "count")
    put("intersect.double_points", dps, "count")
    put("intersect.useful_ratio", _ratio(dps, seeds), "ratio",
        f"{dps} double points / {seeds} Newton seeds")

    newton_s, link_s = st.outer_s(NEWTON), st.outer_s(LINK)
    converged = st.work(NEWTON, "converged")
    pairs = st.work(LINK, "pairs")
    put("kernels.newton_s", newton_s, "s")
    put("kernels.newton_seeds_per_s", _ratio(seeds, newton_s), "1/s",
        f"{seeds} seeds / {newton_s:.3f} s")
    put("kernels.newton_converged", converged, "count")
    put("kernels.newton_converged_ratio", _ratio(converged, seeds), "ratio",
        f"{converged} converged / {seeds} seeds")
    put("kernels.linking_s", link_s, "s")
    put("kernels.linking_pairs", pairs, "count")
    put("kernels.linking_pairs_per_s", _ratio(pairs, link_s), "1/s",
        f"{pairs} segment pairs (n*m, computed) / {link_s:.3f} s")

    put("knot.trace_s", st.outer_s(TRACE), "s")
    put("knot.trace_calls", st.calls(TRACE), "count")
    put("knot.trace_samples", st.work(TRACE, "samples"), "count")
    put("knot.select_eta_s", st.outer_s("knot.select_eta"), "s")
    put("knot.eta_tries", st.calls(TRACE, parent="knot.select_eta"), "count")
    put("knot.braid_s", st.outer_s(BRAID), "s")
    put("knot.linking_self_s", st.self_s("knot.linking_number_gauss"), "s")

    put("weierstrass.evaluate_F_calls", st.calls("weierstrass.evaluate_F"), "count")
    put("weierstrass.jacobian_calls", st.calls("weierstrass.jacobian"), "count")
    put("weierstrass.eval_s",
        st.outer_s(("weierstrass.evaluate_F", "weierstrass.jacobian")), "s")
    put("weierstrass.branch_points_s", st.outer_s("weierstrass.branch_points"), "s")

    draws = st.calls("deformation.check_X1", parent=SAMPLE)
    accepted = st.work(SAMPLE, "accepted")
    put("deformation.sample_s", st.outer_s(SAMPLE), "s")
    put("deformation.sample_self_s", st.self_s(SAMPLE), "s")
    put("deformation.draws", draws, "count")
    put("deformation.accepted", accepted, "count")
    put("deformation.accept_ratio", _ratio(accepted, draws), "ratio",
        f"{accepted} accepted / {draws} draws")
    put("deformation.gauss_residual_s",
        st.outer_s("deformation.gauss_invariance_residual"), "s")

    put("cpoly.roots_calls", st.calls("cpoly.CPoly.roots"), "count")
    put("cpoly.roots_s", st.outer_s("cpoly.CPoly.roots"), "s")
    put("cli.self_s", st.layer_self_s("cli"), "s")
    return m


def case_split(spans: list, case) -> dict:
    """The ROADMAP baseline split of one case; the sampler's own search apart."""
    st = SpanStats(spans, case)
    own = SpanStats(spans, case, outside=SAMPLE)
    return {
        "find_double_points_s": own.outer_s(FIND),
        "newton_seeds": own.work(NEWTON, "seeds"),
        "sample_generic_s": st.outer_s(SAMPLE),
        "sample_newton_seeds": st.work(NEWTON, "seeds") - own.work(NEWTON, "seeds"),
        "trace_slice_s": st.outer_s(TRACE),
        "trace_slice_calls": st.calls(TRACE),
        "linking_number_gauss_s": st.outer_s("knot.linking_number_gauss"),
        "braid_s": st.outer_s(BRAID),
    }
