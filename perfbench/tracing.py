"""Spans around the calls each tropica module makes into the next.

A wrapper is patched into the namespace of the *calling* module (and into
the benchmark's own `api` namespace), so a call is counted where it crosses
a module boundary: recursive `_feasible_point` calls inside `polyhedra`
stay uncounted.  `Polynomial` and `Pair` methods live on their classes; they
are counted unless the caller is already inside `polynomials`.  Spans are
kept in memory as lists and written out once the run ends.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "cli", "parsing", "polynomials", "matrices", "polyhedra",
    "varieties", "krull", "primes", "traces", "tropical_linear",
)
# scalar coercion and mode validation, counted as their caller's self time
UNTRACED = {"to_fraction", "_check_mode"}
METHODS = {
    "Polynomial": (
        "__add__", "__mul__", "__pow__", "scale", "delete_term",
        "evaluate", "vanishes_at", "restrict_to_stratum",
    ),
    "Pair": ("add", "mul", "twisted"),
}
COMPLEX_BUILDERS = {"hypersurface", "prevariety", "affine_prevariety"}
MEMBERSHIP = {"bend_ideal_member", "pair_in_prime"}
ADMISSIBILITY = {"check_admissible", "admissibility_violations"}


def _ratio(part, whole) -> float:
    """part / whole, and 0 when the layer did no such work."""
    return part / whole if whole else 0.0


# span fields
ID, PARENT, QUERY, LAYER, NAME, START, END, CHILD = range(8)


class Tracer:
    """Spans and counts of one traced run; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def run_query(self, qid: int, kind: str, call):
        """Run one query under a root span; the stack is empty outside it."""
        root = [len(self.spans), None, qid, "bench", kind, 0, 0, 0]
        self.spans.append(root)
        self.stack.append(root)
        root[START] = perf_counter_ns()
        try:
            return call()
        finally:
            root[END] = perf_counter_ns()
            self.stack.pop()

    def _wrap(self, layer: str, name: str, fn, nested: bool):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or (not nested and stack[-1][LAYER] == layer):
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [len(spans), parent[ID], parent[QUERY], layer, name, 0, 0, 0]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
                parent[CHILD] += span[END] - span[START]
            if name in COMPLEX_BUILDERS and layer == "varieties":
                counts["varieties.cells_out"] += len(result.cells)
            elif name in MEMBERSHIP and layer == "primes":
                counts["primes.member_true"] += bool(result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, api) -> None:
        modules = {f"tropica.{name}": name for name in LAYERS}
        callers = [m for name, m in sys.modules.items() if name.startswith("tropica.")]
        for owner in callers + [api]:
            here = getattr(owner, "__name__", "bench")
            for attr, value in list(vars(owner).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ in modules
                    and value.__module__ != here
                    and attr not in UNTRACED
                ):
                    layer = modules[value.__module__]
                    self._patch(owner, attr, self._wrap(layer, attr, value, nested=True))
        polynomials = sys.modules["tropica.polynomials"]
        for cls, names in METHODS.items():
            owner = getattr(polynomials, cls)
            for attr in names:
                fn = getattr(owner, attr)
                self._patch(owner, attr, self._wrap("polynomials", attr, fn, nested=False))
        self._count_steps(sys.modules["tropica.traces"])
        self._count_oracle(sys.modules["tropica.tropical_linear"])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _count_steps(self, traces) -> None:
        """Steps replayed: calls of the verifier's per-step check."""
        check, stack, counts = traces._check_step, self.stack, self.counts

        def counted(*args, **kwargs):
            if stack:
                counts["traces.steps"] += 1
            return check(*args, **kwargs)

        self._patch(traces, "_check_step", counted)

    def _count_oracle(self, tropical_linear) -> None:
        """Wrap the oracle argument of elimination_witness to count its answers."""
        witness, stack, counts = tropical_linear.elimination_witness, self.stack, self.counts

        def counted_witness(f, g, u, oracle, *args, **kwargs):
            def counted(h):
                accepted = oracle(h)
                if stack:
                    counts["tropical_linear.oracle_calls"] += 1
                    counts["tropical_linear.oracle_accepts"] += bool(accepted)
                return accepted

            return witness(f, g, u, counted, *args, **kwargs)

        self._patch(tropical_linear, "elimination_witness", counted_witness)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls and self time, plus the layers' own work counts."""
        spans, counts = self.spans, self.counts
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        candidates = membership = admissible = 0
        for span in spans:
            layer = span[LAYER]
            if layer == "bench":
                continue
            calls[layer] += 1
            self_ns[layer] += span[END] - span[START] - span[CHILD]
            name = span[NAME]
            if layer == "polyhedra" and name == "relative_interior_point":
                candidates += spans[span[PARENT]][LAYER] == "varieties"
            elif layer == "primes" and name in MEMBERSHIP:
                membership += 1
            elif layer == "primes" and name in ADMISSIBILITY:
                admissible += 1
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
        cells_out = counts["varieties.cells_out"]
        oracle = counts["tropical_linear.oracle_calls"]
        out["varieties.candidate_cells"] = (candidates, "count")
        out["varieties.cells_out"] = (cells_out, "count")
        out["varieties.keep_ratio"] = (_ratio(cells_out, candidates), "ratio")
        out["primes.admissible_checks"] = (admissible, "count")
        out["primes.member_ratio"] = (_ratio(counts["primes.member_true"], membership), "ratio")
        out["traces.steps"] = (counts["traces.steps"], "count")
        out["tropical_linear.oracle_calls"] = (oracle, "count")
        accepts = counts["tropical_linear.oracle_accepts"]
        out["tropical_linear.oracle_accept_ratio"] = (_ratio(accepts, oracle), "ratio")
        return out

    def write(self, path) -> None:
        """One span per line: id, parent, query, layer, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,query,layer,name,start_ns,end_ns\n")
            for s in self.spans:
                parent = "" if s[PARENT] is None else s[PARENT]
                fh.write(f"{s[ID]},{parent},{s[QUERY]},{s[LAYER]},{s[NAME]},{s[START]},{s[END]}\n")
