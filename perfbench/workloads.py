"""The four workloads: seeded inputs, the library calls, and the answer checks.

A workload is a sequence of rounds.  Round r of seed s is generated from its
own random stream, so a run can stop at any round boundary and every round
has the workload's full mix.  Each query is a `Query`: `call` is the timed
library call, and `check` maps its outcome to a canonical output (compared
byte for byte with the recorded reference on the default seed) and to a
verdict from invariants the benchmark computes itself.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import exact as ex


class Query(NamedTuple):
    kind: str
    call: Callable[[], object]
    check: Callable[[tuple], tuple[str, bool]]
    # inputs that do not depend on the seed are named, and their canonical
    # output is compared with the reference on every seed
    fixed: str | None = None


def _raised(out) -> str:
    return "raise " + type(out[1]).__name__


def _int_point(rng, n):
    return tuple(rng.randint(-2, 2) for _ in range(n))


def _satisfies(normal, rhs, rel, point) -> bool:
    value = ex.dot(normal, point)
    return value == rhs if rel == "eq" else value <= rhs


def complex_ok(data: dict, gens: list[dict], n: int, point=None) -> bool:
    """Every interior point lies in its cell and every generator vanishes there.

    With `point` (a point where all generators vanish, by construction) some
    R^n cell must also contain it.
    """
    if data["ambient"] != n:
        return False
    covered = point is None
    for cell in data["cells"]:
        stratum = tuple(cell["stratum"])
        pt = [Fraction(v) for v in cell["interior_point"]]
        if len(pt) != n - len(stratum) or not 0 <= cell["dim"] <= len(pt):
            return False
        cons = [
            ([Fraction(v) for v in normal], Fraction(rhs), rel)
            for normal, rhs, rel in zip(cell["normals"], cell["rhs"], cell["relations"])
        ]
        if not all(_satisfies(*c, pt) for c in cons):
            return False
        for g in gens:
            live = ex.restrict(g, stratum) if stratum else g
            if not live and stratum:
                continue  # the generator is bottom on the whole stratum
            if not ex.vanishes(live, pt):
                return False
        if not covered and not stratum and all(_satisfies(*c, point) for c in cons):
            covered = True
    return covered


def dim_report_ok(data: dict, gens: list[dict], n: int) -> bool:
    """The witness is an admissible rank d+1 prime containing every bend."""
    d = data["variety_dim"]
    rows = [[Fraction(x) for x in row] for row in data["witness"]]
    checks = {"admissible": True, "rank": d + 1, "contains_bends": True}
    return (
        0 <= d < n
        and data["coordinate_dim"] == d + 1
        and len(rows) == d + 1
        and data["witness_checks"] == checks
        and not ex.violations(rows, n)
        and all(ex.member(rows, g) for g in gens)
    )


def _tied_gens(rng, n, count, lo, hi, degree, point):
    return [
        ex.tie_at(rng, ex.random_poly(rng, n, rng.randint(lo, hi), degree), point)
        for _ in range(count)
    ]


# -- cells --------------------------------------------------------------------

# One round, as (query, arguments, count).  The arguments are (variables,
# fewest terms, most terms, degree) for hypersurfaces, (variables,
# generators) for prevarieties (2 to 5 - n terms each) and dimension reports
# (3 or 4 terms each), and how the polynomial is made for
# vanishes_on_complex.  The mix is grouped by cost so that the median and
# the 90th percentile each fall inside a group of similar queries, not on
# the edge between two.  At the seed commit, in reference ms: 9 light
# queries (1-8), 15 middle ones (8-20) with the median among the 12 narrow
# 3-variable hypersurfaces, 4 wider ones (5-70), and 8 heavy ones (40-130)
# whose middle is the 90th percentile.  Half of the heavy ones are
# 4-variable linear forms with all five terms, whose cost barely varies, and
# every heavy rung has a fixed number of terms: a range of term counts widens
# its cost and so the seed-to-seed spread.
CELLS_ROUND = [
    ("hypersurface", (2, 3, 4, 2), 3),
    ("prevariety", (2, 2), 2),
    ("prevariety", (2, 3), 1),
    ("dim", (2, 1), 2),
    ("vanish", "miss", 1),
    ("hypersurface", (3, 4, 4, 2), 12),
    ("vanish", "scale", 2),
    ("dim", (3, 1), 1),
    # the warm-up round stops here, before the wide and heavy queries
    ("vanish", "product", 2),
    ("prevariety", (3, 2), 1),
    ("hypersurface", (2, 6, 6, 2), 1),
    ("hypersurface", (4, 5, 5, 1), 4),
    ("hypersurface", (3, 6, 6, 2), 2),
    ("hypersurface", (4, 5, 5, 2), 1),
    ("hypersurface", (2, 10, 10, 3), 1),
]
WARM_ENTRIES = 8


class Cells:
    """hypersurface, prevariety, coordinate_dimension and vanishes_on_complex."""

    name = "cells"

    def setup(self, api, rng):
        """Complexes for vanishes_on_complex.  A query's cost depends on the
        complex, and the complexes last the whole run, so there are enough of
        them for one seed's set to cost about what another's does."""
        complexes = []
        for n in (2, 3) * 6:
            point = _int_point(rng, n)
            (g,) = _tied_gens(rng, n, 1, 4, 4, 2, point)
            complexes.append((g, n, point, api.hypersurface(api.Polynomial(g, n))))
        return complexes

    def make_round(self, api, ctx, rng, index):
        queries = []
        for kind, args, count in CELLS_ROUND[:WARM_ENTRIES] if index < 0 else CELLS_ROUND:
            for _ in range(count):
                if kind == "vanish":
                    queries.append(self._vanish(api, rng, rng.choice(ctx), args))
                    continue
                if kind == "hypersurface":
                    (n, lo, hi, degree), count_gens = args, 1
                else:
                    n, count_gens = args
                    lo, hi, degree = (2, 5 - n, 2) if kind == "prevariety" else (3, 4, 2)
                point = _int_point(rng, n)
                gens = _tied_gens(rng, n, count_gens, lo, hi, degree, point)
                if kind == "dim":
                    queries.append(self._dim(api, gens, n))
                else:
                    queries.append(self._complex(api, kind, gens, n, point))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _complex(api, kind, gens, n, point):
        polys = [api.Polynomial(g, n) for g in gens]
        arg = polys[0] if kind == "hypersurface" else polys

        def check(out):
            if out[0] != "ok":
                return _raised(out), False
            data = api.complex_to_json(out[1])
            return json.dumps(data, sort_keys=True), complex_ok(data, gens, n, point)

        # looked up at call time, so that a traced run sees its wrapper
        return Query(kind, lambda: getattr(api, kind)(arg), check)

    @staticmethod
    def _dim(api, gens, n):
        polys = [api.Polynomial(g, n) for g in gens]

        def check(out):
            if out[0] != "ok":
                return _raised(out), False
            data = out[1].to_json()
            return json.dumps(data, sort_keys=True), dim_report_ok(data, gens, n)

        return Query("coordinate_dimension", lambda: api.coordinate_dimension(polys), check)

    @staticmethod
    def _vanish(api, rng, prebuilt, how):
        """Answers known by construction: the prebuilt complex is V(g), which
        the check verifies too, and g vanishes at `point`; a scaled g or a
        product g*h vanishes wherever g does, and a polynomial whose maximum
        at `point` is attained once does not vanish on V(g)."""
        g, n, point, x = prebuilt
        if how == "scale":
            shift = ex.frac(rng)
            f = {e: c + shift for e, c in g.items()}
        elif how == "product":
            f = ex.poly_mul(g, ex.random_poly(rng, n, rng.randint(1, 2), 1))
        else:
            f = ex.random_poly(rng, n, rng.randint(2, 4), 2)
            while ex.vanishes(f, point):
                f = ex.random_poly(rng, n, rng.randint(2, 4), 2)
        expected = how != "miss"
        poly = api.Polynomial(f, n)

        def check(out):
            if out[0] != "ok":
                return _raised(out), False
            prebuilt_ok = complex_ok(api.complex_to_json(x), [g], n, point)
            return repr(out[1]), prebuilt_ok and out[1] is expected

        return Query("vanishes_on_complex", lambda: api.vanishes_on_complex(poly, x), check)


# -- membership ---------------------------------------------------------------


# every (variables, rank) a matrix can have for n = 1-4, taken in turn by
# round, so that each seed runs the same mix of matrix shapes
SHAPES = [(n, r) for n in range(1, 5) for r in range(1, n + 2)]


class Membership:
    """One admissible matrix per round, then 40 membership-style queries on it."""

    name = "membership"

    def setup(self, api, rng):
        return None

    def make_round(self, api, ctx, rng, index):
        n, rank = SHAPES[index % len(SHAPES)]
        rows = ex.random_rows(rng, n, rank)
        matrix = api.check_admissible(rows, n)
        direction = ex.tie_direction(rows, n)

        def poly(member):
            terms = rng.randint(2, 10)
            if member:
                return ex.member_poly(rng, rows, n, terms)
            return ex.laurent_poly(rng, n, terms)

        queries = []
        for i in range(16):
            queries.append(self._member(api, matrix, rows, n, poly(i % 2 == 0)))
        for i in range(8):
            f = poly(i % 2 == 0)
            g = self._same_lead(rng, rows, n, f) if i % 4 < 2 else poly(False)
            queries.append(self._pair(api, matrix, rows, n, f, g))
        for i in range(8):
            queries.append(self._leading(api, matrix, rows, n, poly(i % 2 == 0)))
        for i in range(8):
            queries.append(self._compare(api, matrix, rows, n, rng, direction, i % 2 == 0))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _same_lead(rng, rows, n, f):
        """A polynomial whose leading term ties f's, so the pair is congruent."""
        lead = ex.leading(rows, f)[0]
        top = ex.key(rows, f[lead], lead)
        g = {lead: f[lead]}
        for e, c in ex.laurent_poly(rng, n, rng.randint(1, 5)).items():
            if e not in g and ex.key(rows, c, e) < top:
                g[e] = c
        return g

    @staticmethod
    def _member(api, matrix, rows, n, f):
        poly = api.Polynomial(f, n)
        expected = ex.member(rows, f)
        return Query(
            "bend_ideal_member",
            lambda: api.bend_ideal_member(matrix, poly),
            lambda out: (repr(out[1]), out == ("ok", expected)),
        )

    @staticmethod
    def _pair(api, matrix, rows, n, f, g):
        pf, pg = api.Polynomial(f, n), api.Polynomial(g, n)
        expected = max(ex.key(rows, c, e) for e, c in f.items()) == max(
            ex.key(rows, c, e) for e, c in g.items()
        )
        return Query(
            "pair_in_prime",
            lambda: api.pair_in_prime(matrix, pf, pg),
            lambda out: (repr(out[1]), out == ("ok", expected)),
        )

    @staticmethod
    def _leading(api, matrix, rows, n, f):
        poly = api.Polynomial(f, n)
        expected = ex.leading(rows, f)

        def check(out):
            if out[0] != "ok":
                return _raised(out), False
            got = sorted(out[1])
            return repr(got), got == expected

        return Query("leading_class", lambda: api.leading_class(matrix, poly), check)

    @staticmethod
    def _compare(api, matrix, rows, n, rng, direction, equal):
        t1 = (ex.frac(rng), tuple(rng.randint(-3, 3) for _ in range(n)))
        if equal and direction is not None:
            dc, du = direction
            t2 = (t1[0] - dc, tuple(a - b for a, b in zip(t1[1], du)))
        elif equal:
            t2 = t1
        else:
            t2 = (ex.frac(rng), tuple(rng.randint(-3, 3) for _ in range(n)))
        expected = ex.compare(rows, t1, t2)
        return Query(
            "compare_terms",
            lambda: api.compare_terms(matrix, t1, t2),
            lambda out: (repr(out[1]), out == ("ok", expected)),
        )


# -- falsify --------------------------------------------------------------------

# the dimension examples of acceptance criterion 04: generators, n, variety dim
EXAMPLES = [
    ([{(1, 0): 0, (0, 0): 1}, {(0, 1): 0, (0, 0): 2}], 2, 0),
    ([{(1, 0): 0, (0, 1): 0, (0, 0): 0}], 2, 1),
    ([{(1, 0, 0): 0, (0, 1, 0): 0, (0, 0, 1): 0, (0, 0, 0): 0}], 3, 2),
]


class Falsify:
    """Fresh rows per query: check_admissible, then contains_bends."""

    name = "falsify"

    def setup(self, api, rng):
        return EXAMPLES

    def make_round(self, api, ctx, rng, index):
        queries = []
        for i in range(30):
            gens, n, d = ctx[i % 3]
            rows = [[ex.frac(rng) for _ in range(n + 1)] for _ in range(rng.randint(d + 2, n + 1))]
            flaw = rng.choice(("dependent", "sign", "extra", None, None, None, None, None))
            pivot = next((r for r in rows if r[0] != 0), None)
            if pivot is not None and (pivot[0] < 0) != (flaw == "sign"):
                rows[rows.index(pivot)] = [-x for x in pivot]
            if flaw == "dependent":
                rows[-1] = [ex.frac(rng, 1, 3) * x for x in rows[0]]
            elif flaw == "extra":
                rows.append([ex.frac(rng) for _ in range(n + 1)])
            queries.append(self._query(api, gens, n, rows))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _query(api, gens, n, rows):
        polys = [api.Polynomial(g, n) for g in gens]
        rejected = ex.violations(rows, n)
        expected = None if rejected else all(ex.member(rows, g) for g in gens)

        def check(out):
            if out[0] == "raise":
                return _raised(out), rejected and isinstance(out[1], api.AdmissibilityError)
            return repr(out[1]), out[1] is expected

        return Query(
            "falsify",
            lambda: api.contains_bends(api.check_admissible(rows, n), polys),
            check,
        )


# -- cli-mix --------------------------------------------------------------------

TRACES = (
    "factor_swap", "monomial_bridge", "sum_bend_left",
    "sum_bend_right", "unit_identification", "variable_identification",
)
# windows of at most 10 monomials; see README.md for the slower ones
TROP = (
    ("x - y", None, 3), ("x - y", 3, 2), ("x^2 - y*z", 3, 2),
    ("x + y - 2", None, 3), ("x*y - 1", None, 3), ("x - y + z - w", 4, 1),
)
# inputs whose exit code the README fixes: 2 parse error, 1 domain error
ERRORS = {2: "parse", 1: "domain"}
MALFORMED = (
    (2, ["eval", "--poly=x + * y", "--point=1,2"]),
    (2, ["prime-member", "--matrix=[[1,0,0]]", "--poly=x + q"]),
    (2, ["eval", "--mode=poly", "--poly=x^-1 + y", "--point=1,2"]),
    (1, ["prime-variety", "--matrix=[[1,1],[2,2]]"]),
    (1, ["eval", "--poly=x + y", "--point=1,2,3"]),
    (1, ["prime-compare", "--matrix=[[1,2]]", "--term1=x + 1", "--term2=x"]),
)
# Calls per round.  Every round verifies all six traces, and the other
# seed-independent inputs are taken in turn, not drawn, so that every seed
# runs the same fixed-cost calls.  The light calls (2-4 ms) hold the median,
# which falls among the six traces; the heavy ones (5-90 ms) are about a
# quarter of the calls, far from the 10 % at which the 90th percentile would
# land between the two speed modes.
LIGHT = (
    ("eval", 4), ("bend", 3), ("prime-check", 3), ("prime-compare", 3),
    ("prime-variety", 2), ("prime-member", 2), ("malformed", 4), ("trace-verify", 6),
    ("hypersurface", 3), ("prevariety", 2), ("affine-prevariety", 2),
)
HEAVY = (("dim", 2), ("tideal-point", 3), ("tideal-matrix", 3), ("tideal-trop", 3))


def _points(pt) -> str:
    return ",".join(str(x) for x in pt)


class CliMix:
    """README subcommands through tropica.cli.main(argv), output captured."""

    name = "cli-mix"

    def setup(self, api, rng):
        return Path(__file__).resolve().parent.parent / "traces"

    def make_round(self, api, ctx, rng, index):
        queries = []
        for kind, count in LIGHT + HEAVY:
            make = getattr(self, "_" + kind.replace("-", "_"))
            for i in range(count):
                # i picks a variant within the round; the serial number takes
                # seed-independent inputs in turn across rounds
                queries.append(make(api, ctx, rng, i, count * index + i))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _run(api, argv, kind, verdict):
        """`verdict(rc, stdout, stderr)` judges the captured outcome."""

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = api.cli_main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()

        def check(out):
            if out[0] != "ok":
                return _raised(out), False
            rc, stdout, stderr = out[1]
            # stderr messages may be reworded; the error class is the contract
            canon = json.dumps([rc, stdout, _error_class(stderr)])
            return canon, verdict(rc, stdout, stderr)

        return Query("cli " + kind, call, check)

    def _json(self, api, argv, kind, judge):
        def verdict(rc, stdout, stderr):
            return rc == 0 and not stderr and judge(json.loads(stdout))

        return self._run(api, argv, kind, verdict)

    def _eval(self, api, ctx, rng, i, serial):
        n = rng.randint(1, 3)
        f = ex.random_poly(rng, n, rng.randint(2, min(5, len(ex.monomials(n, 2)))), 2)
        pt = tuple(ex.frac(rng) for _ in range(n))
        expected = {"value": str(ex.max_at(f, pt)), "vanishes": ex.vanishes(f, pt)}
        argv = ["eval", f"--poly={ex.fmt_poly(f)}", f"--nvars={n}", f"--point={_points(pt)}"]
        return self._json(api, argv, "eval", lambda d: d == expected)

    def _bend(self, api, ctx, rng, i, serial):
        n = rng.randint(1, 3)
        f = ex.random_poly(rng, n, rng.randint(2, min(5, len(ex.monomials(n, 2)))), 2)
        argv = ["bend", f"--poly={ex.fmt_poly(f)}", f"--nvars={n}"]

        def judge(d):
            pairs = d["pairs"]
            return (
                len(pairs) == len(f)
                and len({left for left, _ in pairs}) == 1
                and all(right.count(" + ") == len(f) - 2 for _, right in pairs)
            )

        return self._json(api, argv, "bend", judge)

    def _complex(self, api, rng, command, count, terms):
        point = _int_point(rng, 2)
        gens = _tied_gens(rng, 2, count, 2, terms, 2, point)
        argv = [command, *(f"--poly={ex.fmt_poly(g)}" for g in gens), "--nvars=2"]
        return self._json(api, argv, command, lambda d: complex_ok(d, gens, 2, point))

    def _hypersurface(self, api, ctx, rng, i, serial):
        return self._complex(api, rng, "hypersurface", 1, 4)

    def _prevariety(self, api, ctx, rng, i, serial):
        return self._complex(api, rng, "prevariety", 2, 3)

    def _affine_prevariety(self, api, ctx, rng, i, serial):
        return self._complex(api, rng, "affine-prevariety", 1, 3)

    def _dim(self, api, ctx, rng, i, serial):
        n = 2 + i % 2
        point = _int_point(rng, n)
        gens = _tied_gens(rng, n, 1, 3, 4, 2, point)
        argv = ["dim", f"--poly={ex.fmt_poly(gens[0])}", f"--nvars={n}"]
        return self._json(api, argv, "dim", lambda d: dim_report_ok(d, gens, n))

    def _prime_check(self, api, ctx, rng, i, serial):
        n = rng.randint(1, 3)
        rows = ex.random_rows(rng, n, rng.randint(1, n + 1))
        if i == 0 and len(rows) > 1:
            rows[-1] = [2 * x for x in rows[0]]
        if ex.violations(rows, n):
            judge = lambda d: d["admissible"] is False and len(d["violations"]) > 0
        else:
            expected = {"admissible": True, "rank": len(rows), "kind": ex.kind(rows, n)}
            judge = lambda d: d == expected
        return self._json(api, ["prime-check", f"--matrix={ex.fmt_matrix(rows)}"], "prime-check", judge)

    def _prime_compare(self, api, ctx, rng, i, serial):
        n = rng.randint(1, 3)
        rows = ex.random_rows(rng, n, rng.randint(1, n + 1))
        t1 = (ex.frac(rng), tuple(rng.randint(-2, 2) for _ in range(n)))
        direction = ex.tie_direction(rows, n)
        if i == 0 and direction is not None:
            t2 = (t1[0] - direction[0], tuple(a - b for a, b in zip(t1[1], direction[1])))
        else:
            t2 = (ex.frac(rng), tuple(rng.randint(-2, 2) for _ in range(n)))
        expected = {"order": ex.compare(rows, t1, t2)}
        argv = [
            "prime-compare", f"--matrix={ex.fmt_matrix(rows)}",
            f"--term1={ex.fmt_term(t1[1], t1[0])}", f"--term2={ex.fmt_term(t2[1], t2[0])}",
        ]
        return self._json(api, argv, "prime-compare", lambda d: d == expected)

    def _prime_variety(self, api, ctx, rng, i, serial):
        n = rng.randint(1, 3)
        rows = ex.random_rows(rng, n, rng.randint(1, n + 1))
        first = rows[0]
        point = None if first[0] == 0 else [str(x / first[0]) for x in first[1:]]
        argv = ["prime-variety", f"--matrix={ex.fmt_matrix(rows)}"]
        return self._json(api, argv, "prime-variety", lambda d: d == {"point": point})

    def _prime_member(self, api, ctx, rng, i, serial):
        n = rng.randint(1, 3)
        rows = ex.random_rows(rng, n, rng.randint(1, n))
        terms = rng.randint(2, 6)
        f = ex.member_poly(rng, rows, n, terms) if i == 0 else ex.laurent_poly(rng, n, terms)
        expected = {"member": ex.member(rows, f)}
        argv = ["prime-member", f"--matrix={ex.fmt_matrix(rows)}", f"--poly={ex.fmt_poly(f)}"]
        return self._json(api, argv, "prime-member", lambda d: d == expected)

    def _trace_verify(self, api, ctx, rng, i, serial):
        name = TRACES[i]
        argv = ["trace-verify", f"--trace={ctx / (name + '.json')}"]
        query = self._json(api, argv, "trace-verify", lambda d: d == {"accepted": True})
        return query._replace(fixed="trace-verify " + name)

    def _malformed(self, api, ctx, rng, i, serial):
        code, argv = MALFORMED[serial % len(MALFORMED)]

        def verdict(rc, stdout, stderr):
            return rc == code and not stdout and _error_class(stderr) == ERRORS[code]

        return self._run(api, argv, "malformed", verdict)._replace(fixed=" ".join(argv))

    def _tideal_point(self, api, ctx, rng, i, serial):
        pt = tuple(ex.frac(rng, -3, 3) for _ in range(2))
        argv = [
            "tideal-check", "--mode=poly", f"--point={_points(pt)}", "--degree=2",
            "--trials=10", f"--seed={rng.randint(0, 10**6)}",
        ]
        return self._json(api, argv, "tideal-check", lambda d: d == {"passed": True})

    def _tideal_matrix(self, api, ctx, rng, i, serial):
        """Geometric primes satisfy the elimination axiom; [[0,1,1]] does not."""
        if i == 0:
            argv = ["tideal-check", "--matrix=[[0,1,1]]", "--degree=2"]
            judge = lambda d: d["passed"] is False and set(d["counterexample"]) == {"f", "g", "monomial"}
            return self._json(api, argv, "tideal-check", judge)._replace(fixed=" ".join(argv))
        rows = [[Fraction(1), ex.frac(rng, -3, 3), ex.frac(rng, -3, 3)]]
        argv = [
            "tideal-check", "--mode=poly", f"--matrix={ex.fmt_matrix(rows)}", "--degree=2",
            "--trials=10", f"--seed={rng.randint(0, 10**6)}",
        ]
        return self._json(api, argv, "tideal-check", lambda d: d == {"passed": True})

    def _tideal_trop(self, api, ctx, rng, i, serial):
        gens, nvars, degree = TROP[serial % len(TROP)]
        argv = ["tideal-trop", f"--gens={gens}", f"--degree={degree}"]
        if nvars:
            argv.append(f"--nvars={nvars}")

        def judge(d):
            return all(len(c) >= 2 for c in d["circuits"]) and d["degree"] == degree

        return self._json(api, argv, "tideal-trop", judge)._replace(fixed=" ".join(argv))


def _error_class(stderr: str):
    if not stderr:
        return None
    try:
        return json.loads(stderr).get("error")
    except ValueError:
        return "not json"


WORKLOADS = {w.name: w for w in (Cells(), Membership(), Falsify(), CliMix())}
