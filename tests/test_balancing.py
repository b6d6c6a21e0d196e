"""Balancing of tropical plane curves, checked on the cells `hypersurface` prints.

A tropical curve in R^2 is balanced: around each vertex v, the primitive
integer directions of the edges leaving v, each weighted by the lattice
length of its dual edge in the Newton subdivision, sum to 0 (Maclagan and
Sturmfels, *Introduction to Tropical Geometry*, Prop. 3.3.2).  This oracle
uses no tie cell and no dominance system.  For each cell it evaluates every
term at the cell's interior point, in `Fraction` arithmetic: the terms at
the maximum span the dual edge, whose extreme exponents differ by u.  The
weight is the lattice length gcd(u), and the primitive direction d is u
turned a quarter and divided by that gcd.  The edge is walked along d both
ways until another term reaches the maximum; those points are its vertices.
On seeded plane curves of degree 1-4 with 2-8 terms, in poly and Laurent
mode, with all coefficients 0 on about 30 % of them, every cell must be an
edge or ray and every vertex must balance.
"""

import random
from collections import defaultdict
from fractions import Fraction
from math import gcd

from tropica.polyhedra import _fractions
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.varieties import hypersurface


def value(c, e, p):
    return c + e[0] * p[0] + e[1] * p[1]


def dual_edge(f, p):
    """(weight, d, top, slope) of the edge through p.

    weight is the lattice length of the dual edge, d the primitive edge
    direction, top the maximum of the terms at p and slope the rate at which
    the tied terms grow along d.
    """
    values = {e: value(c, e, p) for e, c in f.terms()}
    top = max(values.values())
    tied = sorted(e for e, v in values.items() if v == top)
    assert len(tied) >= 2, (f, p)
    lo, hi = tied[0], tied[-1]
    u = (hi[0] - lo[0], hi[1] - lo[1])
    assert all(u[0] * (e[1] - lo[1]) == u[1] * (e[0] - lo[0]) for e in tied), (f, p)
    g = gcd(*u)
    d = (-u[1] // g, u[0] // g)
    return g, d, top, lo[0] * d[0] + lo[1] * d[1]


def end(f, p, d, tied_slope, top):
    """The point where walking from p along d first lets another term reach the maximum."""
    steps = []
    for e, c in f.terms():
        slope = e[0] * d[0] + e[1] * d[1]
        if slope > tied_slope:
            steps.append((top - value(c, e, p)) / (slope - tied_slope))
    if not steps:
        return None  # a ray
    t = min(steps)
    return p[0] + t * d[0], p[1] + t * d[1]


def random_curve(rng, mode):
    degree = rng.randint(1, 4)
    low = 0 if mode == POLY else -degree
    span = range(low, degree + 1)
    window = [(i, j) for i in span for j in span if abs(i) + abs(j) <= degree]
    support = rng.sample(window, min(len(window), rng.randint(2, 8)))
    zero = rng.random() < 0.3
    coeffs = {
        e: 0 if zero else Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for e in support
    }
    return Polynomial(coeffs, 2, mode), zero


def test_plane_curves_balance_at_every_vertex():
    rng = random.Random(2030)
    seen = {"poly": 0, "laurent": 0, "zero coefficients": 0, "vertices": 0, "weight > 1": 0,
            "degree-4": 0, "rays only": 0}
    for _ in range(400):
        mode = rng.choice([POLY, LAURENT])
        f, zero = random_curve(rng, mode)
        sums = defaultdict(lambda: [0, 0])
        cells = hypersurface(f).cells
        assert cells, f
        for cell in cells:
            assert cell.dim == 1, (f, cell)
            p = _fractions(cell.interior_point)
            weight, d, top, tied_slope = dual_edge(f, p)
            for sign in (1, -1):
                direction = (sign * d[0], sign * d[1])
                vertex = end(f, p, direction, sign * tied_slope, top)
                if vertex is not None:
                    # the edge leaves this vertex back towards p
                    sums[vertex][0] -= weight * direction[0]
                    sums[vertex][1] -= weight * direction[1]
            seen["weight > 1"] += weight > 1
        for vertex, total in sums.items():
            assert total == [0, 0], (f, vertex, total)
        seen[mode] += 1
        seen["zero coefficients"] += zero
        seen["vertices"] += len(sums)
        seen["degree-4"] += max(abs(e[0]) + abs(e[1]) for e in f.support()) == 4
        seen["rays only"] += not sums
    assert min(seen.values()) >= 40, seen
