"""Maximal cells found by signature size against the all-pairs face test.

`varieties._maximal_cells` tests a signature for being a proper face only
against signatures of strictly smaller size (the sum of its argmax set
sizes; size lemma of `varieties`), layer by layer, and does not test the
signatures of the least size at all.  The oracle is `ref_maximal_cells` of
`oracles.varieties`, the former `_maximal_cells`: it compares every
signature with every other and sorts on keys computed again per
comparison.  On seeded hypersurfaces, prevarieties and
`affine_prevariety` complexes, in poly and Laurent mode, with collinear
exponents (equal signatures from different tie pairs) and many tied
coefficients (candidates with a tight row, whose signatures are larger than
pairs), both must keep the same cells in the same order.  A spy on
`_contains_any` shows which signatures are compared with which.
"""

import random

from tropica import varieties
from tropica.polynomials import LAURENT, POLY
from tropica.varieties import Signature, affine_prevariety, hypersurface, prevariety

from oracles.varieties import collinear_or_random_polynomial, ref_maximal_cells


def size(sig: Signature) -> int:
    return sum(map(len, sig))


def test_maximal_cells_match_the_all_pairs_oracle(monkeypatch):
    """The same cells, in the same order, on every complex; the cases of the size lemma occur."""
    maximal_cells = varieties._maximal_cells
    seen = {"hypersurface": 0, "prevariety": 0, "affine": 0, "laurent": 0,
            "shared signature": 0, "tight": 0, "face dropped": 0, "larger maximal": 0}

    def checked(made):
        made = list(made)
        got = maximal_cells(made)
        assert got == ref_maximal_cells(made)
        sigs = [sig for sig, _ in made]
        least = min(map(size, sigs), default=0)
        kept = set(got)
        seen["shared signature"] += len(set(sigs)) < len(sigs)
        seen["tight"] += any(len(s) > 2 for sig in sigs for s in sig)
        seen["face dropped"] += len(got) < len(set(sigs))
        seen["larger maximal"] += any(size(sig) > least and c in kept for sig, c in made)
        return got

    monkeypatch.setattr(varieties, "_maximal_cells", checked)
    rng = random.Random(2028)
    for _ in range(900):
        n = rng.randint(1, 3)
        kind = rng.choice(["hypersurface", "prevariety", "affine"])
        mode = POLY if kind == "affine" else rng.choice([POLY, LAURENT])
        count = 1 if kind == "hypersurface" else 2
        gens = [collinear_or_random_polynomial(rng, n, mode) for _ in range(count)]
        if kind == "hypersurface":
            hypersurface(gens[0])
        elif kind == "prevariety":
            prevariety(gens)
        else:
            affine_prevariety(gens)
        seen[kind] += 1
        seen["laurent"] += mode == LAURENT
    assert min(seen.values()) >= 50, seen


def test_signatures_are_compared_only_with_smaller_ones(monkeypatch):
    """No subset test for a signature of the least size, and none against an equal or larger one."""
    maximal_cells, contains_any = varieties._maximal_cells, varieties._contains_any
    context = {}
    counts = {"tested": 0, "least skipped": 0}

    def recorded_maximal(made):
        made = list(made)
        sigs = {sig for sig, _ in made}
        context["least"] = min(map(size, sigs), default=0)
        context["untested"] = {sig for sig in sigs if size(sig) > context["least"]}
        counts["least skipped"] += sum(size(sig) == context["least"] for sig in sigs)
        context["sigs"] = sigs
        got = maximal_cells(made)
        assert not context["untested"], "a signature above the least size was not tested"
        return got

    def recorded_contains(sig, smaller):
        assert size(sig) > context["least"], ("a least-size signature was compared", sig)
        assert all(size(other) < size(sig) for other in smaller), (sig, smaller)
        assert set(smaller) == {o for o in context["sigs"] if size(o) < size(sig)}, sig
        context["untested"].discard(sig)
        counts["tested"] += 1
        return contains_any(sig, smaller)

    monkeypatch.setattr(varieties, "_maximal_cells", recorded_maximal)
    monkeypatch.setattr(varieties, "_contains_any", recorded_contains)
    rng = random.Random(2029)
    for _ in range(600):
        n = rng.randint(1, 3)
        mode = rng.choice([POLY, LAURENT])
        gens = [collinear_or_random_polynomial(rng, n, mode) for _ in range(rng.choice([1, 2]))]
        prevariety(gens)
    assert counts["tested"] >= 150 and counts["least skipped"] >= 1500, counts
