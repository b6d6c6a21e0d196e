"""Byte-for-byte SVG output of `render_svg` on a fixed seeded corpus.

Each document is pinned by its SHA-256 digest.  The corpus was drawn once
from a seeded generator and is written out literally: planar hypersurfaces
in both modes, two-generator prevarieties (points, and one ray), the point
complex of the CLI plot test, and bounding boxes that clip a cell to a box
edge, to a box corner or to a single point.  Segment endpoints come from the
clipped cell's relative interior point, its affine hull and the clipping of
that line by the box, so any change in those that moved a coordinate would
show here.
"""

import hashlib

import pytest

from tropica.parsing import parse_point, parse_polynomials
from tropica.rendering import render_svg
from tropica.varieties import complex_from_json, complex_to_json, hypersurface, prevariety

WIDE = "-5,-5,5,5"

CORPUS = [
    # seeded planar hypersurfaces
    ("laurent", ["2*x^2*y^2 + 1*x*y^-1 + 4/3*x^-2*y^-1 + -4/3*x^-2*y^-2"], WIDE,
     "e0486c24a836bc8fc234564c10007d75a237f41a8ac9984b4a3e5fdaed6a4871"),
    ("poly", ["3*x^2*y + 1*x*y"], WIDE,
     "72f827d7a1fd2c736f5cc0d0947084878e2f92c96416ca0898d8e93fc5ec63e2"),
    ("poly", ["3*x^2*y^2 + 4/3*x*y + -1*x"], WIDE,
     "9389d519088c52aeb9ad8115a70744857c61c10ba90cd0d0a35a14d434aa8d45"),
    ("poly", ["-3/2*x^2*y^2 + 1/2*x*y"], WIDE,
     "449e1a92082038a0ec053636638e63c6e5a2ab34ee5fb25d7ddaba83331b45c2"),
    ("poly", ["2/3*x^2*y + 2/3*x*y"], WIDE,
     "355717165b0fbf23a56632f41bd5ce4efeb845ade368acc196ee2d2056556f9a"),
    ("poly", ["x^2*y^2 + 2*x^2*y + 1*x*y^2 + 3/2*x + -1"], WIDE,
     "45ac443be73d2ed284e319585ae0918c23d8758715ca1bf67f45ce044ab69b77"),
    ("poly", ["-1/2*x^2*y + 1*x*y + -4*y^2"], WIDE,
     "5ecaf502d4e1caf4ec11f2e5491471ae8ec69a4d3a66035fe2aed8d8cadfd843"),
    ("laurent", ["2*x*y^-1 + 2/3*x*y^-2 + 1/2*x^-2*y + y^-2"], WIDE,
     "22ce08b2f599746cc3de35d385c73a93b82f5f1215199664ac106bd3a6c99394"),
    # seeded two-generator prevarieties, and one that keeps a ray
    ("laurent", ["-3*x*y^2 + 4*x^2*y^-1 + -1*x^2*y^-2 + 2*x*y^-2",
                 "-2*x^2*y^2 + -1/2*x^2*y^-1 + 1*x^-1*y^2 + y^-1"], WIDE,
     "a0420a1bee62d609693a13acddb2c335636cc8be6dd28c5f8520e194409c65f4"),
    ("poly", ["x*y + 2/3", "4*x + -3/2"], WIDE,
     "e5ff86a3a6bfdd5ef256312f7756d3f049ddfab98625f4bc045ec5d8d53d7e8d"),
    ("poly", ["3/2*x^2*y + 1*x^2 + 1*y^2 + 3/2*y", "4*x*y^2 + 1/2*x^2"], WIDE,
     "152ee3cadb6b8acdfb5ae665b046d9c3463fedc2719e64d102165d50ee2e0545"),
    ("laurent", ["-4*x^2*y^-1 + -4/3*x^2*y^-2 + 1*x^-1*y + 2*x^-1*y^-1",
                 "x^2*y + 1*y + -2*x^-1*y + -3/2*y^-1"], WIDE,
     "94e4921437b89741e67ca2a62ed28cbeaec8508da4cba5bf9843bf3f62f13909"),
    ("poly", ["4/3*x + y", "1/2*x^2*y^2 + -1*y"], WIDE,
     "61e913b16a5fee569811cdd75bc5ab3de03c2992cf0b271fae6717e989bca052"),
    ("laurent", ["1*y^2 + 4*x^-2*y^2", "y^2 + x^2*y^-1 + -2*y^-2 + 2*x^-2*y^-2"], WIDE,
     "0fdb59544836dc9242ae61de07e4934656a2bc1925814168c901820e803af8a9"),
    ("laurent", ["x + y + 0", "x + 0"], WIDE,
     "1b46ab01d89c570d4a02d6455fea586272eb57cc61f1d35af0a5f5b059e77221"),
    # boxes that clip the tropical line to edges, corners and single points
    ("laurent", ["x + y + 0"], WIDE,
     "c8b4909e58488864f4267fd9812810f0a03b9e527692e6af9dbc723473d4df4f"),
    ("laurent", ["x + y + 0"], "0,0,5,5",
     "d6b3cece1b0c52bd84309f6fed1be5e1369542c578bd6f9ec02d0d9d3ab0c5bd"),
    ("laurent", ["x + y + 0"], "-5,-5,0,0",
     "ca6a1b47d16e69fb4bfb07b21e47c3077a4a2451fd80464cd84e29fe35c7466d"),
    ("laurent", ["x + y + 0"], "1,1,4,4",
     "59add932d18884ead92fb460044f686d096cca02bb0b944d386eca7fbf532aa3"),
    ("laurent", ["x + y + 0"], "-2,-7,3,1/2",
     "21bc939efedd4be082389be77c972cf3064bc3ad812f8c7217fc0eb797b0e1d8"),
    ("laurent", ["x + y + 0"], "1,2,6,7",
     "a2003da0c9e64b8dc1a52c2e436056332c360c4721a9b8a136600c2745a28b7a"),
    ("poly", ["x^2*y^2 + 2*x^2*y + 1*x*y^2 + 3/2*x + -1"], "-1/2,-3,5/3,2",
     "11ba1ac308f87591f1f728600503ac7a6b9f0222023ae1d16fceab325495a41c"),
    ("laurent", ["2*x*y^-1 + 2/3*x*y^-2 + 1/2*x^-2*y + y^-2"], "-1,0,1,1",
     "914a437d2c3a814483bf5464a6b1e4e93c8da91ebbfd5c04931744b5ea7fd4ce"),
]

POINT_COMPLEX = {
    "ambient": 2,
    "mode": "laurent",
    "cells": [
        {
            "stratum": [],
            "normals": [["1", "0"], ["0", "1"]],
            "rhs": ["1", "2"],
            "relations": ["eq", "eq"],
            "dim": 0,
            "interior_point": ["1", "2"],
        }
    ],
}

POINT_CORPUS = [
    (WIDE, "a8ff286b90fde36679b706a8c34075ecc3dd96fe50b9237474318eba126cdb0d"),
    ("1,2,6,7", "bb0fcd1b4817918f55ab273d29d0e5564d811e7e8d8c13f971d24c7f526bb573"),  # at a corner
    ("2,3,4,5", "b885fee3ecf03b7241e9b9f2d8fa9297d7768f44787e921ae6ec45c899716691"),  # outside
]


def _digest(svg: str) -> str:
    return hashlib.sha256(svg.encode()).hexdigest()


@pytest.mark.parametrize("mode,texts,bbox,digest", CORPUS)
def test_render_svg_bytes(mode, texts, bbox, digest):
    x = prevariety(parse_polynomials(texts, mode, 2))
    assert _digest(render_svg(x, parse_point(bbox))) == digest


@pytest.mark.parametrize("bbox,digest", POINT_CORPUS)
def test_render_svg_point_complex_bytes(bbox, digest):
    x = complex_from_json(POINT_COMPLEX)
    assert _digest(render_svg(x, parse_point(bbox))) == digest


@pytest.mark.parametrize("mode,texts,bbox,digest", [case for case in CORPUS if len(case[1]) == 1])
def test_render_svg_of_a_read_back_hypersurface_bytes(mode, texts, bbox, digest):
    # the JSON text of each cell gives back its rows and scale, so the same document
    (f,) = parse_polynomials(texts, mode, 2)
    x = complex_from_json(complex_to_json(hypersurface(f)))
    assert _digest(render_svg(x, parse_point(bbox))) == digest
