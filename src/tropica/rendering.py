"""Deterministic SVG rendering of planar complexes.

Cells are clipped to a rational bounding box: 1-cells become line segments,
0-cells become dots.  Coordinates are emitted with fixed formatting so equal
inputs produce byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import dot, to_fraction
from .polyhedra import EQ, LE, HalfSpace, Polyhedron, intersect, is_empty
from .polyhedra import dimension, relative_interior_point, affine_hull_directions
from .varieties import PolyComplex

_SIZE = 400


def _bbox_polyhedron(bbox) -> Polyhedron:
    xmin, ymin, xmax, ymax = bbox
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("bounding box must have positive extent")
    cons = (
        HalfSpace((Fraction(-1), Fraction(0)), -xmin, LE),
        HalfSpace((Fraction(1), Fraction(0)), xmax, LE),
        HalfSpace((Fraction(0), Fraction(-1)), -ymin, LE),
        HalfSpace((Fraction(0), Fraction(1)), ymax, LE),
    )
    return Polyhedron(cons, 2)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Mapper:
    def __init__(self, bbox):
        self.xmin, self.ymin, self.xmax, self.ymax = bbox

    def to_svg(self, point) -> tuple[float, float]:
        x = (point[0] - self.xmin) / (self.xmax - self.xmin) * _SIZE
        y = _SIZE - (point[1] - self.ymin) / (self.ymax - self.ymin) * _SIZE
        return float(x), float(y)


def _segment_endpoints(poly: Polyhedron):
    """Endpoints of a bounded 1-dimensional polyhedron."""
    q = relative_interior_point(poly)
    (direction,) = affine_hull_directions(poly)
    t_lo = None
    t_hi = None
    for h in poly.constraints:
        slope = dot(h.normal, direction)
        if slope == 0:
            continue
        bound = (h.rhs - dot(h.normal, q)) / slope
        if h.relation == EQ:
            continue
        if slope > 0:
            t_hi = bound if t_hi is None or bound < t_hi else t_hi
        else:
            t_lo = bound if t_lo is None or bound > t_lo else t_lo
    if t_lo is None or t_hi is None:
        raise ValueError("cell is unbounded inside the box")
    a = tuple(qi + t_lo * d for qi, d in zip(q, direction))
    b = tuple(qi + t_hi * d for qi, d in zip(q, direction))
    return a, b


def render_svg(x: PolyComplex, bbox) -> str:
    """SVG document for a 2-dimensional complex clipped to (xmin,ymin,xmax,ymax)."""
    if x.ambient != 2:
        raise ValueError("SVG rendering requires an ambient dimension of 2")
    bbox = tuple(to_fraction(v) for v in bbox)
    box = _bbox_polyhedron(bbox)
    mapper = _Mapper(bbox)
    shapes: list[str] = []
    axis_style = 'stroke="#bbbbbb" stroke-width="1"'
    for axis_cell in (
        Polyhedron((HalfSpace((Fraction(1), Fraction(0)), Fraction(0), EQ),), 2),
        Polyhedron((HalfSpace((Fraction(0), Fraction(1)), Fraction(0), EQ),), 2),
    ):
        clipped = intersect(axis_cell, box)
        if is_empty(clipped):
            continue
        a, b = _segment_endpoints(clipped)
        (x1, y1), (x2, y2) = mapper.to_svg(a), mapper.to_svg(b)
        shapes.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {axis_style}/>'
        )
    for cell in x.cells:
        if cell.stratum:
            continue
        clipped = intersect(cell.polyhedron, box)
        if is_empty(clipped):
            continue
        dim = dimension(clipped)
        if dim >= 2:
            raise ValueError("2-dimensional cells are not supported by the renderer")
        if dim == 1:
            a, b = _segment_endpoints(clipped)
            (x1, y1), (x2, y2) = mapper.to_svg(a), mapper.to_svg(b)
            shapes.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                'stroke="#1f6fb2" stroke-width="2"/>'
            )
        else:
            px, py = mapper.to_svg(relative_interior_point(clipped))
            shapes.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#b23a1f"/>'
            )
    body = "\n".join(shapes)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">\n'
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
