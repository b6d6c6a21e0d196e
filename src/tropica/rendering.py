"""Deterministic SVG rendering of planar complexes.

Cells are clipped to a rational bounding box: 1-cells become line segments,
0-cells become dots.  Coordinates are emitted with fixed formatting so equal
inputs produce byte-identical documents.
"""

from __future__ import annotations

from .matrices import to_fraction
from .polyhedra import EQ, LE, IntPoint, IntRow, _fractions, _int_feasible_point
from .polyhedra import _int_row, affine_hull_directions, line_bounds
from .varieties import PolyComplex

_SIZE = 400

# the axes x = 0 and y = 0
_AXES = ([((1, 0), 0, EQ)], [((0, 1), 0, EQ)])


def _bbox_rows(bbox) -> list[IntRow]:
    xmin, ymin, xmax, ymax = bbox
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("bounding box must have positive extent")
    sides = [((-1, 0), -xmin), ((1, 0), xmax), ((0, -1), -ymin), ((0, 1), ymax)]
    return [_int_row(a, b, LE) for a, b in sides]


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Mapper:
    def __init__(self, bbox):
        self.xmin, self.ymin, self.xmax, self.ymax = bbox

    def to_svg(self, point) -> tuple[float, float]:
        x = (point[0] - self.xmin) / (self.xmax - self.xmin) * _SIZE
        y = _SIZE - (point[1] - self.ymin) / (self.ymax - self.ymin) * _SIZE
        return float(x), float(y)


def _segment_endpoints(rows: list[IntRow], point: IntPoint, direction):
    """Endpoints of a bounded 1-dimensional polyhedron, with ``point`` in its relative interior."""
    t_lo, t_hi = line_bounds(rows, point, direction)
    if t_lo is None or t_hi is None:
        raise ValueError("cell is unbounded inside the box")
    q = _fractions(point)
    a = tuple(qi + t_lo * d for qi, d in zip(q, direction))
    b = tuple(qi + t_hi * d for qi, d in zip(q, direction))
    return a, b


def render_svg(x: PolyComplex, bbox) -> str:
    """SVG document for a 2-dimensional complex clipped to (xmin,ymin,xmax,ymax).

    Each clipped cell takes one solve, whose point (nums, den) is a relative
    interior point; its affine hull (so its dimension) and a segment's clip
    are read off that point, made rational only for the ends and the mapper.
    """
    if x.ambient != 2:
        raise ValueError("SVG rendering requires an ambient dimension of 2")
    bbox = tuple(to_fraction(v) for v in bbox)
    box = _bbox_rows(bbox)
    mapper = _Mapper(bbox)
    shapes: list[str] = []
    pieces = [(axis, 'stroke="#bbbbbb" stroke-width="1"') for axis in _AXES]
    pieces += [(c.rows, 'stroke="#1f6fb2" stroke-width="2"') for c in x.cells if not c.stratum]
    for rows, style in pieces:
        clipped = [*rows, *box]
        found = _int_feasible_point(clipped, 2)
        if found is None:
            continue
        directions = affine_hull_directions(clipped, 2, found)
        if len(directions) >= 2:
            raise ValueError("2-dimensional cells are not supported by the renderer")
        if directions:
            a, b = _segment_endpoints(clipped, found, directions[0])
            (x1, y1), (x2, y2) = mapper.to_svg(a), mapper.to_svg(b)
            shapes.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'
            )
        else:
            px, py = mapper.to_svg(_fractions(found))
            shapes.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#b23a1f"/>')
    body = "\n".join(shapes)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">\n'
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
