"""Isometries of the Euclidean plane.

An isometry is stored as an orthogonal linear part plus a translation.
Candidates for matching two finite point sets map one centroid onto the
other (Atkinson 1987); that and one more point pin down two isometries,
one orientation-preserving and one reflected.
"""

from __future__ import annotations

import math
from typing import Iterable

from .model import Location, _Record

Point = tuple[float, float]
Matrix = tuple[tuple[float, float], tuple[float, float]]

GEOMETRIC_TOL = 1e-6
ALGEBRAIC_TOL = 1e-9
# digits a float keeps when it becomes a key: decimals of a coordinate or an
# isometry parameter, significant digits of a rate
KEY_DIGITS = 9


class Isometry(_Record):
    __slots__ = ("linear", "offset")

    def __init__(self, linear: Matrix, offset: Point):
        self.linear, self.offset = linear, offset

    def apply(self, point: Point) -> Point:
        (a, b), (c, d) = self.linear
        x, y = point
        return (a * x + b * y + self.offset[0], c * x + d * y + self.offset[1])

    @property
    def determinant(self) -> float:
        (a, b), (c, d) = self.linear
        return a * d - b * c

    def is_orthogonal(self) -> bool:
        (a, b), (c, d) = self.linear
        return (abs(a * a + c * c - 1.0) <= ALGEBRAIC_TOL
                and abs(b * b + d * d - 1.0) <= ALGEBRAIC_TOL
                and abs(a * b + c * d) <= ALGEBRAIC_TOL)

    def is_identity(self, tol: float = ALGEBRAIC_TOL) -> bool:
        (a, b), (c, d) = self.linear
        tx, ty = self.offset
        return (abs(a - 1.0) <= tol and abs(d - 1.0) <= tol
                and abs(b) <= tol and abs(c) <= tol
                and abs(tx) <= tol and abs(ty) <= tol)

    @property
    def kind(self) -> str:
        """One of identity, translation, rotation, reflection or
        glide-reflection."""
        if self.is_identity():
            return "identity"
        if self.determinant > 0.0:
            (a, b), (c, d) = self.linear
            if abs(a - 1.0) <= ALGEBRAIC_TOL and abs(b) <= ALGEBRAIC_TOL:
                return "translation"
            return "rotation"
        # orientation-reversing: an involution is a pure reflection
        twice = compose(self, self)
        return "reflection" if twice.is_identity(1e-7) else "glide-reflection"

    def describe(self) -> str:
        # an entry within ALGEBRAIC_TOL of zero is rounding noise: print 0
        entries = (*self.linear[0], *self.linear[1], *self.offset)
        a, b, c, d, tx, ty = ("0" if abs(v) <= ALGEBRAIC_TOL else f"{v:.9g}" for v in entries)
        return f"{self.kind}: linear [[{a}, {b}], [{c}, {d}]], offset ({tx}, {ty})"


IDENTITY = Isometry(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))


def translation(dx: float, dy: float) -> Isometry:
    return Isometry(((1.0, 0.0), (0.0, 1.0)), (dx, dy))


def rotation(angle: float) -> Isometry:
    c, s = math.cos(angle), math.sin(angle)
    return Isometry(((c, -s), (s, c)), (0.0, 0.0))


def reflection_y_axis() -> Isometry:
    return Isometry(((-1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))


def compose(first: Isometry, second: Isometry) -> Isometry:
    """The isometry applying ``second`` and then ``first``."""
    (a1, b1), (c1, d1) = first.linear
    (a2, b2), (c2, d2) = second.linear
    linear = ((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
              (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2))
    moved = first.apply(second.offset)
    return Isometry(linear, moved)


def invert(iso: Isometry) -> Isometry:
    # the inverse of an orthogonal matrix is its transpose
    (a, b), (c, d) = iso.linear
    transpose = ((a, c), (b, d))
    tx, ty = iso.offset
    return Isometry(transpose, (-(a * tx + c * ty), -(b * tx + d * ty)))


def map_location(iso: Isometry, location: Location,
                 declared: dict[str, Location]) -> Location | None:
    """Apply to a location's point and match the image back to a declared
    location, or ``None`` when it lands on undeclared ground."""
    return _PointGrid(declared.values()).match(iso.apply(location.point))


_CELL_WIDTH = 4.0 * GEOMETRIC_TOL


class _PointGrid:
    """Locations bucketed by square cells of the plane, so that ``match``
    finds the earliest added location within ``GEOMETRIC_TOL`` of a point
    while looking at the 3 x 3 cells around it only.

    Cells are four tolerances wide rather than one: two points within the
    tolerance of each other then land in the same or adjacent cells even
    after the rounding of the division, at every magnitude where distinct
    doubles can lie that close. A coordinate too large to divide keys its
    cell by itself; points that far out match only on equal coordinates.
    """

    def __init__(self, locations: Iterable[Location] = ()):
        self.cells: dict[tuple[float, float], list[tuple[int, Location]]] = {}
        self.added = 0
        for location in locations:
            self.add(location)

    def _cell(self, point: Point) -> tuple[float, float]:
        x, y = point[0] / _CELL_WIDTH, point[1] / _CELL_WIDTH
        return (math.floor(x) if math.isfinite(x) else point[0],
                math.floor(y) if math.isfinite(y) else point[1])

    def add(self, location: Location, cell: tuple[float, float] | None = None) -> None:
        if cell is None:
            cell = self._cell(location.point)
        self.cells.setdefault(cell, []).append((self.added, location))
        self.added += 1

    def match(self, point: Point) -> Location | None:
        """The earliest added location within ``GEOMETRIC_TOL`` of ``point``."""
        found = self.near(point)
        return found[0] if found else None

    def match_or_add(self, location: Location) -> Location | None:
        """``match`` of the location's point, or ``None`` once the location
        is added: the cell is computed once for both."""
        cell = self._cell(location.point)
        found = self.near(location.point, cell)
        if found:
            return found[0]
        self.add(location, cell)
        return None

    def near(self, point: Point, cell: tuple[float, float] | None = None) -> list[Location]:
        """The added locations within ``GEOMETRIC_TOL`` of ``point``, earliest
        first; ``cell`` is the point's cell, if known."""
        cx, cy = self._cell(point) if cell is None else cell
        found = []
        for x in (cx - 1, cx, cx + 1):
            for y in (cy - 1, cy, cy + 1):
                for entry in self.cells.get((x, y), ()):
                    if math.dist(point, entry[1].point) <= GEOMETRIC_TOL:
                        found.append(entry)
        if len(found) > 1:
            # a cell keyed by its own coordinate is its own neighbour
            found = sorted(set(found))
        return [location for _, location in found]


def map_locations(iso: Isometry, locations,
                  declared: dict[str, Location]) -> list[Location | Point]:
    """Elementwise image of a location set; undeclared images stay raw points."""
    grid = _PointGrid(declared.values())
    out: list[Location | Point] = []
    for location in sorted(locations, key=lambda l: l.name):
        image = iso.apply(location.point)
        matched = grid.match(image)
        out.append(matched if matched is not None else image)
    return out


def _pair_isometries(a1: Point, a2: Point, b1: Point, b2: Point) -> list[Isometry]:
    """The direct and the reflected isometry that send ``a1`` onto ``b1`` and
    ``a2`` onto the ray from ``b1`` through ``b2``; each pair must hold two
    distinct points."""
    za1, zb1 = complex(*a1), complex(*b1)
    da, db = complex(*a2) - za1, complex(*b2) - zb1
    # z -> u*z + t and z -> v*conj(z) + s; turning unit directions keeps
    # |u| = |v| = 1 whatever the two distances are
    ua, ub = da / abs(da), db / abs(db)
    u, v = ub * ua.conjugate(), ub * ua
    t, s = zb1 - u * za1, zb1 - v * za1.conjugate()
    return [Isometry(((u.real, -u.imag), (u.imag, u.real)), (t.real, t.imag)),
            Isometry(((v.real, v.imag), (v.imag, -v.real)), (s.real, s.imag))]


def _one_to_one(options: list[list[Location]]) -> tuple[Location, ...] | None:
    """A distinct target for each point from its ``options``, found along
    augmenting paths (Hopcroft & Karp 1973), or ``None``. Points try their
    options in order, so distinct first options are the assignment."""
    owner: dict[Location, int] = {}

    def claim(point: int, tried: set[Location]) -> bool:
        for target in options[point]:
            if target not in tried:
                tried.add(target)
                if target not in owner or claim(owner[target], tried):
                    owner[target] = point
                    return True
        return False

    if not all(claim(point, set()) for point in range(len(options))):
        return None
    return tuple(sorted(owner, key=owner.__getitem__))


def _round_key(iso: Isometry) -> tuple:
    (a, b), (c, d) = iso.linear
    tx, ty = iso.offset
    return tuple(round(v, KEY_DIGITS) + 0.0 for v in (a, b, c, d, tx, ty))


def candidate_isometries(points_a: list[Point],
                         points_b: list[Point]) -> tuple[list[Isometry], str | None]:
    """Every isometry that maps one occupied point set onto another.

    Each sends one centroid and its first farthest point onto the other
    centroid and a point as far from it, within ``GEOMETRIC_TOL``; a point
    at the other centroid gives no direction and is skipped. A single
    occupied point on each side yields the plain translation between them.
    Only candidates that map every point within ``GEOMETRIC_TOL`` of a
    distinct point of the other set are kept, one for each orientation and
    correspondence of points, the first synthesised. Mismatched set sizes
    admit no bijective matching, reported through the note. Candidates are
    ordered: identity first, then orientation-reversing before
    orientation-preserving, then by rounded parameters.
    """
    set_a = sorted(set(points_a))
    set_b = sorted(set(points_b))
    if len(set_a) != len(set_b):
        return [], (f"no candidates: {len(set_a)} occupied locations cannot map "
                    f"onto {len(set_b)}")
    if not set_a:
        return [IDENTITY], None
    candidates = [IDENTITY]
    if len(set_a) == 1:
        (ax, ay), (bx, by) = set_a[0], set_b[0]
        candidates.append(translation(bx - ax, by - ay))
    else:
        # centroids: dividing first keeps the sum from overflowing
        n = len(set_a)
        ca, cb = ((sum(x / n for x, _ in points), sum(y / n for _, y in points))
                  for points in (set_a, set_b))
        far = max(set_a, key=lambda p: math.dist(p, ca))
        radius = math.dist(far, ca)
        for b in set_b:
            if b != cb and abs(math.dist(b, cb) - radius) <= GEOMETRIC_TOL:
                candidates.extend(_pair_isometries(ca, far, cb, b))
    # the targets are named by their index; one candidate is kept for each
    # orientation and one-to-one tuple of matched targets
    targets = _PointGrid(Location(str(k), point) for k, point in enumerate(set_b))
    matching: dict[tuple, Isometry] = {}
    for iso in candidates:
        matched = _one_to_one([targets.near(iso.apply(point)) for point in set_a])
        if matched is not None:
            matching.setdefault((iso.determinant > 0.0, matched), iso)
    ordered = sorted(matching.values(),
                     key=lambda iso: (not iso.is_identity(), iso.determinant > 0.0,
                                      _round_key(iso)))
    return ordered, None
