"""Candidate isometry synthesis as it stood before candidates were
deduplicated by the targets they match: a reference for
``paloma.geometry.candidate_isometries``.

Candidates are deduplicated only by their parameters rounded to 9 decimals,
so one symmetry can appear more than once, and each survivor is checked
against the target set by a scan over every target. It is kept as it was,
and tests require the engine to list the same candidates wherever this
lists no symmetry twice.
"""

from __future__ import annotations

import math

from paloma.geometry import (
    GEOMETRIC_TOL,
    IDENTITY,
    Isometry,
    Point,
    _pair_isometries,
    _round_key,
    translation,
)


def candidate_isometries(points_a: list[Point], points_b: list[Point],
                         tol: float = GEOMETRIC_TOL) -> tuple[list[Isometry], str | None]:
    """Every isometry that maps one occupied point set onto another.

    Synthesised from distance-matched ordered pairs; a single occupied point
    on each side yields the plain translation between them. Only candidates
    that map every point within ``tol`` of a point of the other set are
    kept. Mismatched set sizes admit no bijective matching, reported through
    the note. Candidates are deduplicated and ordered deterministically:
    identity first, then orientation-reversing before orientation-preserving,
    then by rounded parameters.
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
        for a1 in set_a:
            for a2 in set_a:
                if a1 == a2:
                    continue
                for b1 in set_b:
                    for b2 in set_b:
                        if b1 == b2:
                            continue
                        if abs(math.dist(a1, a2) - math.dist(b1, b2)) > tol:
                            continue
                        candidates.extend(_pair_isometries(a1, a2, b1, b2))
    unique: dict[tuple, Isometry] = {}
    for iso in candidates:
        unique.setdefault(_round_key(iso), iso)
    ordered = sorted((iso for iso in unique.values() if _maps_onto(iso, set_a, set_b, tol)),
                     key=lambda iso: (not iso.is_identity(),
                                      round(iso.determinant, 9),
                                      _round_key(iso)))
    return ordered, None


def _maps_onto(iso: Isometry, set_a: list[Point], set_b: list[Point],
               tol: float) -> bool:
    for point in set_a:
        image = iso.apply(point)
        if not any(math.dist(image, target) <= tol for target in set_b):
            return False
    return True
