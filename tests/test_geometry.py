from __future__ import annotations

import math
import random

import candidates_reference as reference
from paloma.geometry import (
    IDENTITY,
    Isometry,
    candidate_isometries,
    compose,
    invert,
    map_location,
    reflection_y_axis,
    rotation,
    translation,
)
from paloma.model import Location


def random_isometry(rng: random.Random) -> Isometry:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    base = rotation(angle)
    if rng.random() < 0.5:
        base = compose(base, Isometry(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.0)))
    return Isometry(base.linear, (rng.uniform(-5, 5), rng.uniform(-5, 5)))


def test_reflection_swaps_the_mirrored_pair():
    phi = reflection_y_axis()
    assert phi.apply((-1.0, 0.0)) == (1.0, 0.0)
    assert phi.apply((1.0, 0.0)) == (-1.0, 0.0)
    assert phi.kind == "reflection"


def test_identity_applies_trivially():
    assert IDENTITY.apply((3.5, -2.25)) == (3.5, -2.25)
    assert IDENTITY.kind == "identity"


def test_isometries_preserve_distance():
    rng = random.Random(3)
    for _ in range(300):
        phi = random_isometry(rng)
        assert phi.is_orthogonal()
        x = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        y = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert math.isclose(math.dist(phi.apply(x), phi.apply(y)), math.dist(x, y),
                            rel_tol=1e-9, abs_tol=1e-9)


def test_compose_applies_right_then_left():
    rng = random.Random(4)
    for _ in range(200):
        phi1, phi2 = random_isometry(rng), random_isometry(rng)
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        via_compose = compose(phi1, phi2).apply(point)
        direct = phi1.apply(phi2.apply(point))
        assert math.dist(via_compose, direct) <= 1e-9


def test_invert_round_trips():
    rng = random.Random(5)
    for _ in range(200):
        phi = random_isometry(rng)
        assert compose(phi, invert(phi)).is_identity(1e-9)
        assert compose(invert(phi), phi).is_identity(1e-9)


def test_reflection_composed_with_itself_is_identity():
    phi = reflection_y_axis()
    assert compose(phi, phi).is_identity()


def test_invert_translation_negates_offset():
    phi = invert(translation(2.0, -3.0))
    assert phi.offset == (-2.0, 3.0)


def test_determinant_is_multiplicative():
    rng = random.Random(6)
    for _ in range(200):
        phi1, phi2 = random_isometry(rng), random_isometry(rng)
        assert math.isclose(compose(phi1, phi2).determinant,
                            phi1.determinant * phi2.determinant, rel_tol=1e-9)


def test_kind_classification():
    assert translation(1.0, 0.0).kind == "translation"
    assert rotation(math.pi / 3).kind == "rotation"
    glide = compose(translation(2.0, 0.0), Isometry(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.0)))
    assert glide.kind == "glide-reflection"


def test_map_location_matches_declared_names():
    l0 = Location("l0", (-1.0, 0.0))
    l1 = Location("l1", (1.0, 0.0))
    declared = {"l0": l0, "l1": l1}
    phi = reflection_y_axis()
    assert map_location(phi, l0, declared) == l1
    assert map_location(phi, l1, declared) == l0
    off = translation(100.0, 0.0)
    assert map_location(off, l0, declared) is None


def test_map_location_returns_the_earliest_declared_match():
    # both declared points lie within tolerance of the image, in adjacent
    # grid cells; the earlier declaration wins, whichever is nearer
    near = Location("near", (5e-7, 0.0))
    far = Location("far", (-9e-7, 0.0))
    here = Location("here", (0.0, 0.0))
    assert map_location(IDENTITY, here, {"far": far, "near": near}).name == "far"
    assert map_location(IDENTITY, here, {"near": near, "far": far}).name == "near"
    assert map_location(IDENTITY, here, {"far": far, "near": near}, tol=6e-7).name == "near"
    assert map_location(IDENTITY, here, {"here": here}, tol=0.0).name == "here"
    assert map_location(IDENTITY, here, {"near": near}, tol=0.0) is None


def test_map_location_agrees_with_a_scan_in_declared_order():
    # images land within 1.5 tolerances of a random declared point, so some
    # match one, some several and some none
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        tol = 10.0 ** rng.randint(-7, 0)
        declared = {f"l{k}": Location(f"l{k}", (rng.uniform(-2, 2) * tol, rng.uniform(-2, 2) * tol))
                    for k in range(rng.randint(1, 6))}
        x, y = rng.choice(list(declared.values())).point
        image = (x + rng.uniform(-1.5, 1.5) * tol, y + rng.uniform(-1.5, 1.5) * tol)
        phi = random_isometry(rng)
        probe = Location("p", invert(phi).apply(image))
        within = [loc.name for loc in declared.values()
                  if math.dist(phi.apply(probe.point), loc.point) <= tol]
        found = map_location(phi, probe, declared, tol)
        assert (found and found.name) == (within[0] if within else None)
        outcomes.add(min(len(within), 2))
    assert outcomes == {0, 1, 2}


def test_grid_matches_a_point_whose_distance_rounds_to_the_tolerance():
    # each probe lies 1e-6 + 1e-22 from its location, which math.dist rounds
    # to exactly the tolerance; in cells one tolerance wide the two points
    # would sit two cells apart (-1 and 1), outside each other's 3 x 3 block
    from paloma.geometry import _PointGrid

    for point, probe in (((1e-6, 0.0), (-1e-22, 0.0)), ((0.0, 1e-6), (0.0, -1e-22))):
        assert math.dist(point, probe) == 1e-6
        loc = Location("l", point)
        assert _PointGrid([loc], tol=1e-6).match(probe) is loc
        assert map_location(IDENTITY, Location("p", probe), {"l": loc}) is loc


def test_map_locations_is_elementwise_with_raw_fallback():
    from paloma.geometry import map_locations

    l0 = Location("l0", (-1.0, 0.0))
    l1 = Location("l1", (1.0, 0.0))
    declared = {"l0": l0, "l1": l1}
    images = map_locations(reflection_y_axis(), {l0, l1}, declared)
    assert images == [l1, l0]
    shifted = map_locations(translation(10.0, 0.0), {l0}, declared)
    assert shifted == [(9.0, 0.0)]


def test_candidates_for_mirrored_pair_cover_the_symmetries():
    points = [(-1.0, 0.0), (1.0, 0.0)]
    candidates, note = candidate_isometries(points, points)
    assert note is None
    kinds = [iso.kind for iso in candidates]
    assert kinds[0] == "identity"
    assert "reflection" in kinds and "rotation" in kinds
    assert len(candidates) == 4  # identity, two reflections, half turn
    for iso in candidates:
        assert iso.is_orthogonal()
        for point in points:
            image = iso.apply(point)
            assert any(math.dist(image, q) <= 1e-6 for q in points)


def test_reflections_are_tried_before_rotations():
    points = [(-1.0, 0.0), (1.0, 0.0)]
    candidates, _ = candidate_isometries(points, points)
    dets = [round(iso.determinant) for iso in candidates[1:]]
    assert dets == sorted(dets)  # -1 (reflections) first, then +1


def test_single_point_gives_a_translation():
    candidates, note = candidate_isometries([(0.0, 0.0)], [(5.0, 5.0)])
    assert note is None
    assert len(candidates) == 1
    assert candidates[0].kind == "translation"
    assert candidates[0].apply((0.0, 0.0)) == (5.0, 5.0)


def test_mismatched_distances_give_no_candidates():
    candidates, note = candidate_isometries([(0.0, 0.0), (1.0, 0.0)],
                                            [(0.0, 0.0), (3.0, 0.0)])
    assert candidates == [] and note is None


def test_mismatched_sizes_give_empty_with_note():
    candidates, note = candidate_isometries([(0.0, 0.0)],
                                            [(0.0, 0.0), (3.0, 0.0)])
    assert candidates == []
    assert note is not None and "cannot map" in note


def test_candidates_map_between_congruent_random_sets():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 4)
        points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n)]
        phi = random_isometry(rng)
        images = [phi.apply(p) for p in points]
        candidates, note = candidate_isometries(points, images)
        assert note is None
        assert candidates, "a congruent image must admit at least one candidate"
        for iso in candidates:
            assert all(any(math.dist(iso.apply(p), q) <= 1e-6 for q in images)
                       for p in points)


def test_triangle_candidates_are_its_six_symmetries():
    # the ring-3 locations: distance matching alone proposes 24 isometries,
    # of which only the 3 rotations and 3 reflections map the set onto itself
    triangle = [(3.0, 0.0), (-1.4999999999999993, 2.598076211353316),
                (-1.5000000000000013, -2.598076211353315)]
    candidates, note = candidate_isometries(triangle, triangle)
    assert note is None
    assert len(candidates) == 6
    assert [round(iso.determinant) for iso in candidates] == [1, -1, -1, -1, 1, 1]
    assert candidates[0].kind == "identity"


def test_candidate_order_is_deterministic():
    points = [(-1.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    first, _ = candidate_isometries(points, points)
    second, _ = candidate_isometries(points, points)
    assert first == second


def _polygon(n: int, radius: float, decimals: int) -> list[tuple[float, float]]:
    return [(round(radius * math.cos(2.0 * math.pi * k / n), decimals),
             round(radius * math.sin(2.0 * math.pi * k / n), decimals)) for k in range(n)]


def test_each_symmetry_is_one_candidate():
    # coordinates written to a few decimals make the isometries synthesised
    # for one symmetry differ past the 9th decimal; the parent's rounded
    # parameters kept each of them
    hexagon = _polygon(6, 10.0, 7)
    assert len(reference.candidate_isometries(hexagon, hexagon)[0]) > 12
    candidates, note = candidate_isometries(hexagon, hexagon)
    assert note is None and len(candidates) == 12
    assert sorted(round(iso.determinant) for iso in candidates) == [-1] * 6 + [1] * 6
    dodecagon = _polygon(12, 10.0, 9)
    assert len(candidate_isometries(dodecagon, dodecagon)[0]) == 24


def test_two_points_keep_both_orientations():
    # the identity and the reflection in the line through two points match
    # the same targets; they differ in orientation, so both stay
    import families
    from paloma.model import locations_of
    from paloma.parser import parse_model

    duo = parse_model(families.duo(4, 1)).definition
    for points in ([(-1.0, 0.0), (1.0, 0.0)],
                   [loc.point for loc in locations_of(duo.systems["Main"])]):
        candidates, _ = candidate_isometries(points, points)
        assert [round(iso.determinant) for iso in candidates] == [1, -1, -1, 1]
        assert candidates == reference.candidate_isometries(points, points)[0]


def _correspondence(iso: Isometry, points: list, targets: list) -> tuple:
    """The orientation of ``iso`` and the first target each point maps to."""
    ordered = sorted(set(targets))
    return (iso.determinant > 0.0,
            tuple(next((k for k, q in enumerate(ordered) if math.dist(iso.apply(p), q) <= 1e-6),
                       None) for p in sorted(set(points))))


def test_candidates_equal_the_reference_wherever_it_lists_each_symmetry_once():
    rng = random.Random(12)
    compared = 0
    for trial in range(900):
        n = rng.randint(1, 6)
        if trial % 3 == 0:
            # collinear points, where reflection in the line fixes them all
            direction = rng.uniform(0.0, math.pi)
            spots = [rng.uniform(-4, 4) for _ in range(n)]
            points = [(s * math.cos(direction), s * math.sin(direction)) for s in spots]
        else:
            points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n)]
        phi = random_isometry(rng)
        images = [phi.apply(p) for p in points]
        expected = reference.candidate_isometries(points, images)
        keys = [_correspondence(iso, points, images) for iso in expected[0]]
        if len(set(keys)) == len(keys):
            assert candidate_isometries(points, images) == expected
            compared += 1
    assert compared > 850
