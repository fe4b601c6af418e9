from __future__ import annotations

import itertools
import math
import random

import candidates_reference as reference
from paloma.geometry import (
    ALGEBRAIC_TOL,
    GEOMETRIC_TOL,
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
    # grid cells; the earlier declaration wins, whichever is nearer. A
    # location just beyond GEOMETRIC_TOL never matches
    near = Location("near", (5e-7, 0.0))
    far = Location("far", (-9e-7, 0.0))
    beyond = Location("beyond", (0.0, -1.1e-6))
    here = Location("here", (0.0, 0.0))
    assert map_location(IDENTITY, here, {"far": far, "near": near}).name == "far"
    assert map_location(IDENTITY, here, {"near": near, "far": far}).name == "near"
    assert map_location(IDENTITY, here, {"beyond": beyond, "near": near}).name == "near"
    assert map_location(IDENTITY, here, {"beyond": beyond}) is None


def test_map_location_agrees_with_a_scan_in_declared_order():
    # images land within 1.5 tolerances of a random declared point, so some
    # match one, some several and some none; the points sit around a centre
    # of random magnitude, so that the grid's cells are hit at many scales
    rng = random.Random(5)
    tol = GEOMETRIC_TOL
    outcomes = set()
    for _ in range(300):
        cx, cy = (rng.uniform(-1, 1) * 10.0 ** rng.randint(-7, 2) for _ in range(2))
        declared = {f"l{k}": Location(f"l{k}", (cx + rng.uniform(-2, 2) * tol,
                                                cy + rng.uniform(-2, 2) * tol))
                    for k in range(rng.randint(1, 6))}
        x, y = rng.choice(list(declared.values())).point
        image = (x + rng.uniform(-1.5, 1.5) * tol, y + rng.uniform(-1.5, 1.5) * tol)
        phi = random_isometry(rng)
        probe = Location("p", invert(phi).apply(image))
        within = [loc.name for loc in declared.values()
                  if math.dist(phi.apply(probe.point), loc.point) <= tol]
        found = map_location(phi, probe, declared)
        assert (found and found.name) == (within[0] if within else None)
        outcomes.add(min(len(within), 2))
    assert outcomes == {0, 1, 2}


def test_grid_matches_a_point_whose_distance_rounds_to_the_tolerance():
    # each probe lies 1e-6 + 1e-22 from its location, which math.dist rounds
    # to exactly GEOMETRIC_TOL; in cells one tolerance wide the two points
    # would sit two cells apart (-1 and 1), outside each other's 3 x 3 block
    from paloma.geometry import _PointGrid

    for point, probe in (((1e-6, 0.0), (-1e-22, 0.0)), ((0.0, 1e-6), (0.0, -1e-22))):
        assert math.dist(point, probe) == GEOMETRIC_TOL
        loc = Location("l", point)
        assert _PointGrid([loc]).match(probe) is loc
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
        candidates = candidate_isometries(points, points)
        assert [round(iso.determinant) for iso in candidates[0]] == [1, -1, -1, 1]
        _assert_same_candidates(candidates, reference.candidate_isometries(points, points),
                                points, points)


def test_symmetries_are_kept_while_coordinate_error_is_below_the_tolerance():
    # a radius-10 hexagon written to 6 or more decimals is off its circle by
    # less than GEOMETRIC_TOL and keeps all 12 symmetries; at 5 decimals the
    # error passes the tolerance and only some near-symmetries survive, each
    # of which still maps the set onto itself
    for decimals in (6, 7, 9):
        hexagon = _polygon(6, 10.0, decimals)
        assert len(candidate_isometries(hexagon, hexagon)[0]) == 12
    hexagon = _polygon(6, 10.0, 5)
    candidates, note = candidate_isometries(hexagon, hexagon)
    assert note is None and len(candidates) == 4
    for iso in candidates:
        assert all(any(math.dist(iso.apply(p), q) <= GEOMETRIC_TOL for q in hexagon)
                   for p in hexagon)


def test_synthesis_is_linear_in_the_points(monkeypatch):
    # every candidate sends the centroid and one farthest point of one side
    # onto the other side's centroid and a point as far from it, so wide-40
    # against itself synthesises from at most 40 such points
    import families
    from paloma import geometry
    from paloma.model import locations_of
    from paloma.parser import parse_model

    calls = []
    pair_isometries = geometry._pair_isometries
    monkeypatch.setattr(geometry, "_pair_isometries",
                        lambda *points: calls.append(points) or pair_isometries(*points))
    wide = parse_model(families.wide(40, 0)).definition
    points = [loc.point for loc in locations_of(wide.systems["Main"])]
    candidates, note = candidate_isometries(points, points)
    assert note is None and len(candidates) == 80
    assert 0 < len(calls) <= 40


def _parameters(iso: Isometry) -> tuple[float, ...]:
    (a, b), (c, d) = iso.linear
    return (a, b, c, d, *iso.offset)


def _correspondence(iso: Isometry, points: list, targets: list) -> tuple:
    """The orientation of ``iso`` and the first target each point maps to."""
    ordered = sorted(set(targets))
    return (iso.determinant > 0.0,
            tuple(next((k for k, q in enumerate(ordered) if math.dist(iso.apply(p), q) <= 1e-6),
                       None) for p in sorted(set(points))))


def _assert_same_candidates(got: tuple, expected: tuple, points: list, targets: list) -> None:
    """``got`` lists the candidates of ``expected`` in its order: each with the
    same orientation and matched targets, and parameters within
    ALGEBRAIC_TOL. They come from different formulas, so their last bits
    may differ."""
    assert got[1] == expected[1]
    assert len(got[0]) == len(expected[0])
    for iso, ref in zip(got[0], expected[0]):
        assert _correspondence(iso, points, targets) == _correspondence(ref, points, targets)
        assert all(abs(u - v) <= ALGEBRAIC_TOL
                   for u, v in zip(_parameters(iso), _parameters(ref))), (iso, ref)


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
        elif trial % 3 == 1:
            # a regular polygon, whose symmetries all map it onto its image
            n, radius, turn = rng.randint(1, 8), rng.uniform(0.5, 4), rng.uniform(0.0, math.pi)
            points = [(radius * math.cos(turn + 2.0 * math.pi * k / n),
                       radius * math.sin(turn + 2.0 * math.pi * k / n)) for k in range(n)]
        else:
            points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n)]
        phi = random_isometry(rng)
        images = [phi.apply(p) for p in points]
        expected = reference.candidate_isometries(points, images)
        keys = [_correspondence(iso, points, images) for iso in expected[0]]
        if len(set(keys)) == len(keys):
            _assert_same_candidates(candidate_isometries(points, images), expected,
                                    points, images)
            compared += 1
    assert compared > 850


def _spread_points(rng: random.Random, n: int, spacing: float) -> list[tuple[float, float]]:
    """``n`` points, at least ``spacing`` apart as the validator requires:
    distinct nodes of a 3 x 3 grid of pitch 1.6 spacings, each moved by up
    to 0.3 spacings along each axis."""
    nodes = rng.sample([(i, j) for i in range(3) for j in range(3)], n)
    return [((i * 1.6 + rng.uniform(-0.3, 0.3)) * spacing,
             (j * 1.6 + rng.uniform(-0.3, 0.3)) * spacing) for i, j in nodes]


def test_candidates_are_exact_isometries_that_match_points_one_to_one():
    # near-congruent sets: an isometric image moved by up to half the
    # tolerance per coordinate. On sets a few tolerances wide, a scaling or a
    # map sending two points onto one target can pass the tolerance test;
    # neither may be listed
    rng = random.Random(20)
    listed = 0
    for trial in range(3000):
        n = rng.randint(2, 5)
        spacing = rng.choice([1.05e-6, 2e-6, 3e-6, 1e-5, 1.0])
        points = _spread_points(rng, n, spacing)
        phi = random_isometry(rng)
        half = 0.5 * GEOMETRIC_TOL
        images = [(x + rng.uniform(-half, half), y + rng.uniform(-half, half))
                  for x, y in map(phi.apply, points)]
        for iso in candidate_isometries(points, images)[0]:
            listed += 1
            assert iso.is_orthogonal(), (trial, iso)
            assert _matching_permutations(iso, points, images), (trial, iso)
    assert listed > 3000


def _matching_permutations(iso: Isometry, points: list, targets: list) -> set[tuple[int, ...]]:
    """Every permutation of the sorted distinct ``targets`` that lies within
    GEOMETRIC_TOL of the images of the sorted distinct ``points``, point by
    point: a brute-force search."""
    images = [iso.apply(p) for p in sorted(set(points))]
    ordered = sorted(set(targets))
    near = [[math.dist(image, q) <= GEOMETRIC_TOL for q in ordered] for image in images]
    return {perm for perm in itertools.permutations(range(len(ordered)))
            if all(near[k][j] for k, j in enumerate(perm))}


def test_a_candidate_is_kept_exactly_when_some_permutation_matches(monkeypatch):
    # on sets spaced under 2 x GEOMETRIC_TOL apart an image may lie within
    # the tolerance of two targets, so the earliest target of each point can
    # collide while another assignment matches them one to one. Every
    # synthesised candidate that some permutation of the targets matches
    # must be listed, or share a matching permutation and orientation with
    # one that is; no other may be
    from paloma import geometry

    synthesised = []
    pair_isometries = geometry._pair_isometries

    def recording(*points):
        found = pair_isometries(*points)
        synthesised.extend(found)
        return found

    monkeypatch.setattr(geometry, "_pair_isometries", recording)
    rng = random.Random(1)
    rescued = 0
    for trial in range(1500):
        n = rng.randint(2, 6)
        spacing = rng.choice([1.05e-6, 1.5e-6, 2e-6, 3e-6, 1.0])
        points = _spread_points(rng, n, spacing)
        phi = random_isometry(rng)
        half = 0.5 * GEOMETRIC_TOL
        images = [(x + rng.uniform(-half, half), y + rng.uniform(-half, half))
                  for x, y in map(phi.apply, points)]
        synthesised.clear()
        listed = candidate_isometries(points, images)[0]
        kept = [(iso.determinant > 0.0, _matching_permutations(iso, points, images))
                for iso in listed]
        assert all(perms for _, perms in kept), trial
        for iso in [IDENTITY, *synthesised]:
            perms = _matching_permutations(iso, points, images)
            assert bool(perms) == any(turn == (iso.determinant > 0.0) and perms & own
                                      for turn, own in kept), (trial, iso)
            _, earliest = _correspondence(iso, points, images)
            rescued += bool(perms) and len(set(earliest)) < len(earliest)
    assert rescued > 10


def test_grid_near_matches_a_brute_force_scan_in_insertion_order():
    # seeded sets of clustered points 1.05e-6 to 3e-6 apart, points on cell
    # boundaries, repeated points and coordinates too large to divide by the
    # cell width (whose cell key is the coordinate itself), probed at every
    # point and near it: near lists what a scan in insertion order finds
    from paloma.geometry import _CELL_WIDTH, _PointGrid

    huge = 1e303
    assert not math.isfinite(huge / _CELL_WIDTH)
    rng = random.Random(24)
    shapes = set()
    for _ in range(600):
        shape = rng.choice(["cluster", "boundary", "repeated", "huge"])
        shapes.add(shape)
        if shape == "cluster":
            spacing = rng.uniform(1.05e-6, 3e-6)
            x0, y0 = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            points = [(x0 + spacing * rng.randint(-2, 2), y0 + spacing * rng.randint(-2, 2))
                      for _ in range(rng.randint(1, 8))]
        elif shape == "boundary":
            k = rng.randint(-1000, 1000)
            points = [((k + rng.randint(-1, 1)) * _CELL_WIDTH
                       + rng.choice([0.0, GEOMETRIC_TOL, -GEOMETRIC_TOL, 0.5e-6]),
                       rng.randint(-2, 2) * _CELL_WIDTH) for _ in range(rng.randint(1, 8))]
        elif shape == "repeated":
            point = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            points = [point] * rng.randint(2, 4) + [(point[0] + 0.5e-6, point[1])]
        else:
            points = [(rng.choice([huge, -huge, 1.5 * huge, 1.0]),
                       rng.choice([huge, -huge, 0.0, 3e-6])) for _ in range(rng.randint(1, 6))]
        locations = [Location(f"l{k}", point) for k, point in enumerate(points)]
        grid = _PointGrid(locations)
        probes = points + [(x + rng.uniform(-2e-6, 2e-6), y + rng.uniform(-2e-6, 2e-6))
                           for x, y in points]
        for probe in probes:
            expected = [loc for loc in locations
                        if math.dist(probe, loc.point) <= GEOMETRIC_TOL]
            assert grid.near(probe) == expected, (shape, points, probe)
            assert grid.match(probe) == (expected[0] if expected else None)
    assert shapes == {"cluster", "boundary", "repeated", "huge"}


def test_grid_match_or_add_is_match_then_add():
    # seeded clusters of points up to a few tolerances apart, at every scale
    # up to coordinates too large to divide by the cell width: one probe per
    # location returns what match returns before add, and what a scan of the
    # locations kept so far finds first; the grid then holds the same cells
    from paloma.geometry import _PointGrid

    rng = random.Random(26)
    matched = 0
    for _ in range(400):
        scale = rng.choice([1.0, 1e3, 1e9, 1e303, 1.5e308])
        centres = [(rng.uniform(-scale, scale), rng.choice([0.0, rng.uniform(-scale, scale)]))
                   for _ in range(rng.randint(1, 3))]
        probed, stepped = _PointGrid(), _PointGrid()
        kept: list[Location] = []
        for k in range(rng.randint(1, 10)):
            x, y = rng.choice(centres)
            r = GEOMETRIC_TOL * rng.choice([0.0, 0.5, 0.99, 1.01, 2.0, rng.uniform(0.0, 4.0)])
            angle = rng.uniform(0.0, 2.0 * math.pi)
            location = Location(f"l{k}", (x + r * math.cos(angle), y + r * math.sin(angle)))
            expected = next((o for o in kept
                             if math.dist(o.point, location.point) <= GEOMETRIC_TOL), None)
            if expected is None:
                kept.append(location)
            assert stepped.match(location.point) is expected
            if expected is None:
                stepped.add(location)
            assert probed.match_or_add(location) is expected
            matched += expected is not None
        assert probed.cells == stepped.cells and probed.added == stepped.added == len(kept)
    assert matched > 300
