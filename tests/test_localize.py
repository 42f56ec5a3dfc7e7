import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hexloc.errors import UnlocalizableError
from hexloc.localize import (IRLS_MAX_ITER, IRLS_TOL_M, RANSAC_PAIR_SIN_TOL,
                             RANSAC_THRESHOLD_M, BearingLine,
                             perpendicular_distances, solve_irls, solve_mle,
                             solve_ransac)

import oracles


def line(anchor, azimuth_deg, array_id=""):
    return BearingLine.from_azimuth(anchor, math.radians(azimuth_deg),
                                    array_id=array_id)


def lines_to_target(anchors, target):
    out = []
    for k, anchor in enumerate(anchors):
        azimuth = math.atan2(target[1] - anchor[1], target[0] - anchor[0])
        out.append(BearingLine.from_azimuth(anchor, azimuth,
                                            array_id=f"L{k}"))
    return out


def test_bearing_line_validation():
    with pytest.raises(ValueError):
        BearingLine(anchor=np.zeros(2), direction=np.array([1.0, 1.0]))
    # a NaN azimuth used to pass the unit-length test and end in a solver's
    # "parallel" or "singular" error
    with pytest.raises(ValueError, match="direction must be finite"):
        BearingLine.from_azimuth((0.0, 0.0), math.nan)
    with pytest.raises(ValueError, match="direction must be finite"):
        BearingLine(anchor=np.zeros(2), direction=np.array([math.inf, 0.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="anchor must be finite"):
            BearingLine.from_azimuth((0.0, bad), 0.3)


def test_mle_hand_intersection():
    result = solve_mle([line((0.0, 0.0), 45.0), line((10.0, 0.0), 135.0)])
    np.testing.assert_allclose(result.position, [5.0, 5.0], atol=1e-9)
    assert result.method == "mle"


def test_mle_parallel_lines_unlocalizable():
    with pytest.raises(UnlocalizableError):
        solve_mle([line((0.0, 0.0), 30.0), line((1.0, 1.0), 30.0)])


def test_mle_exact_overdetermined():
    target = (3.0, 4.0)
    lines = lines_to_target([(0.0, 0.0), (10.0, 0.0), (0.0, 9.0)], target)
    result = solve_mle(lines)
    np.testing.assert_allclose(result.position, target, atol=1e-9)
    assert max(result.residuals) < 1e-9


def test_mle_requires_two_lines():
    with pytest.raises(ValueError):
        solve_mle([line((0.0, 0.0), 10.0)])


def test_mle_residuals_recomputable():
    lines = [line((0.0, 0.0), 40.0), line((5.0, 1.0), 160.0),
             line((2.0, -3.0), 95.0)]
    result = solve_mle(lines)
    recomputed = perpendicular_distances(lines, result.position)
    np.testing.assert_allclose(result.residuals, recomputed, atol=1e-9)
    for ln, residual in zip(lines, result.residuals):
        azimuth = math.atan2(ln.direction[1], ln.direction[0])
        assert residual == pytest.approx(
            oracles.line_point_distance(ln.anchor, azimuth, result.position),
            abs=1e-9)


def test_mle_optimality_in_compass_directions():
    lines = [line((0.0, 0.0), 42.0), line((8.0, 0.0), 123.0),
             line((4.0, 7.0), 260.0)]
    result = solve_mle(lines)

    def cost(p):
        return float(np.sum(perpendicular_distances(lines, p) ** 2))

    base = cost(result.position)
    for angle in np.arange(0.0, 360.0, 45.0):
        probe = result.position + 0.01 * np.array(
            [math.cos(math.radians(angle)), math.sin(math.radians(angle))])
        assert cost(probe) >= base - 1e-12


def test_condition_flag_near_parallel():
    result = solve_mle([line((0.0, 0.0), 0.0), line((0.0, 1.0), 0.001)])
    assert result.condition_flag


def test_ransac_excludes_rotated_outlier():
    target = (2.0, 3.0)
    anchors = [(0.0, 0.0), (8.0, 0.0), (0.0, 6.0), (8.0, 6.0)]
    lines = lines_to_target(anchors, target)
    outlier_azimuth = math.atan2(target[1] - anchors[3][1],
                                 target[0] - anchors[3][0]) + math.pi / 2.0
    lines[3] = BearingLine.from_azimuth(anchors[3], outlier_azimuth,
                                        array_id="L3")
    result = solve_ransac(lines, threshold=0.5)
    assert "L3" not in result.inliers
    assert set(result.inliers) == {"L0", "L1", "L2"}
    assert float(np.linalg.norm(np.asarray(result.position) - target)) < 0.05


def test_ransac_two_lines_equals_mle():
    lines = [line((0.0, 0.0), 30.0), line((6.0, 0.0), 140.0)]
    mle = solve_mle(lines)
    ransac = solve_ransac(lines, threshold=0.5)
    np.testing.assert_allclose(ransac.position, mle.position, atol=1e-12)
    assert ransac.method == "ransac"


def test_ransac_all_consistent_all_inliers():
    lines = lines_to_target([(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)], (4.0, 3.0))
    result = solve_ransac(lines, threshold=0.5)
    assert set(result.inliers) == {"L0", "L1", "L2"}


def test_ransac_reports_the_draws_made():
    # each unordered pair of lines is scored once; two lines take the
    # least-squares branch and score none
    anchors = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0), (-3.0, 6.0), (9.0, 9.0),
               (2.0, -4.0)]
    for count in range(2, len(anchors) + 1):
        lines = lines_to_target(anchors[:count], (4.0, 3.0))
        result = solve_ransac(lines, threshold=0.5)
        assert result.iterations == (math.comb(count, 2) if count > 2 else 0)


def test_ransac_tie_break_ignores_rounding():
    # each pair of these three lines meets far from the third, so every
    # candidate has two inliers and a residual sum of 0 up to rounding; in
    # any line order, the pair that meets nearest the third line wins
    anchors = [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)]
    azimuths = [30.0, 120.0, -100.0]
    exact = [line(a, az) for a, az in zip(anchors, azimuths)]
    gaps = {}
    for pair in itertools.combinations(range(3), 2):
        (third,) = set(range(3)) - set(pair)
        point = solve_mle([exact[k] for k in pair]).position
        gaps[pair] = (perpendicular_distances([exact[third]], point)[0],
                      point)
    (pair, (gap, want)), (_, (runner_up, _)), _ = sorted(
        gaps.items(), key=lambda item: item[1][0])
    assert 0.5 < gap < runner_up - 0.1
    rng = np.random.default_rng(21)
    for _ in range(200):
        noise = rng.uniform(-1e-12, 1e-12, size=3)
        lines = [BearingLine.from_azimuth(a, math.radians(az) + n,
                                          array_id=f"L{k}")
                 for k, (a, az, n) in enumerate(zip(anchors, azimuths, noise))]
        for order in itertools.permutations(range(3)):
            result = solve_ransac([lines[k] for k in order], threshold=0.5)
            assert sorted(result.inliers) == [f"L{k}" for k in pair]
            np.testing.assert_allclose(result.position, want, rtol=0,
                                       atol=1e-9)


def test_ransac_rejects_bad_threshold():
    lines = lines_to_target([(0.0, 0.0), (8.0, 0.0), (1.0, 4.0)], (2.0, 3.0))
    with pytest.raises(ValueError):
        solve_ransac(lines, threshold=0.0)


def test_ransac_parallel_lines_unlocalizable():
    lines = [line((0.0, 0.0), 10.0, array_id="a"),
             line((0.0, 1.0), 10.0, array_id="b"),
             line((0.0, 2.0), 10.0, array_id="c")]
    with pytest.raises(UnlocalizableError):
        solve_ransac(lines, threshold=0.5)


def test_irls_consistent_fixture_converges_fast():
    lines = lines_to_target([(0.0, 0.0), (10.0, 0.0), (0.0, 9.0)], (3.0, 4.0))
    mle = solve_mle(lines)
    irls = solve_irls(lines)
    assert irls.iterations <= 2
    np.testing.assert_allclose(irls.position, mle.position, atol=1e-6)
    assert len(irls.weights) == 3


def test_irls_downweights_gross_outlier():
    target = (2.0, 3.0)
    anchors = [(0.0, 0.0), (8.0, 0.0), (0.0, 6.0), (8.0, 6.0)]
    lines = lines_to_target(anchors, target)
    outlier_azimuth = math.atan2(target[1] - anchors[3][1],
                                 target[0] - anchors[3][0]) + math.pi / 2.0
    lines[3] = BearingLine.from_azimuth(anchors[3], outlier_azimuth,
                                        array_id="L3")
    result = solve_irls(lines)
    inlier_weights = result.weights[:3]
    assert result.weights[3] < 0.1 * float(np.median(inlier_weights))
    assert float(np.linalg.norm(np.asarray(result.position) - target)) < 0.5


def test_irls_two_lines_equals_mle():
    lines = [line((0.0, 0.0), 25.0), line((7.0, 0.0), 150.0)]
    mle = solve_mle(lines)
    irls = solve_irls(lines)
    np.testing.assert_allclose(irls.position, mle.position, atol=1e-9)


def test_translation_equivariance():
    rng = np.random.default_rng(2)
    for solver in (solve_mle, solve_irls,
                   lambda ls: solve_ransac(ls, 0.5)):
        anchors = [(0.0, 0.0), (6.0, 1.0), (2.0, 7.0)]
        target = (3.0, 3.5)
        lines = lines_to_target(anchors, target)
        shift = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10)])
        moved = [BearingLine(anchor=ln.anchor + shift, direction=ln.direction,
                             array_id=ln.array_id)
                 for ln in lines]
        a = solver(lines).position
        b = solver(moved).position
        np.testing.assert_allclose(b, a + shift, atol=1e-9)


def test_rotation_equivariance():
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    anchors = [(0.0, 0.0), (6.0, 1.0), (2.0, 7.0)]
    lines = lines_to_target(anchors, (3.0, 3.5))
    rotated = [BearingLine(anchor=rot @ ln.anchor,
                           direction=rot @ ln.direction,
                           array_id=ln.array_id)
               for ln in lines]
    for solver in (solve_mle, solve_irls):
        a = solver(lines).position
        b = solver(rotated).position
        np.testing.assert_allclose(b, rot @ a, atol=1e-9)


def test_exact_recovery_random_fixtures():
    rng = np.random.default_rng(3)
    for _ in range(200):
        count = int(rng.integers(2, 4))
        target = rng.uniform(-5.0, 5.0, size=2)
        anchors = rng.uniform(-10.0, 10.0, size=(count, 2))
        lines = lines_to_target([tuple(a) for a in anchors], tuple(target))
        directions = np.array([ln.direction for ln in lines])
        crosses = [abs(directions[i, 0] * directions[j, 1]
                       - directions[i, 1] * directions[j, 0])
                   for i in range(count) for j in range(i + 1, count)]
        if max(crosses) < 0.05:
            continue  # skip ill-conditioned draws; parallelism tested separately
        for solver in (solve_mle, solve_irls,
                       lambda ls: solve_ransac(ls, 0.5)):
            got = solver(lines).position
            np.testing.assert_allclose(got, target, atol=1e-9)


def test_behind_anchor_flagged():
    # two bearings pointing away from their intersection
    result = solve_mle([line((0.0, 0.0), 225.0, array_id="a"),
                        line((10.0, 0.0), 315.0, array_id="b")])
    assert set(result.behind_anchors) == {"a", "b"}


# --- properties of the solvers on drawn noisy bearings -----------------------

# an IRLS run stops on a move below IRLS_TOL_M, so rounding that changes the
# stopping iteration moves its answer by up to about that much. Over 300
# draws of 3-5 lines the worst RANSAC position error seen under a rigid
# motion was 7.2e-14 m; its refit on the inliers is the closed form
# solve_mle uses, so it takes the same 1e-9 m tolerance
SOLVER_TOLERANCE_M = {solve_mle: 1e-9, solve_irls: 2.0 * IRLS_TOL_M,
                      solve_ransac: 1e-9}
SOLVERS = pytest.mark.parametrize(
    "solver", [solve_mle, solve_irls, solve_ransac],
    ids=["mle", "irls", "ransac"])


@st.composite
def noisy_bearings(draw, min_count=2, max_count=6):
    """``min_count``-``max_count`` bearing lines from anchors in a
    20 m square towards a target, each bearing off by up to 5 degrees, none
    within 0.5 m of the target and no pair closer than 6 degrees to
    parallel; a line dropped for starting near the target can leave fewer."""
    target = np.array(draw(st.tuples(st.floats(-5.0, 5.0),
                                      st.floats(-5.0, 5.0))))
    count = draw(st.integers(min_count, max_count))
    anchors = draw(st.lists(st.tuples(st.floats(-10.0, 10.0),
                                      st.floats(-10.0, 10.0)),
                            min_size=count, max_size=count))
    errors = draw(st.lists(st.floats(-5.0, 5.0), min_size=count,
                           max_size=count))
    lines = []
    for k, (anchor, error) in enumerate(zip(anchors, errors)):
        offset = target - np.array(anchor)
        if np.linalg.norm(offset) < 0.5:
            continue
        azimuth = math.atan2(offset[1], offset[0]) + math.radians(error)
        lines.append(BearingLine.from_azimuth(anchor, azimuth,
                                              array_id=f"L{k}"))
    d = np.array([ln.direction for ln in lines]).reshape(-1, 2)
    crosses = np.abs(np.outer(d[:, 0], d[:, 1]) - np.outer(d[:, 1], d[:, 0]))
    assume(len(lines) >= 2 and crosses.max() > math.sin(math.radians(6.0)))
    return lines


def moved_line(ln, rotation=np.eye(2), shift=np.zeros(2)):
    return BearingLine(anchor=rotation @ ln.anchor + shift,
                       direction=rotation @ ln.direction,
                       array_id=ln.array_id)


@SOLVERS
@settings(max_examples=100, deadline=None)
@given(lines=noisy_bearings(), data=st.data())
def test_solver_invariant_to_line_order(solver, lines, data):
    if solver is solve_ransac:
        assume(clear_of_ransac_edges(lines))
    order = data.draw(st.permutations(range(len(lines))))
    got = solver([lines[k] for k in order])
    want = solver(lines)
    assert sorted(got.inliers) == sorted(want.inliers)
    np.testing.assert_allclose(got.position, want.position, rtol=0,
                               atol=SOLVER_TOLERANCE_M[solver])


@SOLVERS
@settings(max_examples=100, deadline=None)
@given(lines=noisy_bearings(),
       shift=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
       theta=st.floats(-math.pi, math.pi))
def test_solver_equivariant_under_rigid_motion(solver, lines, shift, theta):
    rotation = np.array([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])
    shift = np.array(shift)
    shifted_lines = [moved_line(ln, shift=shift) for ln in lines]
    rotated_lines = [moved_line(ln, rotation) for ln in lines]
    if solver is solve_ransac:
        assume(all(map(clear_of_ransac_edges,
                       (lines, shifted_lines, rotated_lines))))
    want, shifted, rotated = map(solver, (lines, shifted_lines, rotated_lines))
    assert shifted.inliers == rotated.inliers == want.inliers
    tol = SOLVER_TOLERANCE_M[solver]
    np.testing.assert_allclose(shifted.position, want.position + shift,
                               rtol=0, atol=tol)
    np.testing.assert_allclose(rotated.position, rotation @ want.position,
                               rtol=0, atol=tol)


def clear_of_ransac_edges(lines, margin=1e-9):
    """Whether rounding cannot change a RANSAC decision on these lines: no
    line pair is within ``margin`` of the parallel cut-off, and no line lies
    within ``margin`` metres of the inlier threshold from any pair's
    intersection, which are all the candidates RANSAC can draw."""
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            da, db = lines[a].direction, lines[b].direction
            cross = da[0] * db[1] - da[1] * db[0]
            if abs(abs(cross) - RANSAC_PAIR_SIN_TOL) <= margin:
                return False
            if abs(cross) < RANSAC_PAIR_SIN_TOL:
                continue
            normals = np.array([[-da[1], da[0]], [-db[1], db[0]]])
            point = np.linalg.solve(normals, [normals[0] @ lines[a].anchor,
                                              normals[1] @ lines[b].anchor])
            dists = perpendicular_distances(lines, point)
            if np.any(np.abs(dists - RANSAC_THRESHOLD_M) <= margin):
                return False
    return True


# --- array-form solvers against the per-line loop ------------------------------

@st.composite
def any_bearings(draw):
    """2-6 lines aimed at a target, each either near it (up to 5
    degrees off), exactly on it, or anywhere (a gross outlier, possibly
    parallel to another line or pointing away from the target)."""
    target = np.array(draw(st.tuples(st.floats(-5.0, 5.0),
                                      st.floats(-5.0, 5.0))))
    count = draw(st.integers(2, 6))
    lines = []
    for k in range(count):
        anchor = np.array(draw(st.tuples(st.floats(-10.0, 10.0),
                                         st.floats(-10.0, 10.0))))
        error = draw(st.just(0.0) | st.floats(-5.0, 5.0)
                     | st.floats(-180.0, 180.0))
        offset = target - anchor
        azimuth = math.atan2(offset[1], offset[0]) + math.radians(error)
        lines.append(BearingLine.from_azimuth(anchor, azimuth,
                                              array_id=f"L{k}"))
    return lines


def outcome(solve):
    try:
        return solve()
    except (UnlocalizableError, ValueError) as exc:
        return type(exc)


def assert_same_result(got, want):
    if not isinstance(want, dict):
        assert got is want
        return
    np.testing.assert_array_equal(got.position, want["position"])
    for name, value in want.items():
        if name != "position":
            assert getattr(got, name) == value, name


@settings(max_examples=300, deadline=None)
@given(lines=any_bearings())
def test_solvers_equal_per_line_loop(lines):
    assert_same_result(outcome(lambda: solve_mle(lines)),
                       outcome(lambda: oracles.loop_solve_mle(lines)))
    assert_same_result(
        outcome(lambda: solve_ransac(lines, RANSAC_THRESHOLD_M)),
        outcome(lambda: oracles.loop_solve_ransac(lines, RANSAC_THRESHOLD_M)))
    assert_same_result(
        outcome(lambda: solve_irls(lines)),
        outcome(lambda: oracles.loop_solve_irls(lines)))


def test_irls_reports_whether_it_converged():
    lines = lines_to_target([(0.0, 0.0), (10.0, 0.0), (0.0, 9.0)], (3.0, 4.0))
    assert solve_irls(lines).converged
    assert solve_mle(lines).converged
    assert solve_ransac(lines).converged
    # three lines that meet pairwise far apart: IRLS still moves after 50
    noisy = [line((0.0, 0.0), 40.0), line((5.0, 1.0), 160.0),
             line((2.0, -3.0), 95.0)]
    capped = solve_irls(noisy)
    assert capped.iterations == IRLS_MAX_ITER and not capped.converged
