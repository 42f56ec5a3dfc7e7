"""2D position from bearing lines: closed-form least squares plus RANSAC
and IRLS robust variants.

Each bearing defines the full line l(t) = anchor + t * direction,
t in (-inf, inf); solutions landing behind an anchor (negative t) are kept
but flagged as geometrically suspect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnlocalizableError

PARALLEL_SIN_TOL = 1e-8
RANSAC_PAIR_SIN_TOL = 1e-3
RANSAC_THRESHOLD_M = 0.5
RANSAC_ITERATIONS = 100
# residual sums closer than this are rounding apart: a candidate built from
# two lines has residual sum 0 up to rounding
RANSAC_TIE_M = 1e-9
IRLS_RESIDUAL_FLOOR_M = 1e-3
IRLS_MAX_ITER = 50
IRLS_TOL_M = 1e-6
CONDITION_LIMIT = 1e6


@dataclass(frozen=True)
class BearingLine:
    """An infinite line through ``anchor`` along a unit ``direction``."""

    anchor: np.ndarray
    direction: np.ndarray
    weight: float = 1.0
    array_id: str = ""

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "direction", direction)
        if anchor.shape != (2,) or direction.shape != (2,):
            raise ValueError("anchor and direction must be 2D")
        norm = float(np.linalg.norm(direction))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit length, |n| = {norm}")
        if not self.weight > 0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    @classmethod
    def from_azimuth(cls, anchor, azimuth: float, weight: float = 1.0,
                     array_id: str = "") -> "BearingLine":
        return cls(anchor=np.asarray(anchor, dtype=float),
                   direction=np.array([math.cos(azimuth), math.sin(azimuth)]),
                   weight=weight, array_id=array_id)


@dataclass(frozen=True)
class LocalizationResult:
    position: np.ndarray
    residuals: tuple[float, ...]          # perpendicular distance per line, m
    method: str
    inliers: tuple[str, ...] = ()         # RANSAC consensus, by array id
    weights: tuple[float, ...] = ()       # final per-line weights (IRLS)
    iterations: int = 0
    condition_flag: bool = False
    behind_anchors: tuple[str, ...] = ()  # lines whose solution has t < 0


def perpendicular_distances(lines: list[BearingLine], point: np.ndarray) -> np.ndarray:
    """|n_i x (p - a_i)| for each line: distance from point to the line."""
    point = np.asarray(point, dtype=float)
    return np.array([abs(ln.direction[0] * (point[1] - ln.anchor[1])
                         - ln.direction[1] * (point[0] - ln.anchor[0]))
                     for ln in lines])


def _check_lines(lines) -> list[BearingLine]:
    lines = list(lines)
    if len(lines) < 2:
        raise ValueError("localization needs at least two bearing lines")
    return lines


def _all_parallel(lines: list[BearingLine], tol: float) -> bool:
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            cross = abs(lines[i].direction[0] * lines[j].direction[1]
                        - lines[i].direction[1] * lines[j].direction[0])
            if cross > tol:
                return False
    return True


def _weighted_normal_solve(lines: list[BearingLine],
                           weights: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimize sum_i w_i * dist(p, line_i)^2 in closed form."""
    m = np.zeros((2, 2))
    b = np.zeros(2)
    for ln, w in zip(lines, weights):
        proj = np.eye(2) - np.outer(ln.direction, ln.direction)
        m += w * proj
        b += w * (proj @ ln.anchor)
    try:
        cond = np.linalg.cond(m)
        position = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise UnlocalizableError("normal equations are singular") from exc
    if not np.all(np.isfinite(position)):
        raise UnlocalizableError("normal equations are singular")
    return position, bool(cond > CONDITION_LIMIT)


def _finish(lines, position, method, inliers=(), weights=(), iterations=0,
            condition_flag=False) -> LocalizationResult:
    res = perpendicular_distances(lines, position)
    behind = tuple(ln.array_id for ln in lines
                   if float(ln.direction @ (position - ln.anchor)) < 0.0)
    return LocalizationResult(position=position, residuals=tuple(res),
                              method=method, inliers=inliers, weights=weights,
                              iterations=iterations,
                              condition_flag=condition_flag,
                              behind_anchors=behind)


def solve_mle(lines: list[BearingLine]) -> LocalizationResult:
    """Closed-form minimizer of the weighted squared perpendicular distances."""
    lines = _check_lines(lines)
    if _all_parallel(lines, PARALLEL_SIN_TOL):
        raise UnlocalizableError("all bearing lines are parallel")
    weights = np.array([ln.weight for ln in lines])
    position, flag = _weighted_normal_solve(lines, weights)
    return _finish(lines, position, "mle", condition_flag=flag)


def _intersect_pair(a: BearingLine, b: BearingLine) -> np.ndarray | None:
    """Exact intersection of two lines; None when nearly parallel."""
    cross = a.direction[0] * b.direction[1] - a.direction[1] * b.direction[0]
    if abs(cross) < RANSAC_PAIR_SIN_TOL:
        return None
    # rows are the line normals
    n1 = np.array([-a.direction[1], a.direction[0]])
    n2 = np.array([-b.direction[1], b.direction[0]])
    mat = np.stack([n1, n2])
    rhs = np.array([n1 @ a.anchor, n2 @ b.anchor])
    return np.linalg.solve(mat, rhs)


def solve_ransac(lines: list[BearingLine],
                 threshold: float = RANSAC_THRESHOLD_M,
                 iterations: int = RANSAC_ITERATIONS,
                 seed: int = 0) -> LocalizationResult:
    """Consensus search over random line pairs, refit on the inlier set.

    Ties between equal-consensus candidates break toward the lowest total
    inlier residual; totals within ``RANSAC_TIE_M`` count as equal and keep
    the earlier candidate. Deterministic for a fixed seed.
    """
    lines = _check_lines(lines)
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if len(lines) == 2:
        base = solve_mle(lines)
        return _finish(lines, base.position, "ransac",
                       inliers=tuple(ln.array_id for ln in lines),
                       iterations=0, condition_flag=base.condition_flag)

    rng = np.random.default_rng(seed)
    best = None  # (count, total_residual, inlier_mask, candidate)
    for _ in range(iterations):
        i, j = rng.choice(len(lines), size=2, replace=False)
        candidate = _intersect_pair(lines[i], lines[j])
        if candidate is None:
            continue
        dists = perpendicular_distances(lines, candidate)
        mask = dists <= threshold
        count, total = int(mask.sum()), float(dists[mask].sum())
        if best is None or count > best[0] \
                or (count == best[0] and total < best[1] - RANSAC_TIE_M):
            best = (count, total, mask, candidate)
    if best is None:
        raise UnlocalizableError("no bearing pair produced an intersection")

    _, _, mask, candidate = best
    inlier_lines = [ln for ln, m in zip(lines, mask) if m]
    if len(inlier_lines) >= 2 and not _all_parallel(inlier_lines, PARALLEL_SIN_TOL):
        weights = np.array([ln.weight for ln in inlier_lines])
        position, flag = _weighted_normal_solve(inlier_lines, weights)
    else:
        position, flag = candidate, False
    return _finish(lines, position, "ransac",
                   inliers=tuple(ln.array_id for ln, m in zip(lines, mask) if m),
                   iterations=iterations, condition_flag=flag)


def solve_irls(lines: list[BearingLine], max_iter: int = IRLS_MAX_ITER,
               tol: float = IRLS_TOL_M) -> LocalizationResult:
    """Iteratively reweight each line by the inverse of its residual.

    Starts from the weighted least-squares solution and updates
    w_i = 1 / max(residual_i, floor) until the position moves less than
    ``tol`` meters or ``max_iter`` is reached.
    """
    lines = _check_lines(lines)
    start = solve_mle(lines)
    position = start.position
    weights = np.array([ln.weight for ln in lines])
    flag = start.condition_flag
    iterations = 0
    for _ in range(max_iter):
        residuals = perpendicular_distances(lines, position)
        weights = 1.0 / np.maximum(residuals, IRLS_RESIDUAL_FLOOR_M)
        new_position, flag = _weighted_normal_solve(lines, weights)
        iterations += 1
        moved = float(np.linalg.norm(new_position - position))
        position = new_position
        if moved < tol:
            break
    return _finish(lines, position, "irls", weights=tuple(weights),
                   iterations=iterations, condition_flag=flag)

