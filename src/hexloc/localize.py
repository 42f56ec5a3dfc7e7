"""2D position from bearing lines: closed-form least squares plus RANSAC
and IRLS robust variants. Every line enters a solve alike; only IRLS
reweights them, by their residuals.

Each bearing defines the full line l(t) = anchor + t * direction,
t in (-inf, inf); solutions landing behind an anchor (negative t) are kept
but flagged as geometrically suspect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import UnlocalizableError

PARALLEL_SIN_TOL = 1e-8
RANSAC_PAIR_SIN_TOL = 1e-3
RANSAC_THRESHOLD_M = 0.5
# inlier residual sums closer than this are rounding apart: a candidate
# built from two lines has residual sum 0 up to rounding
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
    array_id: str = ""

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "direction", direction)
        if anchor.shape != (2,) or direction.shape != (2,):
            raise ValueError("anchor and direction must be 2D")
        for name, value in (("anchor", anchor), ("direction", direction)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        norm = float(np.linalg.norm(direction))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit length, |n| = {norm}")

    @classmethod
    def from_azimuth(cls, anchor, azimuth: float,
                     array_id: str = "") -> "BearingLine":
        return cls(anchor=np.asarray(anchor, dtype=float),
                   direction=np.array([math.cos(azimuth), math.sin(azimuth)]),
                   array_id=array_id)


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
    converged: bool = True                # False: IRLS stopped at IRLS_MAX_ITER


class _Lines(NamedTuple):
    """Bearing lines stacked once: row i of each array is line i."""

    anchors: np.ndarray     # (n, 2)
    directions: np.ndarray  # (n, 2), unit
    ids: tuple[str, ...]

    @classmethod
    def of(cls, lines: list[BearingLine]) -> "_Lines":
        return cls(np.array([ln.anchor for ln in lines]),
                   np.array([ln.direction for ln in lines]),
                   tuple(ln.array_id for ln in lines))


def _distances(lines: _Lines, point: np.ndarray) -> np.ndarray:
    """|n_i x (p - a_i)| for each line; ``point`` may carry leading axes,
    which lead the result."""
    offset = np.asarray(point, dtype=float)[..., None, :] - lines.anchors
    return np.abs(lines.directions[:, 0] * offset[..., 1]
                  - lines.directions[:, 1] * offset[..., 0])


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u[i] @ v[i]``, through the same dot kernel as the 1-D
    product (a written-out ``u0*v0 + u1*v1`` can round differently)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def perpendicular_distances(lines: list[BearingLine], point: np.ndarray) -> np.ndarray:
    """|n_i x (p - a_i)| for each line: distance from point to the line."""
    return _distances(_Lines.of(lines), point)


def _check_lines(lines) -> list[BearingLine]:
    lines = list(lines)
    if len(lines) < 2:
        raise ValueError("localization needs at least two bearing lines")
    return lines


def _all_parallel(directions: np.ndarray, tol: float) -> bool:
    # every ordered pair: a line crossed with itself gives exactly 0, and
    # the pair (j, i) exactly the negated cross product of (i, j)
    cross = _cross(directions[:, None], directions[None])
    return not np.any(np.abs(cross) > tol)


def _weighted_normal_solve(lines: _Lines,
                           weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize sum_i w_i * dist(p, line_i)^2 in closed form; returns the
    position and the 2x2 normal matrix. Unit weights give the least-squares
    solve, RANSAC's 0/1 inlier mask its refit (a zero term adds exactly
    nothing); IRLS passes its residual weights."""
    d = lines.directions
    proj = np.eye(2) - d[:, :, None] * d[:, None, :]
    # summed over the lines in order, as term-by-term accumulation would
    m = (weights[:, None, None] * proj).sum(0)
    b = (weights[:, None] * (proj @ lines.anchors[:, :, None])[..., 0]).sum(0)
    try:
        position = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise UnlocalizableError("normal equations are singular") from exc
    if not np.all(np.isfinite(position)):
        raise UnlocalizableError("normal equations are singular")
    return position, m


def _ill_conditioned(m: np.ndarray) -> bool:
    """Condition flag of a normal matrix that :func:`_weighted_normal_solve`
    has solved, so finite and nonsingular."""
    return bool(np.linalg.cond(m) > CONDITION_LIMIT)


def _finish(lines: _Lines, position, method, inliers=(), weights=(),
            iterations=0, condition_flag=False,
            converged=True) -> LocalizationResult:
    res = _distances(lines, position)
    along = _dot(lines.directions, position - lines.anchors)
    behind = tuple(i for i, t in zip(lines.ids, along) if t < 0.0)
    return LocalizationResult(position=position, residuals=tuple(res),
                              method=method, inliers=inliers, weights=weights,
                              iterations=iterations,
                              condition_flag=condition_flag,
                              behind_anchors=behind, converged=converged)


def solve_mle(lines: list[BearingLine]) -> LocalizationResult:
    """Closed-form minimizer of the summed squared perpendicular distances."""
    stack = _Lines.of(_check_lines(lines))
    if _all_parallel(stack.directions, PARALLEL_SIN_TOL):
        raise UnlocalizableError("all bearing lines are parallel")
    position, m = _weighted_normal_solve(stack, np.ones(len(stack.ids)))
    return _finish(stack, position, "mle", condition_flag=_ill_conditioned(m))


def _intersect(lines: _Lines, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Exact intersection of lines i[k] and j[k], one row per pair."""
    d = lines.directions
    # rows are the line normals
    normals = np.stack([-d[:, 1], d[:, 0]], axis=1)
    offsets = _dot(normals, lines.anchors)
    mat = np.stack([normals[i], normals[j]], axis=1)
    rhs = np.stack([offsets[i], offsets[j]], axis=1)
    return np.linalg.solve(mat, rhs[..., None])[..., 0]


def solve_ransac(lines: list[BearingLine],
                 threshold: float = RANSAC_THRESHOLD_M) -> LocalizationResult:
    """Consensus over every line pair, refit on the inlier set.

    Each unordered pair is intersected and scored once (``iterations`` on
    the result). The most inliers win, then an inlier residual sum within
    ``RANSAC_TIE_M`` of the smallest, then the smallest summed distance to
    all lines: the order of the lines changes nothing beyond rounding.
    """
    lines = _check_lines(lines)
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    stack = _Lines.of(lines)
    if len(lines) == 2:
        base = solve_mle(lines)
        return _finish(stack, base.position, "ransac", inliers=stack.ids,
                       iterations=0, condition_flag=base.condition_flag)

    i, j = np.triu_indices(len(lines), k=1)
    # a nearly parallel pair gives no candidate
    keep = np.abs(_cross(stack.directions[i], stack.directions[j])) \
        >= RANSAC_PAIR_SIN_TOL
    if not np.any(keep):
        raise UnlocalizableError("no bearing pair produced an intersection")
    candidates = _intersect(stack, i[keep], j[keep])
    dists = _distances(stack, candidates)  # (candidates, lines)
    masks = dists <= threshold
    counts, totals = masks.sum(1), (dists * masks).sum(1)
    tied = counts == counts.max()
    tied &= totals <= totals[tied].min() + RANSAC_TIE_M
    best = np.flatnonzero(tied)[np.argmin(dists[tied].sum(1))]

    mask = masks[best]
    position, flag = candidates[best], False
    # refit unless the inliers are all parallel, as fewer than two are
    if not _all_parallel(stack.directions[mask], PARALLEL_SIN_TOL):
        position, m = _weighted_normal_solve(stack, mask.astype(float))
        flag = _ill_conditioned(m)
    return _finish(stack, position, "ransac",
                   inliers=tuple(compress(stack.ids, mask)),
                   iterations=len(i), condition_flag=flag)


def solve_irls(lines: list[BearingLine]) -> LocalizationResult:
    """Iteratively reweight each line by the inverse of its residual.

    Starts from the least-squares solution and updates
    w_i = 1 / max(residual_i, floor) until the position moves less than
    ``IRLS_TOL_M`` or ``IRLS_MAX_ITER`` iterations are done; ``converged``
    tells which.
    """
    lines = _check_lines(lines)
    stack = _Lines.of(lines)
    position = solve_mle(lines).position
    converged = False
    for iterations in range(1, IRLS_MAX_ITER + 1):
        residuals = _distances(stack, position)
        weights = 1.0 / np.maximum(residuals, IRLS_RESIDUAL_FLOOR_M)
        new_position, m = _weighted_normal_solve(stack, weights)
        moved = float(np.linalg.norm(new_position - position))
        position = new_position
        if moved < IRLS_TOL_M:
            converged = True
            break
    return _finish(stack, position, "irls", weights=tuple(weights),
                   iterations=iterations, condition_flag=_ill_conditioned(m),
                   converged=converged)
