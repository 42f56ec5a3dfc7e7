"""Hexagonal microphone array geometry and far-field delay prediction.

Azimuths are counterclockwise radians from the global +x axis. The unit
vector u(theta) = (cos theta, sin theta) points from the array toward the
source. Element 0 lies along the array's orientation axis; elements proceed
counterclockwise at 60 degree steps on a circle of radius equal to the
hexagon side length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

HEX_SIDE_M = 0.0475
SPEED_OF_SOUND_M_S = 343.0
SAMPLE_RATE_HZ = 44100.0
NUM_ELEMENTS = 6


@dataclass(frozen=True)
class PropagationModel:
    """Acoustic propagation constants shared by prediction and simulation."""

    speed_of_sound: float = SPEED_OF_SOUND_M_S
    sample_rate: float = SAMPLE_RATE_HZ

    def __post_init__(self):
        if not (math.isfinite(self.speed_of_sound) and self.speed_of_sound > 0):
            raise ValueError(f"speed_of_sound must be positive, got {self.speed_of_sound}")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")


def check_id(array_id) -> None:
    """Refuse an id that is not a plain file name; it names a WAV file."""
    if not isinstance(array_id, str) or array_id in ("", ".", "..") \
            or any(c in array_id for c in "/\\\0"):
        raise ValueError(f"array id must be a plain file name, got {array_id!r}")


@dataclass(frozen=True)
class MicArray:
    """A six-element hexagonal microphone array posed on the 2D floor plane.

    The pose is the array's whole geometry: ``center`` (a tuple of two
    floats, meters), ``orientation`` (radians) and ``side_length`` (meters).
    Element k sits at center + side_length * (cos(orientation + k*60deg),
    sin(orientation + k*60deg)); the circumradius of a regular hexagon
    equals its side length. ``elements`` holds these global positions as a
    read-only (6, 2) array derived from the pose, so two arrays with equal
    poses are equal, hash alike and can be set members and dictionary keys.
    """

    id: str
    center: tuple[float, float]
    orientation: float
    side_length: float = HEX_SIDE_M
    elements: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_id(self.id)
        center = np.asarray(self.center, dtype=float)
        if center.shape != (2,) or not np.all(np.isfinite(center)):
            raise ValueError(f"center must be a finite 2D point, got {self.center!r}")
        orientation, side = float(self.orientation), float(self.side_length)
        if not math.isfinite(orientation):
            raise ValueError(f"orientation must be finite, got {orientation}")
        if not (math.isfinite(side) and side > 0):
            raise ValueError(
                f"side_length must be a finite positive number, got {side}")
        angles = orientation + np.arange(NUM_ELEMENTS) * (math.pi / 3.0)
        elements = center + side * np.stack([np.cos(angles), np.sin(angles)],
                                            axis=1)
        elements.flags.writeable = False
        object.__setattr__(self, "center", tuple(center.tolist()))
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "side_length", side)
        object.__setattr__(self, "elements", elements)

    @property
    def num_elements(self) -> int:
        return len(self.elements)


def check_distinct_ids(arrays) -> None:
    """Refuse arrays that share an id, which names one array's results."""
    seen = set()
    for array in arrays:
        if array.id in seen:
            raise ValueError(f"array id {array.id!r} is repeated")
        seen.add(array.id)


def check_channels(array: MicArray, num_channels: int) -> None:
    """Refuse a recording with other than one channel per array element."""
    if num_channels != array.num_elements:
        raise ValueError(
            f"recording has {num_channels} channels, "
            f"array {array.id!r} has {array.num_elements} elements")


def build_hex_array(center, orientation: float = 0.0,
                    side_length: float = HEX_SIDE_M,
                    array_id: str = "array") -> MicArray:
    """The :class:`MicArray` posed at ``center``, spelled centre first."""
    return MicArray(array_id, center, orientation, side_length)


def mic_pairs(num_elements: int = NUM_ELEMENTS) -> list[tuple[int, int]]:
    """All unordered element pairs, (i, j) with i < j. 15 pairs for 6 mics."""
    return list(combinations(range(num_elements), 2))


def unit_direction(azimuth):
    """Unit vector(s) pointing from an array toward azimuth (radians).

    Accepts a scalar or an array of azimuths; returns shape (2,) or (2, n).
    """
    azimuth = np.asarray(azimuth, dtype=float)
    return np.stack([np.cos(azimuth), np.sin(azimuth)], axis=0)


def element_delays(array: MicArray, azimuth, model: PropagationModel):
    """Per-element arrival delays (s) relative to the array center.

    An element closer to the source hears the plane wave earlier, giving a
    negative delay. Vectorized over azimuth: scalar -> (6,), grid of n
    azimuths -> (6, n).
    """
    u = unit_direction(azimuth)
    rel = array.elements - array.center  # (6, 2)
    return -(rel @ u) / model.speed_of_sound


def _pair_offsets(array: MicArray, pairs) -> np.ndarray:
    """p_i - p_j: shape (2,) for one pair (i, j), (pairs, 2) for a list."""
    first, second = np.moveaxis(np.asarray(pairs), -1, 0)
    if np.any(first == second):
        raise ValueError("pair must reference two distinct elements")
    return array.elements[first] - array.elements[second]


def predicted_pair_delay(array: MicArray, pairs, azimuth,
                         model: PropagationModel):
    """Far-field TDoA of one element pair (i, j), or of each of a list of
    pairs, at the given azimuth(s).

    Returns u(azimuth) . (p_i - p_j) / c, positive when element i hears the
    wavefront first (element i leads). Antisymmetric under pair swap. A
    list of pairs adds a leading pair axis, each row bit-identical to that
    pair's own call.
    """
    offsets = _pair_offsets(array, pairs)
    u = unit_direction(azimuth)
    # a (1, 2) row per pair keeps each row's product the one-pair product
    delays = offsets @ u if offsets.ndim == 1 else (offsets[:, None] @ u)[:, 0]
    return delays / model.speed_of_sound


def pair_baseline(array: MicArray, pairs):
    """Distance in meters between the two elements of a pair: a float for
    one pair (i, j), an array with one distance per pair for a list."""
    offsets = _pair_offsets(array, pairs)
    baselines = np.sqrt(np.vecdot(offsets, offsets))
    return float(baselines) if offsets.ndim == 1 else baselines


def spatial_resolution(model: PropagationModel) -> float:
    """Distance traveled by sound in one sample period: c / sample_rate."""
    return model.speed_of_sound / model.sample_rate


def azimuth_to(array: MicArray, point) -> float:
    """Global azimuth (radians in [0, 2pi)) from the array center to a point."""
    d = np.asarray(point, dtype=float) - array.center
    return float(np.arctan2(d[1], d[0]) % (2.0 * math.pi))
