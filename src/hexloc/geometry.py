"""Hexagonal microphone array geometry and far-field delay prediction.

Azimuths are counterclockwise radians from the global +x axis. The unit
vector u(theta) = (cos theta, sin theta) points from the array toward the
source. Element 0 lies along the array's orientation axis; elements proceed
counterclockwise at 60 degree steps on a circle of radius equal to the
hexagon side length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class MicArray:
    """A six-element hexagonal microphone array posed on the 2D floor plane.

    ``elements`` holds global positions in meters, shape (num_elements, 2).
    Instances are treated as immutable; build them with :func:`build_hex_array`.
    Two arrays are equal when every field is, the position arrays compared
    element by element, so arrays can be set members and dictionary keys.
    """

    id: str
    center: np.ndarray
    orientation: float
    side_length: float = HEX_SIDE_M
    num_elements: int = NUM_ELEMENTS
    elements: np.ndarray = None

    def __post_init__(self):
        check_id(self.id)
        if self.elements is None or len(self.elements) != self.num_elements:
            raise ValueError("elements must hold exactly num_elements positions")

    def _scalars(self) -> tuple:
        return (self.id, self.orientation, self.side_length, self.num_elements)

    def __eq__(self, other):
        if not isinstance(other, MicArray):
            return NotImplemented
        return self._scalars() == other._scalars() \
            and np.array_equal(self.center, other.center) \
            and np.array_equal(self.elements, other.elements)

    def __hash__(self):
        # tolist() gives Python floats, which hash -0.0 and 0.0 alike
        return hash(self._scalars() + tuple(np.ravel(self.center).tolist()))


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
    """Place a regular hexagon of microphones around ``center``.

    Element k sits at center + side_length * (cos(orientation + k*60deg),
    sin(orientation + k*60deg)); the circumradius of a regular hexagon equals
    its side length.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (2,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must be a finite 2D point, got {center!r}")
    if not (math.isfinite(orientation) and math.isfinite(side_length)):
        raise ValueError("orientation and side_length must be finite")
    if side_length <= 0:
        raise ValueError(f"side_length must be positive, got {side_length}")
    angles = orientation + np.arange(NUM_ELEMENTS) * (math.pi / 3.0)
    offsets = side_length * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return MicArray(id=array_id, center=center, orientation=float(orientation),
                    side_length=float(side_length), elements=center + offsets)


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


def predicted_pair_delay(array: MicArray, pair: tuple[int, int], azimuth,
                         model: PropagationModel):
    """Far-field TDoA for one element pair at the given azimuth(s).

    Returns u(azimuth) . (p_i - p_j) / c, positive when element i hears the
    wavefront first (element i leads). Antisymmetric under pair swap.
    """
    i, j = pair
    if i == j:
        raise ValueError("pair must reference two distinct elements")
    diff = array.elements[i] - array.elements[j]
    u = unit_direction(azimuth)
    return (diff @ u) / model.speed_of_sound


def pair_baseline(array: MicArray, pair: tuple[int, int]) -> float:
    """Distance in meters between the two elements of a pair."""
    i, j = pair
    return float(np.linalg.norm(array.elements[i] - array.elements[j]))


def spatial_resolution(model: PropagationModel) -> float:
    """Distance traveled by sound in one sample period: c / sample_rate."""
    return model.speed_of_sound / model.sample_rate


def azimuth_to(array: MicArray, point) -> float:
    """Global azimuth (radians in [0, 2pi)) from the array center to a point."""
    d = np.asarray(point, dtype=float) - array.center
    return float(np.arctan2(d[1], d[0]) % (2.0 * math.pi))
