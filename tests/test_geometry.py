import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexloc import geometry, io as hio
from hexloc.geometry import (MicArray, PropagationModel, build_hex_array,
                             mic_pairs, pair_baseline, predicted_pair_delay,
                             spatial_resolution)

import oracles


def test_element_zero_along_orientation_axis():
    array = build_hex_array((0.0, 0.0), 0.0, 0.0475)
    np.testing.assert_allclose(array.elements[0], [0.0475, 0.0], atol=1e-15)


def test_element_three_is_antipodal():
    array = build_hex_array((0.0, 0.0), 0.0, 1.0)
    np.testing.assert_allclose(array.elements[3], [-1.0, 0.0], atol=1e-12)


def test_rotated_offcenter_positions_match_hand_table():
    center, orientation, side = (2.0, 3.0), math.pi / 6.0, 0.0475
    array = build_hex_array(center, orientation, side)
    expected = oracles.hexagon_positions(center, orientation, side)
    np.testing.assert_allclose(array.elements, expected, atol=1e-12)


def test_all_elements_on_circumradius_at_60_degrees():
    array = build_hex_array((1.0, -2.0), 0.7)
    rel = array.elements - array.center
    radii = np.linalg.norm(rel, axis=1)
    np.testing.assert_allclose(radii, array.side_length, atol=1e-12)
    angles = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    np.testing.assert_allclose(np.diff(angles), math.pi / 3.0, atol=1e-9)


def test_hexagon_closure():
    array = build_hex_array((0.3, 0.4), 1.1)
    np.testing.assert_allclose((array.elements - array.center).sum(axis=0),
                               [0.0, 0.0], atol=1e-12)


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_hex_array((0.0, 0.0), 0.0, -1.0)
    with pytest.raises(ValueError):
        build_hex_array((math.nan, 0.0), 0.0)
    with pytest.raises(ValueError):
        build_hex_array((0.0, 0.0), math.inf)


@pytest.mark.parametrize("array_id", [
    None, 5, b"A1", "", ".", "..", "../escaped", "sub/A1", "sub\\A1", "A\0"])
def test_build_rejects_ids_that_are_not_plain_file_names(array_id):
    # the id names the array's WAV file inside an output directory
    with pytest.raises(ValueError, match="plain file name"):
        build_hex_array((0.0, 0.0), array_id=array_id)


@settings(max_examples=200, deadline=None)
@given(array_id=st.text())
def test_an_accepted_id_names_a_file_inside_the_directory(array_id):
    out = Path("out")
    try:
        build_hex_array((0.0, 0.0), array_id=array_id)
    except ValueError:
        return
    assert (out / f"{array_id}.wav").parent == out and "\0" not in array_id


@pytest.mark.parametrize("pose, message", [
    (dict(center=(math.nan, 0.0)), "center must be a finite 2D point"),
    (dict(center=(0.0, 0.0, 0.0)), "center must be a finite 2D point"),
    (dict(orientation=math.inf), "orientation must be finite"),
    (dict(orientation=math.nan), "orientation must be finite"),
    (dict(side_length=0.0), "side_length must be a finite positive number"),
    (dict(side_length=-1.0), "side_length must be a finite positive number"),
    (dict(side_length=math.inf), "side_length must be a finite positive number"),
], ids=["center-nan", "center-3d", "orientation-inf", "orientation-nan",
        "side-zero", "side-negative", "side-inf"])
def test_mic_array_refuses_a_bad_pose(pose, message):
    # the constructor itself holds the pose rules, not only build_hex_array
    with pytest.raises(ValueError, match=message):
        MicArray(**{"id": "A1", "center": (0.0, 0.0), "orientation": 0.0,
                    **pose})


def test_mic_array_elements_are_read_only():
    array = MicArray("A1", (1.0, 2.0), 0.3)
    assert isinstance(array.center, tuple)
    with pytest.raises(ValueError):
        array.elements[0, 0] = 5.0
    np.testing.assert_array_equal(array.elements,
                                  build_hex_array((1.0, 2.0), 0.3,
                                                  array_id="A1").elements)


def test_mic_array_value_equality_and_hash():
    a = build_hex_array((0.0, 0.0))
    same = build_hex_array((0.0, 0.0))
    assert a == same and not a != same
    assert hash(a) == hash(same)
    assert build_hex_array((-0.0, 0.0)) == a
    assert hash(build_hex_array((-0.0, 0.0))) == hash(a)
    for other in (build_hex_array((0.0, 1e-9)),
                  build_hex_array((0.0, 0.0), orientation=0.1),
                  build_hex_array((0.0, 0.0), side_length=0.05),
                  build_hex_array((0.0, 0.0), array_id="B")):
        assert a != other
    assert a != "array"
    assert {a, same, build_hex_array((1.0, 0.0))} == {a, build_hex_array((1.0, 0.0))}
    assert same in {a}


def test_mic_array_json_round_trip_is_equal():
    a = build_hex_array((2.5, -1.25), 0.7, 0.05, array_id="A7")
    assert hio.parse_array(hio.array_to_json(a)) == a


FINITE = st.floats(-1e6, 1e6)


@settings(max_examples=200, deadline=None)
@given(x=FINITE, y=FINITE, orientation=FINITE,
       side=st.floats(1e-6, 1e3))
def test_any_valid_pose_round_trips_through_json(x, y, orientation, side):
    a = MicArray("A1", (x, y), orientation, side)
    back = hio.parse_array(hio.array_to_json(a))
    assert back == a and hash(back) == hash(a)
    assert back.elements.tobytes() == a.elements.tobytes()


@settings(max_examples=100, deadline=None)
@given(x=FINITE, y=FINITE, orientation=st.floats(-10.0, 10.0),
       side=st.floats(1e-3, 1.0), azimuth=st.floats(-10.0, 10.0))
def test_pair_geometry_over_a_list_is_each_pair_bit_for_bit(
        x, y, orientation, side, azimuth):
    array = build_hex_array((x, y), orientation, side)
    model = PropagationModel()
    pairs = mic_pairs()
    grid = np.deg2rad(np.arange(0.0, 360.0))
    for az in (grid, azimuth):
        batch = predicted_pair_delay(array, pairs, az, model)
        assert batch.shape == (len(pairs),) + np.shape(az)
        for row, pair in zip(batch, pairs):
            assert row.tobytes() == np.asarray(
                predicted_pair_delay(array, pair, az, model)).tobytes()
    baselines = pair_baseline(array, pairs)
    assert baselines.tolist() == [pair_baseline(array, p) for p in pairs]
    delays = predicted_pair_delay(array, pairs, azimuth, model)
    for delay, (i, j) in zip(delays, pairs):
        assert delay == pytest.approx(oracles.plane_wave_pair_delay(
            array.elements[i], array.elements[j], azimuth,
            model.speed_of_sound), rel=0, abs=1e-15)


def test_pair_delay_along_baseline():
    # elements 0 and 3 sit at +-x with a 0.095 m baseline; a source on +x
    # reaches element 0 first
    array = build_hex_array((0.0, 0.0), 0.0, 0.0475)
    model = PropagationModel()
    delay = predicted_pair_delay(array, (0, 3), 0.0, model)
    assert delay == pytest.approx(0.095 / 343.0, abs=1e-12)
    assert delay == pytest.approx(2.77e-4, abs=1e-6)


def test_pair_delay_broadside_is_zero():
    array = build_hex_array((0.0, 0.0), 0.0)
    model = PropagationModel()
    assert predicted_pair_delay(array, (0, 3), math.pi / 2.0, model) == \
        pytest.approx(0.0, abs=1e-15)


def test_pair_delay_antisymmetric_on_degree_grid():
    array = build_hex_array((0.5, -0.2), 0.4)
    model = PropagationModel()
    az = np.deg2rad(np.arange(0.0, 360.0))
    for pair in mic_pairs():
        fwd = predicted_pair_delay(array, pair, az, model)
        rev = predicted_pair_delay(array, pair[::-1], az, model)
        np.testing.assert_allclose(fwd, -rev, atol=1e-15)


def test_pair_delay_bounded_by_baseline():
    array = build_hex_array((0.0, 0.0), 2.0, 0.0475)
    model = PropagationModel()
    az = np.deg2rad(np.arange(0.0, 360.0))
    for pair in mic_pairs():
        bound = pair_baseline(array, pair) / model.speed_of_sound
        delays = predicted_pair_delay(array, pair, az, model)
        assert np.all(np.abs(delays) <= bound + 1e-15)


def test_pair_delay_rotation_invariance():
    model = PropagationModel()
    rng = np.random.default_rng(42)
    for _ in range(20):
        orientation = rng.uniform(0.0, 2.0 * math.pi)
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        shift = rng.uniform(-math.pi, math.pi)
        a = build_hex_array((0.0, 0.0), orientation)
        b = build_hex_array((0.0, 0.0), orientation + shift)
        for pair in mic_pairs():
            d1 = predicted_pair_delay(a, pair, azimuth, model)
            d2 = predicted_pair_delay(b, pair, azimuth + shift, model)
            assert d1 == pytest.approx(d2, abs=1e-12)


def test_pair_delay_matches_hand_formula():
    array = build_hex_array((2.0, 3.0), 0.9)
    model = PropagationModel()
    for pair in ((0, 1), (2, 5), (1, 4)):
        for az in (0.0, 0.7, 4.0):
            expected = oracles.plane_wave_pair_delay(
                array.elements[pair[0]], array.elements[pair[1]], az,
                model.speed_of_sound)
            assert predicted_pair_delay(array, pair, az, model) == \
                pytest.approx(expected, abs=1e-15)


def test_pair_delay_rejects_degenerate_pair():
    array = build_hex_array((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        predicted_pair_delay(array, (2, 2), 0.0, PropagationModel())


def test_spatial_resolution_at_default_rates():
    assert spatial_resolution(PropagationModel(343.0, 44100.0)) == \
        pytest.approx(7.777e-3, abs=1e-5)


def test_spatial_resolution_unit_case():
    assert spatial_resolution(PropagationModel(343.0, 343.0)) == 1.0


def test_spatial_resolution_direct_division():
    assert spatial_resolution(PropagationModel(340.0, 48000.0)) == \
        pytest.approx(340.0 / 48000.0, abs=1e-12)
    assert spatial_resolution(PropagationModel(340.0, 48000.0)) == \
        pytest.approx(7.083e-3, abs=1e-6)


def test_propagation_model_validation():
    with pytest.raises(ValueError):
        PropagationModel(speed_of_sound=0.0)
    with pytest.raises(ValueError):
        PropagationModel(sample_rate=-44100.0)


def test_mic_pairs_count():
    pairs = mic_pairs()
    assert len(pairs) == 15
    assert len(set(pairs)) == 15
    assert all(i < j for i, j in pairs)


def test_azimuth_to_quadrants():
    array = build_hex_array((1.0, 1.0), 0.0)
    assert geometry.azimuth_to(array, (2.0, 1.0)) == pytest.approx(0.0)
    assert geometry.azimuth_to(array, (1.0, 2.0)) == pytest.approx(math.pi / 2)
    assert geometry.azimuth_to(array, (0.0, 1.0)) == pytest.approx(math.pi)


def test_element_delays_consistent_with_pair_delay():
    array = build_hex_array((0.0, 0.0), 0.3)
    model = PropagationModel()
    az = 1.2
    taus = geometry.element_delays(array, az, model)
    for i, j in mic_pairs():
        assert taus[j] - taus[i] == pytest.approx(
            predicted_pair_delay(array, (i, j), az, model), abs=1e-15)
