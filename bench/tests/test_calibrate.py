"""Scaling times to reference speed by the calibration bursts."""

import pytest

import calibrate

REF = calibrate.CAL_REF_S


def test_steady_host_scales_by_the_reference():
    assert calibrate.host_scale([2 * REF] * 5) == pytest.approx(0.5)


def test_the_scale_follows_the_share_of_a_faster_state():
    # a quarter of the bursts ran in a state 20 % faster
    bursts = [REF] * 30 + [0.8 * REF] * 10
    assert calibrate.host_scale(bursts) == pytest.approx(1 / 0.95)


def test_an_interrupted_burst_is_left_out():
    assert calibrate.host_scale([REF] * 9 + [10 * REF]) == pytest.approx(1.0)


def test_bursts_take_a_share_of_the_operation():
    assert len(calibrate.bursts_for(0.0)) == 1
    n = round(calibrate.CAL_SHARE * 5.0 / REF)
    assert len(calibrate.bursts_for(5.0)) == n > 1
