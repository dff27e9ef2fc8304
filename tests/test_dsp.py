"""Spectral frontend: framing, filterbank geometry, log-mel, standardization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grhd.dsp import (
    SpectrogramConfig,
    log_mel,
    mel_filterbank,
    mel_hz_to_mel,
    mel_mel_to_hz,
    num_frames,
    standardize,
    stft,
)
from grhd.errors import InvalidConfig, SignalTooShort

SR = 16000
CFG = SpectrogramConfig()


def test_one_second_gives_thirty_frames():
    assert num_frames(16000, CFG) == 30


def test_exact_frame_boundaries():
    assert num_frames(1024, CFG) == 1
    assert num_frames(1535, CFG) == 1
    assert num_frames(1536, CFG) == 2


def test_short_signal_rejected():
    with pytest.raises(SignalTooShort):
        num_frames(1023, CFG)
    with pytest.raises(SignalTooShort):
        stft(np.zeros(100), CFG)


@given(st.integers(1024, 60000))
def test_frame_count_formula(n):
    assert num_frames(n, CFG) == 1 + (n - 1024) // 512


def test_stft_shape():
    out = stft(np.zeros(16000), CFG)
    assert out.shape == (513, 30)


def test_stft_pure_bin_sinusoid():
    """A sinusoid at exactly bin 3 peaks there in every frame."""
    t = np.arange(4096) / SR
    f = 3 * SR / CFG.frame_size
    out = np.abs(stft(np.sin(2 * np.pi * f * t), CFG))
    assert np.all(np.argmax(out, axis=0) == 3)


def test_stft_parseval_single_frame():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1024)
    window = 0.5 * (1.0 - np.cos(2 * np.pi * np.arange(1024) / 1024))
    spectrum = stft(x, CFG)[:, 0]
    mags = np.abs(spectrum) ** 2
    lhs = (mags[0] + mags[-1] + 2 * mags[1:-1].sum()) / 1024
    rhs = np.sum((x * window) ** 2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_mel_scale_round_trip():
    freqs = np.array([0.0, 100.0, 700.0, 4000.0, 8000.0])
    np.testing.assert_allclose(mel_mel_to_hz(mel_hz_to_mel(freqs)), freqs,
                               rtol=1e-12, atol=1e-9)
    assert mel_hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))


def test_filterbank_shape_and_rows():
    bank = mel_filterbank(CFG, SR)
    assert bank.shape == (128, 513)
    assert np.all(bank >= 0)
    # each row is a triangle: rises to a single peak then falls (unimodal)
    for row in bank:
        peak = np.argmax(row)
        assert np.all(np.diff(row[:peak + 1]) >= 0)
        assert np.all(np.diff(row[peak:]) <= 0)


def test_filterbank_cached_and_read_only():
    a = mel_filterbank(CFG, SR)
    b = mel_filterbank(CFG, SR)
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


def test_filterbank_too_many_mels_rejected():
    cfg = SpectrogramConfig(frame_size=64, hop=32, num_mels=64)
    with pytest.raises(InvalidConfig):
        mel_filterbank(cfg, SR)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SpectrogramConfig(hop=0)
    with pytest.raises(InvalidConfig):
        SpectrogramConfig(hop=2048)
    with pytest.raises(InvalidConfig):
        SpectrogramConfig(num_mels=0)
    with pytest.raises(InvalidConfig):
        SpectrogramConfig(log_floor=0.0)
    with pytest.raises(InvalidConfig):
        SpectrogramConfig(fmin=9000.0).resolved_fmax(SR)


def test_log_mel_shape_and_floor():
    out = log_mel(np.zeros(16000), CFG, SR)
    assert out.shape == (128, 30)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, np.log(CFG.log_floor))


def test_log_mel_amplitude_scaling():
    """Doubling the amplitude adds log(4) to every unfloored cell."""
    rng = np.random.default_rng(1)
    x = 0.1 * rng.standard_normal(4096)
    lo = log_mel(x, CFG, SR)
    hi = log_mel(2.0 * x, CFG, SR)
    active = lo > np.log(CFG.log_floor) + 1e-6
    assert active.any()
    np.testing.assert_allclose(hi[active] - lo[active], np.log(4.0),
                               rtol=1e-8)


def test_log_mel_tone_lands_in_right_bin():
    t = np.arange(16000) / SR
    out = log_mel(0.5 * np.sin(2 * np.pi * 1000.0 * t), CFG, SR)
    peak_bin = int(np.argmax(out.mean(axis=1)))
    center = mel_mel_to_hz(np.linspace(
        mel_hz_to_mel(0.0), mel_hz_to_mel(SR / 2), 130))[peak_bin + 1]
    assert abs(center - 1000.0) < 150.0


def _specs(seed, n):
    rng = np.random.default_rng(seed)
    return np.stack([log_mel(0.2 * rng.standard_normal(4096), CFG, SR)
                     for _ in range(n)])


def test_standardize_zero_mean_unit_std():
    specs = _specs(2, 4)
    stats = standardize(specs)
    flat = np.concatenate(list(specs), axis=1)
    np.testing.assert_allclose(flat.mean(axis=1), 0.0, atol=1e-12)
    active = ~stats.degenerate_bins
    np.testing.assert_allclose(flat.std(axis=1)[active], 1.0, rtol=1e-10)


def test_standardize_matches_concatenated_reduction_bitwise():
    """Stats and values equal, bit for bit, the per-bin reduction over the
    [mels, N * frames] concatenation of the clips; a reduction over axes
    (0, 2) of the stack rounds differently in dozens of bins."""
    specs = _specs(5, 7)
    flat = np.concatenate(list(specs), axis=1)
    mean, std = flat.mean(axis=1), flat.std(axis=1)
    expect = [(s - mean[:, None]) / std[:, None] for s in specs]
    stats = standardize(specs)
    np.testing.assert_array_equal(stats.mean, mean)
    np.testing.assert_array_equal(stats.std, std)
    np.testing.assert_array_equal(specs, np.stack(expect))


def test_standardize_degenerate_bins_flagged():
    specs = np.zeros((1, 4, 6))
    stats = standardize(specs)
    assert stats.degenerate_bins.all()
    np.testing.assert_array_equal(stats.std, 1.0)
    np.testing.assert_array_equal(specs, 0.0)


def test_standardize_reapplies_given_stats():
    specs = _specs(3, 3)
    stats = standardize(specs.copy())
    again = specs.copy()
    assert standardize(again, stats=stats) is stats
    # applying the frozen stats to new data uses them as-is
    one = specs[:1].copy()
    standardize(one, stats=stats)
    np.testing.assert_array_equal(one[0], again[0])


def test_standardize_empty_rejected():
    with pytest.raises(InvalidConfig):
        standardize(np.zeros((0, 128, 30)))


def test_standardize_unstacked_rejected():
    with pytest.raises(InvalidConfig):
        standardize(np.zeros((128, 30)))


def test_stats_array_round_trip():
    stats = standardize(_specs(4, 1))
    clone = type(stats).from_arrays(stats.to_arrays())
    np.testing.assert_array_equal(clone.mean, stats.mean)
    np.testing.assert_array_equal(clone.std, stats.std)
    np.testing.assert_array_equal(clone.degenerate_bins,
                                  stats.degenerate_bins)
