"""Spectral frontend: STFT, mel filterbank, log-mel, standardization.

Conventions: periodic Hann window, no signal padding (clips shorter than one
frame are rejected), HTK mel scale, power (not magnitude) mel energies.  The
unnormalized rfft is used, so for one frame the windowed-signal power equals
(|X_0|^2 + |X_{N/2}|^2 + 2 * sum of the interior |X_k|^2) / N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, SignalTooShort

_FILTERBANK_CACHE: dict[tuple, np.ndarray] = {}


@dataclass(frozen=True)
class SpectrogramConfig:
    frame_size: int = 1024
    hop: int = 512
    num_mels: int = 128
    fmin: float = 0.0
    fmax: float | None = None  # None = Nyquist
    log_floor: float = 1e-10

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_size):
            raise InvalidConfig("need 0 < hop <= frame_size")
        if self.num_mels < 1:
            raise InvalidConfig("num_mels must be >= 1")
        if self.log_floor <= 0:
            raise InvalidConfig("log_floor must be positive")

    def resolved_fmax(self, sample_rate: int) -> float:
        fmax = sample_rate / 2 if self.fmax is None else self.fmax
        if not (self.fmin < fmax <= sample_rate / 2):
            raise InvalidConfig(
                f"need fmin < fmax <= Nyquist, got [{self.fmin}, {fmax}]")
        return fmax


def num_frames(num_samples: int, config: SpectrogramConfig) -> int:
    if num_samples < config.frame_size:
        raise SignalTooShort(
            f"{num_samples} samples < frame size {config.frame_size}")
    return 1 + (num_samples - config.frame_size) // config.hop


def _hann(frame_size: int) -> np.ndarray:
    n = np.arange(frame_size)
    return 0.5 * (1.0 - np.cos(2 * np.pi * n / frame_size))


def stft(samples: np.ndarray, config: SpectrogramConfig) -> np.ndarray:
    """Hann-windowed STFT, shape [frame_size/2 + 1, num_frames]."""
    samples = np.asarray(samples, dtype=np.float64)
    frames = num_frames(samples.size, config)
    window = _hann(config.frame_size)
    view = np.lib.stride_tricks.sliding_window_view(
        samples, config.frame_size)[::config.hop][:frames]
    return np.fft.rfft(view * window, axis=1).T


def mel_hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: SpectrogramConfig,
                   sample_rate: int) -> np.ndarray:
    """Triangular HTK-mel filterbank, shape [num_mels, frame_size/2 + 1].

    Raises InvalidConfig when any filter would collapse to zero bins.
    Memoized per (config, sample_rate); the cached array is read-only.
    """
    key = (config.frame_size, config.num_mels, config.fmin, config.fmax,
           sample_rate)
    cached = _FILTERBANK_CACHE.get(key)
    if cached is not None:
        return cached
    fmax = config.resolved_fmax(sample_rate)
    n_bins = config.frame_size // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / config.frame_size
    mel_points = np.linspace(mel_hz_to_mel(config.fmin), mel_hz_to_mel(fmax),
                             config.num_mels + 2)
    hz_points = np.asarray(mel_mel_to_hz(mel_points))
    bank = np.zeros((config.num_mels, n_bins))
    for m in range(config.num_mels):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
        if not np.any(bank[m] > 0):
            raise InvalidConfig(
                f"mel filter {m} spans no FFT bins; reduce num_mels")
    bank.setflags(write=False)
    _FILTERBANK_CACHE[key] = bank
    return bank


def log_mel(samples: np.ndarray, config: SpectrogramConfig,
            sample_rate: int) -> np.ndarray:
    """log(max(filterbank @ |STFT|^2, log_floor)), [num_mels, num_frames]."""
    spec = np.abs(stft(samples, config)) ** 2
    bank = mel_filterbank(config, sample_rate)
    return np.log(np.maximum(bank @ spec, config.log_floor))


@dataclass
class StandardStats:
    mean: np.ndarray  # per mel bin
    std: np.ndarray   # per mel bin, degenerate bins replaced by 1
    degenerate_bins: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool))

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"mean": self.mean, "std": self.std,
                "degenerate": self.degenerate_bins.astype(np.uint8)}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "StandardStats":
        return cls(mean=arrays["mean"], std=arrays["std"],
                   degenerate_bins=arrays["degenerate"].astype(bool))


def standardize(specs: np.ndarray,
                stats: StandardStats | None = None) -> StandardStats:
    """Per-mel-bin zero-mean / unit-std normalization, in place, of an
    [N, mels, frames] stack.

    Stats are computed over its [mels, N * frames] reshape, columns in clip
    then frame order; given stats (the test-time path) are applied as-is.
    Bins with zero variance get std 1 and are flagged in the returned stats.
    """
    if specs.ndim != 3 or specs.shape[0] == 0:
        raise InvalidConfig(f"standardize needs a nonempty [N, mels, frames] "
                            f"stack, got shape {specs.shape}")
    if stats is None:
        flat = specs.transpose(1, 0, 2).reshape(specs.shape[1], -1)
        mean = flat.mean(axis=1)
        std = flat.std(axis=1)
        degenerate = std == 0.0
        std = np.where(degenerate, 1.0, std)
        stats = StandardStats(mean=mean, std=std, degenerate_bins=degenerate)
    specs -= stats.mean[:, None]
    specs /= stats.std[:, None]
    return stats
