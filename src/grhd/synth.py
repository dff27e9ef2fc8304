"""Deterministic synthetic corpus generator for desk-scale experiments.

Each section gets a harmonic stack at its own base frequency; each
attribute group modulates a shared high-frequency carrier at a distinct
rate, so group identity lives in temporal structure rather than in the
tonal signature the section classifier relies on.  The target domain
shifts all frequencies slightly and raises the noise floor relative to
the source domain.  Anomalies add transient clicks and/or a pitch drift
that carries the harmonic stack across the gap to the neighbouring
section (downward for odd sections, so the drift never escapes the
machine's frequency range); with clicks alone an anomalous clip differs
from its normal twin only at the injected click positions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import coerce_fields
from .dataset import (
    AudioClip,
    ClipMetadata,
    Condition,
    Domain,
    Split,
    build_attribute_groups,
    write_manifest,
    write_wav,
)
from .errors import InvalidConfig


@dataclass
class SynthConfig:
    machines: tuple[str, ...] = ("toycar",)
    sections_per_machine: int = 2
    attr_groups: int = 3
    source_count: int = 990
    target_count: int = 10
    test_normal_count: int = 10   # per section per domain
    test_anomaly_count: int = 10  # per section per domain
    sample_rate: int = 16000
    duration: float = 1.0
    seed: int = 0
    click_rate: float = 8.0       # expected clicks per second in anomalies
    click_amp: float = 0.5
    pitch_cents: float = 150.0    # anomaly pitch drift, 0 = click-only mode
    source_noise: float = 0.005
    target_noise: float = 0.02
    target_freq_shift: float = 0.015  # relative frequency offset in target
    section_spacing: float = 0.08     # relative frequency gap between sections
    carrier_freq: float = 3000.0      # attribute-cue carrier
    carrier_amp: float = 0.03
    am_depth: float = 0.3             # depth of the per-group modulation

    def validate(self) -> None:
        if not self.machines:
            raise InvalidConfig("at least one machine required")
        if self.sections_per_machine < 1 or self.attr_groups < 1:
            raise InvalidConfig("sections and attribute groups must be >= 1")
        if not (self.source_count >= self.target_count >= 1):
            raise InvalidConfig("need source_count >= target_count >= 1")
        if self.test_normal_count < 1 or self.test_anomaly_count < 1:
            raise InvalidConfig("test counts must be positive")
        if self.duration <= 0 or self.sample_rate <= 0:
            raise InvalidConfig("duration and sample rate must be positive")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SynthConfig":
        return cls(**coerce_fields(cls, mapping, "synth config"))


def _clip_rng(cfg: SynthConfig, *key_parts) -> np.random.Generator:
    """RNG keyed by (seed, clip identity); independent of generation order."""
    key = "/".join(str(p) for p in (cfg.seed,) + key_parts)
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _base_frequency(cfg: SynthConfig, machine_idx: int,
                    section: int) -> float:
    machine_base = 220.0 * (machine_idx + 1)
    return machine_base * (1.0 + cfg.section_spacing * section)


def _group_attributes(group: int) -> tuple[tuple[str, str], ...]:
    return (("spd", f"{28 + 3 * group}V"), ("mic", str(group + 1)))


def _render_waveform(cfg: SynthConfig, machine_idx: int, section: int,
                     group: int, domain: Domain, rng: np.random.Generator,
                     pitch_factor: float = 1.0) -> np.ndarray:
    n = int(round(cfg.sample_rate * cfg.duration))
    t = np.arange(n) / cfg.sample_rate
    freq = _base_frequency(cfg, machine_idx, section)
    noise_floor = cfg.source_noise
    shift = 1.0
    if domain is Domain.TARGET:
        shift = 1.0 + cfg.target_freq_shift
        noise_floor = cfg.target_noise
    freq *= shift
    freq *= 1.0 + rng.uniform(-0.003, 0.003)  # per-clip jitter
    freq *= pitch_factor
    envelope = 1.0 + 0.3 * np.sin(
        2 * np.pi * 2.0 * t + rng.uniform(0, 2 * np.pi))
    wave = np.zeros(n)
    for h in range(1, 5):
        amp = 0.3 * 0.6 ** (h - 1) * (1.0 + rng.uniform(-0.05, 0.05))
        wave += amp * np.sin(2 * np.pi * h * freq * t +
                             rng.uniform(0, 2 * np.pi))
    wave *= envelope
    # Attribute cue: the carrier band's energy is the same for every group;
    # only the modulation rate differs, so the cue is temporal.
    rate = 3.0 * 2.0 ** group
    am = 1.0 + cfg.am_depth * np.sin(
        2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi))
    wave += cfg.carrier_amp * am * np.sin(
        2 * np.pi * cfg.carrier_freq * shift * t + rng.uniform(0, 2 * np.pi))
    wave += noise_floor * rng.standard_normal(n)
    return wave


def _inject_anomaly(cfg: SynthConfig, wave: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    out = wave.copy()
    n_clicks = rng.poisson(cfg.click_rate * cfg.duration)
    click = cfg.click_amp * np.exp(-np.arange(24) / 6.0)
    for _ in range(n_clicks):
        pos = int(rng.integers(0, max(1, out.size - click.size)))
        out[pos:pos + click.size] += click * rng.choice([-1.0, 1.0])
    return out


def _render_clip(cfg: SynthConfig, machine: str, machine_idx: int,
                 section: int, group: int, domain: Domain, split: Split,
                 condition: Condition, index: int) -> AudioClip:
    base_rng = _clip_rng(cfg, machine, section, domain.value, split.value,
                         index, "base")
    pitch = 1.0
    if condition is Condition.ANOMALY and cfg.pitch_cents != 0.0:
        pitch = 2.0 ** (cfg.pitch_cents / 1200.0)
        if section % 2 == 1:
            pitch = 1.0 / pitch  # odd sections drift down, toward the gap
    wave = _render_waveform(cfg, machine_idx, section, group, domain,
                            base_rng, pitch_factor=pitch)
    if condition is Condition.ANOMALY:
        anom_rng = _clip_rng(cfg, machine, section, domain.value, split.value,
                             index, "anom")
        wave = _inject_anomaly(cfg, wave, anom_rng)
    meta = ClipMetadata(machine_type=machine, section_id=section,
                        domain=domain, split=split, condition=condition,
                        attributes=_group_attributes(group))
    clip_id = meta.filename(index)[:-4]
    return AudioClip(samples=np.clip(wave, -1.0, 1.0),
                     sample_rate=cfg.sample_rate, metadata=meta,
                     clip_id=clip_id)


def synth_generate(cfg: SynthConfig) -> list[AudioClip]:
    """Generate the full corpus for a config, deterministically per seed."""
    cfg.validate()
    clips: list[AudioClip] = []
    for machine_idx, machine in enumerate(cfg.machines):
        for section in range(cfg.sections_per_machine):
            for clip in _section_clips(cfg, machine, machine_idx, section):
                clips.append(clip)
    return clips


def _section_clips(cfg: SynthConfig, machine: str, machine_idx: int,
                   section: int) -> Iterator[AudioClip]:
    train_counts = {Domain.SOURCE: cfg.source_count,
                    Domain.TARGET: cfg.target_count}
    for domain, count in train_counts.items():
        for i in range(count):
            yield _render_clip(cfg, machine, machine_idx, section,
                               i % cfg.attr_groups, domain, Split.TRAIN,
                               Condition.NORMAL, i)
    for domain in (Domain.SOURCE, Domain.TARGET):
        for i in range(cfg.test_normal_count):
            yield _render_clip(cfg, machine, machine_idx, section,
                               i % cfg.attr_groups, domain, Split.TEST,
                               Condition.NORMAL, i)
        for i in range(cfg.test_anomaly_count):
            yield _render_clip(cfg, machine, machine_idx, section,
                               i % cfg.attr_groups, domain, Split.TEST,
                               Condition.ANOMALY, i)


def write_corpus(cfg: SynthConfig, out_dir: str | Path) -> Path:
    """Generate and write the corpus as WAV files plus a manifest CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clips = synth_generate(cfg)
    for clip in clips:
        machine_dir = out / clip.metadata.machine_type
        machine_dir.mkdir(exist_ok=True)
        write_wav(machine_dir / (clip.clip_id + ".wav"), clip.samples,
                  clip.sample_rate)
    table = build_attribute_groups([c.metadata for c in clips])
    manifest = out / "manifest.csv"
    write_manifest(manifest, clips, table)
    return manifest
