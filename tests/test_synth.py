"""Synthetic corpus generator: determinism, counts, anomaly structure."""

import numpy as np
import pytest

from grhd.dataset import Condition, Domain, Split, load_corpus_dir
from grhd.errors import InvalidConfig
from grhd.synth import SynthConfig, synth_generate, write_corpus


def tiny_config(**kw):
    base = dict(machines=("toycar",), sections_per_machine=1, attr_groups=2,
                source_count=6, target_count=2, test_normal_count=2,
                test_anomaly_count=2, duration=0.2, seed=3)
    base.update(kw)
    return SynthConfig(**base)


def test_default_counts_match_imbalance():
    cfg = SynthConfig()
    assert cfg.source_count == 990
    assert cfg.target_count == 10


def test_counts_per_section_and_domain():
    cfg = tiny_config()
    clips = synth_generate(cfg)
    train = [c for c in clips if c.metadata.split is Split.TRAIN]
    source = [c for c in train if c.metadata.domain is Domain.SOURCE]
    target = [c for c in train if c.metadata.domain is Domain.TARGET]
    assert len(source) == 6 and len(target) == 2
    # imbalance ratio holds exactly per section
    assert len(source) / len(target) == cfg.source_count / cfg.target_count


def test_no_train_anomalies():
    clips = synth_generate(tiny_config())
    for clip in clips:
        if clip.metadata.split is Split.TRAIN:
            assert clip.metadata.condition is Condition.NORMAL


def test_determinism_same_seed():
    a = synth_generate(tiny_config())
    b = synth_generate(tiny_config())
    assert [c.clip_id for c in a] == [c.clip_id for c in b]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.samples, y.samples)


def test_different_seed_differs():
    a = synth_generate(tiny_config())
    b = synth_generate(tiny_config(seed=4))
    assert any(not np.array_equal(x.samples, y.samples)
               for x, y in zip(a, b))


def test_click_only_anomaly_differs_at_clicks_only():
    """With pitch drift off an anomalous clip is its normal twin plus clicks."""
    cfg = tiny_config(pitch_cents=0.0)
    clips = synth_generate(cfg)
    anomalies = [c for c in clips
                 if c.metadata.condition is Condition.ANOMALY]
    normals = {c.clip_id.replace("normal", "anomaly"): c for c in clips
               if c.metadata.split is Split.TEST
               and c.metadata.condition is Condition.NORMAL}
    checked = 0
    for anom in anomalies:
        twin = normals.get(anom.clip_id)
        if twin is None:
            continue
        diff = anom.samples != twin.samples
        if not diff.any():
            continue  # the Poisson draw produced zero clicks
        # clicks are short transients: the difference must be sparse
        assert diff.mean() < 0.2
        checked += 1
    assert checked > 0


def test_pitch_drift_direction_by_section():
    cfg = tiny_config(sections_per_machine=2, pitch_cents=100.0,
                      click_rate=0.0001, source_noise=0.0, target_noise=0.0)
    clips = synth_generate(cfg)

    def dominant_freq(clip):
        spec = np.abs(np.fft.rfft(clip.samples))
        freqs = np.fft.rfftfreq(clip.samples.size, 1 / clip.sample_rate)
        lo = freqs < 1000  # fundamental region only
        return freqs[lo][np.argmax(spec[lo])]

    for section, sign in ((0, 1), (1, -1)):
        normal = next(c for c in clips
                      if c.metadata.section_id == section
                      and c.metadata.split is Split.TEST
                      and c.metadata.condition is Condition.NORMAL
                      and c.metadata.domain is Domain.SOURCE)
        anom = next(c for c in clips
                    if c.metadata.section_id == section
                    and c.metadata.condition is Condition.ANOMALY
                    and c.metadata.domain is Domain.SOURCE)
        shift = dominant_freq(anom) - dominant_freq(normal)
        assert sign * shift > 0  # even sections drift up, odd sections down


def test_samples_bounded():
    for clip in synth_generate(tiny_config(click_amp=5.0)):
        assert np.all(np.abs(clip.samples) <= 1.0)


def test_invalid_counts_rejected():
    with pytest.raises(InvalidConfig):
        synth_generate(tiny_config(source_count=1, target_count=5))
    with pytest.raises(InvalidConfig):
        synth_generate(tiny_config(duration=0.0))


def test_from_mapping_unknown_key():
    with pytest.raises(InvalidConfig):
        SynthConfig.from_mapping({"sourcecount": "5"})


def test_from_mapping_parses_types():
    cfg = SynthConfig.from_mapping(
        {"machines": "toycar, fan", "source_count": "12",
         "pitch_cents": "90.5"})
    assert cfg.machines == ("toycar", "fan")
    assert cfg.source_count == 12
    assert cfg.pitch_cents == 90.5


def test_write_corpus_round_trip(tmp_path):
    cfg = tiny_config()
    manifest = write_corpus(cfg, tmp_path)
    assert manifest.exists()
    loaded = [r.load() for r in
              load_corpus_dir(tmp_path, machine_type="toycar")]
    generated = synth_generate(cfg)
    assert len(loaded) == len(generated)
    by_id = {c.clip_id: c for c in loaded}
    for clip in generated:
        twin = by_id[clip.clip_id]
        assert twin.metadata == clip.metadata
        np.testing.assert_allclose(twin.samples, clip.samples, atol=2 / 32768)


def test_manifest_checksum_stable(tmp_path):
    cfg = tiny_config()
    m1 = write_corpus(cfg, tmp_path / "a")
    m2 = write_corpus(cfg, tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
