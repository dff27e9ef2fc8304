"""GRHD network: shapes, hierarchy wiring, reversal semantics, training."""

import tracemalloc

import numpy as np
import pytest

from grhd import autodiff as ad
from grhd.dataset import build_attribute_groups, load_corpus_dir, write_wav
from grhd.dsp import SpectrogramConfig, StandardStats
from grhd.errors import (
    ContractViolation,
    DivergenceDetected,
    InvalidConfig,
    InvalidSchedule,
    NoTrainingData,
    ShapeMismatch,
)
from grhd.model import (
    GrhdModel,
    LossBreakdown,
    LossWeights,
    ModelConfig,
    TrainConfig,
    embed,
    grhd_loss,
    grl_sign_check,
    inverse_frequency_weights,
    lambda_schedule,
    loss_log_csv_rows,
    precision_dtype,
    prepare_clips,
    section_logits,
    train,
)
from grhd.synth import SynthConfig, synth_generate

TINY = ModelConfig(num_mels=8, frame_size=32, hop=16, conv_channels=(4, 4, 8),
                   sec_channels=4, att_channels=4, grc_hidden=4,
                   num_sections=2, num_groups=3, dtype="f64")


def tiny_batch(seed=0, n=3, t=160):
    rng = np.random.default_rng(seed)
    frames = 1 + (t - TINY.frame_size) // TINY.hop
    waves = rng.uniform(-0.8, 0.8, size=(n, 1, t))
    specs = rng.uniform(-1.5, 1.5, size=(n, TINY.num_mels, frames))
    sec = rng.integers(0, TINY.num_sections, size=n)
    att = rng.integers(0, TINY.num_groups, size=n)
    return waves, specs, sec, att


def tiny_corpus(**kw):
    base = dict(machines=("toycar",), sections_per_machine=2, attr_groups=2,
                source_count=6, target_count=2, test_normal_count=2,
                test_anomaly_count=2, duration=0.2, seed=5)
    base.update(kw)
    clips = synth_generate(SynthConfig(**base))
    return [c for c in clips if c.metadata.split.value == "train"]


def _write_records(clips, root):
    """Write clips as the WAV files of one machine; their listed records."""
    folder = root / "toycar"
    folder.mkdir(parents=True, exist_ok=True)
    for clip in clips:
        write_wav(folder / f"{clip.clip_id}.wav", clip.samples,
                  clip.sample_rate)
    return load_corpus_dir(root)


# ---------------------------------------------------------------- shapes ----

def test_forward_shapes():
    model = GrhdModel(TINY, seed=0)
    waves, specs, _, _ = tiny_batch(n=2)
    logits_rev, z_sec, logits_sec, z_att, logits_att = model.forward(
        ad.Tensor(waves), ad.Tensor(specs), 0.5, train=True)
    assert logits_rev.shape == (2, 3)
    assert logits_sec.shape == (2, 2)
    assert logits_att.shape == (2, 3)
    # three stride-2 blocks: 8 mels -> 1, 9 frames -> 2; then sec stride 2
    assert z_sec.data.ndim == 4 and z_sec.shape[:2] == (2, 4)
    assert z_att.shape[:2] == (2, 4)


def test_forward_zero_signal_finite():
    model = GrhdModel(TINY, seed=1)
    n, t = 2, 160
    frames = 1 + (t - TINY.frame_size) // TINY.hop
    out = model.forward(ad.Tensor(np.zeros((n, 1, t))),
                        ad.Tensor(np.zeros((n, TINY.num_mels, frames))),
                        1.0, train=False)
    for tensor in out:
        assert np.all(np.isfinite(tensor.data))


def test_forward_batch_mismatch_rejected():
    model = GrhdModel(TINY, seed=0)
    waves, specs, _, _ = tiny_batch(n=3)
    with pytest.raises(ShapeMismatch):
        model.forward(ad.Tensor(waves[:2]), ad.Tensor(specs), 0.0)


def test_eval_forward_deterministic():
    model = GrhdModel(TINY, seed=2)
    waves, specs, _, _ = tiny_batch(n=4)
    a = model.forward(ad.Tensor(waves), ad.Tensor(specs), 0.0, train=False)
    b = model.forward(ad.Tensor(waves), ad.Tensor(specs), 0.0, train=False)
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_bad_precision_rejected():
    with pytest.raises(InvalidConfig):
        ModelConfig(dtype="f16").np_dtype()


# ------------------------------------------------------------- hierarchy ----

def _grads_by_name(model, weights, lam, waves, specs, sec, att):
    params = model.parameters()
    for _, p in params:
        p.zero_grad()
    logits_rev, _, logits_sec, _, logits_att = model.forward(
        ad.Tensor(waves), ad.Tensor(specs), lam, train=True)
    total, _ = grhd_loss(logits_rev, logits_sec, logits_att, sec, att,
                         weights)
    total.backward()
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params}


def test_section_loss_ignores_attribute_head():
    """The hierarchy flows section -> attribute, never backwards."""
    model = GrhdModel(TINY, seed=3)
    waves, specs, sec, att = tiny_batch(seed=3)
    grads = _grads_by_name(model, LossWeights(alpha=0, beta=1, gamma=0),
                           1.0, waves, specs, sec, att)
    for name, g in grads.items():
        if name.startswith(("conv_att", "bn_att", "c_att",
                            "grc_fc1", "grc_out")):
            assert not g.any(), name
    assert grads["conv_sec.w"].any()
    assert grads["t1.w"].any()  # section loss reaches the backbone


def test_lambda_zero_blocks_reversal_gradient_into_backbone():
    model = GrhdModel(TINY, seed=4)
    waves, specs, sec, att = tiny_batch(seed=4)
    grads = _grads_by_name(model, LossWeights(alpha=1, beta=0, gamma=0),
                           0.0, waves, specs, sec, att)
    assert grads["grc_out.w"].any()  # the classifier itself still learns
    for name, g in grads.items():
        if name.startswith(("t1", "t2", "t3", "block")):
            assert not g.any(), name


def test_reversal_only_loss_touches_grc_and_backbone():
    model = GrhdModel(TINY, seed=5)
    waves, specs, sec, att = tiny_batch(seed=5)
    grads = _grads_by_name(model, LossWeights(alpha=1, beta=0, gamma=0),
                           0.7, waves, specs, sec, att)
    assert grads["grc_fc1.w"].any()
    assert grads["t1.w"].any()
    for name, g in grads.items():
        if name.startswith(("conv_sec", "bn_sec", "c_sec",
                            "conv_att", "bn_att", "c_att")):
            assert not g.any(), name


def test_grl_sign_rule_on_assembled_network():
    for seed in range(5):
        assert grl_sign_check(seed=seed, lam=0.5) < 1e-9


# ------------------------------------------------------- loss composition ---

def test_loss_breakdown_recomposition():
    model = GrhdModel(TINY, seed=6)
    waves, specs, sec, att = tiny_batch(seed=6)
    weights = LossWeights(alpha=0.5, beta=0.2, gamma=0.3)
    logits_rev, _, logits_sec, _, logits_att = model.forward(
        ad.Tensor(waves), ad.Tensor(specs), 0.4, train=True)
    total, bd = grhd_loss(logits_rev, logits_sec, logits_att, sec, att,
                          weights, lambda_used=0.4, epoch=7)
    assert bd.l_total == pytest.approx(
        0.5 * bd.l_rev + 0.2 * bd.l_sec + 0.3 * bd.l_att, rel=1e-12)
    assert total.item() == bd.l_total
    assert bd.lambda_used == 0.4 and bd.epoch == 7


def test_loss_uniform_logits_closed_form():
    """Zero logits: CE = ln C, focal = (1 - 1/C)^2 ln C, per head."""
    zeros_sec = ad.Tensor(np.zeros((4, 2)))
    zeros_att = ad.Tensor(np.zeros((4, 3)))
    total, bd = grhd_loss(zeros_att, zeros_sec, zeros_att,
                          np.zeros(4, dtype=np.int64),
                          np.zeros(4, dtype=np.int64),
                          LossWeights(), gamma_f=2.0)
    assert bd.l_sec == pytest.approx(np.log(2.0), rel=1e-12)
    focal = (2.0 / 3.0) ** 2 * np.log(3.0)
    assert bd.l_rev == pytest.approx(focal, rel=1e-12)
    assert bd.l_att == pytest.approx(focal, rel=1e-12)


def test_loss_weights_invariants():
    with pytest.raises(InvalidConfig):
        LossWeights(alpha=-0.1)
    with pytest.raises(InvalidConfig):
        LossWeights(alpha=0.0, beta=0.0, gamma=0.0)
    assert LossWeights(alpha=0.0, beta=1.0, gamma=0.0).beta == 1.0


def test_inverse_frequency_weights():
    clips = tiny_corpus()
    table = build_attribute_groups([c.metadata for c in clips])
    w = inverse_frequency_weights(table)
    assert w.mean() == pytest.approx(1.0, rel=1e-12)
    counts = table.label_counts()
    # strictly inverse ordering: the rarer the group, the larger the weight
    assert np.all(np.argsort(w) == np.argsort(-counts.astype(float))) or \
        np.allclose(w, w[0])


# -------------------------------------------------------------- schedule ----

def test_lambda_schedule_endpoints():
    assert lambda_schedule(0.0) == 0.0  # exact
    assert lambda_schedule(1.0, gain=10.0) == pytest.approx(
        2.0 / (1.0 + np.exp(-10.0)) - 1.0, rel=1e-15)
    assert lambda_schedule(1.0, gain=10.0) == pytest.approx(0.99991, abs=1e-5)


def test_lambda_schedule_monotone_1000_points():
    grid = np.linspace(0.0, 1.0, 1000)
    values = [lambda_schedule(float(p)) for p in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v < 1.0 for v in values)


def test_lambda_schedule_invalid():
    with pytest.raises(InvalidSchedule):
        lambda_schedule(-0.01)
    with pytest.raises(InvalidSchedule):
        lambda_schedule(1.01)
    with pytest.raises(InvalidSchedule):
        lambda_schedule(0.5, gain=0.0)


# -------------------------------------------------------------- training ----

def test_train_contract_checks():
    clips = tiny_corpus()
    with pytest.raises(NoTrainingData):
        train([], TrainConfig(epochs=1))
    from dataclasses import replace

    mixed = list(clips[:2])
    mixed[0] = replace(mixed[0],
                       metadata=replace(mixed[0].metadata,
                                        machine_type="fan"))
    with pytest.raises(ContractViolation):
        train(mixed, TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(InvalidConfig):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(batch_size=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(lambda_gain=0.0)


def test_train_loss_log_bitwise_deterministic():
    clips = tiny_corpus()
    cfg = TrainConfig(epochs=2, batch_size=4, seed=9)
    a = train(clips, cfg)
    b = train(clips, cfg)
    rows_a = loss_log_csv_rows(a.log, cfg.lr, cfg.eta_min, cfg.epochs)
    rows_b = loss_log_csv_rows(b.log, cfg.lr, cfg.eta_min, cfg.epochs)
    assert rows_a == rows_b  # repr round-trip: bitwise equality
    for (_, pa), (_, pb) in zip(a.model.parameters(), b.model.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_train_log_schedule_columns():
    clips = tiny_corpus()
    cfg = TrainConfig(epochs=3, batch_size=4, seed=1)
    result = train(clips, cfg)
    assert [bd.epoch for bd in result.log] == [1, 2, 3]
    assert result.log[0].lambda_used == 0.0  # ramp starts at zero
    assert result.log[1].lambda_used > 0.0
    rows = loss_log_csv_rows(result.log, cfg.lr, cfg.eta_min, cfg.epochs)
    assert rows[0] == "epoch,lr,lambda,l_rev,l_sec,l_att,l_total"
    assert rows[1].startswith(f"1,{cfg.lr!r},")
    assert len(rows) == 4


def test_train_sizes_heads_from_data():
    clips = tiny_corpus()
    result = train(clips, TrainConfig(epochs=1, batch_size=4))
    assert result.model.cfg.num_sections == 2
    assert result.model.cfg.num_groups == 2  # per-section group count
    assert result.sections == [0, 1]


def test_train_config_rejects_unknown_precision():
    assert precision_dtype("f32") is np.float32
    assert precision_dtype("f64") is np.float64
    with pytest.raises(InvalidConfig, match="f16"):
        TrainConfig(precision="f16")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_train_stops_on_non_finite_parameters():
    # One step per epoch: its loss is finite, the huge step is not.
    with pytest.raises(DivergenceDetected, match="non-finite parameter t1.w"):
        train(tiny_corpus(), TrainConfig(epochs=1, batch_size=64, lr=1e300))


# ------------------------------------------------------------- inference ----

def test_embed_row_counts_and_keys():
    clips = tiny_corpus()
    result = train(clips, TrainConfig(epochs=1, batch_size=4))
    out = embed(result.model, clips, result.dsp_cfg, result.stats,
                batch_size=5)
    assert set(out) == {"z_rev", "z_sec", "z_att"}
    for arr in out.values():
        assert arr.shape[0] == len(clips)
    # repeat is bitwise identical (eval mode has no stochastic state)
    again = embed(result.model, clips, result.dsp_cfg, result.stats,
                  batch_size=5)
    np.testing.assert_array_equal(out["z_att"], again["z_att"])


def test_section_logits_shape_and_determinism():
    clips = tiny_corpus()
    result = train(clips, TrainConfig(epochs=1, batch_size=4))
    logits = section_logits(result.model, clips, result.dsp_cfg,
                            result.stats)
    assert logits.shape == (len(clips), 2)
    # bitwise repeatable for a fixed batch size (f32 GEMMs are only
    # reproducible, not batching-invariant)
    np.testing.assert_array_equal(
        logits, section_logits(result.model, clips, result.dsp_cfg,
                               result.stats))


def test_eval_loop_matches_forward_on_uneven_batches(tmp_path):
    """The streaming loop, batch 2 over 5 clips listed on disk, against
    model.forward on the same batches prepared up front."""
    clips = tiny_corpus()
    result = train(clips, TrainConfig(epochs=1, batch_size=4))
    model = result.model
    records = _write_records(clips[:5], tmp_path)
    prep = prepare_clips(records, result.dsp_cfg, np.float32,
                         table=result.table, stats=result.stats,
                         sections=result.sections)
    logits, pooled = [], {"z_rev": [], "z_sec": [], "z_att": []}
    for sl in (slice(0, 2), slice(2, 4), slice(4, 5)):
        wave, spec = ad.Tensor(prep.waves[sl]), ad.Tensor(prep.specs[sl])
        out = model.forward(wave, spec, 0.0, train=False)
        logits.append(out[2].data)
        z_rev = model.backbone_forward(wave, spec, train=False)
        for key, z in (("z_rev", z_rev), ("z_sec", out[1]),
                       ("z_att", out[3])):
            pooled[key].append(z.data.mean(axis=(2, 3)))
    np.testing.assert_array_equal(
        section_logits(model, records, result.dsp_cfg, result.stats,
                       batch_size=2), np.concatenate(logits))
    vectors = embed(model, records, result.dsp_cfg, result.stats,
                    batch_size=2)
    assert set(vectors) == set(pooled)
    for key, parts in pooled.items():
        np.testing.assert_array_equal(vectors[key], np.concatenate(parts))


def test_eval_loop_peak_memory_is_one_batch(tmp_path):
    """The eval loop's traced peak over 4 batches stays at one batch's:
    clips are decoded, prepared and forwarded a batch at a time, and no
    graph is kept.  A loop that prepares every clip before the first
    forward peaks at ~2.3x here."""
    batch = 8
    rng = np.random.default_rng(0)
    folder = tmp_path / "toycar"
    folder.mkdir()
    for i in range(4 * batch):
        write_wav(folder / f"section_00_source_test_normal_{i:04d}.wav",
                  rng.uniform(-0.5, 0.5, 1600), 16000)
    records = load_corpus_dir(tmp_path)
    model = GrhdModel(TINY, seed=0)
    dsp_cfg = SpectrogramConfig(frame_size=TINY.frame_size, hop=TINY.hop,
                                num_mels=TINY.num_mels)
    stats = StandardStats(mean=np.zeros(TINY.num_mels),
                          std=np.ones(TINY.num_mels))

    def peak(clips):
        tracemalloc.start()
        try:
            embed(model, clips, dsp_cfg, stats, batch_size=batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(records[:batch])  # first call fills the filterbank cache
    one, four = peak(records[:batch]), peak(records)
    assert four < 1.25 * one, (one, four)


def test_prepare_clips_stacks_in_model_dtype():
    from grhd.dsp import SpectrogramConfig, log_mel, standardize

    clips = tiny_corpus()[:3]
    cfg = SpectrogramConfig()
    for dtype in (np.float32, np.float64):
        prep = prepare_clips(clips, cfg, dtype)
        assert prep.waves.dtype == dtype and prep.specs.dtype == dtype
        np.testing.assert_array_equal(
            prep.waves[:, 0], np.stack([c.samples for c in clips])
            .astype(dtype))
        specs = np.stack([log_mel(c.samples, cfg, c.sample_rate)
                          for c in clips])
        standardize(specs, prep.stats)
        np.testing.assert_array_equal(prep.specs, specs.astype(dtype))


def test_prepare_clips_mixed_lengths_rejected():
    from grhd.dsp import SpectrogramConfig

    clips = tiny_corpus()
    clips[0].samples = clips[0].samples[:-100]
    with pytest.raises(ShapeMismatch):
        prepare_clips(clips, SpectrogramConfig(), np.float32)
