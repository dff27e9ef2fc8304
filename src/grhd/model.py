"""GRHD network: backbone, gradient-reversal classifier, hierarchical heads.

The backbone fuses a temporal branch (1-D convolutions over the raw
waveform, first kernel = frame size, stride = hop) with the log-mel map,
then downsamples through three stride-2 conv blocks.  The reversal
classifier taps the backbone feature map through a gradient reversal node;
the section head convolves the same map, and the attribute head convolves
the section features (hierarchy, not parallel heads).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import cosine_anneal
from .autodiff.gradcheck import numeric_grad, rel_err
from .dataset import (
    AttributeGroupTable,
    AudioClip,
    ClipRecord,
    build_attribute_groups,
)
from .dsp import SpectrogramConfig, StandardStats, log_mel, standardize
from .errors import (
    ContractViolation,
    DivergenceDetected,
    InvalidConfig,
    InvalidSchedule,
    NoTrainingData,
    ShapeMismatch,
)


_PRECISIONS = {"f32": np.float32, "f64": np.float64}


def precision_dtype(precision: str):
    """The numpy dtype of a precision mode, "f32" or "f64"."""
    if precision not in _PRECISIONS:
        raise InvalidConfig(f"unknown precision mode {precision!r}")
    return _PRECISIONS[precision]


@dataclass(frozen=True)
class ModelConfig:
    num_mels: int = 128
    frame_size: int = 1024
    hop: int = 512
    conv_channels: tuple[int, int, int] = (16, 32, 128)
    sec_channels: int = 48
    att_channels: int = 48
    grc_hidden: int = 64
    num_sections: int = 1
    num_groups: int = 1
    dtype: str = "f32"  # "f32" or "f64"

    def np_dtype(self):
        return precision_dtype(self.dtype)


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise InvalidConfig("penalty parameters must be nonnegative")
        if self.alpha == self.beta == self.gamma == 0.0:
            raise InvalidConfig("at least one penalty parameter must be > 0")


@dataclass
class LossBreakdown:
    l_rev: float
    l_sec: float
    l_att: float
    l_total: float
    lambda_used: float
    epoch: int


@dataclass
class TrainConfig:
    epochs: int = 150
    batch_size: int = 64
    lr: float = 0.001
    eta_min: float = 0.0
    weights: LossWeights = field(default_factory=LossWeights)
    lambda_gain: float = 10.0
    gamma_f: float = 2.0
    seed: int = 0
    precision: str = "f32"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfig("epochs and batch size must be >= 1")
        if self.lambda_gain <= 0:
            raise InvalidConfig("lambda schedule gain must be > 0")
        precision_dtype(self.precision)


def lambda_schedule(progress: float, gain: float = 10.0) -> float:
    """Logistic reversal-intensity ramp: 0 at the start, toward 1 late on."""
    if not (0.0 <= progress <= 1.0):
        raise InvalidSchedule(f"progress {progress} outside [0, 1]")
    if gain <= 0:
        raise InvalidSchedule("gain must be positive")
    return 2.0 / (1.0 + np.exp(-gain * progress)) - 1.0


class GrhdModel:
    """Parameter container for the backbone and the three heads."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        dtype = cfg.np_dtype()
        rng = np.random.default_rng(seed)
        mels = cfg.num_mels
        c1, c2, c3 = cfg.conv_channels

        self.t1 = ad.Conv1d(1, mels, cfg.frame_size, rng,
                            stride=cfg.hop, dtype=dtype)
        self.t2 = ad.Conv1d(mels, mels, 3, rng, padding=1, dtype=dtype)
        self.t3 = ad.Conv1d(mels, mels, 3, rng, padding=1, dtype=dtype)

        self.conv_blocks = []
        in_ch = 2
        for out_ch in (c1, c2, c3):
            conv = ad.Conv2d(in_ch, out_ch, 3, rng, stride=2, padding=1,
                             dtype=dtype)
            bn = ad.BatchNorm2d(out_ch, dtype=dtype)
            self.conv_blocks.append((conv, bn))
            in_ch = out_ch

        self.grc_fc1 = ad.Dense(c3, cfg.grc_hidden, rng, dtype=dtype)
        self.grc_out = ad.Dense(cfg.grc_hidden, cfg.num_groups, rng,
                                dtype=dtype)

        self.conv_sec = ad.Conv2d(c3, cfg.sec_channels, 3, rng, stride=2,
                                  padding=1, dtype=dtype)
        self.bn_sec = ad.BatchNorm2d(cfg.sec_channels, dtype=dtype)
        self.c_sec = ad.Dense(cfg.sec_channels, cfg.num_sections, rng,
                              dtype=dtype)

        self.conv_att = ad.Conv2d(cfg.sec_channels, cfg.att_channels, 3, rng,
                                  padding=1, dtype=dtype)
        self.bn_att = ad.BatchNorm2d(cfg.att_channels, dtype=dtype)
        self.c_att = ad.Dense(cfg.att_channels, cfg.num_groups, rng,
                              dtype=dtype)

    def _named_layers(self) -> list[tuple[str, ad.Layer]]:
        layers = [("t1", self.t1), ("t2", self.t2), ("t3", self.t3)]
        for i, (conv, bn) in enumerate(self.conv_blocks):
            layers.append((f"block{i}.conv", conv))
            layers.append((f"block{i}.bn", bn))
        layers += [("grc_fc1", self.grc_fc1), ("grc_out", self.grc_out),
                   ("conv_sec", self.conv_sec), ("bn_sec", self.bn_sec),
                   ("c_sec", self.c_sec), ("conv_att", self.conv_att),
                   ("bn_att", self.bn_att), ("c_att", self.c_att)]
        return layers

    def parameters(self) -> list[tuple[str, ad.Tensor]]:
        out = []
        for prefix, layer in self._named_layers():
            for name, tensor in layer.parameters():
                out.append((f"{prefix}.{name}", tensor))
        return out

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for prefix, layer in self._named_layers():
            for name, arr in layer.state_arrays():
                out.append((f"{prefix}.{name}", arr))
        return out

    def backbone_parameters(self) -> list[tuple[str, ad.Tensor]]:
        names = {"t1", "t2", "t3"} | {f"block{i}" for i in range(3)}
        return [(n, t) for n, t in self.parameters()
                if n.split(".")[0] in names]

    def backbone_forward(self, wave: ad.Tensor, logmel: ad.Tensor,
                         train: bool = False) -> ad.Tensor:
        """Fused spectral-temporal feature map z_rev, [N, C, H, W]."""
        n = wave.shape[0]
        if logmel.shape[0] != n:
            raise ShapeMismatch("waveform/spectrogram batch size mismatch")
        t = ad.relu(self.t1(wave))
        t = ad.relu(self.t2(t))
        t = self.t3(t)
        if t.shape[1:] != logmel.shape[1:]:
            raise ShapeMismatch(
                f"temporal map {t.shape} vs spectral map {logmel.shape}")
        mels, frames = logmel.shape[1], logmel.shape[2]
        x = ad.concat([ad.reshape(logmel, (n, 1, mels, frames)),
                       ad.reshape(t, (n, 1, mels, frames))], axis=1)
        for conv, bn in self.conv_blocks:
            x = ad.relu(bn(conv(x), train))
        return x

    def heads_forward(self, z_rev: ad.Tensor, lam: float | None,
                      train: bool = False):
        """Returns (logits_rev, z_sec, logits_sec, z_att, logits_att).

        lam=None replaces the reversal node with identity (used only by the
        finite-difference harness); lam=0.0 keeps the node but blocks its
        gradient, which is the semantically meaningful off switch.
        """
        g = z_rev if lam is None else ad.grad_reverse(z_rev, lam)
        h = ad.global_avg_pool(g)
        logits_rev = self.grc_out(ad.relu(self.grc_fc1(h)))

        z_sec = ad.relu(self.bn_sec(self.conv_sec(z_rev), train))
        logits_sec = self.c_sec(ad.global_avg_pool(z_sec))

        z_att = ad.relu(self.bn_att(self.conv_att(z_sec), train))
        logits_att = self.c_att(ad.global_avg_pool(z_att))
        return logits_rev, z_sec, logits_sec, z_att, logits_att

    def forward(self, wave: ad.Tensor, logmel: ad.Tensor, lam: float | None,
                train: bool = False):
        return self.heads_forward(
            self.backbone_forward(wave, logmel, train), lam, train)


def grhd_loss(logits_rev: ad.Tensor, logits_sec: ad.Tensor,
              logits_att: ad.Tensor, l_sec: np.ndarray, l_att: np.ndarray,
              weights: LossWeights, gamma_f: float = 2.0,
              class_weights: np.ndarray | None = None,
              lambda_used: float = 0.0, epoch: int = 0
              ) -> tuple[ad.Tensor, LossBreakdown]:
    """Joint loss: focal on the reversal and attribute heads, CE on sections."""
    loss_rev = ad.focal_loss(logits_rev, l_att, gamma_f=gamma_f,
                             class_weights=class_weights)
    loss_sec = ad.cross_entropy(logits_sec, l_sec)
    loss_att = ad.focal_loss(logits_att, l_att, gamma_f=gamma_f,
                             class_weights=class_weights)
    total = weights.alpha * loss_rev + weights.beta * loss_sec + \
        weights.gamma * loss_att
    breakdown = LossBreakdown(
        l_rev=loss_rev.item(), l_sec=loss_sec.item(), l_att=loss_att.item(),
        l_total=total.item(), lambda_used=lambda_used, epoch=epoch)
    return total, breakdown


def inverse_frequency_weights(table: AttributeGroupTable,
                              dtype=np.float64) -> np.ndarray:
    """Per-group weights proportional to 1/count, normalized to mean 1."""
    counts = table.label_counts().astype(np.float64)
    counts = np.maximum(counts, 1.0)
    w = 1.0 / counts
    return (w / w.mean()).astype(dtype)


@dataclass
class PreparedBatchSet:
    """Preprocessed inputs for one machine type."""

    waves: np.ndarray       # [N, 1, T]
    specs: np.ndarray       # [N, mels, frames]
    sec_labels: np.ndarray  # [N]
    att_labels: np.ndarray  # [N]
    clips: list[AudioClip | ClipRecord]
    sections: list[int]
    table: AttributeGroupTable
    stats: StandardStats


def prepare_clips(clips: Sequence[AudioClip | ClipRecord],
                  dsp_cfg: SpectrogramConfig, dtype,
                  table: AttributeGroupTable | None = None,
                  stats: StandardStats | None = None,
                  sections: list[int] | None = None) -> PreparedBatchSet:
    """DSP frontend + label assembly for a homogeneous clip list.

    A listed `ClipRecord` is decoded here, one at a time, straight into the
    wave stack, so the set holds no float64 copy of anyone's samples; its
    `clips` are the items as given.
    """
    if not clips:
        raise NoTrainingData("no clips to prepare")
    n = len(clips)
    waves = specs = None
    for i, item in enumerate(clips):
        clip = item.load() if isinstance(item, ClipRecord) else item
        if waves is None:
            sr = clip.sample_rate
            waves = np.empty((n, 1, clip.samples.size), dtype=dtype)
        elif clip.samples.size != waves.shape[2] or clip.sample_rate != sr:
            raise ShapeMismatch(
                "all clips in a batch set need one length and one sample rate")
        waves[i, 0] = clip.samples
        spec = log_mel(clip.samples, dsp_cfg, sr)
        if specs is None:
            specs = np.empty((n,) + spec.shape)
        specs[i] = spec
    stats = standardize(specs, stats)
    specs = specs.astype(dtype, copy=False)

    if table is None:
        table = build_attribute_groups([c.metadata for c in clips])
    if sections is None:
        sections = table.sections
    sec_index = {s: i for i, s in enumerate(sections)}
    sec_labels = np.array(
        [sec_index.get(c.metadata.section_id, -1) for c in clips],
        dtype=np.int64)

    def att_label(meta):
        try:
            return table.group_index(meta)
        except KeyError:
            return -1  # combo unseen at training time; scoring-only clips

    att_labels = np.array([att_label(c.metadata) for c in clips],
                          dtype=np.int64)
    return PreparedBatchSet(waves=waves, specs=specs, sec_labels=sec_labels,
                            att_labels=att_labels, clips=list(clips),
                            sections=list(sections), table=table, stats=stats)


@dataclass
class TrainResult:
    model: GrhdModel
    log: list[LossBreakdown]
    stats: StandardStats
    table: AttributeGroupTable
    sections: list[int]
    class_weights: np.ndarray
    dsp_cfg: SpectrogramConfig
    train_cfg: TrainConfig


def train(clips: Sequence[AudioClip | ClipRecord], train_cfg: TrainConfig,
          dsp_cfg: SpectrogramConfig | None = None,
          model_cfg: ModelConfig | None = None) -> TrainResult:
    """Train one GRHD model on the (normal-only) clips of one machine type.

    Epoch loop: seeded shuffle, forward, joint loss, backward, Adam step;
    lambda comes from the logistic schedule and the learning rate from
    cosine annealing.  Raises DivergenceDetected on a non-finite loss or
    on a non-finite parameter after an Adam step.
    """
    if not clips:
        raise NoTrainingData("empty training corpus")
    machines = {c.metadata.machine_type for c in clips}
    if len(machines) != 1:
        raise ContractViolation(
            f"train expects a single machine type, got {sorted(machines)}")
    for clip in clips:
        if clip.metadata.condition.value == "anomaly":
            raise ContractViolation(
                f"{clip.clip_id}: anomalous clip in training data")

    dsp_cfg = dsp_cfg or SpectrogramConfig()
    dtype = precision_dtype(train_cfg.precision)
    prep = prepare_clips(clips, dsp_cfg, dtype)

    base_cfg = model_cfg or ModelConfig()
    cfg = replace(base_cfg,
                  num_mels=dsp_cfg.num_mels, frame_size=dsp_cfg.frame_size,
                  hop=dsp_cfg.hop, num_sections=len(prep.sections),
                  num_groups=prep.table.max_groups,
                  dtype=train_cfg.precision)
    model = GrhdModel(cfg, seed=train_cfg.seed)
    named_params = model.parameters()
    params = [t for _, t in named_params]
    state = ad.AdamState(lr=train_cfg.lr)
    class_weights = inverse_frequency_weights(prep.table, dtype=dtype)

    n = prep.waves.shape[0]
    rng = np.random.default_rng(train_cfg.seed)
    log: list[LossBreakdown] = []
    for epoch in range(train_cfg.epochs):
        lam = lambda_schedule(epoch / train_cfg.epochs, train_cfg.lambda_gain)
        state.lr = cosine_anneal(train_cfg.lr, train_cfg.eta_min, epoch,
                                 train_cfg.epochs)
        order = rng.permutation(n)
        sums = np.zeros(4)
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            wave = ad.Tensor(prep.waves[idx])
            spec = ad.Tensor(prep.specs[idx])
            logits_rev, _, logits_sec, _, logits_att = model.forward(
                wave, spec, lam, train=True)
            total, bd = grhd_loss(
                logits_rev, logits_sec, logits_att,
                prep.sec_labels[idx], prep.att_labels[idx],
                train_cfg.weights, gamma_f=train_cfg.gamma_f,
                class_weights=class_weights, lambda_used=lam, epoch=epoch)
            if not np.isfinite(bd.l_total):
                raise DivergenceDetected(
                    f"non-finite loss at epoch {epoch}: {bd}")
            for p in params:
                p.zero_grad()
            total.backward()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                     for p in params]
            ad.adam_step(params, grads, state)
            for name, p in named_params:
                if not np.isfinite(p.data).all():
                    raise DivergenceDetected(
                        f"non-finite parameter {name} after the Adam step "
                        f"at epoch {epoch}")
            sums += np.array([bd.l_rev, bd.l_sec, bd.l_att,
                              bd.l_total]) * idx.size
        means = sums / n
        log.append(LossBreakdown(l_rev=means[0], l_sec=means[1],
                                 l_att=means[2], l_total=means[3],
                                 lambda_used=lam, epoch=epoch + 1))
    return TrainResult(model=model, log=log, stats=prep.stats,
                       table=prep.table, sections=prep.sections,
                       class_weights=class_weights, dsp_cfg=dsp_cfg,
                       train_cfg=train_cfg)


def _eval_forward(model: GrhdModel, clips: Sequence[AudioClip | ClipRecord],
                  dsp_cfg: SpectrogramConfig, stats: StandardStats,
                  batch_size: int) -> dict[str, np.ndarray]:
    """The eval-mode batch loop: pooled z_rev, z_sec, z_att and the
    section logits, one row per clip, in clip order.

    Each batch is decoded, standardized with the given training stats and
    forwarded under `no_grad`, so the peak memory is one batch's, whatever
    the number of clips.
    """
    if not clips:
        raise NoTrainingData("no clips to evaluate")
    dtype = model.cfg.np_dtype()
    outs = {"z_rev": [], "z_sec": [], "z_att": [], "logits_sec": []}
    with ad.no_grad():
        for start in range(0, len(clips), batch_size):
            # The batch's labels come from its own table; eval reads none.
            prep = prepare_clips(clips[start:start + batch_size], dsp_cfg,
                                 dtype, stats=stats)
            z_rev = model.backbone_forward(ad.Tensor(prep.waves),
                                           ad.Tensor(prep.specs), train=False)
            del prep  # the batch's inputs are not needed by the heads
            _, z_sec, logits_sec, z_att, _ = model.heads_forward(
                z_rev, 0.0, train=False)
            for key, z in (("z_rev", z_rev), ("z_sec", z_sec),
                           ("z_att", z_att)):
                outs[key].append(z.data.mean(axis=(2, 3)))
            outs["logits_sec"].append(logits_sec.data)
    return {k: np.concatenate(v) for k, v in outs.items()}


def embed(model: GrhdModel, clips: Sequence[AudioClip | ClipRecord],
          dsp_cfg: SpectrogramConfig, stats: StandardStats,
          batch_size: int = 64) -> dict[str, np.ndarray]:
    """Pooled (z_rev, z_sec, z_att) embeddings per clip, eval mode."""
    outs = _eval_forward(model, clips, dsp_cfg, stats, batch_size)
    del outs["logits_sec"]
    return outs


def section_logits(model: GrhdModel, clips: Sequence[AudioClip | ClipRecord],
                   dsp_cfg: SpectrogramConfig, stats: StandardStats,
                   batch_size: int = 64) -> np.ndarray:
    """Eval-mode section-classifier logits, one row per clip."""
    outs = _eval_forward(model, clips, dsp_cfg, stats, batch_size)
    return outs["logits_sec"]


def _tiny_config(num_sections: int = 2, num_groups: int = 3) -> ModelConfig:
    """Desk-size configuration for finite-difference validation."""
    return ModelConfig(num_mels=8, frame_size=32, hop=16,
                       conv_channels=(4, 4, 8), sec_channels=4,
                       att_channels=4, grc_hidden=4,
                       num_sections=num_sections, num_groups=num_groups,
                       dtype="f64")


def _tiny_batch(rng, cfg: ModelConfig, n: int = 3, t: int = 160):
    frames = 1 + (t - cfg.frame_size) // cfg.hop
    waves = rng.uniform(-0.8, 0.8, size=(n, 1, t))
    specs = rng.uniform(-1.5, 1.5, size=(n, cfg.num_mels, frames))
    sec_labels = rng.integers(0, cfg.num_sections, size=n)
    att_labels = rng.integers(0, cfg.num_groups, size=n)
    return waves, specs, sec_labels, att_labels


def model_gradcheck(seed: int = 0, h: float = 1e-5,
                    weights: LossWeights | None = None) -> float:
    """Central-difference check of every parameter of the assembled network.

    The reversal node is replaced by identity here (its backward rule is not
    the derivative of its forward map); the node itself is validated by the
    sign-rule twin checks.  Returns the max relative error, measured against
    max(|analytic|, |numeric|, 1e-3).
    """
    rng = np.random.default_rng(seed)
    cfg = _tiny_config()
    model = GrhdModel(cfg, seed=seed)
    waves, specs, sec_labels, att_labels = _tiny_batch(rng, cfg)
    weights = weights or LossWeights()

    def forward():
        logits_rev, _, logits_sec, _, logits_att = model.forward(
            ad.Tensor(waves), ad.Tensor(specs), None, train=True)
        total, _ = grhd_loss(logits_rev, logits_sec, logits_att,
                             sec_labels, att_labels, weights)
        return total

    params = [t for _, t in model.parameters()]
    for p in params:
        p.zero_grad()
    forward().backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, rel_err(analytic, numeric_grad(forward, p, h)))
    return worst


def grl_sign_check(seed: int = 0, lam: float = 0.5) -> float:
    """Verify the reversal rule on the assembled network.

    Backbone gradients of the reversal-head loss with intensity lam must
    equal exactly -lam times the gradients with the reversal node replaced
    by identity.  Returns the max relative deviation.

    The deviation is measured against max(|a|, |b|, 1e-6), not rel_err's
    1e-3 floor: the -lam rule holds exactly up to rounding, so any larger
    deviation is a fault, and a 1e-3 floor would hide one on the small
    backbone gradients of this tiny network.
    """
    rng = np.random.default_rng(seed)
    cfg = _tiny_config()
    model = GrhdModel(cfg, seed=seed)
    waves, specs, sec_labels, att_labels = _tiny_batch(rng, cfg)
    weights = LossWeights(alpha=1.0, beta=0.0, gamma=0.0)

    def backbone_grads(lam_arg):
        params = [t for _, t in model.parameters()]
        for p in params:
            p.zero_grad()
        logits_rev, _, logits_sec, _, logits_att = model.forward(
            ad.Tensor(waves), ad.Tensor(specs), lam_arg, train=True)
        total, _ = grhd_loss(logits_rev, logits_sec, logits_att,
                             sec_labels, att_labels, weights)
        total.backward()
        return [t.grad if t.grad is not None else np.zeros_like(t.data)
                for _, t in model.backbone_parameters()]

    grads_rev = backbone_grads(lam)
    grads_id = backbone_grads(None)
    worst = 0.0
    for ga, gb in zip(grads_rev, grads_id):
        expect = -lam * gb
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(expect)), 1e-6)
        worst = max(worst, float(np.max(np.abs(ga - expect) / denom)))
    return worst


def loss_log_csv_rows(log: list[LossBreakdown], lr0: float, eta_min: float,
                      epochs: int) -> list[str]:
    """Render the training log as CSV lines (header included)."""
    lines = ["epoch,lr,lambda,l_rev,l_sec,l_att,l_total"]
    for bd in log:
        lr = cosine_anneal(lr0, eta_min, bd.epoch - 1, epochs)
        cells = [lr, bd.lambda_used, bd.l_rev, bd.l_sec, bd.l_att, bd.l_total]
        lines.append(f"{bd.epoch}," +
                     ",".join(repr(float(c)) for c in cells))
    return lines
