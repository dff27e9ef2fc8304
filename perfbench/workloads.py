"""The benchmark's workloads: corpus, set-up commands and timed rounds.

Every command is a ``grhd`` CLI argument list, run through ``grhd.cli.main``.
A round is the same list of commands every time; a run repeats whole rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

MACHINE = "toycar"   # the machine each workload trains or scores
MACHINES = "toycar, fan"
TRAIN_EPOCHS = 4
REF_EPOCHS = 1
# `grhd gradcheck` runs the acceptance gate's seed, whatever --seed is: the
# assembled-network check fails on some other seeds (2 and 11 among 0-13),
# so seeds derived from --seed would make failures depend on the seed.
GRADCHECK_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # Normal and anomalous test clips per section per domain; None: no corpus.
    test_count: int | None
    # Per-layer metrics that a traced run must report as nonzero.
    required: tuple[str, ...]

    def synth_config(self, seed: int) -> str:
        return (f"machines = {MACHINES}\n"
                "sections_per_machine = 2\n"
                "attr_groups = 3\n"
                "source_count = 200\n"
                "target_count = 10\n"
                f"test_normal_count = {self.test_count}\n"
                f"test_anomaly_count = {self.test_count}\n"
                "duration = 1.0\n"
                f"seed = {seed}\n")

    def setup_commands(self, work: Path, seed: int) -> list[list[str]]:
        if self.test_count is None:
            return []
        cmds = [["synth", "--config", str(work / "synth.cfg"),
                 "--out", str(work / "data")]]
        if self.name == "score":
            cmds.append(_train(work, seed, "ref.ckpt", REF_EPOCHS))
        return cmds

    def setup_outputs(self, work: Path) -> list[Path]:
        return [work / "ref.ckpt"] if self.name == "score" else []

    def round_commands(self, work: Path, seed: int) -> list[list[str]]:
        data = str(work / "data")
        if self.name == "train":
            return [_train(work, seed, f"{MACHINE}.ckpt", TRAIN_EPOCHS),
                    ["eval", "--ckpt", str(work / f"{MACHINE}.ckpt"),
                     "--data", data, "--scorer", "nls",
                     "--out", str(work / "report.csv")]]
        if self.name == "score":
            ref = str(work / "ref.ckpt")
            return [["eval", "--ckpt", ref, "--data", data, "--scorer", "nls",
                     "--out", str(work / "report_nls.csv")],
                    ["eval", "--ckpt", ref, "--data", data, "--scorer", "knn",
                     "--out", str(work / "report_knn.csv")],
                    ["embed", "--ckpt", ref, "--data", data,
                     "--out", str(work / "embed.csv")]]
        return [["gradcheck", "--seed", str(GRADCHECK_SEED)]]

    def round_outputs(self, work: Path) -> list[Path]:
        """Files each round writes; their digests must repeat exactly."""
        if self.name == "train":
            return [work / f"{MACHINE}.ckpt", work / f"{MACHINE}.loss.csv",
                    work / "report.csv"]
        if self.name == "score":
            return [work / "report_nls.csv", work / "report_knn.csv",
                    work / "embed.csv"]
        return []


def _train(work: Path, seed: int, out: str, epochs: int) -> list[str]:
    return ["train", "--data", str(work / "data"), "--machine", MACHINE,
            "--seed", str(seed), "--out", str(work / out),
            "--epochs", str(epochs)]


_LAYER_FWD = tuple(f"nn.{layer}.fwd_ms" for layer in LAYERS)
_LAYER_BWD = tuple(f"nn.{layer}.bwd_ms" for layer in LAYERS)
_CONV = ("engine.conv2d_calls", "engine.conv2d_fwd_s", "engine.conv_gflop",
         "engine.im2col_mb")
_LOAD = ("dataset.load_s", "dataset.wavs_read", "dataset.clips_used_ratio",
         "dsp.log_mel_s", "dsp.log_mel_calls", "dsp.standardize_s",
         "model.prepare_clips_s", "synth.write_corpus_s", "synth.clips",
         "model.section_logits_s", "model.eval_clip_forwards",
         "metrics.score_s", "metrics.build_report_s", "metrics.auc_calls",
         "metrics.pauc_s", "checkpoint.load_s", "checkpoint.bytes")
_STEP = ("engine.conv2d_bwd_s", "model.train_step_ms", "model.steps",
         "model.forward_ms", "model.loss_ms", "model.backward_ms",
         "optim.adam_ms")

WORKLOADS = {
    "train": Workload(
        "train", test_count=10,
        required=_LAYER_FWD + _LAYER_BWD + _CONV + _LOAD + _STEP + (
            "checkpoint.save_s", "proc.cpu_s")),
    "score": Workload(
        "score", test_count=100,
        required=_LAYER_FWD + _CONV + _LOAD + (
            "model.embed_s", "cli.embed_write_s", "proc.cpu_s")),
    "gradcheck": Workload(
        "gradcheck", test_count=None,
        required=_LAYER_FWD + _LAYER_BWD + _CONV + (
            "engine.conv2d_bwd_s", "gradcheck.suite_s", "gradcheck.network_s",
            "gradcheck.forward_calls", "gradcheck.forward_us",
            "proc.cpu_s")),
}
