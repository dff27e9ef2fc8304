"""Per-layer metrics derived from a traced run's spans and counters.

Sums and counts are per round (every round runs the same commands, so they
divide exactly); ``_ms`` and ``_us`` figures are medians per call.  A layer
that does not run on a workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS


class Spans:
    def __init__(self, snap: dict):
        self.names = snap["names"]
        self.name = snap["name"]
        self.parent = snap["parent"]
        self.start = snap["start"]
        self.end = snap["end"]
        self.counts = snap["counts"]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, nid in enumerate(self.name):
            self.by_name[self.names[nid]].append(i)
            self.children[self.parent[i]].append(i)

    def seconds(self, i: int) -> float:
        return (self.end[i] - self.start[i]) / 1e9

    def total(self, name: str) -> float:
        return sum(self.seconds(i) for i in self.by_name.get(name, ()))

    def under(self, i: int, ancestor: str) -> bool:
        p = self.parent[i]
        while p != -1:
            if self.names[self.name[p]] == ancestor:
                return True
            p = self.parent[p]
        return False

    def descendants(self, i: int) -> list[int]:
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(self.children[j])
        return out

    def self_time(self, name: str) -> float:
        return sum(self.seconds(i) - sum(self.seconds(c)
                                         for c in self.children[i])
                   for i in self.by_name.get(name, ()))


CONV_LAYERS = ("t1", "t2", "t3", "block0.conv", "block1.conv", "block2.conv",
               "conv_sec", "conv_att")


def wiring_errors(snap: dict) -> list[str]:
    """Structural invariants that a missed patch would break.

    Every conv layer call makes exactly one conv2d call, every GrhdModel
    forward calls all 17 named layers, and log-mel runs once per prepared
    clip.  A name patched in one module but looked up unpatched in another
    breaks one of these even when the span itself still appears.
    """
    s = Spans(snap)
    errors = []
    for layer in CONV_LAYERS:
        for i in s.by_name.get(f"nn.{layer}.fwd", ()):
            convs = [d for d in s.descendants(i)
                     if s.names[s.name[d]] == "engine.conv2d"]
            if len(convs) != 1:
                errors.append(f"nn.{layer}.fwd holds {len(convs)} conv2d "
                              "spans, want 1")
                break
    for i in s.by_name.get("model.forward", ()):
        layers = {s.names[s.name[d]] for d in s.descendants(i)} & {
            f"nn.{layer}.fwd" for layer in LAYERS}
        if len(layers) != len(LAYERS):
            errors.append(f"a model.forward span holds {len(layers)} of "
                          f"{len(LAYERS)} layer spans")
            break
    log_mels = len(s.by_name.get("dsp.log_mel", ()))
    if log_mels != s.counts.get("model.prepared_clips", 0):
        errors.append(f"{log_mels} log-mel spans for "
                      f"{s.counts.get('model.prepared_clips', 0)} "
                      "prepared clips")
    return errors


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(snap: dict, setup_snap: dict | None, rounds: int,
              cpu_s: list[float]) -> dict[str, float]:
    s = Spans(snap)
    counts = s.counts
    out: dict[str, float] = {}

    def ms(ids):
        return _median(s.seconds(i) * 1e3 for i in ids)

    for layer in LAYERS:
        out[f"nn.{layer}.fwd_ms"] = ms(s.by_name.get(f"nn.{layer}.fwd", ()))
        # One call of a layer owns several nodes; all of them run inside the
        # same backward pass, so group node spans by that pass.
        per_call: dict[int, float] = defaultdict(float)
        for i in s.by_name.get(f"nn.{layer}.bwd", ()):
            per_call[s.parent[i]] += s.seconds(i) * 1e3
        out[f"nn.{layer}.bwd_ms"] = _median(per_call.values())

    out["engine.conv2d_calls"] = counts.get("engine.conv2d_calls", 0) / rounds
    out["engine.conv2d_fwd_s"] = s.total("engine.conv2d") / rounds
    out["engine.conv2d_bwd_s"] = s.total("engine.conv2d.bwd") / rounds
    out["engine.conv_gflop"] = counts.get("engine.conv_flop", 0) / rounds / 1e9
    out["engine.im2col_mb"] = \
        counts.get("engine.im2col_bytes", 0) / rounds / 1e6

    def in_training(name):
        return [i for i in s.by_name.get(name, ())
                if s.under(i, "model.train")]

    forwards = in_training("model.forward")
    adams = in_training("optim.adam")
    out["model.train_step_ms"] = _median(
        (s.end[a] - s.start[f]) / 1e6 for f, a in zip(forwards, adams))
    out["model.steps"] = len(adams) / rounds
    out["model.forward_ms"] = ms(forwards)
    out["model.loss_ms"] = ms(in_training("model.loss"))
    out["model.backward_ms"] = ms(in_training("engine.backward"))
    out["optim.adam_ms"] = ms(adams)

    wavs = counts.get("dataset.wavs_read", 0)
    out["dataset.load_s"] = s.total("dataset.load_corpus_dir") / rounds
    out["dataset.wavs_read"] = wavs / rounds
    out["dataset.clips_used_ratio"] = \
        counts.get("model.prepared_clips", 0) / wavs if wavs else 0.0
    out["dsp.log_mel_s"] = s.total("dsp.log_mel") / rounds
    out["dsp.log_mel_calls"] = len(s.by_name.get("dsp.log_mel", ())) / rounds
    out["dsp.standardize_s"] = s.total("dsp.standardize") / rounds
    out["model.prepare_clips_s"] = s.total("model.prepare_clips") / rounds

    setup = Spans(setup_snap) if setup_snap else None
    out["synth.write_corpus_s"] = \
        setup.total("synth.write_corpus") if setup else 0.0
    out["synth.clips"] = setup.counts.get("synth.clips", 0) if setup else 0

    out["model.embed_s"] = s.total("model.embed") / rounds
    out["model.section_logits_s"] = s.total("model.section_logits") / rounds
    out["model.eval_clip_forwards"] = \
        counts.get("model.eval_clip_forwards", 0) / rounds
    out["metrics.score_s"] = s.total("metrics.score") / rounds
    out["metrics.build_report_s"] = s.total("metrics.build_report") / rounds
    out["metrics.auc_calls"] = counts.get("metrics.auc_calls", 0) / rounds
    out["metrics.pauc_s"] = s.total("metrics.pauc") / rounds
    out["checkpoint.load_s"] = s.total("checkpoint.load") / rounds
    out["checkpoint.save_s"] = s.total("checkpoint.save") / rounds
    out["checkpoint.bytes"] = counts.get("checkpoint.bytes", 0) / rounds
    # What cmd_embed does outside its traced calls: build and write the CSV.
    out["cli.embed_write_s"] = s.self_time("cli.embed") / rounds

    net_forwards = [i for i in s.by_name.get("model.forward", ())
                    if s.under(i, "gradcheck.network")]
    out["gradcheck.suite_s"] = s.total("gradcheck.suite") / rounds
    out["gradcheck.network_s"] = s.total("gradcheck.network") / rounds
    out["gradcheck.forward_calls"] = len(net_forwards) / rounds
    out["gradcheck.forward_us"] = _median(
        s.seconds(i) * 1e6 for i in net_forwards)

    out["proc.cpu_s"] = _median(cpu_s)
    return out
