"""Span tracer that wraps grhd's public functions from outside the package.

Nothing in ``src/grhd`` knows about the tracer.  ``Tracer.install`` replaces
each traced name in the module namespace where the program looks it up (for
example ``grhd.cli.train``, because ``cli`` imports ``train`` by name), and
``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent).  Spans and counters live in memory
and are written out once, when the process's command ends; ``merge`` joins
the files of a run's command processes.  Times are ``perf_counter_ns``
values.

Layer backward time: a layer call creates several graph nodes (``Conv1d``
returns a ``reshape`` node whose parent chain holds the ``conv2d`` node), so
every node created while a layer's ``__call__`` is on the stack gets its
``_backward`` wrapped in a span named after that layer.
"""

from __future__ import annotations

import gzip
import json
import weakref
from array import array
from pathlib import Path
from time import perf_counter_ns

# The named layers of GrhdModel, resolved from its public attributes.
LAYERS = ("t1", "t2", "t3", "block0.conv", "block0.bn", "block1.conv",
          "block1.bn", "block2.conv", "block2.bn", "grc_fc1", "grc_out",
          "conv_sec", "bn_sec", "c_sec", "conv_att", "bn_att", "c_att")


def _model_layers(model) -> list[tuple[str, object]]:
    out = [("t1", model.t1), ("t2", model.t2), ("t3", model.t3)]
    for i, (conv, bn) in enumerate(model.conv_blocks):
        out += [(f"block{i}.conv", conv), (f"block{i}.bn", bn)]
    out += [(name, getattr(model, name)) for name in LAYERS[9:]]
    return out


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._layer_names: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._created: list | None = None

    # ------------------------------------------------------------ spans --

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, hook=None):
        """Wrapper factory: a span around each call; ``hook`` sees args and
        result once the span is closed."""
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            return wrapper
        return make

    @staticmethod
    def after(hook):
        """Wrapper factory: ``hook(args, kwargs, result)`` after each call."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(args, kwargs, result)
                return result
            return wrapper
        return make

    def counted(self, name: str, amount=lambda args, result: 1):
        return self.after(lambda args, kwargs, result: self.count(
            name, amount(args, result)))

    def _timed_backward(self, fn, name: str, hook=None):
        def backward(g):
            idx = self.open(name)
            try:
                result = fn(g)
            finally:
                self.close(idx)
            if hook is not None:
                hook()
            return result
        return backward

    # ---------------------------------------------------------- patching --

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced name where the program looks it up."""
        import grhd.autodiff as ad
        import grhd.autodiff.engine as engine
        import grhd.autodiff.gradcheck as gradcheck
        import grhd.autodiff.nn as nn
        import grhd.cli as cli
        import grhd.dataset as dataset
        import grhd.metrics as metrics
        import grhd.model as model
        import grhd.synth as synth

        for cmd in ("synth", "train", "eval", "embed", "gradcheck"):
            self.patch(cli, f"cmd_{cmd}", self.timed(f"cli.{cmd}"))

        # synth: cli.cmd_synth -> write_corpus -> synth_generate
        self.patch(cli, "write_corpus", self.timed("synth.write_corpus"))
        self.patch(synth, "synth_generate", self.counted(
            "synth.clips", lambda args, result: len(result)))

        # dataset: cli looks up load_corpus_dir; it looks up load_wav.
        self.patch(cli, "load_corpus_dir",
                   self.timed("dataset.load_corpus_dir"))
        self.patch(dataset, "load_wav", self.counted("dataset.wavs_read"))

        # model + dsp: prepare_clips is imported by name into three modules.
        def prepared(args, kwargs, result):
            self.count("model.prepared_clips", len(result.clips))
        for owner in (model, cli, metrics):
            self.patch(owner, "prepare_clips",
                       self.timed("model.prepare_clips", prepared))
        self.patch(model, "log_mel", self.timed("dsp.log_mel"))
        self.patch(model, "standardize", self.timed("dsp.standardize"))
        self.patch(cli, "train", self.timed("model.train"))
        self.patch(cli, "embed", self.timed("model.embed"))
        self.patch(metrics, "embed", self.timed("model.embed"))
        self.patch(metrics, "section_logits",
                   self.timed("model.section_logits"))
        self.patch(model, "grhd_loss", self.timed("model.loss"))
        self.patch(model.GrhdModel, "forward", self.timed("model.forward"))

        def eval_clips(args, kwargs, result):
            train = kwargs.get("train", args[3] if len(args) > 3 else False)
            if not train:
                self.count("model.eval_clip_forwards", args[1].shape[0])
        self.patch(model.GrhdModel, "backbone_forward",
                   self.after(eval_clips))

        def register(args, kwargs, result):
            for name, layer in _model_layers(args[0]):
                self._layer_names[layer] = name
        # Name the layers once __init__ has built them.
        self.patch(model.GrhdModel, "__init__", self.after(register))

        # nn layers: class-level __call__, named per instance.
        for cls in (nn.Conv1d, nn.Conv2d, nn.Dense, nn.BatchNorm2d):
            self.patch(cls, "__call__", self._layer_call)

        # engine: graph-node capture, backward pass, conv2d.
        def capture(fn):
            def init(t, *args, **kwargs):
                fn(t, *args, **kwargs)
                created = self._created
                if created is not None:
                    created.append(t)
            return init
        self.patch(engine.Tensor, "__init__", capture)
        self.patch(engine.Tensor, "backward", self.timed("engine.backward"))
        for owner in (engine, nn, gradcheck):
            self.patch(owner, "conv2d", self._conv2d)

        # optim: model looks adam_step up on the autodiff package.
        self.patch(ad, "adam_step", self.timed("optim.adam"))

        # metrics
        self.patch(metrics, "score_nls", self.timed("metrics.score"))
        self.patch(metrics, "score_knn", self.timed("metrics.score"))
        for owner in (metrics, cli):
            self.patch(owner, "build_report",
                       self.timed("metrics.build_report"))
        self.patch(metrics, "auc", self.counted("metrics.auc_calls"))
        self.patch(metrics, "pauc", self.timed("metrics.pauc"))

        # checkpoint
        def file_bytes(args, kwargs, result):
            self.count("checkpoint.bytes", Path(args[0]).stat().st_size)
        self.patch(cli, "load_checkpoint",
                   self.timed("checkpoint.load", file_bytes))
        self.patch(cli, "save_checkpoint",
                   self.timed("checkpoint.save", file_bytes))

        # gradcheck: cli imports all three checks by name.
        self.patch(cli, "run_suite", self.timed("gradcheck.suite"))
        self.patch(cli, "grl_twin_check", self.timed("gradcheck.twin"))
        self.patch(cli, "model_gradcheck", self.timed("gradcheck.network"))

    def _layer_call(self, fn):
        def call(layer, *args, **kwargs):
            name = self._layer_names.get(layer)
            if name is None:
                return fn(layer, *args, **kwargs)
            outer, self._created = self._created, []
            created = self._created
            idx = self.open(f"nn.{name}.fwd")
            try:
                out = fn(layer, *args, **kwargs)
            finally:
                self.close(idx)
                self._created = outer
            bwd = f"nn.{name}.bwd"
            for node in created:
                if node._backward is not None:
                    node._backward = self._timed_backward(node._backward, bwd)
            return out
        return call

    def _conv2d(self, fn):
        def conv2d(*args, **kwargs):
            idx = self.open("engine.conv2d")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            x, w = args[0], args[1]
            n, co, ho, wo = out.data.shape
            _, ci, kh, kw = w.data.shape
            gemm = 2.0 * n * co * ci * kh * kw * ho * wo
            self.count("engine.conv2d_calls")
            self.count("engine.conv_flop", gemm)
            self.count("engine.im2col_bytes",
                       n * ci * kh * kw * ho * wo * x.data.itemsize)

            def backward_flops():
                # dW and dcols are one GEMM each, both the forward's size.
                self.count("engine.conv_flop", 2 * gemm)
            out._backward = self._timed_backward(
                out._backward, "engine.conv2d.bwd", backward_flops)
            return out
        return conv2d

    # ------------------------------------------------------------ output --

    def snapshot(self) -> dict:
        """Spans as parallel columns, plus the counters."""
        return {"names": list(self.names), "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "counts": dict(self.counts)}

    def write(self, path: Path) -> None:
        write_trace(self.snapshot(), path)


def merge(snaps: list[dict]) -> dict:
    """One snapshot from those of several processes, spans in order."""
    ids: dict[str, int] = {}
    out = {"name": [], "parent": [], "start": [], "end": [], "counts": {}}
    for snap in snaps:
        remap = [ids.setdefault(name, len(ids)) for name in snap["names"]]
        base = len(out["name"])
        out["name"] += [remap[n] for n in snap["name"]]
        out["parent"] += [p + base if p >= 0 else -1 for p in snap["parent"]]
        out["start"] += snap["start"]
        out["end"] += snap["end"]
        for name, amount in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + amount
    return {"names": list(ids), **out}


def write_trace(snap: dict, path: Path) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(snap, fh, separators=(",", ":"))


def read_trace(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)
