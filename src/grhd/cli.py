"""Command-line surface: synth, train, eval, embed, gradcheck."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .autodiff.gradcheck import grl_twin_check, run_suite
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_kv_file
from .dataset import Split, load_corpus_dir
from .dsp import SpectrogramConfig
from .errors import GrhdError, NoTrainingData
from .metrics import build_report, check_knn_k, evaluate
from .model import (
    LossWeights,
    TrainConfig,
    embed,
    loss_log_csv_rows,
    model_gradcheck,
    train,
)
# Not called here: perfbench's tracer wraps `prepare_clips` in every module
# that imports it, this one included.
from .model import prepare_clips  # noqa: F401
from .synth import SynthConfig, write_corpus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grhd",
        description="Hierarchical feature disentanglement for anomalous "
                    "sound detection: synthesize corpora, train, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--config", type=Path, default=None)
    p_synth.add_argument("--out", type=Path, required=True)
    p_synth.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="train one machine type")
    p_train.add_argument("--data", type=Path, required=True)
    p_train.add_argument("--machine", required=True)
    p_train.add_argument("--config", type=Path, default=None)
    p_train.add_argument("--out", type=Path, required=True)
    p_train.add_argument("--seed", type=int, required=True)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch-size", dest="batch_size", type=int,
                         default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--alpha", type=float, default=None)
    p_train.add_argument("--beta", type=float, default=None)
    p_train.add_argument("--gamma", type=float, default=None)
    p_train.add_argument("--precision", choices=("f32", "f64"), default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--ckpt", type=Path, required=True, action="append",
                        dest="ckpts")
    p_eval.add_argument("--data", type=Path, required=True)
    p_eval.add_argument("--config", type=Path, default=None)
    p_eval.add_argument("--scorer", choices=("nls", "knn"), default=None)
    p_eval.add_argument("--p", type=float, default=None)
    p_eval.add_argument("--out", type=Path, required=True)

    p_embed = sub.add_parser("embed", help="export pooled embeddings")
    p_embed.add_argument("--ckpt", type=Path, required=True)
    p_embed.add_argument("--data", type=Path, required=True)
    p_embed.add_argument("--out", type=Path, required=True)

    p_gc = sub.add_parser("gradcheck", help="finite-difference suite")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--fault", choices=("sign_flip",), default=None,
                      help="inject a deliberate fault (harness self-test)")
    return parser


def cmd_synth(args) -> int:
    overrides = parse_kv_file(args.config) if args.config else {}
    cfg = SynthConfig.from_mapping(overrides)
    if args.seed is not None:
        cfg.seed = args.seed
    manifest = write_corpus(cfg, args.out)
    print(f"wrote corpus to {args.out} (manifest: {manifest})")
    return 0


def _load_train_clips(data_dir: Path, machine: str):
    train_clips = load_corpus_dir(data_dir, machine_type=machine,
                                  split=Split.TRAIN)
    if not train_clips:
        raise NoTrainingData(
            f"no training clips for machine {machine!r} under {data_dir}")
    return train_clips


def cmd_train(args) -> int:
    run = RunConfig.from_file(args.config).apply_flags(args)
    weights = LossWeights(alpha=run.alpha, beta=run.beta, gamma=run.gamma)
    train_cfg = TrainConfig(
        epochs=run.epochs, batch_size=run.batch_size, lr=run.lr,
        eta_min=run.eta_min, weights=weights, lambda_gain=run.lambda_gain,
        gamma_f=run.gamma_f, seed=run.seed, precision=run.precision)
    dsp_cfg = SpectrogramConfig(frame_size=run.frame_size, hop=run.hop,
                                num_mels=run.num_mels)
    clips = _load_train_clips(args.data, args.machine)
    result = train(clips, train_cfg, dsp_cfg=dsp_cfg)

    echo = run.echo()
    echo["machine"] = args.machine
    save_checkpoint(args.out, result.model, dsp_cfg, result.sections,
                    result.table, result.stats, result.class_weights, echo)
    log_path = args.out.with_suffix(".loss.csv")
    log_path.write_text(
        "\n".join(loss_log_csv_rows(result.log, run.lr, run.eta_min,
                                    run.epochs)) + "\n")
    for line in run.echo_lines():
        print("config:", line)
    final = result.log[-1]
    print(f"final epoch {final.epoch}: l_rev={final.l_rev:.6f} "
          f"l_sec={final.l_sec:.6f} l_att={final.l_att:.6f} "
          f"l_total={final.l_total:.6f} lambda={final.lambda_used:.4f}")
    print(f"checkpoint: {args.out}")
    print(f"loss log: {log_path}")
    return 0


def cmd_eval(args) -> int:
    run = RunConfig.from_file(args.config).apply_flags(args)
    check_knn_k(run.knn_k)
    all_scored = []
    for ckpt_path in args.ckpts:
        ckpt = load_checkpoint(ckpt_path)
        machine = ckpt.train_echo.get("machine", "unknown")
        model = ckpt.build_model()
        # Only the knn scorer reads the train split (its reference bank).
        clips = load_corpus_dir(
            args.data, machine_type=machine,
            split=None if run.scorer == "knn" else Split.TEST)
        test_clips = [c for c in clips if c.metadata.split is Split.TEST]
        if not test_clips:
            raise NoTrainingData(
                f"no test clips for machine {machine!r} under {args.data}")
        bank = None
        if run.scorer == "knn":
            train_clips = [c for c in clips
                           if c.metadata.split is Split.TRAIN]
            bank = embed(model, train_clips, ckpt.dsp_cfg,
                         ckpt.stats)["z_att"]
        _, scored = evaluate(model, test_clips, ckpt.dsp_cfg, ckpt.stats,
                             ckpt.sections, scorer=run.scorer, p=run.p,
                             bank=bank, knn_k=run.knn_k)
        all_scored.extend(scored)
    report = build_report(all_scored, p=run.p)
    report.write_csv(args.out)
    totals = report.totals
    print("totals: " + " ".join(
        f"{k}={100 * totals[k]:.2f}" for k in ("auc_s", "auc_t", "pauc",
                                               "hauc") if k in totals))
    print(f"report: {args.out}")
    return 0


def cmd_embed(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    machine = ckpt.train_echo.get("machine", "unknown")
    model = ckpt.build_model()
    clips = load_corpus_dir(args.data, machine_type=machine)
    if not clips:
        raise NoTrainingData(f"no clips for machine {machine!r}")
    vectors = embed(model, clips, ckpt.dsp_cfg, ckpt.stats)
    header = ["clip", "machine", "section", "domain", "condition"]
    for kind in ("z_rev", "z_sec", "z_att"):
        header += [f"{kind}_{i}" for i in range(vectors[kind].shape[1])]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, clip in enumerate(clips):
            m = clip.metadata
            row = [clip.clip_id, m.machine_type, str(m.section_id),
                   m.domain.value, m.condition.value]
            for kind in ("z_rev", "z_sec", "z_att"):
                row += [repr(float(x)) for x in vectors[kind][i]]
            fh.write(",".join(row) + "\n")
    print(f"wrote {len(clips)} embedding rows to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_suite(seed=args.seed, fault=args.fault)
    print(report.summary())
    twin_err = grl_twin_check(seed=args.seed)
    twin_ok = twin_err < 1e-9
    print(f"{'PASS' if twin_ok else 'FAIL'} grl_twin_rule: "
          f"max_rel_err={twin_err:.3e} (tol 1e-09)")
    net_err = model_gradcheck(seed=args.seed)
    net_ok = net_err < 1e-6
    print(f"{'PASS' if net_ok else 'FAIL'} assembled_network: "
          f"max_rel_err={net_err:.3e} (tol 1e-06)")
    return 0 if (report.passed and twin_ok and net_ok) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
                "embed": cmd_embed, "gradcheck": cmd_gradcheck}
    try:
        return handlers[args.command](args)
    except GrhdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
