"""End-to-end command surface: synth, train, eval, embed, gradcheck."""

import hashlib
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import grhd
from grhd.checkpoint import MAGIC, VERSION
from grhd.cli import main

SYNTH_CFG = """
# desk-size corpus for the command tests
machines = toycar
sections_per_machine = 2
attr_groups = 2
source_count = 6
target_count = 2
test_normal_count = 2
test_anomaly_count = 2
duration = 0.25
seed = 4
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    data = root / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    return root, cfg, data


@pytest.fixture(scope="module")
def trained(workspace):
    root, _, data = workspace
    ckpt = root / "model.ckpt"
    code = main(["train", "--data", str(data), "--machine", "toycar",
                 "--out", str(ckpt), "--seed", "1", "--epochs", "5",
                 "--batch-size", "8"])
    assert code == 0
    return root, data, ckpt


def test_synth_writes_wavs_and_manifest(workspace):
    _, _, data = workspace
    wavs = sorted((data / "toycar").glob("*.wav"))
    # 2 sections x (6 source + 2 target train + 2x2 normal + 2x2 anomaly test)
    assert len(wavs) == 2 * (6 + 2 + 4 + 4)
    assert (data / "manifest.csv").exists()


def test_synth_manifest_deterministic(workspace, tmp_path):
    _, cfg, data = workspace
    again = tmp_path / "again"
    assert main(["synth", "--config", str(cfg), "--out", str(again)]) == 0
    assert (again / "manifest.csv").read_bytes() == \
        (data / "manifest.csv").read_bytes()


def test_train_echoes_config(trained, capsys):
    root, data, _ = trained
    out2 = root / "echo.ckpt"
    assert main(["train", "--data", str(data), "--machine", "toycar",
                 "--out", str(out2), "--seed", "2", "--epochs", "1",
                 "--batch-size", "8"]) == 0
    text = capsys.readouterr().out
    for expected in ("config: frame_size=1024", "config: hop=512",
                     "config: num_mels=128", "config: lr=0.001",
                     "config: epochs=1", "config: seed=2"):
        assert expected in text
    assert "checkpoint:" in text and "final epoch 1:" in text


def test_default_epoch_budget():
    from grhd.config import RunConfig

    run = RunConfig()
    assert (run.epochs, run.lr, run.batch_size) == (150, 0.001, 64)
    assert (run.frame_size, run.hop, run.num_mels) == (1024, 512, 128)


def test_train_writes_loss_log(trained):
    root, _, ckpt = trained
    log = ckpt.with_suffix(".loss.csv")
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,lr,lambda,l_rev,l_sec,l_att,l_total"
    assert len(lines) == 6  # header + one row per epoch
    assert lines[1].split(",")[0] == "1"
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 7
        assert all(np.isfinite(float(c)) for c in cells[1:])


def test_train_rejects_all_zero_weights(trained, capsys):
    root, data, _ = trained
    code = main(["train", "--data", str(data), "--machine", "toycar",
                 "--out", str(root / "zero.ckpt"), "--seed", "1",
                 "--epochs", "1", "--alpha", "0", "--beta", "0",
                 "--gamma", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_fatal(trained, capsys):
    root, data, _ = trained
    bad = root / "bad.cfg"
    bad.write_text("learning_rate = 0.1\n")
    code = main(["train", "--data", str(data), "--machine", "toycar",
                 "--config", str(bad), "--out", str(root / "bad.ckpt"),
                 "--seed", "1"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_train_unknown_precision_fails_before_decoding(trained, capsys,
                                                      monkeypatch):
    from grhd import dataset

    root, data, _ = trained
    cfg = root / "f16.cfg"
    cfg.write_text("precision = f16\n")
    reads = []
    read = dataset.wavfile.read

    def counting(path, *args, **kwargs):
        reads.append(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(dataset.wavfile, "read", counting)
    code = main(["train", "--data", str(data), "--machine", "toycar",
                 "--config", str(cfg), "--out", str(root / "f16.ckpt"),
                 "--seed", "1", "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'f16'" in err
    assert reads == []
    assert not (root / "f16.ckpt").exists()


@pytest.mark.parametrize("command,text,key,value", [
    ("train", "epochs = abc\n", "epochs", "'abc'"),
    ("synth", "seed = 1.5\n", "seed", "'1.5'"),
])
def test_unparsable_config_value_is_a_typed_error(trained, capsys, command,
                                                  text, key, value):
    root, data, _ = trained
    cfg = root / f"bad_{command}.cfg"
    cfg.write_text(text)
    out = root / f"bad_{command}.out"
    argv = {"train": ["train", "--data", str(data), "--machine", "toycar",
                      "--seed", "1"],
            "synth": ["synth"]}[command]
    code = main(argv + ["--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key in err and value in err
    assert not out.exists()


@pytest.mark.parametrize("k", [-1, 0])
def test_eval_rejects_knn_k_below_one_before_decoding(trained, capsys,
                                                      monkeypatch, k):
    from grhd import dataset

    root, data, ckpt = trained
    cfg = root / f"knn_{k}.cfg"
    cfg.write_text(f"scorer = knn\nknn_k = {k}\n")
    reads = []
    read = dataset.wavfile.read

    def counting(path, *args, **kwargs):
        reads.append(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(dataset.wavfile, "read", counting)
    report = root / f"knn_{k}.csv"
    code = main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--config", str(cfg), "--out", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "knn_k" in err
    assert reads == []
    assert not report.exists()


def test_train_unknown_machine_fails(trained, capsys):
    root, data, _ = trained
    code = main(["train", "--data", str(data), "--machine", "gearbox",
                 "--out", str(root / "none.ckpt"), "--seed", "1",
                 "--epochs", "1"])
    assert code == 1


def test_eval_writes_report(trained, capsys):
    root, data, ckpt = trained
    report = root / "report.csv"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(report)]) == 0
    text = capsys.readouterr().out
    assert "totals:" in text and "hauc=" in text
    rows = report.read_text().splitlines()
    assert rows[0] == "machine,section,domain,metric,value"
    assert any(r.startswith("ALL,ALL,ALL,hauc,") for r in rows)


def test_eval_p_one(trained):
    root, data, ckpt = trained
    report = root / "report_p1.csv"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--p", "1.0", "--out", str(report)]) == 0
    # at p=1 the pooled pAUC rows must equal full AUC over both domains
    assert report.exists()


def test_eval_corrupted_checkpoint_fails(trained, capsys):
    root, data, ckpt = trained
    broken = root / "broken.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 3] ^= 0x55
    broken.write_bytes(bytes(blob))
    code = main(["eval", "--ckpt", str(broken), "--data", str(data),
                 "--out", str(root / "r.csv")])
    assert code == 1
    assert "checksum" in capsys.readouterr().err.lower()


def test_eval_malformed_checkpoint_body_fails_cleanly(trained, capsys):
    # Valid magic, version and checksum around an empty body: a `{}` header
    # and zero tensors.
    root, data, _ = trained
    header = b"{}"
    body = MAGIC + struct.pack("<II", VERSION, len(header)) + header + \
        struct.pack("<I", 0)
    empty = root / "empty.ckpt"
    empty.write_bytes(body + hashlib.sha256(body).digest())
    code = main(["eval", "--ckpt", str(empty), "--data", str(data),
                 "--out", str(root / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "malformed checkpoint body" in err


def test_embed_rows_and_determinism(trained):
    root, data, ckpt = trained
    out_a, out_b = root / "emb_a.csv", root / "emb_b.csv"
    assert main(["embed", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out_a)]) == 0
    assert main(["embed", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    n_clips = len(list((data / "toycar").glob("*.wav")))
    assert len(lines) == n_clips + 1
    header = lines[0].split(",")
    assert header[:5] == ["clip", "machine", "section", "domain", "condition"]
    assert any(h.startswith("z_att_") for h in header)


def test_embed_parses_each_wav_once(trained, monkeypatch):
    from grhd import dataset

    root, data, ckpt = trained
    parsed = Counter()
    parse = dataset.parse_clip_metadata

    def counting(path):
        parsed[str(path)] += 1
        return parse(path)

    monkeypatch.setattr(dataset, "parse_clip_metadata", counting)
    assert main(["embed", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(root / "emb_parsed.csv")]) == 0
    wavs = {str(p) for p in data.rglob("*.wav")}
    assert set(parsed) == wavs
    assert max(parsed.values()) == 1


def test_embed_groups_cluster_in_attribute_space(trained):
    """Same-group training clips are closer in z_att than cross-group ones."""
    root, data, ckpt = trained
    out = root / "emb_a.csv"
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    att_cols = [i for i, h in enumerate(header) if h.startswith("z_att_")]
    rows = [line.split(",") for line in lines[1:]]
    by_group = {}
    for cells in rows:
        if "train" not in cells[0]:
            continue
        group = cells[0].split("_")[-3]  # spd value encodes the group
        vec = np.array([float(cells[i]) for i in att_cols])
        by_group.setdefault(group, []).append(vec / np.linalg.norm(vec))
    groups = list(by_group.values())
    assert len(groups) == 2

    def mean_cos(a, b):
        return float(np.mean([x @ y for x in a for y in b]))

    within = 0.5 * (mean_cos(groups[0], groups[0]) +
                    mean_cos(groups[1], groups[1]))
    across = mean_cos(groups[0], groups[1])
    assert within >= across - 0.05  # no anti-clustering after brief training


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert "OVERALL PASS" in text
    assert "grl_twin_rule" in text
    assert "assembled_network" in text


def test_gradcheck_fault_injection_fails(capsys):
    assert main(["gradcheck", "--seed", "0", "--fault", "sign_flip"]) == 1
    assert "OVERALL FAIL" in capsys.readouterr().out


def run_module(args, cwd, **env):
    """`python -m grhd ARGS` in a fresh interpreter that imports this grhd."""
    src = str(Path(grhd.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, "-m", "grhd", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=600)


def test_python_m_grhd_runs_the_cli(tmp_path):
    proc = run_module(["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: grhd")
    for command in ("synth", "train", "eval", "embed", "gradcheck"):
        assert command in proc.stdout


def test_checkpoint_independent_of_blas_thread_count(workspace, tmp_path):
    _, _, data = workspace
    digests = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"threads{threads}.ckpt"
        proc = run_module(["train", "--data", str(data), "--machine",
                           "toycar", "--out", str(ckpt), "--seed", "3",
                           "--epochs", "1"], tmp_path,
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
