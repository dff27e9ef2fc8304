"""Checkpoint container: bit-exact round trips, corruption, versioning."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grhd.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from grhd.errors import (
    ChecksumError,
    GrhdError,
    IoError,
    MalformedCheckpoint,
    VersionMismatch,
)
from grhd.model import TrainConfig, section_logits, train
from grhd.synth import SynthConfig, synth_generate


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(machines=("toycar",), sections_per_machine=2,
                      attr_groups=2, source_count=6, target_count=2,
                      test_normal_count=2, test_anomaly_count=2,
                      duration=0.2, seed=11)
    clips = synth_generate(cfg)
    train_clips = [c for c in clips if c.metadata.split.value == "train"]
    test_clips = [c for c in clips if c.metadata.split.value == "test"]
    result = train(train_clips, TrainConfig(epochs=2, batch_size=4, seed=1))
    return result, test_clips


def _save(result, path):
    save_checkpoint(path, result.model, result.dsp_cfg, result.sections,
                    result.table, result.stats, result.class_weights,
                    train_echo={"epochs": result.train_cfg.epochs,
                                "seed": result.train_cfg.seed})


def test_round_trip_parameters_bit_exact(trained, tmp_path):
    result, _ = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    ckpt = load_checkpoint(path)
    restored = ckpt.build_model()
    for (name, orig), (name2, back) in zip(result.model.parameters(),
                                           restored.parameters()):
        assert name == name2
        np.testing.assert_array_equal(orig.data, back.data)
        assert orig.data.dtype == back.data.dtype
    for (name, orig), (_, back) in zip(result.model.state_arrays(),
                                       restored.state_arrays()):
        np.testing.assert_array_equal(orig, back), name


def test_round_trip_metadata(trained, tmp_path):
    result, _ = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    ckpt = load_checkpoint(path)
    assert ckpt.model_cfg == result.model.cfg
    assert ckpt.dsp_cfg == result.dsp_cfg
    assert ckpt.sections == result.sections
    assert ckpt.table.groups == result.table.groups
    np.testing.assert_array_equal(ckpt.class_weights, result.class_weights)
    np.testing.assert_array_equal(ckpt.stats.mean, result.stats.mean)
    assert ckpt.train_echo["epochs"] == 2


def test_round_trip_scores_bit_exact(trained, tmp_path):
    """A reloaded model scores the test corpus identically to the original."""
    result, test_clips = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    restored = load_checkpoint(path).build_model()
    np.testing.assert_array_equal(
        section_logits(result.model, test_clips, result.dsp_cfg,
                       result.stats),
        section_logits(restored, test_clips, result.dsp_cfg, result.stats))


def test_save_is_byte_deterministic(trained, tmp_path):
    result, _ = trained
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    _save(result, a)
    _save(result, b)
    assert a.read_bytes() == b.read_bytes()


def test_corrupted_payload_rejected(trained, tmp_path):
    result, _ = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_truncated_file_rejected(trained, tmp_path):
    result, _ = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_not_a_checkpoint_rejected(tmp_path):
    path = tmp_path / "noise.ckpt"
    path.write_bytes(b"definitely not a checkpoint" * 4)
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_version_mismatch_rejected(trained, tmp_path):
    result, _ = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    blob = bytearray(path.read_bytes())
    # bump the version field, then restamp the trailing checksum so the
    # version check (not the integrity check) is what fires
    struct.pack_into("<I", blob, len(MAGIC), 999)
    blob[-32:] = hashlib.sha256(bytes(blob[:-32])).digest()
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def _stamped(body: bytes) -> bytes:
    """A body with a valid trailing checksum, so only parsing can fail."""
    return body + hashlib.sha256(body).digest()


def test_empty_body_is_malformed_not_key_error(tmp_path):
    header = b"{}"
    body = MAGIC + struct.pack("<II", VERSION, len(header)) + header + \
        struct.pack("<I", 0)
    path = tmp_path / "empty.ckpt"
    path.write_bytes(_stamped(body))
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(path)


def test_trailing_bytes_after_tensors_rejected(trained, tmp_path):
    result, _ = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    path.write_bytes(_stamped(path.read_bytes()[:-32] + b"\0"))
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(path)


def test_tensor_shape_mismatch_rejected_at_build(trained, tmp_path):
    result, _ = trained
    path = tmp_path / "model.ckpt"
    _save(result, path)
    ckpt = load_checkpoint(path)
    ckpt.tensors["param.c_sec.b"] = np.zeros(99, dtype=np.float32)
    with pytest.raises(MalformedCheckpoint):
        ckpt.build_model()


@pytest.fixture(scope="module")
def saved_body(trained, tmp_path_factory):
    result, _ = trained
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    _save(result, path)
    return path.read_bytes()[:-32], path.parent


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_body_raises_typed_error(saved_body, data):
    body, folder = saved_body
    cut = data.draw(st.integers(len(MAGIC) + 8, len(body) - 1))
    path = folder / "truncated.ckpt"
    path.write_bytes(_stamped(body[:cut]))
    with pytest.raises(GrhdError):
        load_checkpoint(path).build_model()
