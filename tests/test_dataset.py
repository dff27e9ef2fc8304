"""Filename parsing, WAV ingestion, attribute grouping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.io import wavfile

from grhd import dataset
from grhd.dataset import (
    AttributeGroupTable,
    ClipMetadata,
    Condition,
    Domain,
    Split,
    build_attribute_groups,
    load_corpus_dir,
    load_wav,
    parse_clip_metadata,
    write_wav,
)
from grhd.errors import (
    ContractViolation,
    MalformedFilename,
    UnsupportedFormat,
)


def test_parse_full_attribute_tail():
    meta = parse_clip_metadata("section_00_source_train_normal_0001_spd_28V_car_A1.wav")
    assert meta.section_id == 0
    assert meta.domain is Domain.SOURCE
    assert meta.split is Split.TRAIN
    assert meta.condition is Condition.NORMAL
    assert meta.attributes == (("spd", "28V"), ("car", "A1"))


def test_parse_target_test_anomaly():
    meta = parse_clip_metadata("section_02_target_test_anomaly_0005_noise_1.wav")
    assert meta.section_id == 2
    assert meta.domain is Domain.TARGET
    assert meta.split is Split.TEST
    assert meta.condition is Condition.ANOMALY
    assert meta.attributes == (("noise", "1"),)


def test_parse_garbage_rejected():
    with pytest.raises(MalformedFilename):
        parse_clip_metadata("garbage.wav")


def test_parse_odd_attribute_tail_kept_raw():
    meta = parse_clip_metadata("section_01_source_test_normal_0000_oddtail.wav")
    assert meta.attributes == (("raw", "oddtail"),)


def test_parse_train_anomaly_rejected():
    with pytest.raises(ContractViolation):
        parse_clip_metadata("section_00_source_train_anomaly_0001.wav")


def test_parse_machine_from_parent_dir(tmp_path):
    p = tmp_path / "toycar" / "train" / "section_00_source_train_normal_0000.wav"
    meta = parse_clip_metadata(p)
    assert meta.machine_type == "toycar"


@given(section=st.integers(0, 99),
       domain=st.sampled_from(list(Domain)),
       split=st.sampled_from(list(Split)),
       index=st.integers(0, 9999),
       attrs=st.lists(
           st.tuples(st.from_regex(r"[a-z]{1,6}", fullmatch=True),
                     st.from_regex(r"[A-Za-z0-9]{1,4}", fullmatch=True)),
           max_size=3))
def test_parse_format_round_trip(section, domain, split, index, attrs):
    condition = Condition.NORMAL if split is Split.TRAIN else Condition.ANOMALY
    meta = ClipMetadata(machine_type="m", section_id=section, domain=domain,
                       split=split, condition=condition,
                       attributes=tuple(attrs))
    parsed = parse_clip_metadata(meta.filename(index))
    assert parsed.section_id == meta.section_id
    assert parsed.domain is meta.domain
    assert parsed.split is meta.split
    assert parsed.condition is meta.condition
    assert parsed.attributes == meta.attributes


def test_pcm16_normalization(tmp_path):
    path = tmp_path / "section_00_source_test_normal_0000.wav"
    wavfile.write(str(path), 16000,
                  np.array([32767, 0, -32768], dtype=np.int16))
    clip = load_wav(path)
    assert clip.samples[0] == pytest.approx(32767 / 32768)
    assert clip.samples[1] == 0.0
    assert clip.samples[2] == pytest.approx(-1.0)


def test_float32_wav_passthrough(tmp_path):
    path = tmp_path / "section_00_source_test_normal_0000.wav"
    data = np.array([0.25, -0.5], dtype=np.float32)
    wavfile.write(str(path), 16000, data)
    clip = load_wav(path)
    np.testing.assert_array_equal(clip.samples, data)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "section_00_source_test_normal_0000.wav"
    wavfile.write(str(path), 16000, np.zeros((10, 2), dtype=np.int16))
    with pytest.raises(UnsupportedFormat):
        load_wav(path)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "section_00_source_test_normal_0000.wav"
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, 160)
    write_wav(path, samples, 16000)
    clip = load_wav(path)
    assert clip.sample_rate == 16000
    np.testing.assert_allclose(clip.samples, samples, atol=2 / 32768)


def _two_machine_corpus(root):
    for machine in ("toycar", "fan"):
        for split, cond in (("train", "normal"), ("test", "anomaly")):
            folder = root / machine / split
            folder.mkdir(parents=True, exist_ok=True)
            for i in range(3):
                name = f"section_00_source_{split}_{cond}_{i:04d}.wav"
                write_wav(folder / name, np.zeros(16), 16000)


def _count_decodes(monkeypatch):
    calls = []
    read = wavfile.read

    def counting(path, *args, **kwargs):
        calls.append(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(dataset.wavfile, "read", counting)
    return calls


def test_load_corpus_dir_decodes_only_the_requested_machine(tmp_path,
                                                             monkeypatch):
    _two_machine_corpus(tmp_path)
    calls = _count_decodes(monkeypatch)
    clips = load_corpus_dir(tmp_path, machine_type="fan")
    assert len(clips) == 6
    assert {c.metadata.machine_type for c in clips} == {"fan"}
    assert len(calls) == 6
    assert all(p.startswith(str(tmp_path / "fan")) for p in calls)


def test_load_corpus_dir_decodes_only_the_requested_split(tmp_path,
                                                           monkeypatch):
    _two_machine_corpus(tmp_path)
    calls = _count_decodes(monkeypatch)
    clips = load_corpus_dir(tmp_path, machine_type="toycar", split=Split.TEST)
    assert [c.clip_id for c in clips] == \
        [f"section_00_source_test_anomaly_{i:04d}" for i in range(3)]
    assert len(calls) == 3


def test_load_corpus_dir_without_machine_decodes_everything(tmp_path,
                                                            monkeypatch):
    _two_machine_corpus(tmp_path)
    calls = _count_decodes(monkeypatch)
    assert len(load_corpus_dir(tmp_path)) == 12
    assert len(calls) == 12


def test_load_corpus_dir_malformed_name_of_other_machine_rejected(
        tmp_path, monkeypatch):
    _two_machine_corpus(tmp_path)
    write_wav(tmp_path / "toycar" / "test" / "noise.wav", np.zeros(16), 16000)
    calls = _count_decodes(monkeypatch)
    with pytest.raises(MalformedFilename):
        load_corpus_dir(tmp_path, machine_type="fan")
    assert calls == []


def _meta(section, attrs, split=Split.TRAIN, domain=Domain.SOURCE,
          condition=Condition.NORMAL):
    return ClipMetadata(machine_type="toycar", section_id=section,
                        domain=domain, split=split, condition=condition,
                        attributes=attrs)


def test_identical_combination_single_group():
    table = build_attribute_groups([
        _meta(0, (("spd", "28V"),)), _meta(0, (("spd", "28V"),))])
    assert len(table.groups[0]) == 1
    assert table.counts[0][0] == 2


def test_distinct_combinations_lexicographic():
    table = build_attribute_groups([
        _meta(0, (("spd", "31V"),)), _meta(0, (("spd", "28V"),))])
    assert table.group_index(_meta(0, (("spd", "28V"),))) == 0
    assert table.group_index(_meta(0, (("spd", "31V"),))) == 1


def test_multi_attribute_combination_is_one_group():
    attrs = (("Spd", "28V"), ("Car", "A1"), ("Mic", "1"), ("Noise", "1"))
    table = build_attribute_groups([_meta(0, attrs)])
    assert len(table.groups[0]) == 1


def test_empty_attrs_form_their_own_group():
    table = build_attribute_groups([_meta(0, ()), _meta(0, (("a", "1"),))])
    assert len(table.groups[0]) == 2


@given(st.permutations(list(range(8))))
def test_table_permutation_invariant(order):
    metas = [_meta(i % 2, (("spd", f"{20 + i % 3}V"),)) for i in range(8)]
    base = build_attribute_groups(metas)
    shuffled = build_attribute_groups([metas[i] for i in order])
    assert base.groups == shuffled.groups
    assert base.counts == shuffled.counts


def test_label_counts_sum_across_sections():
    metas = [_meta(s, (("g", str(i % 2)),)) for s in (0, 1) for i in range(4)]
    table = build_attribute_groups(metas)
    assert table.max_groups == 2
    assert table.label_counts().tolist() == [4, 4]


def test_table_dict_round_trip():
    table = build_attribute_groups(
        [_meta(0, (("spd", "28V"),)), _meta(1, ())])
    clone = AttributeGroupTable.from_dict(table.to_dict())
    assert clone.groups == table.groups
    assert clone.counts == table.counts
