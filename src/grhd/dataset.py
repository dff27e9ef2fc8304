"""Audio ingestion with DCASE-style filename metadata and attribute-group labeling.

Filenames follow the DCASE 2022 Task 2 convention::

    section_<NN>_<domain>_<split>_<condition>_<index>[_<key>_<value>]*.wav

Train files are also accepted without the condition segment (they are all
normal recordings by construction).  The machine type is not encoded in the
filename; it is taken from the nearest enclosing directory that is not a
split folder.
"""

from __future__ import annotations

import csv
import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.io import wavfile

from .errors import (
    ContractViolation,
    IoError,
    MalformedFilename,
    UnsupportedFormat,
)

MANIFEST_HEADER = ["filename", "machine_type", "section", "domain", "split",
                   "condition", "attr_group"]


class Domain(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


class Split(enum.Enum):
    TRAIN = "train"
    TEST = "test"


class Condition(enum.Enum):
    NORMAL = "normal"
    ANOMALY = "anomaly"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClipMetadata:
    """Hierarchical labels for one recording."""

    machine_type: str
    section_id: int
    domain: Domain
    split: Split
    condition: Condition
    attributes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.section_id < 0:
            raise MalformedFilename(f"negative section id {self.section_id}")

    def filename(self, index: int = 0) -> str:
        """Render the canonical filename for this metadata (inverse of parse)."""
        parts = [f"section_{self.section_id:02d}", self.domain.value,
                 self.split.value, self.condition.value, f"{index:04d}"]
        for key, value in self.attributes:
            parts.append(key)
            parts.append(value)
        return "_".join(parts) + ".wav"

    def attribute_key(self) -> str:
        """Canonical string identifying the attribute combination."""
        return "|".join(f"{k}={v}" for k, v in sorted(self.attributes))


@dataclass
class AudioClip:
    samples: np.ndarray  # float, amplitudes in [-1, 1]
    sample_rate: int
    metadata: ClipMetadata
    clip_id: str = ""


@dataclass(frozen=True)
class ClipRecord:
    """A listed WAV file, not yet decoded: its path and filename metadata."""

    path: Path
    metadata: ClipMetadata

    @property
    def clip_id(self) -> str:
        return self.path.stem

    def load(self) -> AudioClip:
        return load_wav(self.path, self.metadata)


_NAME_RE = re.compile(r"^section_(\d+)_(source|target)_(train|test)(?:_(.*))?$")
_SPLIT_DIRS = {"train", "test", "source", "target", "dev", "eval"}


def _machine_from_path(path: Path) -> str:
    for parent in path.parents:
        name = parent.name
        if not name or name == "/":
            break
        if name.lower() not in _SPLIT_DIRS:
            return name
    return "unknown"


def _parse_attr_tail(tail: str) -> tuple[tuple[str, str], ...]:
    if not tail:
        return ()
    parts = tail.split("_")
    if len(parts) % 2 != 0:
        return (("raw", tail),)
    return tuple((parts[i], parts[i + 1]) for i in range(0, len(parts), 2))


def parse_clip_metadata(filename: str | Path) -> ClipMetadata:
    """Parse DCASE-style filename metadata.

    Accepts a bare filename or a full path; with a path, the machine type is
    taken from the nearest ancestor directory that is not a split folder.
    """
    path = Path(filename)
    stem = path.stem
    match = _NAME_RE.match(stem)
    if match is None:
        raise MalformedFilename(
            f"{stem!r}: expected section_<NN>_<domain>_<split>_...")
    section_id = int(match.group(1))
    domain = Domain(match.group(2))
    split = Split(match.group(3))
    rest = (match.group(4) or "").split("_") if match.group(4) else []

    if rest and rest[0] in ("normal", "anomaly"):
        condition = Condition(rest[0])
        rest = rest[1:]
    elif split is Split.TRAIN:
        # DCASE training recordings are normal by construction.
        condition = Condition.NORMAL
    else:
        raise MalformedFilename(
            f"{stem!r}: test clip without a condition segment")

    if not rest or not rest[0].isdigit():
        raise MalformedFilename(f"{stem!r}: missing clip index segment")
    rest = rest[1:]

    if split is Split.TRAIN and condition is Condition.ANOMALY:
        raise ContractViolation(f"{stem!r}: anomalous clip in the train split")

    return ClipMetadata(
        machine_type=_machine_from_path(path),
        section_id=section_id,
        domain=domain,
        split=split,
        condition=condition,
        attributes=_parse_attr_tail("_".join(rest)),
    )


def load_wav(path: str | Path,
             metadata: ClipMetadata | None = None) -> AudioClip:
    """Load a mono PCM16 or float32 WAV file, normalized to [-1, 1].

    Stereo files and unknown encodings are rejected rather than down-mixed.
    The clip's labels are ``metadata`` when given (already parsed from this
    path), else parsed from the filename.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such file: {path}")
    try:
        sample_rate, data = wavfile.read(str(path))
    except ValueError as exc:
        raise UnsupportedFormat(f"{path}: {exc}") from None
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from None
    if data.ndim != 1:
        raise UnsupportedFormat(
            f"{path}: expected mono, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedFormat(f"{path}: unsupported sample dtype {data.dtype}")
    if samples.size == 0:
        raise UnsupportedFormat(f"{path}: empty audio")
    if metadata is None:
        metadata = parse_clip_metadata(path)
    return AudioClip(samples=samples, sample_rate=int(sample_rate),
                     metadata=metadata, clip_id=path.stem)


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write samples in [-1, 1] as PCM16, clamping anything outside."""
    clipped = np.clip(samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype(np.int16)
    wavfile.write(str(path), sample_rate, pcm)


@dataclass
class AttributeGroupTable:
    """Per-section mapping from attribute combination to dense group index."""

    groups: dict[int, dict[str, int]] = field(default_factory=dict)
    counts: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def sections(self) -> list[int]:
        return sorted(self.groups)

    @property
    def max_groups(self) -> int:
        """Size of the per-section dense label space (classifier width)."""
        return max(len(g) for g in self.groups.values())

    def label_counts(self) -> np.ndarray:
        """Clip counts per dense group index, summed across sections."""
        out = np.zeros(self.max_groups, dtype=np.int64)
        for sec in self.sections:
            for idx, count in self.counts[sec].items():
                out[idx] += count
        return out

    def group_index(self, meta: ClipMetadata) -> int:
        return self.groups[meta.section_id][meta.attribute_key()]

    def to_dict(self) -> dict:
        return {
            "groups": {str(s): dict(g) for s, g in self.groups.items()},
            "counts": {str(s): {str(i): c for i, c in cs.items()}
                       for s, cs in self.counts.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttributeGroupTable":
        groups = {int(s): {k: int(v) for k, v in g.items()}
                  for s, g in payload["groups"].items()}
        counts = {int(s): {int(i): int(c) for i, c in cs.items()}
                  for s, cs in payload["counts"].items()}
        return cls(groups=groups, counts=counts)


def build_attribute_groups(clips: Sequence[ClipMetadata]) -> AttributeGroupTable:
    """Assign dense attribute-group indices per section.

    Combinations are sorted lexicographically by their canonical string before
    index assignment, so the table is independent of input order.  Clips
    without attributes form their own per-section group (empty canonical
    string, which sorts first).
    """
    if not clips:
        raise ContractViolation("cannot build attribute groups from no clips")
    per_section: dict[int, dict[str, int]] = {}
    for meta in clips:
        per_section.setdefault(meta.section_id, {})
        key = meta.attribute_key()
        per_section[meta.section_id][key] = \
            per_section[meta.section_id].get(key, 0) + 1
    table = AttributeGroupTable()
    for section_id, combos in per_section.items():
        ordered = sorted(combos)
        table.groups[section_id] = {key: i for i, key in enumerate(ordered)}
        table.counts[section_id] = {i: combos[key]
                                    for i, key in enumerate(ordered)}
    return table


def write_manifest(path: str | Path, clips: Iterable[AudioClip],
                   table: AttributeGroupTable) -> None:
    """Write the corpus manifest CSV (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for clip in clips:
            m = clip.metadata
            writer.writerow([
                clip.clip_id + ".wav", m.machine_type, m.section_id,
                m.domain.value, m.split.value, m.condition.value,
                table.group_index(m),
            ])


def load_corpus_dir(data_dir: str | Path, machine_type: str | None = None,
                    split: Split | None = None) -> list[ClipRecord]:
    """List every WAV under a directory tree, optionally filtered by machine
    and split, in path order.

    Every filename is parsed, once, so a malformed name anywhere under the
    root is an error.  Nothing is decoded here: each record carries its
    metadata to `ClipRecord.load`.
    """
    root = Path(data_dir)
    if not root.is_dir():
        raise IoError(f"not a directory: {root}")
    records = []
    for path in sorted(root.rglob("*.wav")):
        meta = parse_clip_metadata(path)
        if (machine_type is None or meta.machine_type == machine_type) and \
                (split is None or meta.split is split):
            records.append(ClipRecord(path, meta))
    return records
