"""Versioned binary checkpoint container.

Byte layout (all integers little-endian):

    magic       8 bytes  b"GRHDCKPT"
    version     u32      currently 1
    header_len  u32
    header      UTF-8 JSON: model/dsp/train configuration, section list,
                attribute-group table, class weights metadata
    n_tensors   u32
    per tensor:
        name_len u16, name UTF-8
        dtype    u8   (0 = float32, 1 = float64, 2 = int64, 3 = uint8)
        ndim     u8, dims u32 * ndim
        data     raw little-endian bytes
    checksum    32 bytes  SHA-256 over everything above

Tensor bytes are stored exactly as held in memory, so a load/save round
trip reproduces every parameter bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import AttributeGroupTable
from .dsp import SpectrogramConfig, StandardStats
from .errors import (
    ChecksumError,
    InvalidConfig,
    IoError,
    MalformedCheckpoint,
    VersionMismatch,
)
from .model import GrhdModel, ModelConfig

MAGIC = b"GRHDCKPT"
VERSION = 1

_DTYPE_TAGS = {np.dtype("float32"): 0, np.dtype("float64"): 1,
               np.dtype("int64"): 2, np.dtype("uint8"): 3}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    dsp_cfg: SpectrogramConfig
    sections: list[int]
    table: AttributeGroupTable
    stats: StandardStats
    class_weights: np.ndarray
    train_echo: dict
    tensors: dict[str, np.ndarray]

    def build_model(self, seed: int = 0) -> GrhdModel:
        """Instantiate the model and restore every tensor bit-exactly."""
        model = GrhdModel(self.model_cfg, seed=seed)
        for name, tensor in model.parameters():
            tensor.data = self._tensor("param." + name, tensor.data).copy()
        for name, arr in model.state_arrays():
            arr[...] = self._tensor("state." + name, arr)
        return model

    def _tensor(self, key: str, like: np.ndarray) -> np.ndarray:
        if key not in self.tensors:
            raise InvalidConfig(f"checkpoint missing tensor {key}")
        stored = self.tensors[key]
        if stored.shape != like.shape or stored.dtype != like.dtype:
            raise MalformedCheckpoint(
                f"checkpoint tensor {key} is {stored.dtype}{stored.shape}, "
                f"the model needs {like.dtype}{like.shape}")
        return stored


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    dtype = np.dtype(arr.dtype)
    if dtype not in _DTYPE_TAGS:
        raise InvalidConfig(f"unsupported checkpoint dtype {dtype}")
    data = np.ascontiguousarray(arr)
    if data.dtype.byteorder == ">":
        data = data.astype(data.dtype.newbyteorder("<"))
    name_b = name.encode()
    out = struct.pack("<H", len(name_b)) + name_b
    out += struct.pack("<BB", _DTYPE_TAGS[dtype], data.ndim)
    out += struct.pack(f"<{data.ndim}I", *data.shape)
    out += data.tobytes()
    return out


def save_checkpoint(path: str | Path, model: GrhdModel,
                    dsp_cfg: SpectrogramConfig, sections: list[int],
                    table: AttributeGroupTable, stats: StandardStats,
                    class_weights: np.ndarray, train_echo: dict) -> None:
    header = {
        "model_cfg": asdict(model.cfg),
        "dsp_cfg": asdict(dsp_cfg),
        "sections": list(sections),
        "table": table.to_dict(),
        "train_echo": train_echo,
    }
    header_b = json.dumps(header, sort_keys=True).encode()

    tensors: list[tuple[str, np.ndarray]] = []
    for name, tensor in model.parameters():
        tensors.append(("param." + name, tensor.data))
    for name, arr in model.state_arrays():
        tensors.append(("state." + name, arr))
    for name, arr in stats.to_arrays().items():
        tensors.append(("stats." + name, arr))
    tensors.append(("class_weights", np.asarray(class_weights)))

    blob = MAGIC + struct.pack("<II", VERSION, len(header_b)) + header_b
    blob += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        blob += _pack_tensor(name, arr)
    blob += hashlib.sha256(blob).digest()
    Path(path).write_bytes(blob)


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from None
    if len(blob) < len(MAGIC) + 8 + 32 or not blob.startswith(MAGIC):
        raise ChecksumError(f"{path}: not a checkpoint file")
    body, checksum = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise ChecksumError(f"{path}: checksum mismatch, file corrupted")
    version, header_len = struct.unpack_from("<II", body, len(MAGIC))
    if version != VERSION:
        raise VersionMismatch(
            f"{path}: checkpoint version {version}, expected {VERSION}")
    try:
        return _parse_body(body, len(MAGIC) + 8, header_len)
    except (struct.error, KeyError, ValueError, TypeError,
            AttributeError) as exc:
        # A body that passed the checksum but does not parse was written
        # wrong, not damaged in transit.
        raise MalformedCheckpoint(
            f"{path}: malformed checkpoint body: "
            f"{type(exc).__name__}: {exc}") from None


def _parse_body(body: bytes, offset: int, header_len: int) -> Checkpoint:
    header = json.loads(body[offset:offset + header_len].decode())
    offset += header_len
    (n_tensors,) = struct.unpack_from("<I", body, offset)
    offset += 4

    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack_from("<H", body, offset)
        offset += 2
        name = body[offset:offset + name_len].decode()
        offset += name_len
        tag, ndim = struct.unpack_from("<BB", body, offset)
        offset += 2
        shape = struct.unpack_from(f"<{ndim}I", body, offset)
        offset += 4 * ndim
        dtype = _TAG_DTYPES[tag]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        arr = np.frombuffer(body, dtype=dtype, count=int(np.prod(
            shape, dtype=np.int64)), offset=offset).reshape(shape)
        offset += nbytes
        tensors[name] = arr.copy()
    if offset != len(body):
        raise ValueError(f"{len(body) - offset} bytes after the last tensor")

    stats = StandardStats.from_arrays({
        "mean": tensors["stats.mean"], "std": tensors["stats.std"],
        "degenerate": tensors["stats.degenerate"]})
    dsp_kwargs = dict(header["dsp_cfg"])
    model_kwargs = dict(header["model_cfg"])
    model_kwargs["conv_channels"] = tuple(model_kwargs["conv_channels"])
    return Checkpoint(
        model_cfg=ModelConfig(**model_kwargs),
        dsp_cfg=SpectrogramConfig(**dsp_kwargs),
        sections=[int(s) for s in header["sections"]],
        table=AttributeGroupTable.from_dict(header["table"]),
        stats=stats,
        class_weights=tensors["class_weights"],
        train_echo=dict(header["train_echo"]),
        tensors=tensors,
    )
