"""Flat key-value config files and the merged run configuration.

Config files are plain text: one `key = value` per line, `#` comments and
blank lines ignored.  Unknown keys are fatal, never silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import InvalidConfig, IoError


def parse_kv_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such config file: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise InvalidConfig(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def coerce_fields(cls, mapping: dict[str, str], what: str) -> dict:
    """Parse raw config strings by the annotated types of dataclass `cls`.

    A tuple field takes a comma list and an optional field its inner type.
    An unknown key, or a value that does not parse, raises InvalidConfig
    naming the key and the value.
    """
    types = get_type_hints(cls)
    out = {}
    for key, raw in mapping.items():
        if key not in types:
            raise InvalidConfig(f"unknown {what} key: {key}")
        kind = types[key]
        if get_origin(kind) is tuple:
            out[key] = tuple(p.strip() for p in raw.split(",") if p.strip())
            continue
        # An optional field, `X | None`, parses as X.
        kind = next((t for t in get_args(kind) if t is not type(None)), kind)
        try:
            out[key] = kind(raw)
        except ValueError:
            raise InvalidConfig(
                f"{what} key {key}: {raw!r} is not {kind.__name__}") from None
    return out


@dataclass
class RunConfig:
    """Merged view of config file plus CLI flags for train/eval commands."""

    frame_size: int = 1024
    hop: int = 512
    num_mels: int = 128
    lr: float = 0.001
    epochs: int = 150
    batch_size: int = 64
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    gamma_f: float = 2.0
    lambda_gain: float = 10.0
    eta_min: float = 0.0
    precision: str = "f32"
    scorer: str = "nls"
    p: float = 0.1
    knn_k: int = 1
    seed: int | None = None  # mandatory for train, enforced by the CLI

    @classmethod
    def from_file(cls, path: str | Path | None) -> "RunConfig":
        if path is None:
            return cls()
        return cls(**coerce_fields(cls, parse_kv_file(path), "config"))

    def apply_flags(self, args) -> "RunConfig":
        """Overlay non-None CLI flag values onto this config."""
        for f in fields(self):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(self, f.name, value)
        return self

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def echo_lines(self) -> list[str]:
        return [f"{k}={v}" for k, v in sorted(self.echo().items())]
