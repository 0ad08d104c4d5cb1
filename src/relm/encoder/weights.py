"""Encoder weight container, random initialization and JSON persistence.

The file layout is:

    {"config": {...}, "layers": [[{"shape": [r, c], "data": [...]}, ...], ...]}

with ``data`` holding row-major float values.  Python's JSON writer emits
shortest round-trip float literals, so save followed by load reproduces
every weight bitwise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..loading import InputError, convert, convert_fields, read_json, write_file
from .model import EncoderConfig


class FormatError(InputError, ValueError):
    """Raised for unreadable or structurally wrong weight files."""


class ShapeError(InputError, ValueError):
    """Raised when declared shapes disagree with data or the layer chain."""


@dataclass
class GnnWeights:
    """Per-layer, per-hop weight matrices plus the generating config."""

    config: EncoderConfig
    layers: list[list[np.ndarray]]

    def __post_init__(self) -> None:
        cfg = self.config
        if len(self.layers) != cfg.num_layers:
            raise ShapeError(
                f"expected {cfg.num_layers} layers, got {len(self.layers)}"
            )
        for layer, (in_dim, out_dim) in enumerate(cfg.layer_dims()):
            hops = self.layers[layer]
            if len(hops) != cfg.hops_per_layer + 1:
                raise ShapeError(
                    f"layer {layer} needs {cfg.hops_per_layer + 1} hop matrices, "
                    f"got {len(hops)}"
                )
            for k, w in enumerate(hops):
                if w.shape != (in_dim, out_dim):
                    raise ShapeError(
                        f"layer {layer} hop {k} has shape {w.shape}, "
                        f"expected {(in_dim, out_dim)}"
                    )

    def copy(self) -> "GnnWeights":
        return GnnWeights(
            config=self.config,
            layers=[[w.copy() for w in hops] for hops in self.layers],
        )

    def fingerprint(self) -> str:
        """Stable hash of config plus weight bytes, for index staleness checks."""
        digest = hashlib.sha256()
        digest.update(json.dumps(asdict(self.config), sort_keys=True).encode())
        for hops in self.layers:
            for w in hops:
                digest.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
        return digest.hexdigest()


def random_init(config: EncoderConfig, seed: int) -> GnnWeights:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out)), per hop matrix."""
    rng = np.random.default_rng(seed)
    layers = []
    for in_dim, out_dim in config.layer_dims():
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        layers.append(
            [
                rng.uniform(-bound, bound, size=(in_dim, out_dim))
                for _ in range(config.hops_per_layer + 1)
            ]
        )
    return GnnWeights(config=config, layers=layers)


def _config_from_dict(data: dict) -> EncoderConfig:
    expected = {f.name for f in fields(EncoderConfig)}
    if not isinstance(data, dict) or set(data) != expected:
        raise FormatError(f"weight config must have exactly the keys {sorted(expected)}")
    values = convert_fields(data, EncoderConfig, "config.", FormatError)
    try:
        return EncoderConfig(**values)
    except ValueError as exc:
        raise FormatError(f"bad encoder config: {exc}") from exc


def save_weights(weights: GnnWeights, path: str | Path) -> None:
    payload = {
        "config": asdict(weights.config),
        "layers": [
            [
                {"shape": list(w.shape), "data": [float(v) for v in w.ravel()]}
                for w in hops
            ]
            for hops in weights.layers
        ],
    }
    write_file(path, json.dumps(payload, indent=2) + "\n", FormatError)


def load_weights(path: str | Path) -> GnnWeights:
    payload = read_json(path, FormatError)
    if not isinstance(payload, dict) or set(payload) != {"config", "layers"}:
        raise FormatError("weight file must have exactly 'config' and 'layers'")
    config = _config_from_dict(payload["config"])
    layers = []
    for layer_idx, hops in enumerate(convert(payload["layers"], list, "layers", FormatError)):
        matrices = []
        for hop_idx, entry in enumerate(convert(hops, list, f"layer {layer_idx}", FormatError)):
            where = f"layer {layer_idx} hop {hop_idx}"
            if not isinstance(entry, dict) or set(entry) != {"shape", "data"}:
                raise FormatError(f"{where} must have 'shape' and 'data'")
            shape = convert(entry["shape"], tuple[int, ...], f"{where} shape", FormatError)
            data = convert(entry["data"], tuple[float, ...], f"{where} data", FormatError)
            if len(shape) != 2 or min(shape) < 1:
                raise FormatError(f"{where} shape must be two positive ints")
            if len(data) != shape[0] * shape[1]:
                raise ShapeError(f"{where} declares shape {shape}, carries {len(data)} values")
            try:
                matrix = np.array(data, dtype=np.float64).reshape(shape)
            except OverflowError as exc:  # an int past float range
                raise FormatError(f"{where} data must be finite numbers: {exc}") from exc
            if not np.isfinite(matrix).all():
                raise FormatError(f"{where} data must be finite numbers")
            matrices.append(matrix)
        layers.append(matrices)
    return GnnWeights(config=config, layers=layers)
