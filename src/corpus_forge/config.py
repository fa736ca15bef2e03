"""Run configuration: key = value file, environment overrides, config hash.

The config file is a flat TOML-style key/value list (``#`` comments, one
``key = value`` per line, each key set at most once). Any key can be
overridden through environment variables with a ``CORPUS_FORGE_`` prefix.
The config hash, stamped into every output file, covers processing
parameters only, never I/O locations, so identical runs into different
directories stay byte-comparable.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .manifest import numbered_lines

ENV_PREFIX = "CORPUS_FORGE_"

# keys excluded from the config hash: locations, not semantics
_UNHASHED = {"input_dir", "output_dir"}


class ConfigError(ValueError):
    """Invalid configuration: bad syntax, type, or out-of-range value."""


@dataclass
class PipelineConfig:
    input_dir: str = "input"
    output_dir: str = "release"
    language: str = "en"
    seed: int = 17
    orthography: str = ""  # empty: bundled file for the language
    stopwords: str = ""  # empty: bundled list for the language
    min_segment_ms: int = 10_000
    max_segment_ms: int = 20_000
    keep_residual: bool = False
    shard_size: int = 1250
    shard_stride: int = 1000
    wer_threshold: float = 0.40
    rare_wordform_threshold: int = 3
    dev_test_speakers_per_gender: int = 1
    train_threshold_s: float = 1200.0
    dev_test_cap_s: float = 2700.0
    hardness_percentile: float = 0.0  # 0 disables the hardness pre-filter
    hardness_reference: str = ""  # file of reference WERs, one per line
    limited_speakers_per_gender: int = 15
    decontam_threshold: float = 0.01
    decontam_count_tokens: bool = False
    lm_orders: tuple[int, ...] = (3, 5)
    oov_context: str = "break"

    def validate(self) -> None:
        if self.min_segment_ms <= 0 or self.min_segment_ms >= self.max_segment_ms:
            raise ConfigError("need 0 < min_segment_ms < max_segment_ms")
        if not 0 < self.shard_stride <= self.shard_size:
            raise ConfigError("need 0 < shard_stride <= shard_size")
        if not 0.0 <= self.wer_threshold <= 1.0:
            raise ConfigError("wer_threshold must be in [0, 1]")
        if self.dev_test_speakers_per_gender < 1:
            raise ConfigError("dev_test_speakers_per_gender must be >= 1")
        if self.limited_speakers_per_gender < 1:
            raise ConfigError("limited_speakers_per_gender must be >= 1")
        if not (self.train_threshold_s >= 0 and self.dev_test_cap_s > 0):  # NaN fails too
            raise ConfigError("duration thresholds must be positive numbers")
        if not 0.0 <= self.hardness_percentile < 1.0:
            raise ConfigError("hardness_percentile must be in [0, 1)")
        if self.hardness_percentile > 0 and not self.hardness_reference:
            raise ConfigError("hardness_percentile > 0 needs a hardness_reference file")
        if not 0.0 <= self.decontam_threshold <= 1.0:
            raise ConfigError("decontam_threshold must be in [0, 1]")
        if self.rare_wordform_threshold < 1:
            raise ConfigError("rare_wordform_threshold must be >= 1")
        if not self.lm_orders or any(o < 1 for o in self.lm_orders):
            raise ConfigError("lm_orders must be positive integers")
        if repeated := sorted({o for o in self.lm_orders if self.lm_orders.count(o) > 1}):
            raise ConfigError(f"lm_orders repeats order {repeated[0]}")
        if self.oov_context not in ("break", "keep"):
            raise ConfigError("oov_context must be 'break' or 'keep'")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path, env: dict | None = None) -> "PipelineConfig":
        values: dict[str, str] = {}
        for lineno, line in numbered_lines(path):
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in values:
                raise ConfigError(f"{path}:{lineno}: {key} is set twice")
            values[key] = value.strip('"')
        return cls.from_mapping(values, env=env)

    @classmethod
    def from_mapping(cls, values: dict[str, str], env: dict | None = None) -> "PipelineConfig":
        env = os.environ if env is None else env
        known = {f.name: f for f in fields(cls)}
        merged = dict(values)
        for f in known.values():
            env_key = ENV_PREFIX + f.name.upper()
            if env_key in env:
                merged[f.name] = env[env_key]
        kwargs = {}
        for key, raw in merged.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, raw, known[key].type)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    # -- provenance --------------------------------------------------------

    def hash_lines(self) -> list[str]:
        out = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in _UNHASHED:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out.append(f"{f.name}={value}")
        return out

    def config_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.hash_lines()).encode("utf-8"))
        return digest.hexdigest()[:16]

    def stage_seed(self, stage: str) -> int:
        """Per-stage seed derived from the top-level seed: the derived seed
        of "<seed>/<stage>"."""
        return derived_seed(f"{self.seed}/{stage}")


def derived_seed(key: str) -> int:
    """The seed of every rng the package makes: the first 8 bytes, read
    big-endian, of the sha256 of ``key`` (Python's str hash is randomized
    per process)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def _coerce(key: str, raw, annotation):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    ann = str(annotation)
    try:
        if "bool" in ann:
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if "tuple" in ann:
            return tuple(int(p.strip()) for p in text.split(",") if p.strip())
        if "int" in ann:
            return int(text)
        if "float" in ann:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc
