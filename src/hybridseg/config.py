"""Run configuration: INI files, flag overrides, resolved-config sidecars.

`SCHEMAS` is the one declaration of each subcommand's keys: the CLI makes
one flag per key from it, so adding a key here adds its flag. One INI file
can hold a section per subcommand. Resolution order for each key is:
built-in default, then the config-file section, then an explicit
command-line flag. An unreadable file, unknown key or unparsable value is a
`ConfigError`. Every run writes its fully resolved configuration (plus
a content hash) next to its outputs so the run can be reproduced
byte-for-byte from that file alone.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass(frozen=True)
class Key:
    name: str
    kind: str  # "int" | "float" | "str" | "bool"
    default: object = None
    required: bool = False


SCHEMAS: dict[str, tuple[Key, ...]] = {
    "synth": (
        Key("out", "str", required=True),
        Key("seed", "int", 0),
        Key("scene_size", "int", 64),
        Key("train_count", "int", 40),
        Key("val_count", "int", 10),
        Key("test_count", "int", 10),
        Key("toy_points", "int", 200),
        Key("force", "bool", False),
    ),
    "train": (
        Key("data", "str", required=True),
        Key("out", "str", required=True),
        Key("seed", "int", 0),
        Key("num_classes", "int", 3),
        Key("widths", "str", "16,32,32"),
        Key("kernel_size", "int", 3),
        Key("epochs", "int", 10),
        Key("batches_per_epoch", "int", 25),
        Key("batch_size", "int", 4),
        Key("crop_size", "int", 64),
        Key("paste_count", "int", 2),
        Key("patch_count", "int", 64),
        Key("beta", "float", 0.03),
        Key("lr", "float", 3e-3),
        Key("lr_end", "float", 0.0),
        Key("schedule", "str", "cosine"),
        Key("resume", "str", ""),
    ),
    "score": (
        Key("checkpoint", "str", required=True),
        Key("data", "str", required=True),
        Key("out", "str", required=True),
        Key("split", "str", "test"),
        Key("variants", "str", "hybrid,generative,discriminative"),
        Key("tau", "str", ""),  # empty = no fused open-set maps
    ),
    "eval": (
        Key("data", "str", required=True),
        Key("scores", "str", required=True),
        Key("out", "str", required=True),
        Key("split", "str", "test"),
        Key("num_classes", "int", 3),
        Key("variants", "str", "hybrid,generative,discriminative"),
        Key("target_tpr", "float", 0.95),
        Key("two_fold", "bool", True),
        Key("bins", "str", ""),  # e.g. "5,15,30,50" meters
    ),
    "toy": (
        Key("out", "str", required=True),
        Key("seeds", "str", "0,1,2,3,4"),
        Key("n_per_role", "int", 200),
        Key("widths", "str", "32,32"),
        Key("steps", "int", 300),
        Key("beta", "float", 0.2),
        Key("lr", "float", 0.01),
        Key("lr_end", "float", 1e-4),
    ),
}


def _parse(key: Key, raw: str):
    try:
        if key.kind == "int":
            return int(raw)
        if key.kind == "float":
            return float(raw)
        if key.kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key.name}: cannot parse {raw!r} as {key.kind}") from exc


def resolve(command: str, config_path: str | None,
            overrides: dict[str, object]) -> dict[str, object]:
    """Merge defaults, config-file section, and flag overrides for `command`."""
    schema = SCHEMAS[command]
    known = {k.name: k for k in schema}
    resolved = {k.name: k.default for k in schema}

    if config_path:
        parser = configparser.ConfigParser(interpolation=None)  # values are literal
        try:
            read = parser.read(config_path, encoding="utf-8")
            items = parser.items(command) if parser.has_section(command) else []
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"{config_path}: unreadable config: {exc}") from None
        if not read:
            raise ConfigError(f"config file not found: {config_path}")
        for name, raw in items:
            if name not in known:
                raise ConfigError(f"unknown key {name!r} in [{command}]")
            resolved[name] = _parse(known[name], raw)

    for name, value in overrides.items():
        if value is None:
            continue
        if name not in known:
            raise ConfigError(f"unknown override {name!r} for {command}")
        resolved[name] = _parse(known[name], str(value))

    missing = [k.name for k in schema if k.required and resolved[k.name] in (None, "")]
    if missing:
        raise ConfigError(f"{command}: missing required key(s): {', '.join(missing)}")
    return resolved


def canonical_text(command: str, resolved: dict[str, object]) -> str:
    lines = [f"[{command}]"]
    for name in sorted(resolved):
        lines.append(f"{name} = {resolved[name]}")
    return "\n".join(lines) + "\n"


def config_hash(command: str, resolved: dict[str, object]) -> str:
    return hashlib.sha256(canonical_text(command, resolved).encode("utf-8")).hexdigest()


def write_sidecar(out_dir, command: str, resolved: dict[str, object]) -> Path:
    """Write `config.resolved.ini`: the resolved section plus its hash.

    The file is itself a valid config for re-running the command, and carries
    no timestamps so reruns produce identical bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = canonical_text(command, resolved)
    text += f"\n[provenance]\nconfig_hash = {config_hash(command, resolved)}\n"
    path = out_dir / "config.resolved.ini"
    path.write_text(text, encoding="utf-8")
    return path


def parse_int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(raw).split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


def parse_float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in str(raw).split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {raw!r}") from exc
