"""Run manifests: the full effective configuration of a CLI run.

Every command writes one next to its outputs.  Feeding a manifest back via
``--config`` reruns the command with the same configuration, so any
deterministic command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import ValidationError, read_text, strict_json

MANIFEST_FORMAT = "gatedfusion-manifest-v1"


@dataclass
class RunManifest:
    command: str
    version: str
    seed: int | None
    config: dict
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    def to_json(self) -> str:
        obj = {"format": MANIFEST_FORMAT, **asdict(self)}
        return strict_json(obj, indent=1) + "\n"


def write_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(manifest.to_json())


def load_manifest(path) -> RunManifest:
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != MANIFEST_FORMAT:
        raise ValidationError(f"{path}: not a {MANIFEST_FORMAT} file")
    try:
        manifest = RunManifest(
            command=obj["command"],
            version=obj["version"],
            seed=obj["seed"],
            config=obj["config"],
            inputs=obj.get("inputs", {}),
            outputs=obj.get("outputs", {}),
            duration_seconds=obj.get("duration_seconds", 0.0),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: manifest missing key {exc}") from None
    if not isinstance(manifest.config, dict):
        raise ValidationError(f"{path}: manifest config must be an object")
    return manifest
