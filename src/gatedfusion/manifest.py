"""Run manifests: the full effective configuration of a CLI run.

Every command writes one next to its outputs.  Feeding a manifest back via
``--config`` reruns the command with the same configuration, so any
deterministic command reproduces its outputs byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import ValidationError, read_json, write_json

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


def write_manifest(manifest: RunManifest, path) -> None:
    write_json({"format": MANIFEST_FORMAT, **asdict(manifest)}, path)


def load_manifest(path) -> RunManifest:
    obj = read_json(path, MANIFEST_FORMAT)
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
