"""Run manifests: the full effective configuration of a CLI run.

Every command writes one next to its outputs: a JSON document holding the
``command``, ``version``, ``seed`` and ``config`` of the run, the
``inputs`` and ``outputs`` it named, and its ``duration_seconds``.  Feeding
a manifest back via ``--config`` reruns the command with the same
configuration, so any deterministic command reproduces its outputs byte for
byte.
"""

from __future__ import annotations

from .errors import ValidationError, read_json, write_json

MANIFEST_FORMAT = "gatedfusion-manifest-v1"
_REQUIRED_KEYS = ("command", "version", "seed", "config")


def write_manifest(manifest: dict, path) -> None:
    write_json({"format": MANIFEST_FORMAT, **manifest}, path)


def load_manifest(path) -> dict:
    """The manifest at ``path``, once it holds every required key and its
    ``config`` is an object."""
    manifest = read_json(path, MANIFEST_FORMAT)
    for key in _REQUIRED_KEYS:
        if key not in manifest:
            raise ValidationError(f"{path}: manifest missing key {key!r}")
    if not isinstance(manifest["config"], dict):
        raise ValidationError(f"{path}: manifest config must be an object")
    return manifest
