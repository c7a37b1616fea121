"""Save and load fitted models as JSON.

The file carries a format_version, the input dimension, the activation
and its normalization scope, the partition breakpoints, and one entry
per cell (fusion weights plus either the solved [c, gamma] or the
constant fallback mean). Floats are written with shortest round-trip
decimal encoding, so a load followed by a save reproduces the model
bit for bit. Loading is strict and all-or-nothing: unknown keys,
missing fields, wrong shapes, non-finite numbers (JSON's NaN and
Infinity literals) or violated invariants raise with the offending
field named, and no partially built model escapes. Files are
written compact, without indentation or spaces; the loader reads any
JSON layout.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._version import __version__
from .activation import ActivationKind
from .ioutil import atomic_write_text
from .model import LocalPairNet, PairNetModel, scope_boxes
from .partition import Partition

__all__ = [
    "FORMAT_VERSION",
    "ModelFormatError",
    "ModelVersionError",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1

_TOP_KEYS = {
    "format_version", "library_version", "n", "activation", "activation_scope",
    "partition_edges", "locals", "provenance",
}
_LOCAL_KEYS = {"index", "alphas", "c", "gamma", "fallback_mean"}


class ModelFormatError(ValueError):
    """The file is not a valid model file; the message names the field."""


class ModelVersionError(ModelFormatError):
    """The file's format_version is not supported."""


def _float_list(arr, field: str) -> list[float]:
    values = [float(v) for v in np.asarray(arr, dtype=np.float64)]
    if not all(np.isfinite(values)):
        raise ValueError(f"{field} contains non-finite values: {values}")
    return values


def _jsonable(value, field: str):
    """Coerce provenance values to plain JSON types, or refuse."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v, field) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, field) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v, f"{field}.{k}") for k, v in value.items()}
    raise ValueError(f"{field}: cannot serialize {type(value).__name__} to JSON")


def _local_entry(index: int, local: LocalPairNet) -> dict:
    entry = {"index": index, "alphas": _float_list(local.alphas, f"locals[{index}].alphas")}
    if local.fallback_mean is not None:
        if not np.isfinite(local.fallback_mean):
            raise ValueError(f"locals[{index}].fallback_mean is non-finite")
        entry["fallback_mean"] = float(local.fallback_mean)
    else:
        entry["c"] = _float_list(local.c, f"locals[{index}].c")
        entry["gamma"] = _float_list(local.gamma, f"locals[{index}].gamma")
    return entry


def save_model(model: PairNetModel, path) -> None:
    """Write a model to a JSON file (atomically)."""
    activation = {"tag": model.locals[0].activation.tag}
    if activation["tag"] == "sigmoid":
        activation["steepness"] = float(model.locals[0].activation.steepness)
    doc = {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "n": model.n,
        "activation": activation,
        "activation_scope": model.activation_scope,
        "partition_edges": [list(e) for e in model.partition.edges],
        "locals": [_local_entry(j, loc) for j, loc in enumerate(model.locals)],
        "provenance": _jsonable(model.provenance, "provenance"),
    }
    atomic_write_text(path, json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n")


def _require(doc: dict, key: str, path):
    if key not in doc:
        raise ModelFormatError(f"{path}: missing required key {key!r}")
    return doc[key]


def _as_int(value, field: str, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{path}: {field} must be an integer, got {value!r}")
    return value


def _as_float(value, field: str, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{path}: {field} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ModelFormatError(f"{path}: {field} must be finite, got {value!r}")
    return number


def _as_float_list(value, field: str, path) -> list[float]:
    if not isinstance(value, list):
        raise ModelFormatError(f"{path}: {field} must be a list of numbers, got {value!r}")
    return [_as_float(v, f"{field}[{i}]", path) for i, v in enumerate(value)]


def _parse_activation(raw, path) -> ActivationKind:
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: activation must be an object, got {raw!r}")
    tag = _require(raw, "tag", path)
    allowed = {"tag", "steepness"} if tag == "sigmoid" else {"tag"}
    for key in raw:
        if key not in allowed:
            raise ModelFormatError(f"{path}: unknown activation key {key!r}")
    try:
        if tag == "sigmoid" and "steepness" in raw:
            return ActivationKind(tag, _as_float(raw["steepness"], "activation.steepness", path))
        return ActivationKind(tag)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: activation: {exc}") from None


def _parse_local(raw, j: int, box, activation: ActivationKind, n: int, path) -> LocalPairNet:
    field = f"locals[{j}]"
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: {field} must be an object, got {raw!r}")
    for key in raw:
        if key not in _LOCAL_KEYS:
            raise ModelFormatError(f"{path}: unknown key {field}.{key}")
    if _as_int(_require(raw, "index", path), f"{field}.index", path) != j:
        raise ModelFormatError(
            f"{path}: {field}.index is {raw['index']}, expected {j} (flat order)"
        )
    alphas = _as_float_list(_require(raw, "alphas", path), f"{field}.alphas", path)
    fallback = None
    if "fallback_mean" in raw:
        if "c" in raw or "gamma" in raw:
            raise ModelFormatError(
                f"{path}: {field} carries both fallback_mean and solved parameters"
            )
        fallback = _as_float(raw["fallback_mean"], f"{field}.fallback_mean", path)
        c = gamma = [0.0] * 2**n
    else:
        c = _as_float_list(_require(raw, "c", path), f"{field}.c", path)
        gamma = _as_float_list(_require(raw, "gamma", path), f"{field}.gamma", path)
    try:
        return LocalPairNet(
            n=n, alphas=np.asarray(alphas), c=np.asarray(c), gamma=np.asarray(gamma),
            subspace=box, activation=activation, fallback_mean=fallback,
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {field}: {exc}") from None


def load_model(path) -> PairNetModel:
    """Read a model file written by save_model.

    Raises ModelVersionError for an unsupported format_version and
    ModelFormatError (naming the field) for anything else wrong.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: top level must be an object, got {type(doc).__name__}")

    version = _require(doc, "format_version", path)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ModelFormatError(f"{path}: format_version must be an integer, got {version!r}")
    if version != FORMAT_VERSION:
        raise ModelVersionError(
            f"{path}: format_version {version} is unsupported (this reader handles "
            f"{FORMAT_VERSION})"
        )
    for key in doc:
        if key not in _TOP_KEYS:
            raise ModelFormatError(f"{path}: unknown top-level key {key!r}")
    # library_version records which code wrote the file; any string is fine.
    if "library_version" in doc and not isinstance(doc["library_version"], str):
        raise ModelFormatError(
            f"{path}: library_version must be a string, got {doc['library_version']!r}"
        )

    n = _as_int(_require(doc, "n", path), "n", path)
    activation = _parse_activation(_require(doc, "activation", path), path)
    scope = _require(doc, "activation_scope", path)
    if scope not in ("subspace", "domain"):
        raise ModelFormatError(f"{path}: unknown activation_scope {scope!r}")

    raw_edges = _require(doc, "partition_edges", path)
    if not isinstance(raw_edges, list) or len(raw_edges) != n:
        raise ModelFormatError(
            f"{path}: partition_edges must be a list of {n} breakpoint lists"
        )
    try:
        partition = Partition(tuple(
            tuple(_as_float_list(e, f"partition_edges[{i}]", path)) for i, e in enumerate(raw_edges)
        ))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: partition_edges: {exc}") from None

    raw_locals = _require(doc, "locals", path)
    if not isinstance(raw_locals, list):
        raise ModelFormatError(f"{path}: locals must be a list")
    if len(raw_locals) != partition.size:
        raise ModelFormatError(
            f"{path}: {len(raw_locals)} locals for a partition of {partition.size} cells"
        )
    locals_ = tuple(
        _parse_local(raw, j, box, activation, n, path)
        for j, (raw, box) in enumerate(zip(raw_locals, scope_boxes(partition, scope)))
    )

    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ModelFormatError(f"{path}: provenance must be an object")

    try:
        return PairNetModel(
            partition=partition, locals=locals_, activation_scope=scope,
            provenance=dict(provenance),
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
