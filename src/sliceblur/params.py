"""Filter parameter files.

Plain ``key = value`` text, one key per line; list values are
comma-separated.  Written by the optimizer, read by the filter CLI.

Keys: k, sigma0, error_model (qf | l2), breakpoints, constants, weights, e2.
The integers, k and the breakpoints, are plain ASCII digits; the
breakpoints strictly increase from 1 and fit in int64.  sigma0, the
constants and e2 are finite, and the weights, if given, are those of the
constants.  A bad value is refused with the file's name and the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import Partition, _increasing_ints, to_slices


@dataclass(frozen=True)
class FilterParams:
    partition: Partition
    sigma0: float
    error_model: str
    e2: float

    def __post_init__(self):
        _error_model(self.error_model)


def _error_model(text: str) -> str:
    if text not in ("qf", "l2"):
        raise ValueError(f"unknown error model: {text}")
    return text


def save_params(path, params: FilterParams):
    p = params.partition
    weights = to_slices(p).weights
    lines = [
        f"k = {p.k}",
        f"sigma0 = {params.sigma0!r}",
        f"error_model = {params.error_model}",
        "breakpoints = " + ", ".join(str(int(b)) for b in p.breakpoints),
        "constants = " + ", ".join(repr(float(c)) for c in p.constants),
        "weights = " + ", ".join(repr(float(w)) for w in weights),
        f"e2 = {params.e2!r}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _value(fields: dict, path, key: str, convert):
    """``convert(text)`` of the value of ``key``; a missing key or a value
    that does not convert raises ``ValueError`` naming the file and key."""
    if key not in fields:
        raise ValueError(f"{path}: missing parameter key {key!r}")
    try:
        return convert(fields[key])
    except ValueError:
        raise ValueError(f"{path}: bad value for {key}: {fields[key]!r}") from None


def _list(kind):
    return lambda text: [kind(v) for v in text.split(",")]


def _count(text: str) -> int:
    """A non-negative integer written in plain ASCII digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not plain digits: {text!r}")
    return int(text)


def _breakpoints(text: str) -> np.ndarray:
    return _increasing_ints(_list(_count)(text), 1, "breakpoints")


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {value}")
    return value


def _positive(text) -> float:
    value = _finite(text)
    if value <= 0:
        raise ValueError(f"not positive: {value}")
    return value


def load_params(path) -> FilterParams:
    fields = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    k = _value(fields, path, "k", _count)
    sigma0 = _value(fields, path, "sigma0", _positive)
    error_model = _value(fields, path, "error_model", _error_model)
    breakpoints = _value(fields, path, "breakpoints", _breakpoints)
    constants = _value(fields, path, "constants", _list(_finite))
    e2 = _value(fields, path, "e2", _finite)
    if len(breakpoints) != k or len(constants) != k:
        raise ValueError(f"{path}: k does not match parameter lengths")
    partition = Partition(breakpoints, constants)
    if "weights" in fields:
        stored = _value(fields, path, "weights", _list(float))
        if len(stored) != k or not np.allclose(stored, to_slices(partition).weights, atol=1e-9):
            raise ValueError(f"{path}: weights inconsistent with constants")
    return FilterParams(partition, sigma0, error_model, e2)
