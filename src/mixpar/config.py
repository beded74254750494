"""Experiment configuration: flat key=value files or JSON documents."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from .analysis import ErrorNorms

__all__ = ["ExperimentConfig", "parse_config", "load_config",
           "ConfigParseError", "DEFAULT_THRESHOLDS"]

# fitted-rate floors per case; overridable from the config file
DEFAULT_THRESHOLDS = {
    "stokes": {"err_u_maxR": 0.9, "err_u_l2X": 0.9, "err_lambda_l2M": 0.9},
    "eddy2d": {"err_u_l2X": 0.9, "err_dtu": 0.9,
               "rel_E_pct": 0.8, "rel_H_pct": 0.8},
}

_CASES = ("stokes", "eddy2d")
_PATTERNS = ("right", "crossed")
# metrics a rate floor may name: the rooted columns of rates.csv that
# the case measures (Stokes writes the eddy field errors rel_E/rel_H as 0,
# and the exact eddy multiplier is 0, so its err_lambda_l2M is round-off)
_ROOTED = tuple(ErrorNorms().rooted())
_METRICS = {"stokes": tuple(m for m in _ROOTED if not m.startswith("rel_")),
            "eddy2d": tuple(m for m in _ROOTED if m != "err_lambda_l2M")}


class ConfigParseError(ValueError):
    """Config file is malformed or fails validation."""


@dataclass
class ExperimentConfig:
    case: str = "stokes"
    n: int = 4                 # base mesh subdivisions, doubled per level
    levels: int = 3
    T: float = 0.5
    steps: int = 4             # base time steps, doubled per level
    nu: float = 1.0
    sigma: float = 1.0
    eps: float = 1.0
    mu_mag: float = 1.0
    probes: bool = True
    xi: float = 1.0
    pattern: str = "right"
    out: str = "out"
    jobs: int = 1
    vtk_every: int = 0
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.case not in _CASES:
            raise ConfigParseError(f"case must be one of {_CASES}")
        for key in ("levels", "n", "steps", "jobs"):
            if getattr(self, key) < 1:
                raise ConfigParseError(f"{key} must be >= 1")
        for key in ("T", "nu", "sigma", "eps", "mu_mag"):
            val = getattr(self, key)
            if not (math.isfinite(val) and val > 0):
                raise ConfigParseError(f"{key} must be finite and positive")
        if not (math.isfinite(self.xi) and self.xi >= 0):
            raise ConfigParseError("xi must be finite and >= 0")
        if self.pattern not in _PATTERNS:
            raise ConfigParseError(f"pattern must be one of {_PATTERNS}")
        if self.vtk_every < 0:
            raise ConfigParseError("vtk_every must be >= 0")
        if self.case == "eddy2d" and self.n % 3 != 0:
            raise ConfigParseError(
                "eddy2d needs n divisible by 3 so the conductor "
                "corners land on the grid lattice"
            )
        self.thresholds = {**DEFAULT_THRESHOLDS[self.case], **self.thresholds}
        for key, val in self.thresholds.items():
            if key not in _METRICS[self.case]:
                raise ConfigParseError(
                    f"unknown threshold metric {key!r} for {self.case}")
            if not (0.0 < val <= 2.0):
                raise ConfigParseError(
                    f"threshold {key}={val} outside (0, 2]"
                )


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}

_FIELD_TYPES = {key: typ
                for key, typ in get_type_hints(ExperimentConfig).items()
                if key != "thresholds"}


def _coerce(key, raw, typ=None):
    """`raw` as a value of `typ` (by default the type of field `key`).

    Text arrives as str; JSON may also give a bool, a number or null.
    Either way a number is what float() reads, never a bool or null, and
    an int field takes only an integral one, so nothing is silently
    truncated: `n = 3.0` and `"n": 3.0` read as 3, `n = 2.7` is rejected.
    """
    typ = typ or _FIELD_TYPES.get(key)
    if typ is None:
        raise ConfigParseError(f"unknown config key {key!r}")
    if typ is bool and not isinstance(raw, bool):
        raw = _BOOL.get(str(raw).strip().lower(), raw)
    if typ in (bool, str) or isinstance(raw, bool):
        if type(raw) is typ:
            return raw
    else:
        try:
            value = float(raw)
            if typ is float or value.is_integer():
                return typ(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigParseError(f"bad value for {key}: {raw!r}")


def _read_json(text):
    """The (key, value) pairs of a JSON object and of its `thresholds`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigParseError(f"invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigParseError("JSON config must be an object")
    floors = doc.pop("thresholds", {})
    if not isinstance(floors, dict):
        raise ConfigParseError("thresholds must be an object")
    return doc.items(), floors.items()


def _read_text(text):
    """The (key, value) pairs of the `key = value` lines and of the
    `threshold.<metric> = value` lines, in file order."""
    fields, floors = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected key=value")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key.startswith("threshold."):
            floors.append((key.partition(".")[2], raw))
        else:
            fields.append((key, raw))
    return fields, floors


def parse_config(text):
    """Parse a JSON document or flat key=value text into a config."""
    text = text.strip()
    fields, floors = (_read_json if text.startswith("{") else _read_text)(text)
    # a repeated text key's last value counts, but each must be valid
    return ExperimentConfig(
        thresholds={k: _coerce(f"threshold.{k}", v, float) for k, v in floors},
        **{k: _coerce(k, v) for k, v in fields})


def load_config(path):
    path = Path(path)
    if not path.is_file():
        raise ConfigParseError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigParseError(f"cannot read {path}: {err}") from err
    return parse_config(text)
