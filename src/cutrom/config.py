"""Run configuration: INI-style file with sections, strict key checking.

Defaults reproduce the reference experimental setup: box [-1.2, 1.2]^2 with
target mesh size 0.125, source 20, boundary datum 0.5 + x*y, Nitsche penalty
10, ghost coefficients (0.1, 0.001), 400 training / 30 test parameters drawn
uniformly from [1, 1.2]^2, energy tolerance 1e-6, and the mode sweep
{2, 4, 6, 8, 10, 15, 20, 25, 30, 40}.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace

from .geometry import GeometryError, ParameterPoint, require_inside_box


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    # geometry
    box_min: float = -1.2
    box_max: float = 1.2
    h_target: float = 0.125
    # physics
    f_const: float = 20.0
    g0: float = 0.5
    gx: float = 0.0
    gy: float = 0.0
    gxy: float = 1.0
    nitsche_lambda: float = 10.0
    gamma: tuple = (0.1, 0.001)
    # sampling
    n_train: int = 400
    n_test: int = 30
    seed: int = 0
    mu_min: float = 1.0
    mu_max: float = 1.2
    # tolerances
    eps_pod: float = 1e-6
    eps_deim_a: float = 1e-14
    eps_deim_f: float = 1e-14
    eps_safe: float = 1e-14
    c_inv: float = 1.0
    l_cap: int = 0  # 0 means "cap at n_train"
    # sweep
    n_list: tuple = (2, 4, 6, 8, 10, 15, 20, 25, 30, 40)
    fit_n_min_error: int = 5
    fit_n_min_tail: int = 2
    # paths
    artifact_dir: str = "artifacts"
    report_dir: str = "report"

    def validate(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (val if isinstance(val, tuple) else (val,))):
                raise ConfigError(f"{f.name} must be finite, got {val}")
        if not self.box_max > self.box_min:
            raise ConfigError("box_max must exceed box_min")
        if not self.h_target > 0:
            raise ConfigError("h_target must be positive")
        if not self.nitsche_lambda > 0:
            raise ConfigError("lambda must be positive")
        if len(self.gamma) < 1 or any(g < 0 for g in self.gamma):
            raise ConfigError("gamma coefficients must be non-negative")
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be at least 1")
        if not (0 < self.mu_min < self.mu_max):
            raise ConfigError("parameter box must satisfy 0 < mu_min < mu_max")
        try:
            require_inside_box(ParameterPoint(self.mu_max, self.mu_max), self.box)
        except GeometryError as exc:
            raise ConfigError(f"mu_max = {self.mu_max:g} is outside the model: {exc}") from exc
        for name in ("eps_pod", "eps_deim_a", "eps_deim_f", "eps_safe"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.c_inv > 0:
            raise ConfigError("c_inv must be positive")
        if self.l_cap < 0:
            raise ConfigError("l_cap must be non-negative")
        if len(self.n_list) < 1 or any(n < 1 for n in self.n_list):
            raise ConfigError("n_list entries must be positive")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list must be strictly increasing")
        if self.fit_n_min_error < 1 or self.fit_n_min_tail < 1:
            raise ConfigError("fit windows must be at least 1")
        return self

    @property
    def effective_l_cap(self) -> int:
        return self.l_cap if self.l_cap > 0 else self.n_train

    @property
    def g_coeffs(self) -> tuple:
        return (self.g0, self.gx, self.gy, self.gxy)

    @property
    def box(self):
        return ((self.box_min, self.box_max), (self.box_min, self.box_max))

    def canonical_text(self) -> str:
        """Deterministic flat serialization used for hashing and manifests."""
        lines = []
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                txt = ",".join(_fmt(x) for x in val)
            else:
                txt = _fmt(val)
            lines.append(f"{f.name} = {txt}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def with_seed(self, seed: int) -> "Config":
        return replace(self, seed=int(seed)).validate()


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# file section -> (key -> (config attribute, parser))
def _float(s):
    return float(s)


def _int(s):
    return int(s)


def _str(s):
    return s


def _float_list(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    return tuple(float(p) for p in parts)


def _int_list(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


_SCHEMA = {
    "geometry": {
        "box_min": ("box_min", _float),
        "box_max": ("box_max", _float),
        "h_target": ("h_target", _float),
    },
    "physics": {
        "f_const": ("f_const", _float),
        "g0": ("g0", _float),
        "gx": ("gx", _float),
        "gy": ("gy", _float),
        "gxy": ("gxy", _float),
        "lambda": ("nitsche_lambda", _float),
        "gamma": ("gamma", _float_list),
    },
    "sampling": {
        "n_train": ("n_train", _int),
        "n_test": ("n_test", _int),
        "seed": ("seed", _int),
        "mu_min": ("mu_min", _float),
        "mu_max": ("mu_max", _float),
    },
    "tolerances": {
        "eps_pod": ("eps_pod", _float),
        "eps_deim_a": ("eps_deim_a", _float),
        "eps_deim_f": ("eps_deim_f", _float),
        "eps_safe": ("eps_safe", _float),
        "c_inv": ("c_inv", _float),
        "l_cap": ("l_cap", _int),
    },
    "sweep": {
        "n_list": ("n_list", _int_list),
        "fit_n_min_error": ("fit_n_min_error", _int),
        "fit_n_min_tail": ("fit_n_min_tail", _int),
    },
    "paths": {
        "artifact_dir": ("artifact_dir", _str),
        "report_dir": ("report_dir", _str),
    },
}


def load_config(path: str) -> Config:
    """Parse and validate a config file; missing keys fall back to defaults,
    unknown sections or keys are rejected by name."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text)


def parse_config(text: str) -> Config:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            attr, conv = _SCHEMA[section][key]
            try:
                overrides[attr] = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return Config(**overrides).validate()
