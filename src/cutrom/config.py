"""Run configuration: INI-style file with sections, strict key checking.

Defaults reproduce the reference experimental setup: box [-1.2, 1.2]^2 with
target mesh size 0.125, source 20, boundary datum 0.5 + x*y, Nitsche penalty
10, ghost-penalty coefficient 0.1, 400 training / 30 test parameters drawn
uniformly from [1, 1.2]^2, energy tolerance 1e-6, and the mode sweep
{2, 4, 6, 8, 10, 15, 20, 25, 30, 40}.

``Config.hash`` identifies the offline model a config builds: it covers every
field but the sweep grid, the test count, the fit windows and the paths
(``SWEEP_ONLY_FIELDS``).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields, replace

from .assembly import AssemblyError, physics_from_config
from .estimators import alpha_star
from .geometry import GeometryError, ParameterPoint, require_inside_box


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """Every setting of a run, grouped into file sections by ``_SECTIONS``."""

    box_min: float = -1.2
    box_max: float = 1.2
    h_target: float = 0.125
    f_const: float = 20.0
    g0: float = 0.5
    gx: float = 0.0
    gy: float = 0.0
    gxy: float = 1.0
    nitsche_lambda: float = 10.0
    gamma: float = 0.1
    n_train: int = 400
    n_test: int = 30
    seed: int = 0
    mu_min: float = 1.0
    mu_max: float = 1.2
    eps_pod: float = 1e-6
    eps_deim_a: float = 1e-14
    eps_deim_f: float = 1e-14
    eps_safe: float = 1e-14
    c_inv: float = 1.0
    n_list: tuple = (2, 4, 6, 8, 10, 15, 20, 25, 30, 40)
    fit_n_min_error: int = 5
    fit_n_min_tail: int = 2
    artifact_dir: str = "artifacts"
    report_dir: str = "report"

    def validate(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{f.name} must be finite, got {val}")
        if not self.box_max > self.box_min:
            raise ConfigError("box_max must exceed box_min")
        if not self.h_target > 0:
            raise ConfigError("h_target must be positive")
        try:
            physics_from_config(self)
        except AssemblyError as exc:
            raise ConfigError(str(exc)) from exc
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
        # the coercivity constant alpha* = min(1 - 2 c_inv^2 / nitsche_lambda, 1/2)
        # of the estimators' bound must be positive
        if not alpha_star(self.nitsche_lambda, self.c_inv) > 0:
            raise ConfigError(f"nitsche_lambda must exceed 2 c_inv^2 = {2 * self.c_inv ** 2:g}")
        if len(self.n_list) < 1 or any(n < 1 for n in self.n_list):
            raise ConfigError("n_list entries must be positive")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list must be strictly increasing")
        if self.fit_n_min_error < 1 or self.fit_n_min_tail < 1:
            raise ConfigError("fit windows must be at least 1")
        return self

    @property
    def g_coeffs(self) -> tuple:
        return (self.g0, self.gx, self.gy, self.gxy)

    @property
    def box(self):
        return ((self.box_min, self.box_max), (self.box_min, self.box_max))

    def hash(self) -> str:
        """Identity of the offline model: sha256 of every field outside
        ``SWEEP_ONLY_FIELDS``, one ``name = value`` line each."""
        text = "".join(f"{f.name} = {_fmt(getattr(self, f.name))}\n"
                       for f in fields(self) if f.name not in SWEEP_ONLY_FIELDS)
        return hashlib.sha256(text.encode()).hexdigest()

    def with_seed(self, seed: int) -> "Config":
        return replace(self, seed=int(seed)).validate()


# fields that leave the offline model alone: a sweep may change them against
# its model's config, and ``Config.hash`` leaves them out
SWEEP_ONLY_FIELDS = ("n_list", "n_test", "fit_n_min_error", "fit_n_min_tail",
                     "artifact_dir", "report_dir")

# config file section -> the fields it sets; a file key is its field's name,
# except ``lambda`` for ``nitsche_lambda``
_SECTIONS = {
    "geometry": ("box_min", "box_max", "h_target"),
    "physics": ("f_const", "g0", "gx", "gy", "gxy", "nitsche_lambda", "gamma"),
    "sampling": ("n_train", "n_test", "seed", "mu_min", "mu_max"),
    "tolerances": ("eps_pod", "eps_deim_a", "eps_deim_f", "eps_safe", "c_inv"),
    "sweep": ("n_list", "fit_n_min_error", "fit_n_min_tail"),
    "paths": ("artifact_dir", "report_dir"),
}
_FILE_KEY = {"nitsche_lambda": "lambda"}


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _parse(raw: str, default):
    """``raw`` read as the type of ``default``; a tuple is comma-separated."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(p) for p in raw.split(",") if p.strip())
    return type(default)(raw)


def load_config(path: str) -> Config:
    """Parse and validate a config file; missing keys fall back to defaults,
    unknown sections or keys are rejected by name."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text)


def parse_config(text: str) -> Config:
    # no header names the empty default section, so a [DEFAULT] section is
    # read as an unknown section, not applied inside every other one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    defaults = {f.name: f.default for f in fields(Config)}
    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        names = {_FILE_KEY.get(name, name): name for name in _SECTIONS[section]}
        for key, raw in parser.items(section):
            if key not in names:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                overrides[names[key]] = _parse(raw, defaults[names[key]])
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return Config(**overrides).validate()
