import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from cutrom.artifacts import FORMAT_VERSION
from cutrom.config import (
    _FILE_KEY,
    _SECTIONS,
    SWEEP_ONLY_FIELDS,
    Config,
    ConfigError,
    parse_config,
)

DEFAULTS = {f.name: f.default for f in fields(Config)}
# every key of the config file: (section, file key, config field)
FILE_KEYS = [(section, _FILE_KEY.get(name, name), name)
             for section, names in _SECTIONS.items() for name in names]


def test_empty_file_gives_paper_defaults():
    cfg = parse_config("")
    assert cfg.box_min == -1.2 and cfg.box_max == 1.2
    assert cfg.h_target == 0.125
    assert cfg.f_const == 20.0
    assert cfg.g_coeffs == (0.5, 0.0, 0.0, 1.0)
    assert cfg.nitsche_lambda == 10.0
    assert cfg.gamma == 0.1
    assert cfg.eps_safe == 1e-14
    assert cfg.n_train == 400
    assert cfg.n_test == 30
    assert cfg.eps_pod == 1e-6
    assert (cfg.mu_min, cfg.mu_max) == (1.0, 1.2)
    assert cfg.n_list == (2, 4, 6, 8, 10, 15, 20, 25, 30, 40)
    assert cfg.seed == 0


def test_negative_lambda_rejected():
    with pytest.raises(ConfigError):
        parse_config("[physics]\nlambda = -1\n")


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="lamda"):
        parse_config("[physics]\nlamda = 10\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="physic"):
        parse_config("[physic]\nlambda = 10\n")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nh_target = 0.06\n",
    "[DEFAULT]\nh_target = 0.06\n[geometry]\nbox_min = -1.2\n",
    "[geometry]\nbox_min = -1.2\n[DEFAULT]\nlambda = 20\n",
], ids=["alone", "before_a_section", "after_a_section"])
def test_default_section_rejected_by_name(text):
    # configparser would apply its keys inside every other section, or not at all
    with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
        parse_config(text)


@pytest.mark.parametrize("text", ["[sampling]\nseed = -1\n", None], ids=["file", "with_seed"])
def test_negative_seed_rejected_by_name(text):
    with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
        parse_config(text) if text else Config().with_seed(-1)


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("[sampling]\nn_train = many\n")


def test_non_increasing_sweep_rejected():
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nn_list = 2,4,4,8\n")


def test_overrides_parsed():
    cfg = parse_config(
        "[sampling]\nn_train = 12\nseed = 3\n"
        "[sweep]\nn_list = 1,2,3\n"
        "[physics]\ngamma = 0.2\n"
    )
    assert cfg.n_train == 12
    assert cfg.seed == 3
    assert cfg.n_list == (1, 2, 3)
    assert cfg.gamma == 0.2


def test_hash_sensitive_to_seed_and_stable():
    a = Config().validate()
    b = Config().validate()
    assert a.hash() == b.hash()
    assert a.hash() != a.with_seed(1).hash()
    assert a.with_seed(1).seed == 1


def test_tolerance_validation():
    with pytest.raises(ConfigError):
        Config(eps_pod=0.0).validate()
    with pytest.raises(ConfigError):
        Config(mu_min=0.0).validate()
    with pytest.raises(ConfigError):
        Config(n_test=0).validate()


def test_non_positive_coercivity_constant_rejected():
    # alpha* = min(1 - 2 c_inv^2 / lambda, 1/2) divides the combined bound:
    # it must be positive, so lambda must exceed 2 c_inv^2
    with pytest.raises(ConfigError, match=r"nitsche_lambda must exceed 2 c_inv\^2 = 18$"):
        Config(c_inv=3.0).validate()
    with pytest.raises(ConfigError, match="nitsche_lambda"):
        Config(nitsche_lambda=2.0).validate()
    with pytest.raises(ConfigError, match="nitsche_lambda"):
        parse_config("[physics]\nlambda = 1.5\n")
    assert Config(nitsche_lambda=2.5).validate().nitsche_lambda == 2.5


def test_parameter_box_reaching_the_background_box_rejected():
    # sqrt(mu_max) must stay below the half-width 1.2 of the default box
    with pytest.raises(ConfigError, match="mu_max"):
        parse_config("[sampling]\nmu_max = 2.0\n")
    with pytest.raises(ConfigError, match="mu_max"):
        Config(mu_max=1.44).validate()
    with pytest.raises(ConfigError, match="mu_max"):
        Config(box_min=-1.0, box_max=1.0, mu_max=1.1).validate()
    assert Config(mu_max=1.43).validate().mu_max == 1.43


# every float-valued key of the config file, with its config attribute
FLOAT_KEYS = [k for k in FILE_KEYS if isinstance(DEFAULTS[k[2]], float)]


def test_float_keys_cover_the_physics_and_tolerances():
    attrs = {attr for _, _, attr in FLOAT_KEYS}
    assert {"f_const", "g0", "gx", "gy", "gxy", "gamma", "nitsche_lambda", "h_target",
            "eps_pod", "eps_deim_a", "eps_deim_f", "eps_safe"} <= attrs


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key, attr", FLOAT_KEYS, ids=[k for _, k, _ in FLOAT_KEYS])
def test_non_finite_value_rejected_by_name(section, key, attr, value):
    with pytest.raises(ConfigError, match=f"^{attr} must be finite"):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_sections_set_every_field_once():
    assert sorted(name for _, _, name in FILE_KEYS) == sorted(DEFAULTS)


def test_ghost_penalty_pair_refused():
    # a second ghost coefficient would weight jumps of second normal
    # derivatives, which vanish for P1 elements
    with pytest.raises(ConfigError, match=re.escape("physics.gamma")):
        parse_config("[physics]\ngamma = 0.1, 0.001\n")


def test_interpolation_cap_is_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'l_cap'"):
        parse_config("[tolerances]\nl_cap = 5\n")


def test_lambda_is_the_only_file_key_that_is_not_its_field_name():
    assert parse_config("[physics]\nlambda = 12\n").nitsche_lambda == 12.0
    with pytest.raises(ConfigError, match="unknown key 'nitsche_lambda'"):
        parse_config("[physics]\nnitsche_lambda = 12\n")
    assert [(key, name) for _, key, name in FILE_KEYS if key != name] == [
        ("lambda", "nitsche_lambda")]


def _changed(value):
    if isinstance(value, tuple):
        return value + (99,)
    return value + ("x" if isinstance(value, str) else 1)


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_hash_covers_every_field_but_the_sweep_and_paths(name):
    base = Config()
    changed = replace(base, **{name: _changed(DEFAULTS[name])})
    assert (changed.hash() == base.hash()) == (name in SWEEP_ONLY_FIELDS)


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    text = "\n".join(line.split("#")[0].rstrip() for line in blocks[0].splitlines())
    assert parse_config(text) == Config()
    named = sorted(re.findall(r"^(\w+) *=", text, flags=re.M))
    assert named == sorted(key for _, key, _ in FILE_KEYS)


def test_readme_format_version_is_the_saved_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"format version \((\d+)\)", readme)
    assert stated == [str(FORMAT_VERSION)]
