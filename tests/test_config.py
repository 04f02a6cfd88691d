import pytest

from cutrom.config import _SCHEMA, Config, ConfigError, _float, _float_list, parse_config


def test_empty_file_gives_paper_defaults():
    cfg = parse_config("")
    assert cfg.box_min == -1.2 and cfg.box_max == 1.2
    assert cfg.h_target == 0.125
    assert cfg.f_const == 20.0
    assert cfg.g_coeffs == (0.5, 0.0, 0.0, 1.0)
    assert cfg.nitsche_lambda == 10.0
    assert cfg.gamma == (0.1, 0.001)
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
        "[physics]\ngamma = 0.2, 0.0\n"
    )
    assert cfg.n_train == 12
    assert cfg.seed == 3
    assert cfg.n_list == (1, 2, 3)
    assert cfg.gamma == (0.2, 0.0)


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
FLOAT_KEYS = [(section, key, attr) for section, keys in _SCHEMA.items()
              for key, (attr, conv) in keys.items() if conv in (_float, _float_list)]


def test_float_keys_cover_the_physics_and_tolerances():
    attrs = {attr for _, _, attr in FLOAT_KEYS}
    assert {"f_const", "g0", "gx", "gy", "gxy", "gamma", "nitsche_lambda", "h_target",
            "eps_pod", "eps_deim_a", "eps_deim_f", "eps_safe"} <= attrs


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key, attr", FLOAT_KEYS, ids=[k for _, k, _ in FLOAT_KEYS])
def test_non_finite_value_rejected_by_name(section, key, attr, value):
    raw = f"0.1, {value}" if attr == "gamma" else value
    with pytest.raises(ConfigError, match=f"^{attr} must be finite"):
        parse_config(f"[{section}]\n{key} = {raw}\n")
