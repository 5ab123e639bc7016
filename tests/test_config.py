import json

import pytest

from acmmd.config import (DEFAULTS, SCOPES, check_scope, config_alpha,
                          config_bool, config_delta_p_values,
                          config_family, config_kernel, config_n_values,
                          config_optional_positive_int, config_positive_int,
                          config_sigma_p, config_toy,
                          load_config_file, resolve_config)
from acmmd.errors import ConfigError
from acmmd.kernels import KernelSpec


class TestResolveConfig:
    def test_defaults_only(self):
        cfg, explicit = resolve_config(alpha=None, bootstrap=None)
        assert cfg == {"alpha": 0.05, "bootstrap": 100}
        assert explicit == set()

    def test_file_then_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 0.1, "bootstrap": 50}))
        cfg, explicit = resolve_config(path, alpha=None, bootstrap=75,
                                       seed=None)
        assert cfg == {"alpha": 0.1, "bootstrap": 75, "seed": 0}
        assert explicit == {"alpha", "bootstrap"}

    def test_none_flags_do_not_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9}))
        cfg, _ = resolve_config(path, seed=None)
        assert cfg["seed"] == 9

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ConfigError, match="unknown keys.*nope"):
            resolve_config(path, alpha=None)

    def test_file_key_outside_command_scope(self, tmp_path):
        # n_values is a real key, but not one `estimate` accepts.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_values": [10]}))
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config(path, alpha=None)

    def test_bad_file_contents(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config_file(path)
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config_file(path)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(tmp_path / "missing.json")


_TOY_KEYS = {"n_values", "delta_p_values", "atoms", "weights", "lam",
             "kx_sigma"}


@pytest.mark.parametrize("family,source,keys", [
    ("acmmd", "toy", _TOY_KEYS),
    ("rel", "toy", _TOY_KEYS | {"sigma_p", "inner_samples"}),
    ("acmmd", "dataset", {"kernel_x", "kernel_y", "subsample_n"}),
    ("rel", "dataset", {"kernel_y", "subsample_n", "sigma_p",
                        "inner_samples"}),
])
def test_scope_of_each_run(family, source, keys):
    check_scope(keys | {"seed", "alpha"}, family, source, "this run")
    for key in set(SCOPES) - keys:
        with pytest.raises(ConfigError,
                           match=f"^{key} applies to .* not to this run$"):
            check_scope({key, *keys}, family, source, "this run")


class TestValueParsers:
    def test_kernel(self):
        assert config_kernel({"kernel_y": "exp-hamming"}, "kernel_y") \
            == KernelSpec("exp-hamming", lam=1.0)
        with pytest.raises(ConfigError, match="kernel_y"):
            config_kernel({"kernel_y": "nope"}, "kernel_y")

    def test_alpha(self):
        assert config_alpha({"alpha": 0.05}) == 0.05
        assert config_alpha({"alpha": "0.1"}) == 0.1
        for bad in (0.0, 1.0, "x", None, True, False):
            with pytest.raises(ConfigError, match="alpha"):
                config_alpha({"alpha": bad})

    def test_positive_int(self):
        assert config_positive_int({"bootstrap": 10}, "bootstrap") == 10
        for bad in (0, -1, 1.5, True, "10"):
            with pytest.raises(ConfigError):
                config_positive_int({"bootstrap": bad}, "bootstrap")
        with pytest.raises(ConfigError, match=">= 2"):
            config_positive_int({"subsample_n": 1}, "subsample_n", minimum=2)

    def test_optional_positive_int(self):
        assert config_optional_positive_int({"k": None}, "k") is None
        assert config_optional_positive_int({"k": 3}, "k") == 3

    def test_seed(self):
        assert config_positive_int({"seed": 0}, "seed", minimum=0) == 0
        for bad in (-1, 1.5, True, "0"):
            with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
                config_positive_int({"seed": bad}, "seed", minimum=0)

    def test_bool(self):
        assert config_bool({"timings": True}, "timings") is True
        assert config_bool({"timings": False}, "timings") is False
        for bad in ("false", 1, 0, None):
            with pytest.raises(ConfigError, match="timings must be true or"):
                config_bool({"timings": bad}, "timings")

    def test_family(self):
        assert config_family({"family": "rel"}) == "rel"
        with pytest.raises(ConfigError, match="family"):
            config_family({"family": "other"})

    def test_sigma_p(self):
        assert config_sigma_p({"sigma_p": "median"}) == "median"
        assert config_sigma_p({"sigma_p": "0.5"}) == 0.5
        assert config_sigma_p({"sigma_p": 2}) == 2.0
        for bad in (0, -1, "wide", None, True):
            with pytest.raises(ConfigError, match="sigma_p"):
                config_sigma_p({"sigma_p": bad})

    def test_n_values(self):
        assert config_n_values({"n_values": "10,20"}) == [10, 20]
        assert config_n_values({"n_values": [10, 20]}) == [10, 20]
        with pytest.raises(ConfigError, match=">= 2"):
            config_n_values({"n_values": [1]})
        with pytest.raises(ConfigError, match="integers"):
            config_n_values({"n_values": [10.5]})
        with pytest.raises(ConfigError, match="empty"):
            config_n_values({"n_values": ""})

    def test_delta_p_values(self):
        assert config_delta_p_values({"delta_p_values": "0.0,0.25"}) \
            == [0.0, 0.25]
        for bad in ("a,b", [False], [0.1, True]):
            with pytest.raises(ConfigError, match="delta_p_values"):
                config_delta_p_values({"delta_p_values": bad})


class TestConfigToy:
    def base(self, **over):
        cfg = {"atoms": DEFAULTS["atoms"], "weights": None,
               "delta_p": 0.0, "lam": 1.0, "kx_sigma": 1.0}
        cfg.update(over)
        return cfg

    def test_default_round_trip(self):
        toy = config_toy(self.base())
        assert toy.prior.atoms == (0.3, 0.3375, 0.375, 0.4125, 0.45)
        assert toy.delta_p == 0.0

    def test_comma_strings(self):
        toy = config_toy(self.base(atoms="0.3,0.4", weights="1,3"))
        assert toy.prior.atoms == (0.3, 0.4)
        assert toy.prior.weights == (0.25, 0.75)

    def test_delta_p_override(self):
        toy = config_toy(self.base(delta_p=0.2))
        assert toy.delta_p == 0.2
        # Keys a command lacks keep the ToyConfig defaults.
        toy = config_toy({"atoms": "0.4", "weights": None})
        assert (toy.delta_p, toy.lam, toy.kx_sigma) == (0.0, 1.0, 1.0)

    def test_invalid_atoms_surface_as_config_error(self):
        with pytest.raises(ConfigError):
            config_toy(self.base(atoms="0.7"))
        with pytest.raises(ConfigError, match="delta_p"):
            config_toy(self.base(delta_p=0.5))

    def test_booleans_are_not_numbers(self):
        # Numeric strings stay numbers; JSON booleans do not.
        assert config_toy(self.base(kx_sigma="2.5")).kx_sigma == 2.5
        for key in ("delta_p", "lam", "kx_sigma"):
            with pytest.raises(ConfigError, match=f"^{key} must be a number"):
                config_toy(self.base(**{key: True}))
        with pytest.raises(ConfigError, match="^weights must be"):
            config_toy(self.base(weights=[True, True]))
