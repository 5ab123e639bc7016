"""Run configuration: a JSON config file merged under CLI flags.

A config file is a flat JSON object whose keys match the CLI option names
(underscored). Explicit command-line flags win over file values, which win
over the package defaults below. Unknown keys fail loudly rather than
being ignored.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError
from .kernels import DISTRIBUTION_KINDS, SEQUENCE_KINDS, KernelSpec
from .toy import ToyConfig, ToyPrior

DEFAULTS: dict = {
    "kernel_x": "gaussian:sigma=median",
    "kernel_y": "exp-hamming:lambda=1.0:mode=padded",
    "sigma_p": "median",
    "alpha": 0.05,
    "bootstrap": 100,
    "seed": 0,
    "family": "acmmd",
    "workers": 1,
    "timings": False,
    "group_by": None,
    "subsample_n": None,
    "inner_samples": None,
    "n": None,
    "n_values": [10, 100, 200, 500, 1000],
    "delta_p_values": [0.25],
    "n_seeds": 300,
    "atoms": [0.3, 0.3375, 0.375, 0.4125, 0.45],
    "weights": None,
    "delta_p": 0.0,
    "lam": 1.0,
    "kx_sigma": 1.0,
}

FAMILIES = ("acmmd", "rel")


def load_config_file(path) -> dict:
    """Parse a JSON config file into a flat dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def resolve_config(config_path=None, **flags) -> tuple[dict, set]:
    """Layer defaults, config-file values, and explicit flags.

    Args:
        config_path: optional config file.
        flags: a command's CLI values by config key; None means the flag
            was not given. Their keys are the config keys the command
            understands.

    Returns:
        (values, explicit): a value for every key in `flags`, plus the set
        of keys that were set explicitly (file or flag) rather than
        defaulted.

    Raises:
        ConfigError: a file key the command does not understand.
    """
    bad = set(flags) - set(DEFAULTS)
    if bad:
        raise ConfigError(f"internal: unregistered config keys {sorted(bad)}")
    merged = {key: DEFAULTS[key] for key in flags}
    explicit: set = set()
    if config_path is not None:
        file_values = load_config_file(config_path)
        unknown = set(file_values) - set(flags)
        if unknown:
            raise ConfigError(
                f"config file {config_path}: unknown keys {sorted(unknown)}")
        merged.update(file_values)
        explicit.update(file_values)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
            explicit.add(key)
    return merged, explicit


# ---------------------------------------------------------------------------
# Typed readers with ConfigError reporting


def config_kernel(cfg: dict, key: str) -> KernelSpec:
    """Input or output kernel; the rel commands build dist-expmmd themselves."""
    try:
        spec = KernelSpec.parse(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if spec.kind in DISTRIBUTION_KINDS:
        raise ConfigError(f"{key}: {spec.kind} is not an input or output "
                          "kernel; set sigma_p instead")
    return spec


def config_rel_kernel_y(cfg: dict) -> KernelSpec:
    """kernel_y of a reliability run, which is also the MMD's inner kernel."""
    ky = config_kernel(cfg, "kernel_y")
    if ky.kind not in SEQUENCE_KINDS:
        raise ConfigError(f"kernel_y: {ky.kind} cannot be the MMD's inner "
                          f"kernel; use one of {SEQUENCE_KINDS}")
    return ky


def config_alpha(cfg: dict) -> float:
    try:
        alpha = float(cfg["alpha"])
    except (TypeError, ValueError):
        raise ConfigError(f"alpha must be a number, got {cfg['alpha']!r}") from None
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def config_positive_int(cfg: dict, key: str, minimum: int = 1) -> int:
    value = cfg[key]
    if not isinstance(value, (int,)) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def config_optional_positive_int(cfg: dict, key: str, minimum: int = 1
                                 ) -> int | None:
    if cfg[key] is None:
        return None
    return config_positive_int(cfg, key, minimum)


def config_seed(cfg: dict) -> int:
    value = cfg["seed"]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {value!r}")
    return value


def config_family(cfg: dict) -> str:
    family = cfg["family"]
    if family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")
    return family


def config_sigma_p(cfg: dict) -> float | str:
    value = cfg["sigma_p"]
    if value == "median":
        return "median"
    try:
        sigma = float(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"sigma_p must be a number or 'median', got {value!r}") from None
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma_p must be positive and finite, got {sigma}")
    return sigma


def _float_list(value, key: str) -> list[float]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    try:
        out = [float(p) for p in parts]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}") from None
    if not out:
        raise ConfigError(f"{key} must not be empty")
    return out


def _int_list(value, key: str) -> list[int]:
    floats = _float_list(value, key)
    out = [int(v) for v in floats]
    if any(i != f for i, f in zip(out, floats)):
        raise ConfigError(f"{key} must hold integers, got {value!r}")
    return out


def config_n_values(cfg: dict) -> list[int]:
    values = _int_list(cfg["n_values"], "n_values")
    if any(v < 2 for v in values):
        raise ConfigError("n_values entries must be >= 2")
    return values


def config_delta_p_values(cfg: dict) -> list[float]:
    return _float_list(cfg["delta_p_values"], "delta_p_values")


def config_group_by(cfg: dict) -> str | None:
    """The label field to split records on, or None for no grouping."""
    group_by = cfg["group_by"]
    if group_by not in (None, "group"):
        raise ConfigError(
            f"records carry a single label field 'group'; "
            f"cannot group by {group_by!r}")
    return group_by


def config_toy(cfg: dict) -> ToyConfig:
    """Build the toy-process description out of flat config keys.

    Of delta_p, lam and kx_sigma, only the keys in `cfg` are read; the
    others keep the ToyConfig defaults.
    """
    atoms = _float_list(cfg["atoms"], "atoms")
    weights = None
    if cfg["weights"] is not None:
        weights = _float_list(cfg["weights"], "weights")
    try:
        prior = ToyPrior(atoms=tuple(atoms),
                         weights=tuple(weights) if weights else None)
        return ToyConfig(prior=prior, **{
            key: float(cfg[key]) for key in ("delta_p", "lam", "kx_sigma")
            if key in cfg})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
