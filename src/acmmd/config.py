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
    "per_group": False,
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

# The runs that read each key only some runs read. A run is a family plus a
# source, "toy" or "dataset" (--input); None matches either.
SCOPES: dict = {
    "sigma_p": ("rel", None), "inner_samples": ("rel", None),
    "kernel_x": ("acmmd", "dataset"),
    "kernel_y": (None, "dataset"), "subsample_n": (None, "dataset"),
    **dict.fromkeys(("n_values", "delta_p_values", "atoms", "weights", "lam",
                     "kx_sigma"), (None, "toy")),
}


def check_scope(explicit: set, family: str, source: str, run: str) -> None:
    """Reject the first SCOPES key set outside the run, which `run` names."""
    for key, (fam, src) in SCOPES.items():
        if key in explicit and not {fam, src} <= {None, family, source}:
            runs = " ".join(filter(None, (fam, src))).replace(
                "dataset", "dataset (--input)")
            raise ConfigError(f"{key} applies to {runs} runs only, "
                              f"not to {run}")


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


def _number(value, key: str, what: str = "a number") -> float:
    """`value` (a number or a numeric string) as a float; a JSON boolean is
    not a number."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None


def config_alpha(cfg: dict) -> float:
    alpha = _number(cfg["alpha"], "alpha")
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


def config_bool(cfg: dict, key: str) -> bool:
    value = cfg[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
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
    sigma = _number(value, "sigma_p", "a number or 'median'")
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
    out = [_number(p, key, "a list of numbers") for p in parts]
    if not out:
        raise ConfigError(f"{key} must not be empty")
    return out


def _grid(values: list, key: str) -> list:
    if len(set(values)) < len(values):
        raise ConfigError(f"{key} must not repeat a value, got {values}")
    return values


def config_n_values(cfg: dict) -> list[int]:
    floats = _float_list(cfg["n_values"], "n_values")
    if not all(math.isfinite(f) and f == int(f) for f in floats):
        raise ConfigError(f"n_values must hold integers, got "
                          f"{cfg['n_values']!r}")
    if any(f < 2 for f in floats):
        raise ConfigError("n_values entries must be >= 2")
    return _grid([int(f) for f in floats], "n_values")


def config_delta_p_values(cfg: dict) -> list[float]:
    return _grid(_float_list(cfg["delta_p_values"], "delta_p_values"),
                 "delta_p_values")


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
            key: _number(cfg[key], key)
            for key in ("delta_p", "lam", "kx_sigma") if key in cfg})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
