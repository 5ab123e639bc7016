"""Command-line interface.

Subcommands:
    estimate      statistic (and variance proxy) for a triplet dataset
    test          wild-bootstrap goodness-of-fit test on a triplet dataset
    rel-estimate  reliability statistic for a sampled-model dataset
    rel-test      wild-bootstrap reliability test
    sweep         rejection-rate grid over the toy process, or per-group
                  runs over a labeled dataset
    toy-generate  write a toy-process dataset as JSONL
    toy-exact     closed-form population values for a toy configuration

Every command accepts --config FILE (a flat JSON object of option values);
explicit flags override the file. Exit codes: 0 success, 1 usage or
configuration error (an unwritable --out included), 2 data error, 3 internal
error.
"""

from __future__ import annotations

import functools
import json
import sys
import traceback
from pathlib import Path

import click

from .config import (check_scope, config_alpha, config_bool,
                     config_delta_p_values, config_family, config_kernel,
                     config_n_values, config_optional_positive_int,
                     config_positive_int, config_rel_kernel_y,
                     config_sigma_p, config_toy, resolve_config)
from .errors import ConfigError, DataError
from .estimator import acmmd_sq, h_matrix, sigma_h_sq
from .io import (load_reliability_records, load_triplets, make_parent,
                 write_report, write_reliability_records, write_triplets)
from .reliability import default_inner_samples
from .kernels import KernelSpec
from .sweep import (_run_per_group, run_group_sweep, run_toy_sweep,
                    summarize_sweep, write_sweep_csv)
from .testing import acmmd_test, rel_report_fields
from .toy import (TOY_ALPHABET, acmmd_rel_sq_exact, acmmd_sq_exact,
                  generate_reliability_records, generate_triplets,
                  mmd_sq_models_exact)


@click.group(name="acmmd")
def cli():
    """Kernel-based goodness-of-fit and reliability tests for conditional
    sequence models."""


# Every option is declared once here. A command's flags other than --input,
# --out and --config are exactly its config keys (see resolve_config).
_PATH = click.Path(dir_okay=False)
_opt_input = functools.partial(click.option, "--input", "input_path",
                               type=_PATH, required=True)
_opt_out = functools.partial(click.option, "--out", "out_path", type=_PATH,
                             help="Output path (default: print to stdout).")
_opt_config = click.option("--config", "config_path", type=_PATH,
                           help="JSON config file; flags override it.")
_opt_kernel_x = click.option("--kernel-x", help="Input kernel spec.")
_opt_kernel_y = click.option("--kernel-y", help="Output kernel spec.")
_opt_per_group = click.option("--per-group", is_flag=True, default=None,
                              help="Run once per record group label.")
_opt_alpha = click.option("--alpha", type=float, help="Test level.")
_opt_bootstrap = click.option("--bootstrap", type=int,
                              help="Wild-bootstrap draw count.")
_opt_seed = click.option("--seed", type=int, help="Base seed.")
_opt_sigma_p = click.option(
    "--sigma-p", help="Distribution-kernel bandwidth, or 'median'.")
_opt_inner_samples = click.option(
    "--inner-samples", type=int,
    help="Model samples per record (rel): the first R of each dataset "
         "record, or R per toy record.")
_opt_family = click.option("--family", type=click.Choice(["acmmd", "rel"]),
                           help="Test family and record shape.")
_opt_n_values = click.option(
    "--n-values", help="Comma-separated record counts (toy sweeps).")
_opt_delta_p_values = click.option(
    "--delta-p-values", help="Comma-separated perturbations (toy sweeps).")
_opt_n_seeds = click.option("--n-seeds", type=int, help="Runs per grid cell.")
_opt_subsample_n = click.option(
    "--subsample-n", type=int,
    help="Per-seed subsample size within each group.")
_opt_workers = click.option("--workers", type=int, help="Parallel workers.")
_opt_timings = click.option(
    "--timings", is_flag=True, default=None,
    help="Record wall-clock runtime per row (off by default so reruns are "
         "byte-identical).")
_opt_n = click.option("--n", type=int, help="Number of records.")
_opt_delta_p = click.option("--delta-p", type=float,
                            help="First-position perturbation.")
_opt_atoms = click.option("--atoms", help="Toy prior atoms, comma-separated.")
_opt_weights = click.option("--weights",
                            help="Toy prior weights, comma-separated.")
_opt_lam = click.option("--lam", type=float, help="Toy output-kernel decay.")
_opt_kx_sigma = click.option("--kx-sigma", type=float,
                             help="Toy input-kernel bandwidth.")


def _emit(report: dict, out_path) -> None:
    if out_path:
        write_report(out_path, report)
    else:
        click.echo(json.dumps(report, sort_keys=True, indent=2))


def _family_kernels(rel: bool, cfg: dict
                    ) -> tuple[KernelSpec, KernelSpec, int | None]:
    """(kx, ky, inner_samples) of a family's config.

    Goodness of fit reads kernel_x and kernel_y. Reliability reads kernel_y,
    sigma_p and inner_samples, and its kx is khat: dist-expmmd over the
    model samples, with ky as the MMD's inner kernel.
    """
    if not rel:
        return (config_kernel(cfg, "kernel_x"), config_kernel(cfg, "kernel_y"),
                None)
    ky = config_rel_kernel_y(cfg)
    kx = KernelSpec("dist-expmmd", sigma=config_sigma_p(cfg), inner=ky)
    return kx, ky, config_optional_positive_int(cfg, "inner_samples",
                                                minimum=2)


def _load_records(rel: bool, path, inner_samples: int | None) -> list:
    """The family's records from `path`: triplets, or reliability records
    restricted to their first `inner_samples` model samples when it is set."""
    if not rel:
        return load_triplets(path)[0]
    records, _ = load_reliability_records(path)
    if inner_samples is None:
        return records
    for i, r in enumerate(records):
        if len(r.model_samples) < inner_samples:
            raise DataError(
                f"record {i} has {len(r.model_samples)} model samples, "
                f"fewer than inner_samples={inner_samples}")
        r.model_samples = r.model_samples[:inner_samples]
    return records


# ---------------------------------------------------------------------------
# estimate / test, and rel-estimate / rel-test: one body per verb, which
# takes the family (rel) and the command name.


def _estimate(rel, command, input_path, out_path, config_path, **flags):
    cfg, _ = resolve_config(config_path, **flags)
    kx, ky, inner = _family_kernels(rel, cfg)
    per_group = config_bool(cfg, "per_group")
    make_parent(out_path)
    records = _load_records(rel, input_path, inner)

    def run(members, _seed):
        h = h_matrix(members, kx, ky)
        entry = {"n": h.n, "statistic": acmmd_sq(h),
                 "kernel_y": h.ky.to_string()}
        entry.update(rel_report_fields(h, members) if rel
                     else {"kernel_x": h.kx.to_string()})
        if h.n >= 3:
            entry["sigma_h_sq"] = sigma_h_sq(h)
        return entry

    report: dict = {"command": command, "input": str(input_path)}
    report.update(_run_per_group(records, per_group, None, run))
    _emit(report, out_path)


def _test(rel, command, input_path, out_path, config_path, **flags):
    cfg, _ = resolve_config(config_path, **flags)
    kx, ky, inner = _family_kernels(rel, cfg)
    alpha_v = config_alpha(cfg)
    b_count = config_positive_int(cfg, "bootstrap")
    seed_v = config_positive_int(cfg, "seed", minimum=0)
    per_group = config_bool(cfg, "per_group")
    make_parent(out_path)
    records = _load_records(rel, input_path, inner)

    def run(members, seed):
        return acmmd_test(members, kx, ky, alpha=alpha_v, b_count=b_count,
                          seed=seed).to_dict()

    report: dict = {"command": command, "input": str(input_path),
                    "seed": seed_v}
    report.update(_run_per_group(records, per_group, seed_v, run))
    _emit(report, out_path)


def _register(name: str, body, rel: bool, summary: str) -> None:
    """Register `body` for one family as command `name`."""
    options = [
        _opt_input(help="Reliability dataset (JSONL)." if rel
                   else "Triplet dataset (JSONL)."),
        *([_opt_kernel_y, _opt_sigma_p, _opt_inner_samples] if rel
          else [_opt_kernel_x, _opt_kernel_y]),
        *([_opt_alpha, _opt_bootstrap, _opt_seed] if body is _test else []),
        _opt_per_group, _opt_out(), _opt_config]
    callback = functools.partial(body, rel, name)
    for option in reversed(options):  # as if stacked top to bottom
        callback = option(callback)
    cli.command(name, help=summary)(callback)


_register("estimate", _estimate, False,
          "Estimate the goodness-of-fit statistic on a dataset.")
_register("test", _test, False, "Run the goodness-of-fit test on a dataset.")
_register("rel-estimate", _estimate, True,
          "Estimate the reliability statistic on a sampled-model dataset.")
_register("rel-test", _test, True,
          "Run the reliability test on a sampled-model dataset.")


# ---------------------------------------------------------------------------
# sweep


@cli.command()
@_opt_input(required=False,
            help="Dataset for a per-group sweep; omit for a toy sweep.")
@_opt_family
@_opt_kernel_x
@_opt_kernel_y
@_opt_sigma_p
@_opt_alpha
@_opt_bootstrap
@_opt_seed
@_opt_n_values
@_opt_delta_p_values
@_opt_n_seeds
@_opt_inner_samples
@_opt_subsample_n
@_opt_atoms
@_opt_weights
@_opt_lam
@_opt_kx_sigma
@_opt_workers
@_opt_timings
@_opt_out(required=True,
          help="CSV output path; a .summary.json sits next to it.")
@_opt_config
def sweep(input_path, out_path, config_path, **flags):
    """Run the test once per grid cell and seed; write CSV plus summary."""
    cfg, explicit = resolve_config(config_path, **flags)
    family_v = config_family(cfg)
    rel = family_v == "rel"
    group_mode = input_path is not None
    source = "dataset" if group_mode else "toy"
    check_scope(explicit, family_v, source, f"{family_v} {source} sweeps")
    alpha_v = config_alpha(cfg)
    b_count = config_positive_int(cfg, "bootstrap")
    seed_v = config_positive_int(cfg, "seed", minimum=0)
    n_seeds_v = config_positive_int(cfg, "n_seeds")
    workers_v = config_positive_int(cfg, "workers")
    timings_v = config_bool(cfg, "timings")
    if group_mode:
        kx, ky, inner = _family_kernels(rel, cfg)
        subsample = config_optional_positive_int(cfg, "subsample_n", minimum=2)
        make_parent(out_path)
        records = _load_records(rel, input_path, inner)
        rows = run_group_sweep(
            records, kx, ky, n_seeds_v, subsample_n=subsample, alpha=alpha_v,
            bootstrap=b_count, seed=seed_v, workers=workers_v,
            timings=timings_v)
    else:
        toy = config_toy(cfg)
        dps = config_delta_p_values(cfg)
        ns = config_n_values(cfg)
        for dp in dps:
            try:
                toy.with_delta_p(dp)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        kx = inner = None
        if rel:
            kx = KernelSpec("dist-expmmd", sigma=config_sigma_p(cfg),
                            inner=toy.ky)
            inner = config_optional_positive_int(cfg, "inner_samples",
                                                 minimum=2)
        make_parent(out_path)
        rows = run_toy_sweep(
            toy, ns, dps, n_seeds_v, kx=kx, alpha=alpha_v, bootstrap=b_count,
            inner_samples=inner, seed=seed_v, workers=workers_v,
            timings=timings_v)

    write_sweep_csv(out_path, rows, group_mode)
    resolved = dict(cfg, command="sweep", out=str(out_path),
                    input=str(input_path) if input_path else None)
    summary = summarize_sweep(rows, group_mode, config=resolved)
    summary_path = Path(out_path).with_suffix(".summary.json")
    write_report(summary_path, summary)
    click.echo(f"wrote {len(rows)} rows to {out_path} "
               f"and summary to {summary_path}")


# ---------------------------------------------------------------------------
# toy-generate / toy-exact


@cli.command("toy-generate")
@_opt_n
@_opt_delta_p
@_opt_atoms
@_opt_weights
@_opt_family
@_opt_inner_samples
@_opt_seed
@_opt_out(required=True, help="JSONL output path.")
@_opt_config
def toy_generate(out_path, config_path, **flags):
    """Sample a toy-process dataset and write it as JSONL."""
    cfg, explicit = resolve_config(config_path, **flags)
    family_v = config_family(cfg)
    check_scope(explicit, family_v, "toy", f"{family_v} toy-generate")
    if cfg["n"] is None:
        raise ConfigError("n is required")
    n_v = config_positive_int(cfg, "n", minimum=2)
    toy = config_toy(cfg)
    seed_v = config_positive_int(cfg, "seed", minimum=0)
    inner = None
    if family_v == "rel":
        inner = (config_optional_positive_int(cfg, "inner_samples", minimum=2)
                 or default_inner_samples(n_v))
    make_parent(out_path)
    if inner is None:
        triplets = generate_triplets(toy, n_v, seed_v)
        write_triplets(out_path, triplets, alphabet=TOY_ALPHABET)
    else:
        records = generate_reliability_records(toy, n_v, inner, seed_v)
        write_reliability_records(out_path, records, alphabet=TOY_ALPHABET)
    click.echo(f"wrote {n_v} records to {out_path}")


@cli.command("toy-exact")
@_opt_delta_p
@_opt_atoms
@_opt_weights
@_opt_lam
@_opt_kx_sigma
@_opt_sigma_p
@_opt_out()
@_opt_config
def toy_exact(out_path, config_path, **flags):
    """Print closed-form population values for a toy configuration."""
    cfg, explicit = resolve_config(config_path, **flags)
    toy = config_toy(cfg)
    report: dict = {
        "command": "toy-exact",
        "atoms": list(toy.prior.atoms),
        "weights": list(toy.prior.weights),
        "delta_p": toy.delta_p,
        "lam": toy.lam,
        "kx_sigma": toy.kx_sigma,
        "acmmd_sq_exact": acmmd_sq_exact(toy),
        "mmd_sq_models_exact": [
            [mmd_sq_models_exact(p, p2, toy.lam, toy.delta_p)
             for p2 in toy.prior.atoms]
            for p in toy.prior.atoms
        ],
    }
    if "sigma_p" in explicit:
        sigma = config_sigma_p(cfg)
        if sigma == "median":
            raise ConfigError(
                "the closed-form reliability value needs a numeric sigma_p")
        report["sigma_p"] = sigma
        report["acmmd_rel_sq_exact"] = acmmd_rel_sq_exact(toy, sigma)
    _emit(report, out_path)


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, prog_name="acmmd", standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        hint = exc.format_message()
        ctx = exc.ctx
        if ctx is not None:
            click.echo(ctx.get_usage(), err=True)
        click.echo(f"error: {hint}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except (DataError, ValueError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except OSError as exc:  # an --out that cannot be written: a usage error
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.Abort:  # Ctrl-C, which click raises as a RuntimeError
        raise
    except Exception:
        click.echo(f"internal error: {traceback.format_exc()}", err=True,
                   nl=False)
        return 3


if __name__ == "__main__":
    sys.exit(main())
