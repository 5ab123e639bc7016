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
configuration error, 2 data error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from ._rng import SK_GROUP, derive
from .config import (config_alpha, config_delta_p_values, config_family,
                     config_kernel, config_n_values,
                     config_optional_positive_int, config_positive_int,
                     config_seed, config_sigma_p, config_toy, resolve_config)
from .errors import ConfigError, DataError
from .estimator import acmmd_sq, h_matrix, sigma_h_sq
from .io import (load_reliability_records, load_triplets, write_report,
                 write_reliability_records, write_triplets)
from .records import ReliabilityRecord
from .reliability import (acmmd_rel_test, default_inner_samples,
                          inner_samples_summary, rel_h_matrix)
from .kernels import KernelSpec
from .sweep import (run_group_sweep, run_toy_sweep, summarize_sweep,
                    write_sweep_csv)
from .testing import acmmd_test
from .toy import (TOY_ALPHABET, acmmd_rel_sq_exact, acmmd_sq_exact,
                  generate_reliability_records, generate_triplets,
                  mmd_sq_models_exact)


@click.group(name="acmmd")
def cli():
    """Kernel-based goodness-of-fit and reliability tests for conditional
    sequence models."""


def _opt_config(f):
    return click.option("--config", "config_path",
                        type=click.Path(dir_okay=False),
                        help="JSON config file; flags override it.")(f)


def _opt_out(f):
    return click.option("--out", "out_path", type=click.Path(dir_okay=False),
                        help="Output path (default: print to stdout).")(f)


def _emit(report: dict, out_path) -> None:
    if out_path:
        write_report(out_path, report)
    else:
        click.echo(json.dumps(report, sort_keys=True, indent=2))


def _group_pairs(records, group_by):
    """Split records by group label; None means no grouping requested."""
    if group_by is None:
        return None
    if group_by != "group":
        raise ConfigError(
            f"records carry a single label field 'group'; cannot group by {group_by!r}")
    labels = sorted({r.group for r in records if r.group is not None})
    if not labels:
        raise DataError("grouping requested but no record has a group label")
    return [(label, [r for r in records if r.group == label])
            for label in labels]


def _run_per_group(records, group_by, seed, run) -> dict:
    """Report body of `run(members, seed) -> dict` over all records or per group.

    Ungrouped, the body is the run over every record with `seed`. Grouped,
    it is {"groups": [...]} with one entry per label, and group gi runs
    with derive(seed, SK_GROUP, gi, 0, 1). Runs that draw no random
    numbers pass seed None.
    """
    pairs = _group_pairs(records, group_by)
    if pairs is None:
        return run(records, seed)
    entries = []
    for gi, (label, members) in enumerate(pairs):
        entry = run(members, None if seed is None
                    else derive(seed, SK_GROUP, gi, 0, 1))
        entry["group"] = label
        entries.append(entry)
    return {"groups": entries}


def _estimate_entry(h, **fields) -> dict:
    """Statistic, size and output kernel of an h matrix, plus `fields`."""
    entry = {"n": h.n, "statistic": acmmd_sq(h),
             "kernel_y": h.ky.to_string(), **fields}
    if h.n >= 3:
        entry["sigma_h_sq"] = sigma_h_sq(h)
    return entry


def _trim_model_samples(records, inner_samples: int | None):
    """Restrict each record to its first `inner_samples` model samples."""
    if inner_samples is None:
        return list(records)
    out = []
    for i, r in enumerate(records):
        if len(r.model_samples) < inner_samples:
            raise DataError(
                f"record {i} has {len(r.model_samples)} model samples, "
                f"fewer than inner_samples={inner_samples}")
        out.append(ReliabilityRecord(
            y=r.y, y_model=r.y_model,
            model_samples=r.model_samples[:inner_samples], x=r.x,
            group=r.group))
    return out


# ---------------------------------------------------------------------------
# estimate / test


@cli.command()
@click.option("--input", "input_path", type=click.Path(dir_okay=False),
              required=True, help="Triplet dataset (JSONL).")
@click.option("--kernel-x", default=None, help="Input kernel spec.")
@click.option("--kernel-y", default=None, help="Output kernel spec.")
@click.option("--group-by", default=None, help="Record label key to split on.")
@_opt_out
@_opt_config
def estimate(input_path, kernel_x, kernel_y, group_by, out_path, config_path):
    """Estimate the goodness-of-fit statistic on a dataset."""
    cfg, _ = resolve_config({"kernel_x", "kernel_y", "group_by"}, config_path,
                            kernel_x=kernel_x, kernel_y=kernel_y,
                            group_by=group_by)
    kx = config_kernel(cfg, "kernel_x")
    ky = config_kernel(cfg, "kernel_y")
    records, _ = load_triplets(input_path)

    def run(members, _seed):
        h = h_matrix(members, kx, ky)
        return _estimate_entry(h, kernel_x=h.kx.to_string())

    report: dict = {"command": "estimate", "input": str(input_path)}
    report.update(_run_per_group(records, cfg["group_by"], None, run))
    _emit(report, out_path)


@cli.command()
@click.option("--input", "input_path", type=click.Path(dir_okay=False),
              required=True, help="Triplet dataset (JSONL).")
@click.option("--kernel-x", default=None, help="Input kernel spec.")
@click.option("--kernel-y", default=None, help="Output kernel spec.")
@click.option("--alpha", type=float, default=None, help="Test level.")
@click.option("--bootstrap", type=int, default=None,
              help="Wild-bootstrap draw count.")
@click.option("--seed", type=int, default=None, help="Base seed.")
@click.option("--group-by", default=None, help="Record label key to split on.")
@_opt_out
@_opt_config
def test(input_path, kernel_x, kernel_y, alpha, bootstrap, seed, group_by,
         out_path, config_path):
    """Run the goodness-of-fit test on a dataset."""
    cfg, _ = resolve_config(
        {"kernel_x", "kernel_y", "alpha", "bootstrap", "seed", "group_by"},
        config_path, kernel_x=kernel_x, kernel_y=kernel_y, alpha=alpha,
        bootstrap=bootstrap, seed=seed, group_by=group_by)
    kx = config_kernel(cfg, "kernel_x")
    ky = config_kernel(cfg, "kernel_y")
    alpha_v = config_alpha(cfg)
    b_count = config_positive_int(cfg, "bootstrap")
    seed_v = config_seed(cfg)
    records, _ = load_triplets(input_path)
    report: dict = {"command": "test", "input": str(input_path),
                    "seed": seed_v}
    report.update(_run_per_group(
        records, cfg["group_by"], seed_v,
        lambda members, s: acmmd_test(members, kx, ky, alpha=alpha_v,
                                      b_count=b_count, seed=s).to_dict()))
    _emit(report, out_path)


# ---------------------------------------------------------------------------
# rel-estimate / rel-test


@cli.command("rel-estimate")
@click.option("--input", "input_path", type=click.Path(dir_okay=False),
              required=True, help="Reliability dataset (JSONL).")
@click.option("--kernel-y", default=None, help="Output kernel spec.")
@click.option("--sigma-p", default=None,
              help="Distribution-kernel bandwidth, or 'median'.")
@click.option("--inner-samples", type=int, default=None,
              help="Use only the first R model samples per record.")
@click.option("--group-by", default=None, help="Record label key to split on.")
@_opt_out
@_opt_config
def rel_estimate(input_path, kernel_y, sigma_p, inner_samples, group_by,
                 out_path, config_path):
    """Estimate the reliability statistic on a sampled-model dataset."""
    cfg, _ = resolve_config(
        {"kernel_y", "sigma_p", "inner_samples", "group_by"}, config_path,
        kernel_y=kernel_y, sigma_p=sigma_p, inner_samples=inner_samples,
        group_by=group_by)
    ky = config_kernel(cfg, "kernel_y")
    sigma = config_sigma_p(cfg)
    trim = config_optional_positive_int(cfg, "inner_samples", minimum=2)
    records, _ = load_reliability_records(input_path)
    records = _trim_model_samples(records, trim)

    def run(members, _seed):
        kp = KernelSpec("dist-expmmd", sigma=sigma, inner=ky)
        h = rel_h_matrix(members, kp, ky)
        return _estimate_entry(h, sigma_p=h.kx.sigma_resolved,
                               inner_samples=inner_samples_summary(members))

    report: dict = {"command": "rel-estimate", "input": str(input_path)}
    report.update(_run_per_group(records, cfg["group_by"], None, run))
    _emit(report, out_path)


@cli.command("rel-test")
@click.option("--input", "input_path", type=click.Path(dir_okay=False),
              required=True, help="Reliability dataset (JSONL).")
@click.option("--kernel-y", default=None, help="Output kernel spec.")
@click.option("--sigma-p", default=None,
              help="Distribution-kernel bandwidth, or 'median'.")
@click.option("--inner-samples", type=int, default=None,
              help="Use only the first R model samples per record.")
@click.option("--alpha", type=float, default=None, help="Test level.")
@click.option("--bootstrap", type=int, default=None,
              help="Wild-bootstrap draw count.")
@click.option("--seed", type=int, default=None, help="Base seed.")
@click.option("--group-by", default=None, help="Record label key to split on.")
@_opt_out
@_opt_config
def rel_test(input_path, kernel_y, sigma_p, inner_samples, alpha, bootstrap,
             seed, group_by, out_path, config_path):
    """Run the reliability test on a sampled-model dataset."""
    cfg, _ = resolve_config(
        {"kernel_y", "sigma_p", "inner_samples", "alpha", "bootstrap",
         "seed", "group_by"}, config_path, kernel_y=kernel_y,
        sigma_p=sigma_p, inner_samples=inner_samples, alpha=alpha,
        bootstrap=bootstrap, seed=seed, group_by=group_by)
    ky = config_kernel(cfg, "kernel_y")
    sigma = config_sigma_p(cfg)
    trim = config_optional_positive_int(cfg, "inner_samples", minimum=2)
    alpha_v = config_alpha(cfg)
    b_count = config_positive_int(cfg, "bootstrap")
    seed_v = config_seed(cfg)
    records, _ = load_reliability_records(input_path)
    records = _trim_model_samples(records, trim)
    report: dict = {"command": "rel-test", "input": str(input_path),
                    "seed": seed_v}
    report.update(_run_per_group(
        records, cfg["group_by"], seed_v,
        lambda members, s: acmmd_rel_test(
            members, ky, sigma=sigma, alpha=alpha_v, b_count=b_count,
            seed=s).to_dict()))
    _emit(report, out_path)


# ---------------------------------------------------------------------------
# sweep


_SWEEP_KEYS = {
    "kernel_x", "kernel_y", "sigma_p", "alpha", "bootstrap", "seed",
    "family", "workers", "timings", "n_values", "delta_p_values", "n_seeds",
    "inner_samples", "subsample_n", "atoms", "weights", "lam", "kx_sigma",
    "group_by",
}


@cli.command()
@click.option("--input", "input_path", type=click.Path(dir_okay=False),
              default=None,
              help="Dataset for a per-group sweep; omit for a toy sweep.")
@click.option("--family", default=None, type=click.Choice(["acmmd", "rel"]),
              help="Which test to run.")
@click.option("--kernel-x", default=None, help="Input kernel (dataset sweeps).")
@click.option("--kernel-y", default=None, help="Output kernel (dataset sweeps).")
@click.option("--sigma-p", default=None,
              help="Distribution-kernel bandwidth, or 'median'.")
@click.option("--alpha", type=float, default=None, help="Test level.")
@click.option("--bootstrap", type=int, default=None,
              help="Wild-bootstrap draw count.")
@click.option("--seed", type=int, default=None, help="Base seed.")
@click.option("--n-values", default=None,
              help="Comma-separated record counts (toy sweeps).")
@click.option("--delta-p-values", default=None,
              help="Comma-separated perturbations (toy sweeps).")
@click.option("--n-seeds", type=int, default=None, help="Runs per grid cell.")
@click.option("--inner-samples", type=int, default=None,
              help="Model samples per record (rel).")
@click.option("--subsample-n", type=int, default=None,
              help="Per-seed subsample size within each group.")
@click.option("--atoms", default=None, help="Toy prior atoms, comma-separated.")
@click.option("--weights", default=None,
              help="Toy prior weights, comma-separated.")
@click.option("--lam", type=float, default=None,
              help="Toy output-kernel decay.")
@click.option("--kx-sigma", type=float, default=None,
              help="Toy input-kernel bandwidth.")
@click.option("--group-by", default=None, help="Record label key to split on.")
@click.option("--workers", type=int, default=None, help="Parallel workers.")
@click.option("--timings", is_flag=True, default=None,
              help="Record wall-clock runtime per row (off by default so "
                   "reruns are byte-identical).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True, help="CSV output path; a .summary.json sits "
                                  "next to it.")
@_opt_config
def sweep(input_path, family, kernel_x, kernel_y, sigma_p, alpha, bootstrap,
          seed, n_values, delta_p_values, n_seeds, inner_samples,
          subsample_n, atoms, weights, lam, kx_sigma, group_by, workers,
          timings, out_path, config_path):
    """Run the test once per grid cell and seed; write CSV plus summary."""
    cfg, explicit = resolve_config(
        _SWEEP_KEYS, config_path, kernel_x=kernel_x, kernel_y=kernel_y,
        sigma_p=sigma_p, alpha=alpha, bootstrap=bootstrap, seed=seed,
        family=family, workers=workers, timings=timings, n_values=n_values,
        delta_p_values=delta_p_values, n_seeds=n_seeds,
        inner_samples=inner_samples, subsample_n=subsample_n, atoms=atoms,
        weights=weights, lam=lam, kx_sigma=kx_sigma, group_by=group_by)
    family_v = config_family(cfg)
    alpha_v = config_alpha(cfg)
    b_count = config_positive_int(cfg, "bootstrap")
    seed_v = config_seed(cfg)
    n_seeds_v = config_positive_int(cfg, "n_seeds")
    workers_v = config_positive_int(cfg, "workers")
    sigma = config_sigma_p(cfg)
    inner = config_optional_positive_int(cfg, "inner_samples", minimum=2)
    timings_v = bool(cfg["timings"])

    if input_path is not None:
        if cfg["group_by"] is None:
            raise ConfigError("dataset sweeps need --group-by group")
        if cfg["group_by"] != "group":
            raise ConfigError(
                f"records carry a single label field 'group'; "
                f"cannot group by {cfg['group_by']!r}")
        ky = config_kernel(cfg, "kernel_y")
        if family_v == "rel":
            records, _ = load_reliability_records(input_path)
            records = _trim_model_samples(records, inner)
            kx = None
        else:
            records, _ = load_triplets(input_path)
            kx = config_kernel(cfg, "kernel_x")
        rows = run_group_sweep(
            records, family_v, kx, ky, n_seeds_v,
            subsample_n=config_optional_positive_int(cfg, "subsample_n",
                                                     minimum=2),
            alpha=alpha_v, bootstrap=b_count, sigma_p=sigma, seed=seed_v,
            workers=workers_v, timings=timings_v)
        group_mode = True
    else:
        for key in ("kernel_x", "kernel_y"):
            if key in explicit:
                raise ConfigError(
                    f"{key} applies to dataset sweeps; toy sweeps always use "
                    "the toy process's own kernels (set lam and kx_sigma)")
        if cfg["subsample_n"] is not None or cfg["group_by"] is not None:
            raise ConfigError("subsample_n and group_by need --input")
        toy = config_toy(cfg, delta_p=0.0)
        dps = config_delta_p_values(cfg)
        ns = config_n_values(cfg)
        for dp in dps:
            try:
                toy.with_delta_p(dp)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        rows = run_toy_sweep(
            toy, ns, dps, n_seeds_v, family=family_v, alpha=alpha_v,
            bootstrap=b_count, inner_samples=inner, sigma_p=sigma,
            seed=seed_v, workers=workers_v, timings=timings_v)
        group_mode = False

    write_sweep_csv(out_path, rows, group_mode)
    resolved = {key: cfg[key] for key in sorted(_SWEEP_KEYS)}
    resolved["command"] = "sweep"
    resolved["input"] = str(input_path) if input_path else None
    resolved["out"] = str(out_path)
    summary = summarize_sweep(rows, group_mode, config=resolved)
    summary_path = Path(out_path).with_suffix(".summary.json")
    write_report(summary_path, summary)
    click.echo(f"wrote {len(rows)} rows to {out_path} "
               f"and summary to {summary_path}")


# ---------------------------------------------------------------------------
# toy-generate / toy-exact


@cli.command("toy-generate")
@click.option("--n", type=int, default=None, help="Number of records.")
@click.option("--delta-p", type=float, default=None,
              help="First-position perturbation.")
@click.option("--atoms", default=None, help="Prior atoms, comma-separated.")
@click.option("--weights", default=None, help="Prior weights, comma-separated.")
@click.option("--lam", type=float, default=None, help="Output-kernel decay.")
@click.option("--family", default=None, type=click.Choice(["acmmd", "rel"]),
              help="Record shape to write.")
@click.option("--inner-samples", type=int, default=None,
              help="Model samples per record (rel family).")
@click.option("--seed", type=int, default=None, help="Base seed.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True, help="JSONL output path.")
@_opt_config
def toy_generate(n, delta_p, atoms, weights, lam, family, inner_samples,
                 seed, out_path, config_path):
    """Sample a toy-process dataset and write it as JSONL."""
    cfg, _ = resolve_config(
        {"n", "delta_p", "atoms", "weights", "lam", "kx_sigma", "family",
         "inner_samples", "seed"}, config_path, n=n, delta_p=delta_p,
        atoms=atoms, weights=weights, lam=lam, family=family,
        inner_samples=inner_samples, seed=seed)
    if cfg["n"] is None:
        raise ConfigError("n is required")
    n_v = cfg["n"]
    if not isinstance(n_v, int) or isinstance(n_v, bool) or n_v < 0:
        raise ConfigError(f"n must be a nonnegative integer, got {n_v!r}")
    toy = config_toy(cfg)
    seed_v = config_seed(cfg)
    family_v = config_family(cfg)
    if family_v == "rel":
        r = config_optional_positive_int(cfg, "inner_samples", minimum=2)
        if r is None:
            r = default_inner_samples(max(n_v, 1))
        records = generate_reliability_records(toy, n_v, r, seed_v)
        write_reliability_records(out_path, records, alphabet=TOY_ALPHABET)
    else:
        triplets = generate_triplets(toy, n_v, seed_v)
        write_triplets(out_path, triplets, alphabet=TOY_ALPHABET)
    click.echo(f"wrote {n_v} records to {out_path}")


@cli.command("toy-exact")
@click.option("--delta-p", type=float, default=None,
              help="First-position perturbation.")
@click.option("--atoms", default=None, help="Prior atoms, comma-separated.")
@click.option("--weights", default=None, help="Prior weights, comma-separated.")
@click.option("--lam", type=float, default=None, help="Output-kernel decay.")
@click.option("--kx-sigma", type=float, default=None,
              help="Input-kernel bandwidth.")
@click.option("--sigma-p", default=None,
              help="Distribution-kernel bandwidth for the reliability value.")
@_opt_out
@_opt_config
def toy_exact(delta_p, atoms, weights, lam, kx_sigma, sigma_p, out_path,
              config_path):
    """Print closed-form population values for a toy configuration."""
    cfg, explicit = resolve_config(
        {"delta_p", "atoms", "weights", "lam", "kx_sigma", "sigma_p"},
        config_path, delta_p=delta_p, atoms=atoms, weights=weights, lam=lam,
        kx_sigma=kx_sigma, sigma_p=sigma_p)
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
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except ValueError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
