"""Workloads of the acmmd benchmark: inputs, CLI commands and output checks.

Each workload is one CLI command run through `acmmd.cli.main(argv)`. The
benchmark's `--seed` becomes the command's own `--seed` (bootstrap signs and
decision tie-breaks; for the sweep also the data of every cell). The input
file of a single-test workload comes from a fixed data seed instead: the
cost of those tests follows the encoded width and the number of distinct
rows, and both swing with the data seed (the width of the N=4000 toy set
ranges from 63 to 127 over seeds 0-7), so a data seed taken from `--seed`
would make the timings depend on the seed rather than on the program.

acmmd is imported inside the functions only, so that a caller can time
`import acmmd.cli` first.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9
TEXT_SYMBOLS = tuple(f"s{i:02d}" for i in range(64))
TEXT_DIM = 8
TEXT_LENGTHS = (16, 64)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name, as given to `--workload`.
        kind: "gof-toy", "rel-toy", "sweep" or "gof-text".
        n: records per test.
        bootstrap: wild-bootstrap draws per test.
        data_seed: seed of the input file; None for the sweep, whose data
            the program draws from its own `--seed`.
        delta_p: toy perturbation.
        inner: model samples per reliability record.
        n_seeds: tests in the sweep.
        workers: sweep worker processes.
        kernel_y: output kernel flag, when the command sets one.
        expect_reject: the decision every seed must reach, or None.
        reject_band: bounds on the sweep's rejection rate, or None.
    """

    name: str
    kind: str
    n: int
    bootstrap: int
    data_seed: int | None = None
    delta_p: float = 0.0
    inner: int = 0
    n_seeds: int = 1
    workers: int = 1
    kernel_y: str | None = None
    expect_reject: bool | None = None
    reject_band: tuple[float, float] | None = None

    @property
    def records_per_command(self) -> int:
        """Records tested by one command: N, or N x seeds for a sweep."""
        return self.n * self.n_seeds

    @property
    def has_input(self) -> bool:
        return self.kind != "sweep"


WORKLOADS = {w.name: w for w in (
    Workload("gof-toy-n4000", "gof-toy", n=4000, bootstrap=100, data_seed=1,
             delta_p=0.25, expect_reject=True),
    Workload("rel-toy-n1000-r64", "rel-toy", n=1000, bootstrap=100,
             data_seed=1, delta_p=0.25, inner=64, expect_reject=True),
    Workload("sweep-level-n200", "sweep", n=200, bootstrap=100, delta_p=0.0,
             n_seeds=300, workers=2, reject_band=(0.02, 0.09)),
    Workload("gof-text-n3000", "gof-text", n=3000, bootstrap=100,
             data_seed=1, kernel_y="exp-hamming:lambda=0.05"),
)}

# Same commands at sizes that run in about a second, for the smoke test.
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload("gof-toy-n4000", "gof-toy", n=150, bootstrap=20, data_seed=1,
             delta_p=0.25),
    Workload("rel-toy-n1000-r64", "rel-toy", n=30, bootstrap=20,
             data_seed=1, delta_p=0.25, inner=8),
    Workload("sweep-level-n200", "sweep", n=20, bootstrap=20, delta_p=0.0,
             n_seeds=8, workers=2),
    Workload("gof-text-n3000", "gof-text", n=100, bootstrap=100,
             data_seed=1, kernel_y="exp-hamming:lambda=0.05"),
)}


def get(name: str, smoke: bool = False) -> Workload:
    table = SMOKE_WORKLOADS if smoke else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# Inputs


def text_triplets(n: int, seed: int) -> list:
    """Triplets over a 64-symbol alphabet that share no output rows.

    Lengths are uniform on 16..64 and symbols uniform, for data and model
    outputs alike; `x` is an 8-d standard normal embedding.
    """
    import numpy as np

    from acmmd.records import Item, Triplet

    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, TEXT_DIM))
    symbols = np.array(TEXT_SYMBOLS, dtype=object)

    def sequences():
        lens = rng.integers(TEXT_LENGTHS[0], TEXT_LENGTHS[1] + 1, size=n)
        toks = symbols[rng.integers(0, len(TEXT_SYMBOLS), size=int(lens.sum()))]
        cuts = np.concatenate(([0], np.cumsum(lens)))
        return [tuple(toks[cuts[i]:cuts[i + 1]]) for i in range(n)]

    ys = sequences()
    yms = sequences()
    if len(set(ys + yms)) != 2 * n:
        raise ValueError("text generator produced a repeated output row")
    return [Triplet(x=Item(embedding=xs[i]), y=Item(tokens=ys[i]),
                    y_model=Item(tokens=yms[i])) for i in range(n)]


def write_input(w: Workload, path) -> None:
    """Generate the workload's input and write it as JSONL."""
    from acmmd.io import write_reliability_records, write_triplets
    from acmmd.sequences import Alphabet
    from acmmd.toy import (TOY_ALPHABET, ToyConfig,
                           generate_reliability_records, generate_triplets)

    if w.kind == "gof-toy":
        triplets = generate_triplets(ToyConfig(delta_p=w.delta_p), w.n,
                                     w.data_seed)
        write_triplets(path, triplets, alphabet=TOY_ALPHABET)
    elif w.kind == "rel-toy":
        records = generate_reliability_records(
            ToyConfig(delta_p=w.delta_p), w.n, w.inner, w.data_seed)
        write_reliability_records(path, records, alphabet=TOY_ALPHABET)
    elif w.kind == "gof-text":
        write_triplets(path, text_triplets(w.n, w.data_seed),
                       alphabet=Alphabet(TEXT_SYMBOLS))
    else:
        raise ValueError(f"workload {w.name} has no input file")


def argv(w: Workload, seed: int, input_path, out_path,
         workers: int | None = None) -> list[str]:
    """CLI arguments of one command; `workers` overrides the sweep's."""
    if w.kind == "sweep":
        return ["sweep", "--n-values", str(w.n),
                "--delta-p-values", repr(w.delta_p),
                "--n-seeds", str(w.n_seeds), "--bootstrap", str(w.bootstrap),
                "--workers", str(workers or w.workers), "--seed", str(seed),
                "--out", str(out_path)]
    args = ["rel-test" if w.kind == "rel-toy" else "test",
            "--input", str(input_path)]
    if w.kernel_y is not None:
        args += ["--kernel-y", w.kernel_y]
    return args + ["--bootstrap", str(w.bootstrap), "--seed", str(seed),
                   "--out", str(out_path)]


def out_name(w: Workload, tag: str) -> str:
    return f"out-{tag}.csv" if w.kind == "sweep" else f"out-{tag}.json"


# ---------------------------------------------------------------------------
# Output checks


def _close(value, expected, what: str, problems: list) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= REL_TOL * abs(expected)):
        problems.append(f"{what} {value!r} differs from reference {expected!r}")


def _equal(value, expected, what: str, problems: list) -> None:
    if value != expected:
        problems.append(f"{what} {value!r} differs from reference {expected!r}")


def check_output(w: Workload, seed: int, out_path, ref: dict) -> list[str]:
    """Problems found in one command's output; empty when it is correct.

    `ref` is the workload's entry of the reference file: values that hold
    for every seed, plus per-seed values for the seeds recorded there.
    """
    try:
        if w.kind == "sweep":
            return _check_sweep(w, seed, Path(out_path), ref)
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        return _check_test(w, seed, report, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output {out_path}: {exc!r}"]


def _check_test(w: Workload, seed: int, report: dict, ref: dict) -> list[str]:
    problems: list[str] = []
    _equal(report["n"], w.n, "n", problems)
    _equal(report["bootstrap"], w.bootstrap, "bootstrap", problems)
    _equal(report["seed"], seed, "seed", problems)
    _close(report["statistic"], ref["statistic"], "statistic", problems)
    _close(report["sigma_h_sq"], ref["sigma_h_sq"], "sigma_h_sq", problems)
    if w.expect_reject is not None:
        _equal(report["reject"], w.expect_reject, "reject", problems)
    if not 0 < report["p_value"] <= 1:
        problems.append(f"p_value {report['p_value']!r} outside (0, 1]")
    one = ref["seeds"].get(str(seed))
    if one is not None:
        _close(report["threshold"], one["threshold"], "threshold", problems)
        _equal(report["reject"], one["reject"], "reject", problems)
        _equal(report["p_value"], one["p_value"], "p_value", problems)
        _equal(report["decision"]["position"], one["position"],
               "decision.position", problems)
    return problems


def _check_sweep(w: Workload, seed: int, path: Path, ref: dict) -> list[str]:
    problems: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    _equal(header, ["n", "delta_p", "seed", "statistic", "p_value", "reject",
                    "runtime_ms"], "CSV header", problems)
    _equal(len(body), w.n_seeds, "CSV row count", problems)
    if problems:
        return problems
    rejects = []
    for i, row in enumerate(body):
        _equal((int(row[0]), float(row[1]), int(row[2]), row[6]),
               (w.n, w.delta_p, i, "0"), f"row {i} fields", problems)
        rejects.append(int(row[5]))
    one = ref["seeds"].get(str(seed))
    if one is not None:
        for i, row in enumerate(body):
            _close(float(row[3]), one["statistic"][i], f"row {i} statistic",
                   problems)
            _equal(float(row[4]), (1 + one["exceed"][i]) / (w.bootstrap + 1),
                   f"row {i} p_value", problems)
        _equal("".join(map(str, rejects)), one["reject"], "reject column",
               problems)
    rate = sum(rejects) / len(rejects)
    if w.reject_band is not None:
        lo, hi = w.reject_band
        if not lo <= rate <= hi:
            problems.append(f"rejection rate {rate} outside [{lo}, {hi}]")
    with open(path.with_suffix(".summary.json"), encoding="utf-8") as fh:
        cell = json.load(fh)["cells"][0]
    _equal((cell["n_seeds"], cell["rejections"]), (w.n_seeds, sum(rejects)),
           "summary counts", problems)
    return problems
