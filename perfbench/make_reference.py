"""Record the reference outputs that the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout; writes perfbench/reference.json. For the
single-test workloads the statistic and sigma_h_sq do not depend on the
command's --seed (the input file is fixed), so they are recorded once; the
decision outputs are recorded for each seed in SEEDS, from one h matrix and
the same `test_from_h` the CLI calls, and the CLI's own report is compared
with them for the first seeds. Sweeps are recorded by running the CLI.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import workloads

SEEDS = {"full": range(32), "smoke": range(4)}
CLI_CHECKED_SEEDS = 2


def test_reference(w, work: Path, seeds) -> dict:
    from acmmd.cli import main
    from acmmd.config import DEFAULTS
    from acmmd.io import load_reliability_records, load_triplets
    from acmmd.kernels import KernelSpec
    from acmmd.reliability import inner_samples_summary, rel_h_matrix
    from acmmd.estimator import h_matrix
    from acmmd.testing import test_from_h

    path = work / f"{w.name}.jsonl"
    workloads.write_input(w, path)
    ky = KernelSpec.parse(w.kernel_y or DEFAULTS["kernel_y"])
    if w.kind == "rel-toy":
        records, _ = load_reliability_records(path)
        h = rel_h_matrix(records, KernelSpec("dist-expmmd", sigma="median",
                                             inner=ky), ky)
        extra = {"sigma_p": h.kx.sigma_resolved,
                 "inner_samples": inner_samples_summary(records)}
    else:
        records, _ = load_triplets(path)
        h = h_matrix(records, KernelSpec.parse(DEFAULTS["kernel_x"]), ky)
        extra = {}
    out: dict = {"seeds": {}}
    for seed in seeds:
        report = test_from_h(h, DEFAULTS["alpha"], w.bootstrap, seed,
                             extra=extra).to_dict()
        if seed < CLI_CHECKED_SEEDS:
            cli_out = work / f"{w.name}-{seed}.json"
            if main(workloads.argv(w, seed, path, cli_out)) != 0:
                raise SystemExit(f"{w.name}: CLI failed on seed {seed}")
            cli_report = json.loads(cli_out.read_text())
            mismatch = {k for k, v in report.items() if cli_report[k] != v}
            if mismatch:
                raise SystemExit(f"{w.name}: CLI differs in {sorted(mismatch)}")
        out["statistic"] = report["statistic"]
        out["sigma_h_sq"] = report["sigma_h_sq"]
        out["seeds"][str(seed)] = {
            "threshold": report["threshold"], "reject": report["reject"],
            "p_value": report["p_value"],
            "position": report["decision"]["position"]}
    return out


def sweep_reference(w, work: Path, seeds) -> dict:
    from acmmd.cli import main

    out: dict = {"seeds": {}}
    for seed in seeds:
        path = work / f"{w.name}-{seed}.csv"
        if main(workloads.argv(w, seed, None, path, workers=1)) != 0:
            raise SystemExit(f"{w.name}: CLI failed on seed {seed}")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        exceed = []
        for row in rows:
            p = float(row["p_value"])
            k = round(p * (w.bootstrap + 1)) - 1
            if (1 + k) / (w.bootstrap + 1) != p:
                raise SystemExit(f"{w.name}: p_value {p} is not (1+k)/(B+1)")
            exceed.append(k)
        out["seeds"][str(seed)] = {
            "statistic": [_round(float(row["statistic"])) for row in rows],
            "exceed": exceed,
            "reject": "".join(row["reject"] for row in rows)}
        print(f"{w.name} seed {seed}", file=sys.stderr, flush=True)
    return out


def _round(value: float) -> float:
    """Twelve significant digits: well inside the checks' 1e-9 tolerance."""
    return float(f"{value:.12g}")


def dumps(obj, depth: int = 4, indent: int = 0) -> str:
    """JSON with one line per entry below `depth` levels of nesting."""
    if depth == 0 or not isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True)
    pad = " " * (indent + 1)
    items = [f"{pad}{json.dumps(k)}: {dumps(v, depth - 1, indent + 1)}"
             for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def main() -> int:
    work = Path(".perfbench_work") / "reference"
    work.mkdir(parents=True, exist_ok=True)
    revision = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    result: dict = {"revision": revision}
    for table_name, table in (("smoke", workloads.SMOKE_WORKLOADS),
                              ("full", workloads.WORKLOADS)):
        seeds = SEEDS[table_name]
        result[table_name] = {
            w.name: (sweep_reference(w, work, seeds) if w.kind == "sweep"
                     else test_reference(w, work, seeds))
            for w in table.values()}
    target = Path(__file__).resolve().parent / "reference.json"
    target.write_text(dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
