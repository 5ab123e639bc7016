"""Benchmark of the acmmd CLI: end-to-end metrics, output checks, layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Each run starts fresh interpreters (perfbench/child.py) with the checkout's
`src` on PYTHONPATH and the BLAS thread variables removed, so the libraries
pick their defaults as they do for a user:

* --trace 0: three set-up processes, each importing acmmd.cli and writing
  the input file (`setup_s` is their median wall time), then one process
  that runs the command again and again for about --seconds, at least three
  times (`wall_s` is the median). Every output is checked against
  perfbench/reference.json; a non-zero exit or a failed check is a failed
  command.
* --trace 1: one process that wraps every public function of the layer
  modules (perfbench/tracer.py), writes the input and runs the command
  traced, between two untraced runs; it reports the per-layer metrics named
  in BENCHMARK.json and writes the spans to .perfbench_work/<workload>/.

`--workload all` runs the four workloads of perfbench/workloads.py in turn.
BENCHMARK.json lists only rel-toy-n1000-r64 and sweep-level-n200, the two
that between them reach every layer: on a shared 2-CPU host the machine's
speed drifts over minutes, and only long runs of few workloads keep the
run-to-run spread inside the bounds. gof-toy-n4000 and gof-text-n3000 run
on request, for the large dense Hamming Gram.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. --smoke runs the same
commands at small sizes. The process exits non-zero without a result when
the checkout holds no acmmd sources or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
MIN_REPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(job: dict, root: Path, deadline: float) -> tuple[dict, float]:
    """Run child.py on `job`; return its result and its wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a child process could start")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{job['mode']} process timed out") from None
    finally:
        _kill_group(proc.pid)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(output.decode(errors="replace"))
        raise BenchError(f"{job['mode']} process exited with {proc.returncode}")
    with open(job["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    src = (root / "src").resolve()
    if not Path(result["acmmd_file"]).resolve().is_relative_to(src):
        raise BenchError(f"acmmd was imported from {result['acmmd_file']}, "
                         f"not from {src}")
    return result, wall


def _kill_group(pgid: int) -> None:
    """Stop processes the child left behind, such as pool workers."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def load_reference(smoke: bool) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["smoke" if smoke else "full"]


def count_failures(w, seed: int, commands: list[dict], ref: dict
                   ) -> tuple[int, list[str]]:
    """Commands that exited non-zero or whose output failed a check."""
    failed = 0
    notes = []
    for cmd in commands:
        if cmd["code"] != 0:
            problems = [f"exit code {cmd['code']}"]
        else:
            problems = workloads.check_output(w, seed, cmd["out"], ref)
        if problems:
            failed += 1
            notes.append(f"{Path(cmd['out']).name}: " + "; ".join(problems))
    return failed, notes


def run_e2e(w, args, root: Path, work: Path, ref: dict, deadline: float
            ) -> dict:
    base = {"workload": w.name, "smoke": args.smoke, "seed": args.seed,
            "work": str(work)}
    setup_walls = []
    digests = set()
    inputs = []
    for i in range(1 if args.smoke else SETUP_RUNS):
        path = work / f"input-{i}.jsonl"
        job = dict(base, mode="setup", input=str(path),
                   result=str(work / f"setup-{i}.json"))
        _, wall = run_child(job, root, deadline)
        setup_walls.append(wall)
        if w.has_input:
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
            inputs.append(path)
    notes = []
    if len(digests) > 1:
        notes.append("set-up runs wrote different input files")
    for path in inputs[1:]:
        path.unlink()
    job = dict(base, mode="measure", input=str(inputs[0]) if inputs else None,
               result=str(work / "measure.json"), seconds=args.seconds,
               min_reps=1 if args.smoke else MIN_REPS,
               budget_s=deadline - time.monotonic() - 5.0)
    result, _ = run_child(job, root, deadline)
    reps = result["reps"]
    failed, check_notes = count_failures(w, args.seed, reps, ref)
    notes += check_notes
    ok_walls = [r["wall_s"] for r in reps if r["code"] == 0]
    if not ok_walls:
        raise BenchError("every command failed: " + " | ".join(notes))
    wall = statistics.median(ok_walls)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "records_per_s": w.records_per_command / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {"correct": failed == 0 and not notes, "attempted": len(reps),
            "failed": failed, "metrics": metrics, "notes": notes,
            "env": result["env"], "samples": {"setup_s": setup_walls,
                                              "wall_s": ok_walls}}


def run_trace(w, args, root: Path, work: Path, ref: dict, deadline: float
              ) -> dict:
    job = {"workload": w.name, "smoke": args.smoke, "seed": args.seed,
           "work": str(work), "mode": "trace",
           "input": str(work / "input.jsonl") if w.has_input else None,
           "result": str(work / "trace.json")}
    result, _ = run_child(job, root, deadline)
    failed, notes = count_failures(w, args.seed, result["commands"], ref)
    notes += result["problems"]
    return {"correct": failed == 0 and not notes,
            "attempted": len(result["commands"]), "failed": failed,
            "metrics": result["metrics"], "notes": notes,
            "env": result["env"], "samples": {},
            "spans": str(work / "spans.json")}


def declared_metrics(root: Path, trace: bool) -> list[dict]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def run_workload(w, args, root: Path, deadline: float) -> dict:
    work = root / ".perfbench_work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref = load_reference(args.smoke)[w.name]
    run = run_trace if args.trace else run_e2e
    out = run(w, args, root, work, ref, deadline)
    metrics = {}
    for m in declared_metrics(root, bool(args.trace)):
        metrics[m["name"]] = {"value": out["metrics"].get(m["name"], 0.0),
                              "unit": m["unit"]}
    out["metrics"] = metrics
    out["env"]["git_revision"] = git_revision(root)
    return out


def report_lines(name: str, out: dict) -> list[str]:
    lines = [f"[{name}] {k} = {v['value']:.6g} {v['unit']}"
             for k, v in out["metrics"].items()]
    rate = out["failed"] / out["attempted"]
    lines.append(f"[{name}] error_rate = {rate:.6g} ratio "
                 f"({out['failed']} of {out['attempted']} commands failed)")
    lines += [f"[{name}] failed: {note}" for note in out["notes"]]
    lines += [f"[{name}] {k} samples: {v}" for k, v in out["samples"].items()]
    if "spans" in out:
        lines.append(f"[{name}] spans written to {out['spans']}")
    lines.append(f"[{name}] env {json.dumps(out['env'], sort_keys=True)}")
    return lines


def result_line(out: dict) -> str:
    return json.dumps({k: out[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "acmmd" / "cli.py").is_file():
        print(f"error: no acmmd sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    table = (workloads.SMOKE_WORKLOADS if args.smoke
             else workloads.WORKLOADS)
    names = list(table) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {}
        for name in names:
            out = run_workload(workloads.get(name, args.smoke), args, root,
                               deadline)
            print("\n".join(report_lines(name, out)), flush=True)
            results[name] = out
    except (BenchError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(result_line(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
