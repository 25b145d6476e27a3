"""The cfshrink benchmark: one command for every workload, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload full-roots --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selftest

A run first starts SETUP_SAMPLES fresh processes that only import
`cfshrink` and build the inputs, then runs whole passes over the
workload's job list, each pass in a fresh worker process, until --seconds
have gone by (at least one pass).  Jobs run back to back from one caller
on one thread.  The outputs of every pass are checked after timing.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run ends well inside 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rel_width_geomean": "1"}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("ivec.ipow_neg.calls", "count", "lower"),
    ("ivec.ipow_neg.elements", "count", "lower"),
    ("ivec.ipow_neg.s", "s", "lower"),
    ("ivec.ipow_neg.ns_per_element", "ns", "lower"),
    ("ivec.iexp.s", "s", "lower"),
    ("ivec.iln.s", "s", "lower"),
    ("ivec.tree_sum.s", "s", "lower"),
    ("transfer.evals", "count", "lower"),
    ("transfer.evals.level0", "count", "lower"),
    ("transfer.evals.level1", "count", "lower"),
    ("transfer.evals.level2", "count", "lower"),
    ("transfer.evals.level3", "count", "lower"),
    ("transfer.setup_s", "s", "lower"),
    ("transfer.iter_s", "s", "lower"),
    ("transfer.bin_steps", "count", "lower"),
    ("transfer.rel_width.level0", "1", "lower"),
    ("transfer.rel_width.level1", "1", "lower"),
    ("transfer.rel_width.level2", "1", "lower"),
    ("sums.lambda_enclosure.calls", "count", "lower"),
    ("sums.lambda_enclosure.hits", "count", "higher"),
    ("sums.lemma_sum_batch.calls", "count", "lower"),
    ("sums.lemma_sum_batch.s", "s", "lower"),
    ("sums.zeta_enclosure.s", "s", "lower"),
    ("rounding.ops", "count", "lower"),
    ("rounding.s", "s", "lower"),
    ("predim.solve_predim.calls", "count", "lower"),
    ("predim.solve_predim.s", "s", "lower"),
    ("predim.evals_per_root", "1", "lower"),
    ("predim.escalations", "count", "lower"),
    ("pressure.pressure_root.s", "s", "lower"),
    ("pressure.evals_per_root", "1", "lower"),
    ("pressure.exact_words", "count", "lower"),
    ("pressure.bracket_width", "1", "lower"),
    ("shrink.cover_svolume.s", "s", "lower"),
    ("shrink.hit_times.s", "s", "lower"),
    ("massdist.build_witness.s", "s", "lower"),
    ("massdist.holder_check.s", "s", "lower"),
    ("massdist.holder_check.us_per_sample", "us", "lower"),
    ("massdist.solve_finite_s.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, *, timeout, tiny=False, trace=False, setup_only=False) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    OUT.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="pass-", suffix=".json", dir=OUT)
    os.close(fd)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--result", path]
    cmd += ["--tiny"] * tiny + ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=max(timeout, 1.0),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        if proc.stderr:
            sys.stderr.write(proc.stderr[-3000:])
        with open(path) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"worker did not finish within {timeout:.0f} s") from err
    finally:
        os.unlink(path)


def _geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def _derived_layers(workload, spec, out) -> dict:
    """Per-layer figures that come from the inputs and outputs, not from spans."""
    roots = spec.get("roots", []) if workload == "pressure" else []
    exact = [len(a) ** d for a, d in roots if tuple(a) != tuple(range(1, len(a) + 1))]
    brackets = [float(checks.width(v["bracket"])) for k, v in out.items() if k.startswith("root/")]
    return {
        "pressure.exact_words": sum(exact),
        "pressure.bracket_width": _geomean(brackets),
        "cli.artifact_bytes": sum(v["bytes"] for k, v in out.items() if k.endswith("_cli")),
    }


def _verify(workload, spec, passes) -> list:
    """Failure messages over every pass's outputs; empty when all checks hold."""
    bad = []
    for i, p in enumerate(passes):
        for name, msgs in checks.run_checks(workload, spec, p["outputs"]).items():
            bad += [f"pass {i} {name}: {m}" for m in msgs]
    first = json.dumps(passes[0]["outputs"], sort_keys=True)
    if any(json.dumps(p["outputs"], sort_keys=True) != first for p in passes[1:]):
        bad.append("outputs differ between passes of the same inputs")
    return bad


def measure(args) -> int:
    if not (ROOT / "src" / "cfshrink" / "__init__.py").is_file():
        print(f"no cfshrink source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    spec = workloads.make_spec(args.workload, args.seed)
    left = lambda: start + RUN_LIMIT_S - time.monotonic()  # noqa: E731
    try:
        setups = [run_worker(args.workload, args.seed, setup_only=True, timeout=left())["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        passes = []
        t0 = time.monotonic()
        while True:
            t_pass = time.monotonic()
            passes.append(run_worker(args.workload, args.seed, trace=args.trace, timeout=left()))
            took = time.monotonic() - t_pass
            if time.monotonic() - t0 >= args.seconds or left() < 1.5 * took + 10:
                break
    except WorkerError as err:
        print(err, file=sys.stderr)
        return 1

    bad = _verify(args.workload, spec, passes)
    for msg in bad:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        for name, msg in p["failed"].items():
            print(f"FAILED OPERATION {name}: {msg}", file=sys.stderr)

    median = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in passes[0]["layers"]}
        values.update(_derived_layers(args.workload, spec, passes[0]["outputs"]))
        values["bench.traced_wall_s"] = median("wall_s")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        print("trace files: " + ", ".join(p["trace_file"] for p in passes), file=sys.stderr)
    else:
        values = {
            "wall_s": median("wall_s"),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": median("peak_rss_mb"),
            "rel_width_geomean": _geomean(
                checks.rel_widths(args.workload, spec, passes[0]["outputs"])),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(p["jobs"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def selftest() -> int:
    """Tiny instances of every workload: each check must pass on the real
    outputs and fail on its corrupted copy; BENCHMARK.json must name the
    metrics this file reports."""
    problems = []
    for workload in workloads.WORKLOADS:
        spec = workloads.make_spec(workload, 1, tiny=True)
        res = run_worker(workload, 1, tiny=True, trace=True, timeout=RUN_LIMIT_S)
        out = res["outputs"]
        problems += [f"{workload}: operation {k} failed: {v}" for k, v in res["failed"].items()]
        missing = {n for n, _, _ in PER_LAYER} - set(res["layers"]) - set(
            _derived_layers(workload, spec, out)) - {"bench.traced_wall_s"}
        problems += [f"{workload}: layer metric {n} not reported" for n in sorted(missing)]
        for name, fn, _ in checks.CHECKS[workload]:
            msgs = fn(spec, out)
            caught = fn(spec, checks.corrupted(workload, name, out))
            state = "ok" if not msgs and caught else "BROKEN"
            print(f"{workload:15s} {name:30s} clean={'pass' if not msgs else 'FAIL'} "
                  f"corrupted={'rejected' if caught else 'ACCEPTED'} {state}", file=sys.stderr)
            problems += [f"{workload}/{name}: {m}" for m in msgs]
            if not caught:
                problems.append(f"{workload}/{name}: corrupted outputs were accepted")
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    if [m["name"] for m in declared["per_layer"]] != [n for n, _, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer names differ from run.py")
    if sorted(m["name"] for m in declared["end_to_end"]) != sorted(END_TO_END):
        problems.append("BENCHMARK.json end_to_end names differ from run.py")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for p in problems:
        print(f"SELFTEST: {p}", file=sys.stderr)
    print(json.dumps({"selftest": "FAIL" if problems else "PASS", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="run every check on tiny inputs")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
