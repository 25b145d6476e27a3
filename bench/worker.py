"""One pass of one workload, in a fresh process.

The program's module caches start empty here, as they do for a command
line user.  The pass writes one JSON result: its set-up time (from the
start of this script until `cfshrink` is imported and the inputs are
built), the time spent inside the program's calls, the peak resident
memory, every job's output and the jobs that raised.  With --trace the
layer wrappers are installed first and the layer metrics are added.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import cfshrink

    if Path(cfshrink.__file__).resolve().parent != ROOT / "src" / "cfshrink":
        print(f"cfshrink imported from {cfshrink.__file__}, not this checkout", file=sys.stderr)
        return 3
    import workloads

    spec = workloads.make_spec(args.workload, args.seed, args.tiny)
    inputs = workloads.prepare(args.workload, spec)
    result = {"setup_s": time.perf_counter() - _T0}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        OUT.mkdir(exist_ok=True)
        clock = workloads.Clock()
        cli_dir = OUT / f"cli-{os.getpid()}"
        jobs = workloads.job_list(args.workload, spec, inputs, clock, str(cli_dir))
        outputs, failed, job_s = {}, {}, {}
        for name, job in jobs:
            before = clock.total
            try:
                outputs[name] = job()
            except Exception as err:  # one failed operation; the pass goes on
                traceback.print_exc()
                failed[name] = f"{type(err).__name__}: {err}"
            job_s[name] = clock.total - before
        shutil.rmtree(cli_dir, ignore_errors=True)
        result.update(
            wall_s=clock.total,
            jobs=len(jobs),
            job_s=job_s,
            outputs=outputs,
            failed=failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json.gz"
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                     "wall_s": clock.total, "layers": result["layers"]})
            result["trace_file"] = str(trace_path.relative_to(ROOT))

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
