"""The benchmark's workloads: seeded inputs, job lists and recorded outputs.

`make_spec` turns (workload, seed) into plain data; it imports nothing from
`cfshrink`, so the checker can rebuild the same inputs.  `job_list` runs in
the worker process after `import cfshrink`: its jobs time only the
program's own calls and return JSON-ready outputs.  Certified enclosures
are recorded exactly, as the signed mantissa and exponent of each binary
bound.

The seeded ranges are narrow on purpose: every seed must do the same work
and give enclosures of nearly the same width, so that run-to-run spread
measures the program and not the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import time
from fractions import Fraction

WORKLOADS = ("full-roots", "pressure", "witness-checks")

TARGETS = ("zero", "ones", "exp_half")

# non-contiguous digit sets of size 4: |A|^7 = 16384 words on the exact route
EXACT_ALPHABETS = ((1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (1, 2, 3, 6))


def cf_value(digits) -> Fraction:
    """Exact [0; a_1, ..., a_k]."""
    x = Fraction(0)
    for a in reversed(digits):
        x = 1 / (a + x)
    return x


def make_spec(workload: str, seed: int, tiny: bool = False) -> dict:
    """Plain-data inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "full-roots":
        s_a = round(rng.uniform(0.76, 0.80), 4)
        offset = round(rng.uniform(0.04, 0.06), 4)
        lam_points = [[s_a, 0], [s_a, 1], [s_a + 0.05, 0], [s_a + 0.05, 1]]
        if not tiny:
            lam_points.insert(2, [s_a, 2])
        return {
            "tol": 1e-3,
            "level_one": [[B, t] for B in ((2,) if tiny else (2, 4)) for t in TARGETS],
            "roots": [[2, 4, "zero"]] if tiny else [[2, 4, "zero"], [2, 3, "ones"], [2, 5, "exp_half"]],
            # tol 4e-5 is below what level 1 resolves at n = 2, so it escalates to level 2
            "tight": {"n": 2, "B": 4, "kind": 1, "tol": 1e-4 if tiny else 4e-5},
            "cover": {"target": "zero", "B": 4, "levels": [2], "offset": offset},
            "lambda": {"n": 3, "points": lam_points},
        }
    if workload == "pressure":
        B = 4
        s_est = round(rng.uniform(0.64, 0.66), 4)
        exact = rng.choice(EXACT_ALPHABETS)
        if tiny:
            return {
                "B": B,
                "roots": [[[1, 2, 3], 4], [list(exact[:3]), 4]],
                "estimate": {"alphabet": [1, 2, 3], "depth": 3, "s": s_est, "method": "dp"},
            }
        return {
            "B": B,
            # {1..5}^8 = 390625 words: the envelope route; A^7 = 16384: exact
            "roots": [[[1, 2, 3, 4, 5], 8], [list(exact), 7]],
            "estimate": {"alphabet": [1, 2, 3, 4, 5], "depth": 8, "s": s_est, "method": "auto"},
        }
    if workload == "witness-checks":
        B = rng.choice((3, 4, 5))
        words = [[rng.randint(1, 3) for _ in range(32)] for _ in range(4 if tiny else 8)]
        return {
            "witness_cli": {"samples": 300 if tiny else 6000, "seed": seed},
            "holder": {"samples": 200 if tiny else 4000, "seed": seed},
            "finite_s": [
                ["I", 2, 3, B, None],
                ["II", 2, 2, B, f"{rng.randint(2, 8)}/16"],
                ["III", 2, 2, B, f"{rng.randint(2, 8)}/16"],
            ],
            "lemma": {"a_max": 10 if tiny else 40, "t": 0.75,
                      "closed": [[1, 1.0, "1"], [2, 1.0, "7/2"], [1, 2.0, "pi^2/3-3"]]},
            "hits": {"target": [1, 2], "B": B, "N": 24,
                     "x": [[str(cf_value(w)), w] for w in words],
                     "membership_levels": [1, 2, 3, 5, 8]},
            "lemmas_cli": not tiny,
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# worker side: everything below runs after `import cfshrink`


class Clock:
    """Accumulates the time spent inside the program's own calls."""

    def __init__(self):
        self.total = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.total += time.perf_counter() - t0


def _mpf_pair(x):
    sign, man, exp, _ = x._mpf_
    return [-man if sign else man, exp]


def enc(e) -> list:
    """Exact [lo_man, lo_exp, hi_man, hi_exp] of an Enclosure."""
    return _mpf_pair(e.lo) + _mpf_pair(e.hi)


def _predim_out(r) -> dict:
    return {
        "n": r.n, "B": r.B, "a1z": "inf" if r.a1z == float("inf") else int(r.a1z),
        "s1": enc(r.s1), "s2": enc(r.s2), "s3": enc(r.s3), "sn": enc(r.sn),
        "branch": r.branch, "thresholds": list(r.thresholds), "flags": list(r.flags),
    }


def _target(name, B):
    from cfshrink.targets import TargetSpec

    if name == "zero":
        return TargetSpec.zero()
    if name == "ones":
        return TargetSpec.constant((), period=(1,))
    return TargetSpec.exp_half_log(B)


def prepare(workload: str, spec: dict) -> dict:
    """Program-side inputs (target objects) built from the plain spec."""
    from cfshrink.targets import TargetSpec

    if workload == "full-roots":
        return {"targets": {(B, t): _target(t, B) for B in (2, 3, 4, 5) for t in TARGETS}}
    if workload == "witness-checks":
        return {"hit_target": TargetSpec.constant(tuple(spec["hits"]["target"]))}
    return {}


def _full_roots_jobs(spec, inputs, clock):
    from cfshrink import predim, shrink, sums
    from cfshrink.targets import first_digit

    tol = spec["tol"]
    targets = inputs["targets"]
    jobs = []
    for B, t in spec["level_one"]:
        def job(B=B, t=t):
            a1z = first_digit(targets[(B, t)], 1)
            return _predim_out(clock(predim.predim_result, 1, B, a1z, M=None, tol=tol))
        jobs.append((f"level_one/B{B}/{t}", job))
    for n, B, t in spec["roots"]:
        def job(n=n, B=B, t=t):
            a1z = first_digit(targets[(B, t)], n)
            return _predim_out(clock(predim.predim_result, n, B, a1z, M=None, tol=tol))
        jobs.append((f"roots/n{n}/B{B}/{t}", job))
    tight = spec["tight"]
    jobs.append(("tight", lambda: enc(clock(
        predim.solve_predim, tight["n"], tight["B"], tight["kind"], tol=tight["tol"]))))
    cov = spec["cover"]

    def cover_job():
        rep = clock(shrink.cover_decay, targets[(cov["B"], cov["target"])], cov["B"],
                    cov["levels"], None, side="above", offset=cov["offset"], tol=tol)
        return {"reports": [{"n": r.n, "s": r.s, "branch": r.branch, "total": enc(r.total)}
                            for r in rep.reports]}
    jobs.append(("cover", cover_job))
    n = spec["lambda"]["n"]
    for s, level in spec["lambda"]["points"]:
        jobs.append((f"lambda/{s}/L{level}", lambda s=s, level=level: enc(clock(
            sums.lambda_enclosure, n, s, level=level))))
    return jobs


def _pressure_jobs(spec, inputs, clock):
    from cfshrink import pressure

    B = spec["B"]
    jobs = []
    for alphabet, depth in spec["roots"]:
        def job(alphabet=alphabet, depth=depth):
            res = clock(pressure.pressure_root, pressure.PHI1, B, 0.0, tuple(alphabet),
                        depth=depth, tol=1e-3)
            return {"root": res.root, "bracket": enc(res.certified_bracket)}
        jobs.append((f"root/{'-'.join(map(str, alphabet))}/d{depth}", job))
    est = spec["estimate"]

    def est_job():
        phi = pressure.PotentialSpec(pressure.PHI1, est["s"], B)
        res = clock(pressure.pressure_estimate, phi, tuple(est["alphabet"]), est["depth"],
                    method=est["method"])
        return {"x0": [enc(e) for e in res.x0_values], "sup": [enc(e) for e in res.sup_values]}
    jobs.append(("estimate", est_job))
    return jobs


def _cli_job(clock, out_dir, argv, artifact):
    """Run a CLI subcommand in-process; return its exit code, JSON and bytes written."""
    from cfshrink import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = clock(cli.main, argv + ["--out", out_dir])
    try:
        nbytes = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        with open(os.path.join(out_dir, artifact)) as fh:
            payload = json.load(fh)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"code": code, "json": payload, "bytes": nbytes}


def _witness_jobs(spec, inputs, clock, out_dir):
    from cfshrink import massdist as md
    from cfshrink import shrink, sums
    from cfshrink.targets import TargetSpec

    jobs = []
    wc = spec["witness_cli"]
    jobs.append(("witness_cli", lambda: _cli_job(
        clock, os.path.join(out_dir, "witness"),
        ["witness", "--samples", str(wc["samples"]), "--seed", str(wc["seed"])], "witness.json")))
    state = {}

    def build_job():
        params = clock(md.WitnessParams, md.CASE_III, 0, (), 2, 2, 4, 4,
                       TargetSpec.constant((3,)), Fraction(1, 25), Fraction(1, 10))
        w = clock(md.build_witness, params)
        state["witness"] = w
        return {
            "M": params.M, "ell": params.ell,
            "total_mass": str(w.total_mass),
            "block_weights": {",".join(map(str, a)): str(v) for a, v in w.block_weights.items()},
            "last_weights": {str(b): str(v) for b, v in w.last_weights.items()},
            "intervals": [[[",".join(map(str, b)) for b in F.blocks], F.last] for F in w.intervals],
        }
    jobs.append(("build_witness", build_job))

    def holder_job():
        w = state["witness"]
        samples = md.holder_samples(w, spec["holder"]["samples"], spec["holder"]["seed"])
        rep = clock(md.holder_check, w, samples)
        return {"samples": rep.samples, "limit": rep.limit, "max_ratio": rep.max_ratio,
                "failures": len(rep.failures), "verdict": rep.verdict,
                "fine_verdict": rep.fine_verdict}
    jobs.append(("holder_check", holder_job))
    for case, ell, M, B, rate in spec["finite_s"]:
        jobs.append((f"finite_s/{case}", lambda case=case, ell=ell, M=M, B=B, rate=rate: clock(
            md.solve_finite_s, case, ell, M, B, None if rate is None else Fraction(rate))))
    lem = spec["lemma"]
    jobs.append(("lemma_window", lambda: [enc(e) for e in clock(
        sums.lemma_sum_batch, range(1, lem["a_max"] + 1), lem["t"])]))
    for a, t, _ in lem["closed"]:
        jobs.append((f"lemma_closed/a{a}/t{t}", lambda a=a, t=t: enc(clock(
            sums.lemma_sum_batch, [a], t)[0])))
    hits = spec["hits"]
    for i, (x, _) in enumerate(hits["x"]):
        jobs.append((f"hit_times/{i}", lambda x=x: list(clock(
            shrink.hit_times, Fraction(x), inputs["hit_target"], hits["B"], hits["N"]).hits)))
        jobs.append((f"membership/{i}", lambda x=x: [clock(
            shrink.membership, Fraction(x), inputs["hit_target"], hits["B"], n)
            for n in hits["membership_levels"]]))
    if spec["lemmas_cli"]:
        jobs.append(("lemmas_cli", lambda: _cli_job(
            clock, os.path.join(out_dir, "lemmas"), ["lemmas", "--threads", "1"], "lemmas.json")))
    return jobs


def job_list(workload, spec, inputs, clock, out_dir):
    """[(name, thunk)] in the fixed order one pass runs them."""
    if workload == "full-roots":
        return _full_roots_jobs(spec, inputs, clock)
    if workload == "pressure":
        return _pressure_jobs(spec, inputs, clock)
    return _witness_jobs(spec, inputs, clock, out_dir)
