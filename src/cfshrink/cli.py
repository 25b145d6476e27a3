"""Command line front end: subcommands, config merging, CSV/JSON/SVG artifacts.

Every certified quantity is serialized as a lo/hi pair; exact rationals are
serialized as fraction strings.  JSON summaries carry schema: 1 and sorted
keys; outputs are a pure function of the merged configuration (plus seed),
so reruns are byte-identical regardless of --threads.

Target grammar for --target:
  zero                  z_n = 0
  ones                  z = [0; 1, 1, 1, ...]
  const:1,2             z = [0; 1, 2]
  const:1,2|3           z = [0; 1, 2, 3, 3, 3, ...]
  exp:G    exp:G|D,...  a1(z_n) ~ e^(G n) with tail digits D (default 1)
  exp:half              G = (log B)/2 held exactly
x grammar for simulate --x: a fraction like 3/7, or w:1,2,3 for a digit word.
"""

import argparse
import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import massdist as md
from . import predim as predim_mod
from . import pressure as pressure_mod
from . import shrink as shrink_mod
from . import sums as sums_mod
from . import svgplot
from .cf_core import continuants, cylinder, eval_word
from .errors import CfshrinkError, Inapplicable
from .targets import TargetSpec, first_digit

SCHEMA = 1


@dataclass
class RunConfig:
    subcommand: str
    B: int
    target: str
    n_range: tuple
    M: object
    ell: int
    tol: float
    out: str
    seed: int
    threads: int
    options: dict

    def spec(self) -> TargetSpec:
        return parse_target(self.target, self.B)


def parse_target(text: str, B: int) -> TargetSpec:
    text = text.strip()
    if text == "zero":
        return TargetSpec.zero()
    if text == "ones":
        return TargetSpec.constant((), period=(1,))
    if text.startswith("const:"):
        body = text[len("const:"):]
        pre, _, per = body.partition("|")
        digits = lambda s: tuple(int(d) for d in s.split(",")) if s else ()
        return TargetSpec.constant(digits(pre), digits(per))
    if text.startswith("exp:"):
        body = text[len("exp:"):]
        gamma_s, _, tail_s = body.partition("|")
        if not tail_s:
            tail = (1,)
        elif tail_s == "none":
            tail = ()
        else:
            tail = tuple(int(d) for d in tail_s.split(","))
        if gamma_s == "half":
            return TargetSpec.exp_half_log(B, tail=tail)
        return TargetSpec.exp_first_digit(Fraction(gamma_s), tail=tail)
    raise ValueError(f"unrecognized target {text!r} (see --help for the grammar)")


def parse_range(text) -> tuple:
    if isinstance(text, (list, tuple)):
        lo, hi = int(text[0]), int(text[1])
    else:
        lo, sep, hi = str(text).partition("..")
        lo, hi = int(lo), int(hi if sep else lo)
    if lo > hi:
        raise ValueError(f"level range {lo}..{hi} is reversed")
    return lo, hi


def _parse_M(v):
    if v is None or v == "full":
        return None
    return int(v)


def _a1z_str(a):
    return "inf" if a == math.inf else str(a)


def _pair(e):
    return [e.lo_float, e.hi_float]


# -- artifact writers --------------------------------------------------------


def _path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _write_json(path, payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _write_svg(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


# -- subcommands --------------------------------------------------------------


def _run_predim(cfg: RunConfig) -> int:
    spec = cfg.spec()
    lo, hi = cfg.n_range
    rows, jrows = [], []
    for n in range(lo, hi + 1):
        r = predim_mod.predim_result(n, cfg.B, first_digit(spec, n), M=cfg.M, tol=cfg.tol)
        rows.append(
            [n, _a1z_str(r.a1z)]
            + _pair(r.s1) + _pair(r.s2) + _pair(r.s3) + _pair(r.sn)
            + [r.branch, ";".join(r.thresholds), ";".join(r.flags)]
        )
        jrows.append(
            {
                "n": n,
                "a1z": _a1z_str(r.a1z),
                "s1": _pair(r.s1),
                "s2": _pair(r.s2),
                "s3": _pair(r.s3),
                "sn": _pair(r.sn),
                "branch": r.branch,
                "thresholds": list(r.thresholds),
                "flags": list(r.flags),
            }
        )
    _write_csv(
        _path(cfg, "predim.csv"),
        ["n", "a1z", "s1_lo", "s1_hi", "s2_lo", "s2_hi", "s3_lo", "s3_hi",
         "sn_lo", "sn_hi", "branch", "thresholds", "flags"],
        rows,
    )
    _write_json(
        _path(cfg, "predim.json"),
        {"subcommand": "predim", "B": cfg.B, "target": cfg.target,
         "M": cfg.M, "tol": cfg.tol, "rows": jrows},
    )
    mid = lambda pair: 0.5 * (pair[0] + pair[1])
    series = [
        (name, [(jr["n"], mid(jr[name])) for jr in jrows])
        for name in ("s1", "s2", "s3", "sn")
    ]
    _write_svg(
        _path(cfg, "predim.svg"),
        svgplot.line_plot(series, title=f"level roots, B={cfg.B}, target {cfg.target}",
                          xlabel="n", ylabel="s"),
    )
    print(f"predim: {len(rows)} rows")
    return 0


def _run_sstar(cfg: RunConfig) -> int:
    spec = cfg.spec()
    lo, hi = cfg.n_range
    est = predim_mod.sstar_estimate(spec, cfg.B, range(lo, hi + 1), M=cfg.M, tol=cfg.tol)
    if not est.results:
        raise Inapplicable("every level was skipped: "
                           + "; ".join(f"n={n}: {msg}" for n, msg in est.skipped))
    rows, jrows, pts_sn, pts_run = [], [], [], []
    for r, rl, rh in zip(est.results, est.running_lo, est.running_hi):
        rows.append([r.n] + _pair(r.sn) + [rl, rh, r.branch])
        jrows.append({"n": r.n, "sn": _pair(r.sn), "running": [rl, rh],
                      "branch": r.branch})
        pts_sn.append((r.n, 0.5 * (r.sn.lo_float + r.sn.hi_float)))
        pts_run.append((r.n, 0.5 * (rl + rh)))
    _write_csv(
        _path(cfg, "sstar.csv"),
        ["n", "sn_lo", "sn_hi", "running_lo", "running_hi", "branch"],
        rows,
    )
    _write_json(
        _path(cfg, "sstar.json"),
        {"subcommand": "sstar", "B": cfg.B, "target": cfg.target, "M": cfg.M,
         "tol": cfg.tol, "window": list(est.window), "rows": jrows,
         "skipped": [[n, msg] for n, msg in est.skipped]},
    )
    _write_svg(
        _path(cfg, "sstar.svg"),
        svgplot.line_plot(
            [("s_n", pts_sn), ("running max", pts_run)],
            title=f"window trajectory, B={cfg.B}, target {cfg.target}",
            xlabel="n", ylabel="s",
        ),
    )
    print(f"sstar: {len(rows)} levels, {len(est.skipped)} skipped")
    return 0


def _run_pressure(cfg: RunConfig) -> int:
    kind = cfg.options["kind"].upper()
    if kind not in (pressure_mod.PHI1, pressure_mod.PHI2, pressure_mod.PHI3):
        raise ValueError(f"unknown potential kind {kind!r}")
    rate = float(cfg.options["rate"])
    depth = int(cfg.options["depth"])
    M = cfg.M if cfg.M is not None else 20
    res = pressure_mod.pressure_root(
        kind, cfg.B, rate, range(1, M + 1), depth=depth, tol=cfg.tol
    )
    blo, bhi = res.certified_bracket.lo_float, res.certified_bracket.hi_float
    _write_csv(
        _path(cfg, "pressure.csv"),
        ["kind", "B", "M", "depth", "root", "bracket_lo", "bracket_hi", "certified"],
        [[res.kind, cfg.B, M, res.depth, res.root, blo, bhi, res.certified]],
    )
    _write_json(
        _path(cfg, "pressure.json"),
        {"subcommand": "pressure", "B": cfg.B, "M": M, "depth": res.depth,
         "kind": res.kind, "rate": rate, "root": res.root,
         "bracket": [blo, bhi], "certified": res.certified},
    )
    print(f"pressure: root {res.root:.6f} in [{blo:.6f}, {bhi:.6f}]")
    return 0


def _run_cover(cfg: RunConfig) -> int:
    spec = cfg.spec()
    lo, hi = cfg.n_range
    ns = range(lo, hi + 1)
    s_opt = str(cfg.options["s"])
    level = int(cfg.options["level"])
    if s_opt.startswith("auto"):
        side = "below" if "-" in s_opt else "above"
        offset = float(s_opt[4:].lstrip("+")) if len(s_opt) > 4 else 0.05
        offset = abs(offset)
        rep = shrink_mod.cover_decay(
            spec, cfg.B, ns, cfg.M, side=side, offset=offset, tol=cfg.tol, level=level
        )
        covers = rep.reports
        meta = {
            "side": side, "offset": offset, "slope": rep.slope,
            "residual": rep.residual,
            "monotone_decreasing": rep.monotone_decreasing,
            "monotone_nondecreasing": rep.monotone_nondecreasing,
        }
    else:
        s = float(s_opt)
        covers = [
            shrink_mod.cover_svolume(n, cfg.B, spec, s, cfg.M, level=level) for n in ns
        ]
        pts = [(c.n, math.log2(0.5 * (c.total.lo_float + c.total.hi_float)))
               for c in covers]
        slope = shrink_mod._fit_line(pts)[0]
        meta = {"side": "fixed", "offset": 0.0, "slope": slope,
                "residual": None, "monotone_decreasing": None,
                "monotone_nondecreasing": None}
    rows, jrows, pts = [], [], []
    for c in covers:
        l2 = math.log2(0.5 * (c.total.lo_float + c.total.hi_float))
        rows.append([c.n, c.s, c.branch] + _pair(c.total) + [l2])
        jrows.append({"n": c.n, "s": c.s, "branch": c.branch,
                      "total": _pair(c.total), "log2_total": l2})
        pts.append((c.n, l2))
    _write_csv(
        _path(cfg, "cover.csv"),
        ["n", "s", "branch", "total_lo", "total_hi", "log2_total"],
        rows,
    )
    _write_json(
        _path(cfg, "cover.json"),
        {"subcommand": "cover", "B": cfg.B, "target": cfg.target, "M": cfg.M,
         "level": level, "rows": jrows, **meta},
    )
    _write_svg(
        _path(cfg, "cover.svg"),
        svgplot.line_plot(
            [("log2 total", pts)],
            title=f"cover s-volume decay, B={cfg.B}, target {cfg.target}",
            xlabel="n", ylabel="log2 total",
        ),
    )
    print(f"cover: {len(rows)} levels, slope {meta['slope']:.4f}")
    return 0


def _run_witness(cfg: RunConfig) -> int:
    o = cfg.options
    u = tuple(int(d) for d in str(o["u"]).split(",") if d != "")
    n_lo, n_hi = cfg.n_range
    if n_lo != n_hi:
        raise ValueError("witness needs a single level, e.g. --n 5")
    rate = o["rate"]
    params = md.WitnessParams(
        str(o["case"]).upper(),
        len(u),
        u,
        cfg.ell,
        cfg.M if cfg.M is not None else 3,
        n_lo,
        cfg.B,
        cfg.spec(),
        Fraction(str(o["t"])),
        Fraction(str(o["eps"])),
        rate=None if rate is None else Fraction(str(rate)),
        relax=bool(o["relax"]),
    )
    witness = md.build_witness(params, exact=not o["core"])
    samples = int(o["samples"])
    spot = md.membership_spotcheck(witness.intervals, params, points=5)
    gaps = md.gap_check(witness.intervals, params)
    masses = md.mass_bounds_check(witness)
    holder = md.holder_check(witness, md.holder_samples(witness, samples, cfg.seed))
    content = md.content_lower_bound(witness)
    rows = [
        [i, ".".join("".join(map(str, b)) for b in F.blocks), F.last,
         str(F.lo), str(F.hi), float(F.length), str(witness.interval_mass(F)),
         F.exact_endpoints]
        for i, F in enumerate(witness.intervals)
    ]
    _write_csv(
        _path(cfg, "witness.csv"),
        ["index", "blocks", "last", "lo", "hi", "length", "mass", "exact"],
        rows,
    )
    verdicts = {
        "membership": spot.verdict,
        "gaps": gaps.verdict,
        "mass_bounds": masses.verdict,
        "holder": holder.verdict,
        "holder_fine": holder.fine_verdict,
        "content": content.verdict,
    }
    _write_json(
        _path(cfg, "witness.json"),
        {
            "subcommand": "witness", "B": cfg.B, "target": cfg.target,
            "case": params.case, "k": params.k, "u": list(params.u),
            "ell": params.ell, "M": params.M, "m": params.m, "n": params.n,
            "t": str(params.t), "eps": str(params.eps), "s": params.s,
            "intervals": len(witness.intervals), "seed": cfg.seed,
            "samples": samples, "verdicts": verdicts,
            "all_pass": all(v == "PASS" for v in verdicts.values()),
            "gap_min_margin": float(gaps.min_margin),
            "max_cylinder_ratio": masses.max_cylinder_ratio,
            "max_fundamental_ratio": masses.max_fundamental_ratio,
            "holder_max_ratio": holder.max_ratio,
            "holder_limit": holder.limit,
            "content_bound": [content.bound.lo_float, content.bound.hi_float],
            "reference_floor": float(content.reference_floor),
        },
    )
    with open(_path(cfg, "witness.txt"), "w") as fh:
        fh.write(md.dump_witness(witness) + "\n")
    print(f"wrote {_path(cfg, 'witness.txt')}")
    bad = [k for k, v in verdicts.items() if v != "PASS"]
    print(f"witness: {len(witness.intervals)} intervals, "
          + ("all checks PASS" if not bad else f"FAIL: {','.join(bad)}"))
    return 0


def _run_simulate(cfg: RunConfig) -> int:
    o = cfg.options
    x_text = str(o["x"])
    if x_text.startswith("w:"):
        x = eval_word(tuple(int(d) for d in x_text[2:].split(",")))
    else:
        x = Fraction(x_text)
    horizon = int(o["N"])
    rep = shrink_mod.hit_times(x, cfg.spec(), cfg.B, horizon)
    hits = set(rep.hits)
    _write_csv(
        _path(cfg, "simulate.csv"),
        ["n", "hit"],
        [[n, int(n in hits)] for n in range(1, horizon + 1)],
    )
    _write_json(
        _path(cfg, "simulate.json"),
        {"subcommand": "simulate", "B": cfg.B, "target": cfg.target,
         "x": x_text, "horizon": horizon, "hits": list(rep.hits),
         "inconclusive": list(rep.inconclusive)},
    )
    print(f"simulate: {len(rep.hits)} hits up to n={horizon}")
    return 0


# -- the lemma suite -----------------------------------------------------------


def _lemma_cf_ladder(seed):
    import random

    rng = random.Random(seed)
    bad = 0
    for _ in range(200):
        w = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 8)))
        c = continuants(w)
        k = len(w)
        if c.p(k) * c.q(k - 1) - c.p(k - 1) * c.q(k) != (-1) ** (k - 1):
            bad += 1
        iv = cylinder(w)
        if iv.length != Fraction(1, c.q(k) * (c.q(k) + c.q(k - 1))):
            bad += 1
    return bad == 0, f"200 words, {bad} violations"


def _lemma_sum_window(seed):
    # measured over a <= 1000: [2.0109, 10.825]; a <= 40 stays well inside
    worst_lo, worst_hi = math.inf, 0.0
    for a, e in enumerate(sums_mod.lemma_sum_batch(range(1, 41), 0.75), start=1):
        ratio_lo = e.lo_float / a**0.25
        ratio_hi = e.hi_float / a**0.25
        worst_lo, worst_hi = min(worst_lo, ratio_lo), max(worst_hi, ratio_hi)
    ok = 1.5 < worst_lo and worst_hi < 12.0
    unit = sums_mod.lemma_sum(1, 1.0)
    ok = ok and abs(unit.lo_float - 1.0) < 1e-10 and abs(unit.hi_float - 1.0) < 1e-10
    return ok, f"ratio window [{worst_lo:.4f}, {worst_hi:.4f}]"


def _lemma_thresholds(seed):
    bad = []
    for target in ("zero", "ones"):
        spec = parse_target(target, 4)
        for n in (1, 2):
            r = predim_mod.predim_result(n, 4, first_digit(spec, n), M=8)
            if "FAIL" in r.thresholds:
                bad.append((target, n))
    return not bad, f"4 grid points, {len(bad)} failures"


def _lemma_s2_convention(seed):
    for n in (1, 2, 3):
        r = predim_mod.predim_result(n, 4, math.inf, M=8)
        if not (r.s2.lo_float == r.s2.hi_float == 1.0):
            return False, f"s2 at n={n} is {_pair(r.s2)}"
    return True, "s2 = [1, 1] at n = 1..3"


def _lemma_cover_monotone(seed):
    spec = TargetSpec.zero()
    totals = [
        shrink_mod.cover_svolume(3, 4, spec, s, 8).total.hi_float
        for s in (0.7, 0.8, 0.9)
    ]
    ok = totals[0] > totals[1] > totals[2]
    return ok, f"totals {totals[0]:.3g} > {totals[1]:.3g} > {totals[2]:.3g}"


def _tiny_witness():
    params = md.WitnessParams(
        md.CASE_I, 0, (), 1, 2, 2, 4, TargetSpec.zero(),
        Fraction(1, 2), Fraction(1, 50), relax=True,
    )
    return params, md.build_witness(params)


def _lemma_gap(seed):
    params, w = _tiny_witness()
    rep = md.gap_check(w.intervals, params)
    return rep.verdict == "PASS", f"{rep.pairs} pairs, min margin {float(rep.min_margin):.3g}"


def _lemma_mass_content(seed):
    params, w = _tiny_witness()
    mrep = md.mass_bounds_check(w)
    crep = md.content_lower_bound(w)
    ok = mrep.verdict == "PASS" and crep.verdict == "PASS" and w.total_mass == 1
    return ok, f"cyl max {mrep.max_cylinder_ratio:.4f}, content {crep.bound.lo_float:.3g}"


def _lemma_holder(seed):
    params, w = _tiny_witness()
    rep = md.holder_check(w, md.holder_samples(w, 400, seed))
    ok = rep.verdict == "PASS" and rep.fine_verdict == "PASS"
    return ok, f"max ratio {rep.max_ratio:.4f} of {rep.limit}"


_LEMMA_TASKS = (
    ("cf_core", "ladder_identities", _lemma_cf_ladder),
    ("sums", "ratio_window", _lemma_sum_window),
    ("predim", "threshold_grid", _lemma_thresholds),
    ("predim", "s2_convention", _lemma_s2_convention),
    ("shrink", "svolume_monotone_in_s", _lemma_cover_monotone),
    ("massdist", "gap_exhaustive", _lemma_gap),
    ("massdist", "mass_and_content", _lemma_mass_content),
    ("massdist", "holder_small", _lemma_holder),
)


def _run_lemmas(cfg: RunConfig) -> int:
    def run_one(task):
        suite, name, fn = task
        ok, value = fn(cfg.seed)
        return suite, name, "PASS" if ok else "FAIL", value

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run_one, _LEMMA_TASKS))
    else:
        results = [run_one(t) for t in _LEMMA_TASKS]
    results.sort(key=lambda r: (r[0], r[1]))
    _write_csv(_path(cfg, "lemmas.csv"), ["suite", "name", "verdict", "value"], results)
    _write_json(
        _path(cfg, "lemmas.json"),
        {
            "subcommand": "lemmas", "seed": cfg.seed,
            "suites": [
                {"suite": s, "name": n, "verdict": v, "value": val}
                for s, n, v, val in results
            ],
            "all_pass": all(v == "PASS" for _, _, v, _ in results),
        },
    )
    n_pass = sum(1 for _, _, v, _ in results if v == "PASS")
    print(f"lemmas: {n_pass}/{len(results)} PASS")
    return 0 if n_pass == len(results) else 2


_DISPATCH = {
    "predim": _run_predim,
    "sstar": _run_sstar,
    "pressure": _run_pressure,
    "cover": _run_cover,
    "witness": _run_witness,
    "simulate": _run_simulate,
    "lemmas": _run_lemmas,
}

_COMMON_DEFAULTS = {
    "B": 4, "target": "zero", "n": "1..6", "M": "20", "ell": 2,
    "tol": 1e-3, "out": ".", "seed": 0, "threads": 1,
}

_SUB_DEFAULTS = {
    "predim": {},
    "sstar": {"n": "2..6"},
    "pressure": {"kind": "phi1", "rate": 0.0, "depth": 8},
    "cover": {"n": "2..6", "s": "auto+0.05", "level": 1},
    "witness": {"n": "5", "M": "3", "case": "I", "u": "1", "t": "3/200",
                "eps": "101/200", "rate": None, "relax": False, "core": False,
                "samples": 2000},
    "simulate": {"x": "1/2", "N": 20},
    "lemmas": {},
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cfshrink",
        description="Certified continued-fraction machinery for shrinking targets.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--B", type=int)
        p.add_argument("--target", help="zero | ones | const:... | exp:... (see module help)")
        p.add_argument("--n", help="level or range, e.g. 5 or 2..6")
        p.add_argument("--M", help="alphabet cutoff, or 'full'")
        p.add_argument("--ell", type=int, help="block length (witness)")
        p.add_argument("--tol", type=float)
        p.add_argument("--out", help="artifact directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        if name == "pressure":
            p.add_argument("--kind", choices=["phi1", "phi2", "phi3"])
            p.add_argument("--rate", type=float)
            p.add_argument("--depth", type=int)
        if name == "cover":
            p.add_argument("--s", help="auto+OFF, auto-OFF, or a number")
            p.add_argument("--level", type=int, choices=[1, 2])
        if name == "witness":
            p.add_argument("--case", choices=["I", "II", "III"])
            p.add_argument("--u", help="root word digits, comma separated")
            p.add_argument("--t")
            p.add_argument("--eps")
            p.add_argument("--rate")
            p.add_argument("--relax", action="store_true", default=None)
            p.add_argument("--core", action="store_true", default=None,
                           help="use the guaranteed cores instead of exact solving")
            p.add_argument("--samples", type=int)
        if name == "simulate":
            p.add_argument("--x", help="rational like 3/7, or w:1,2,3")
            p.add_argument("--N", type=int, help="horizon")
    return ap


def build_config(args) -> RunConfig:
    name = args.subcommand
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_SUB_DEFAULTS[name])
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in merged:
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v
    option_keys = set(merged) - set(_COMMON_DEFAULTS)
    return RunConfig(
        subcommand=name,
        B=int(merged["B"]),
        target=str(merged["target"]),
        n_range=parse_range(merged["n"]),
        M=_parse_M(merged["M"]),
        ell=int(merged["ell"]),
        tol=float(merged["tol"]),
        out=str(merged["out"]),
        seed=int(merged["seed"]),
        threads=int(merged["threads"]),
        options={k: merged[k] for k in sorted(option_keys)},
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_config(args)
        return _DISPATCH[cfg.subcommand](cfg)
    except (CfshrinkError, ValueError, OSError, KeyError) as err:
        print(json.dumps(
            {"schema": SCHEMA,
             "error": {"type": type(err).__name__, "message": str(err)}},
            sort_keys=True,
        ))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
