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

_SUBCOMMANDS lists the options each subcommand reads, each with one
converter and one default.  A --config file is a JSON object over those
option names; its values, the defaults and the flags all pass through the
same converter, so a bad value from any of them is a ValueError naming it.
"""

import argparse
import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, NamedTuple

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
    if isinstance(text, (list, tuple)) and len(text) == 2:
        lo, hi = text
    else:
        lo, sep, hi = str(text).partition("..")
        hi = hi if sep else lo
    lo, hi = _int(lo), _int(hi)
    if lo > hi:
        raise ValueError(f"level range {lo}..{hi} is reversed")
    return lo, hi


# -- option converters: each takes the flag's text or the config file's JSON value


def _typed(what, cast, *types):
    """A converter: a value of one of `types` (bool only when listed), then cast."""
    def convert(v):
        if isinstance(v, types) and (bool in types or not isinstance(v, bool)):
            try:
                return cast(v)
            except ValueError:
                pass
        raise ValueError(f"expected {what}, got {v!r}")
    return convert


_int = _typed("an integer", int, int, str)
_float = _typed("a number", float, int, float, str)
_fraction = _typed("a fraction", lambda v: Fraction(str(v)), int, float, str)
_text = _typed("a string", str, str)
_flag = _typed("true or false", bool, bool)
_digits = _typed("comma-separated digits",
                 lambda v: tuple(int(d) for d in str(v).split(",") if d != ""), int, str)


def _choice(convert, *allowed):
    def check(v):
        v = convert(v)
        if v not in allowed:
            raise ValueError(f"expected one of {', '.join(map(str, allowed))}; got {v!r}")
        return v
    return check


def _count(v):
    """An integer >= 1."""
    v = _int(v)
    if v < 1:
        raise ValueError(f"expected an integer >= 1, got {v}")
    return v


def _cutoff(v):
    """An alphabet cutoff M, or None for 'full'."""
    return None if v == "full" else _int(v)


def _finite_float(v) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"{v} is not finite")
    return v


def _exponent(v):
    """cover --s: a number, or (side, offset) for auto+OFF / auto-OFF around s_n;
    the sign right after auto picks the side.  Both must be finite."""
    text = str(v)
    if not text.startswith("auto"):
        return _finite_float(text)
    rest = text[4:]
    offset = abs(_finite_float(rest.lstrip("+"))) if rest else 0.05
    return ("below" if rest.startswith("-") else "above", offset)


def _a1z_str(a):
    return "inf" if a == math.inf else str(a)


def _pair(e):
    return [e.lo_float, e.hi_float]


# -- artifact writers --------------------------------------------------------


def _path(cfg, name: str) -> str:
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


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_rows(cfg, name: str, records, summary):
    """NAME.csv and NAME.json from one list of row dicts.

    In the CSV a float pair under key k becomes the columns k_lo and k_hi,
    and a list of strings one ';'-joined cell.  The JSON holds the rows as
    they are, under "rows", next to the summary's keys.
    """
    table = []
    for rec in records:
        cells = {}
        for key, v in rec.items():
            if isinstance(v, list) and all(isinstance(x, str) for x in v):
                cells[key] = ";".join(v)
            elif isinstance(v, list):
                cells[f"{key}_lo"], cells[f"{key}_hi"] = v
            else:
                cells[key] = v
        table.append(cells)
    _write_csv(_path(cfg, f"{name}.csv"), list(table[0]), [list(c.values()) for c in table])
    _write_json(_path(cfg, f"{name}.json"), {"subcommand": name, **summary, "rows": records})


# -- subcommands --------------------------------------------------------------


def _run_predim(cfg) -> int:
    spec = parse_target(cfg.target, cfg.B)
    lo, hi = cfg.n
    rows = []
    for n in range(lo, hi + 1):
        r = predim_mod.predim_result(n, cfg.B, first_digit(spec, n), M=cfg.M, tol=cfg.tol)
        rows.append({
            "n": n, "a1z": _a1z_str(r.a1z), "s1": _pair(r.s1), "s2": _pair(r.s2),
            "s3": _pair(r.s3), "sn": _pair(r.sn), "branch": r.branch,
            "thresholds": list(r.thresholds), "flags": list(r.flags),
        })
    _write_rows(cfg, "predim", rows,
                {"B": cfg.B, "target": cfg.target, "M": cfg.M, "tol": cfg.tol})
    mid = lambda pair: 0.5 * (pair[0] + pair[1])
    series = [
        (name, [(row["n"], mid(row[name])) for row in rows])
        for name in ("s1", "s2", "s3", "sn")
    ]
    _write_text(
        _path(cfg, "predim.svg"),
        svgplot.line_plot(series, title=f"level roots, B={cfg.B}, target {cfg.target}",
                          xlabel="n", ylabel="s"),
    )
    print(f"predim: {len(rows)} rows")
    return 0


def _run_sstar(cfg) -> int:
    spec = parse_target(cfg.target, cfg.B)
    lo, hi = cfg.n
    est = predim_mod.sstar_estimate(spec, cfg.B, range(lo, hi + 1), M=cfg.M, tol=cfg.tol)
    if not est.results:
        raise Inapplicable("every level was skipped: "
                           + "; ".join(f"n={n}: {msg}" for n, msg in est.skipped))
    rows, pts_sn, pts_run = [], [], []
    for r, rl, rh in zip(est.results, est.running_lo, est.running_hi):
        rows.append({"n": r.n, "sn": _pair(r.sn), "running": [rl, rh], "branch": r.branch})
        pts_sn.append((r.n, 0.5 * (r.sn.lo_float + r.sn.hi_float)))
        pts_run.append((r.n, 0.5 * (rl + rh)))
    _write_rows(cfg, "sstar", rows,
                {"B": cfg.B, "target": cfg.target, "M": cfg.M, "tol": cfg.tol,
                 "window": list(est.window),
                 "skipped": [[n, msg] for n, msg in est.skipped]})
    _write_text(
        _path(cfg, "sstar.svg"),
        svgplot.line_plot(
            [("s_n", pts_sn), ("running max", pts_run)],
            title=f"window trajectory, B={cfg.B}, target {cfg.target}",
            xlabel="n", ylabel="s",
        ),
    )
    print(f"sstar: {len(rows)} levels, {len(est.skipped)} skipped")
    return 0


def _run_pressure(cfg) -> int:
    res = pressure_mod.pressure_root(
        cfg.kind.upper(), cfg.B, cfg.rate, range(1, cfg.M + 1), depth=cfg.depth, tol=cfg.tol
    )
    blo, bhi = res.certified_bracket.lo_float, res.certified_bracket.hi_float
    _write_csv(
        _path(cfg, "pressure.csv"),
        ["kind", "B", "M", "depth", "root", "bracket_lo", "bracket_hi"],
        [[res.kind, cfg.B, cfg.M, res.depth, res.root, blo, bhi]],
    )
    _write_json(
        _path(cfg, "pressure.json"),
        {"subcommand": "pressure", "B": cfg.B, "M": cfg.M, "depth": res.depth,
         "kind": res.kind, "rate": cfg.rate, "root": res.root,
         "bracket": [blo, bhi]},
    )
    print(f"pressure: root {res.root:.6f} in [{blo:.6f}, {bhi:.6f}]")
    return 0


def _run_cover(cfg) -> int:
    spec = parse_target(cfg.target, cfg.B)
    lo, hi = cfg.n
    ns = range(lo, hi + 1)
    if isinstance(cfg.s, tuple):
        side, offset = cfg.s
        rep = shrink_mod.cover_decay(
            spec, cfg.B, ns, cfg.M, side=side, offset=offset, tol=cfg.tol, level=cfg.level
        )
        covers = rep.reports
        meta = {
            "side": side, "offset": offset, "slope": rep.slope,
            "residual": rep.residual,
            "monotone_decreasing": rep.monotone_decreasing,
            "monotone_nondecreasing": rep.monotone_nondecreasing,
        }
    else:
        covers = [
            shrink_mod.cover_svolume(n, cfg.B, spec, cfg.s, cfg.M, level=cfg.level)
            for n in ns
        ]
        pts = [(c.n, math.log2(0.5 * (c.total.lo_float + c.total.hi_float)))
               for c in covers]
        slope = shrink_mod._fit_line(pts)[0]
        meta = {"side": "fixed", "offset": 0.0, "slope": slope,
                "residual": None, "monotone_decreasing": None,
                "monotone_nondecreasing": None}
    rows, pts = [], []
    for c in covers:
        l2 = math.log2(0.5 * (c.total.lo_float + c.total.hi_float))
        rows.append({"n": c.n, "s": c.s, "branch": c.branch,
                     "total": _pair(c.total), "log2_total": l2})
        pts.append((c.n, l2))
    _write_rows(cfg, "cover", rows,
                {"B": cfg.B, "target": cfg.target, "M": cfg.M, "level": cfg.level, **meta})
    _write_text(
        _path(cfg, "cover.svg"),
        svgplot.line_plot(
            [("log2 total", pts)],
            title=f"cover s-volume decay, B={cfg.B}, target {cfg.target}",
            xlabel="n", ylabel="log2 total",
        ),
    )
    print(f"cover: {len(rows)} levels, slope {meta['slope']:.4f}")
    return 0


def _run_witness(cfg) -> int:
    n_lo, n_hi = cfg.n
    if n_lo != n_hi:
        raise ValueError("witness needs a single level, e.g. --n 5")
    params = md.WitnessParams(
        cfg.case, len(cfg.u), cfg.u, cfg.ell, cfg.M, n_lo, cfg.B,
        parse_target(cfg.target, cfg.B), cfg.t, cfg.eps, rate=cfg.rate, relax=cfg.relax,
    )
    witness = md.build_witness(params)
    spot = md.membership_spotcheck(witness.intervals, params, points=5)
    gaps = md.gap_check(witness.intervals, params)
    masses = md.mass_bounds_check(witness)
    holder = md.holder_check(witness, md.holder_samples(witness, cfg.samples, cfg.seed))
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
            "samples": cfg.samples, "verdicts": verdicts,
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
    _write_text(_path(cfg, "witness.txt"), md.dump_witness(witness) + "\n")
    bad = [k for k, v in verdicts.items() if v != "PASS"]
    print(f"witness: {len(witness.intervals)} intervals, "
          + ("all checks PASS" if not bad else f"FAIL: {','.join(bad)}"))
    return 0


def _run_simulate(cfg) -> int:
    if cfg.x.startswith("w:"):
        x = eval_word(tuple(int(d) for d in cfg.x[2:].split(",")))
    else:
        x = Fraction(cfg.x)
    rep = shrink_mod.hit_times(x, parse_target(cfg.target, cfg.B), cfg.B, cfg.N)
    hits = set(rep.hits)
    _write_csv(
        _path(cfg, "simulate.csv"),
        ["n", "hit"],
        [[n, int(n in hits)] for n in range(1, cfg.N + 1)],
    )
    _write_json(
        _path(cfg, "simulate.json"),
        {"subcommand": "simulate", "B": cfg.B, "target": cfg.target,
         "x": cfg.x, "horizon": cfg.N, "hits": list(rep.hits),
         "inconclusive": list(rep.inconclusive)},
    )
    print(f"simulate: {len(rep.hits)} hits up to n={cfg.N}")
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


def _run_lemmas(cfg) -> int:
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


class _Option(NamedTuple):
    convert: Callable
    default: object
    help: str = None


_B = _Option(_int, 4)
_TARGET = _Option(_text, "zero", "zero | ones | const:... | exp:... (see module help)")
_N = _Option(parse_range, "1..6", "level or range, e.g. 5 or 2..6")
_CUTOFF = _Option(_cutoff, 20, "alphabet cutoff, or 'full'")
_TOL = _Option(_float, 1e-3)
_OUT = _Option(_text, ".", "artifact directory")
_SEED = _Option(_int, 0)

# subcommand -> (runner, the options it reads)
_SUBCOMMANDS = {
    "predim": (_run_predim, dict(B=_B, target=_TARGET, n=_N, M=_CUTOFF, tol=_TOL, out=_OUT)),
    "sstar": (_run_sstar, dict(B=_B, target=_TARGET, n=_N._replace(default="2..6"),
                               M=_CUTOFF, tol=_TOL, out=_OUT)),
    "pressure": (_run_pressure, dict(
        B=_B, M=_Option(_int, 20, "finite alphabet cutoff"), tol=_TOL, out=_OUT,
        kind=_Option(_choice(_text, "phi1", "phi2", "phi3"), "phi1", "phi1 | phi2 | phi3"),
        rate=_Option(_typed("a finite number (growth rate alpha for phi2, growth rate beta "
                            "for phi3)", _finite_float, int, float, str), 0.0),
        depth=_Option(_int, 8))),
    "cover": (_run_cover, dict(
        B=_B, target=_TARGET, n=_N._replace(default="2..6"), M=_CUTOFF, tol=_TOL, out=_OUT,
        s=_Option(_typed("an exponent", _exponent, int, float, str), "auto+0.05",
                  "auto+OFF, auto-OFF, or a number"),
        level=_Option(_choice(_int, 1, 2), 1, "1 | 2"))),
    "witness": (_run_witness, dict(
        B=_B, target=_TARGET, n=_N._replace(default="5"),
        M=_Option(_int, 3, "finite alphabet cutoff"), ell=_Option(_int, 2, "block length"),
        out=_OUT, seed=_SEED,
        case=_Option(_choice(_text, "I", "II", "III"), "I", "I | II | III"),
        u=_Option(_digits, "1", "root word digits, comma separated"),
        t=_Option(_fraction, "3/200"), eps=_Option(_fraction, "101/200"),
        rate=_Option(lambda v: None if v is None else _fraction(v), None),
        relax=_Option(_flag, False),
        samples=_Option(_int, 2000))),
    "simulate": (_run_simulate, dict(
        B=_B, target=_TARGET, out=_OUT,
        x=_Option(_text, "1/2", "rational like 3/7, or w:1,2,3"),
        N=_Option(_int, 20, "horizon"))),
    "lemmas": (_run_lemmas, dict(out=_OUT, seed=_SEED, threads=_Option(_count, 1))),
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cfshrink",
        description="Certified continued-fraction machinery for shrinking targets.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key, opt in options.items():
            if opt.convert is _flag:
                p.add_argument(f"--{key}", action="store_true", default=None, help=opt.help)
            else:
                p.add_argument(f"--{key}", help=opt.help)
    return ap


def build_config(args) -> argparse.Namespace:
    """One converted value per option the subcommand reads: flag, else config key, else default."""
    options = _SUBCOMMANDS[args.subcommand][1]
    merged = {key: opt.default for key, opt in options.items()}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(options)
        if unknown:
            raise ValueError(f"unknown config keys for {args.subcommand}: {sorted(unknown)}")
        merged.update(file_cfg)
    cfg = argparse.Namespace()
    for key, opt in options.items():
        flag = getattr(args, key)
        try:
            setattr(cfg, key, opt.convert(merged[key] if flag is None else flag))
        except ValueError as err:
            raise ValueError(f"option {key}: {err}") from None
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _SUBCOMMANDS[args.subcommand][0](build_config(args))
    except (CfshrinkError, ValueError, OSError, KeyError) as err:
        print(json.dumps(
            {"schema": SCHEMA,
             "error": {"type": type(err).__name__, "message": str(err)}},
            sort_keys=True,
        ))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
