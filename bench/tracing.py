"""Timing wrappers around the program's layer functions, for the traced run.

Each wrapped function is replaced on every `cfshrink` module attribute
that holds it, so the wrapper sits on the name callers look up (for
example `_transfer.ipow_neg`, the name `apply_power` calls).  A span is
(name, start, end, parent) with times in ns; spans and counts stay in
memory and are written out once, at the end of the pass.  The scalar
rounding operations are counted and timed (outermost call only) but get
no span each, since there are hundreds of thousands of them.  Names a
later version of the program no longer has are skipped and listed as
missing in the trace file.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import Counter

# (module, attribute, span name); the first present attribute of a group wins
SPAN_TARGETS = (
    ("ivec", ("ipow_neg",), "ivec.ipow_neg"),
    ("ivec", ("iexp",), "ivec.iexp"),
    ("ivec", ("_ln_one_sided", "iln"), "ivec.iln"),
    ("ivec", ("tree_sum",), "ivec.tree_sum"),
    ("_transfer", ("apply_power",), "transfer.apply_power"),
    ("sums", ("lambda_enclosure",), "sums.lambda_enclosure"),
    ("sums", ("lemma_sum_batch",), "sums.lemma_sum_batch"),
    ("sums", ("zeta_enclosure",), "sums.zeta_enclosure"),
    ("predim", ("predim_result",), "predim.predim_result"),
    ("predim", ("solve_predim",), "predim.solve_predim"),
    ("pressure", ("pressure_root",), "pressure.pressure_root"),
    ("pressure", ("pressure_estimate",), "pressure.pressure_estimate"),
    ("shrink", ("cover_decay",), "shrink.cover_decay"),
    ("shrink", ("cover_svolume",), "shrink.cover_svolume"),
    ("shrink", ("hit_times",), "shrink.hit_times"),
    ("shrink", ("membership",), "shrink.membership"),
    ("massdist", ("build_witness",), "massdist.build_witness"),
    ("massdist", ("holder_check",), "massdist.holder_check"),
    ("massdist", ("solve_finite_s",), "massdist.solve_finite_s"),
    ("cli", ("main",), "cli.main"),
)
ROUNDING_OPS = ("enclose", "add", "sub", "mul", "div", "powr", "pow_int", "log_", "exp_")
IVEC = frozenset(name for _, _, name in SPAN_TARGETS if name.startswith("ivec."))

# envelope level by bin count, as the level table stands
LEVEL_OF_BINS = {256: 0, 1024: 1, 4096: 2, 8192: 3}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _apply_info(args, kwargs, result):
    n, _t, layout = args[:3]
    return (int(n), int(layout.nbins), len(layout.cells), float(result[0]), float(result[1]))


def _solve_info(args, kwargs, result):
    return float(result.width_float) > 0.0


INFO = {
    "ivec.ipow_neg": lambda a, k, r: _size(a[0]),
    "transfer.apply_power": _apply_info,
    "predim.solve_predim": _solve_info,
    "massdist.holder_check": lambda a, k, r: len(a[1]),
}


class Tracer:
    """Installs the wrappers, records spans and counts, derives the layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent index, outermost)
        self.info: dict = {}
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.rounding_ns = 0
        self._rounding_depth = 0
        self.missing: list[str] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        info = INFO.get(name)
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = active[nid] == 0
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[nid] -= 1
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, outer)
            if info is not None:
                self.info[idx] = info(args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            self.counts["rounding.ops"] += 1
            if self._rounding_depth:
                return fn(*args, **kwargs)
            self._rounding_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rounding_ns += clock() - t0
                self._rounding_depth = 0

        return wrapper

    def _replace_everywhere(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "cfshrink" and not modname.startswith("cfshrink."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import cfshrink  # noqa: F401  (loads every module the targets live in)
        from cfshrink import cli  # noqa: F401

        for modname, attrs, name in SPAN_TARGETS:
            mod = sys.modules.get(f"cfshrink.{modname}")
            attr = next((a for a in attrs if mod is not None and hasattr(mod, a)), None)
            if attr is None:
                self.missing.append(name)
                continue
            orig = getattr(mod, attr)
            self._replace_everywhere(orig, self._span_wrapper(name, orig))
        rounding = sys.modules["cfshrink.rounding"]
        for op in ROUNDING_OPS:
            orig = getattr(rounding, op, None)
            if orig is None:
                self.missing.append(f"rounding.{op}")
                continue
            self._replace_everywhere(orig, self._leaf_wrapper(orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------------

    def _tables(self):
        """Per-span name, duration, and the nearest ancestor index by name."""
        names = [self.names[s[0]] for s in self.spans]
        dur = [(s[2] - s[1]) * 1e-9 for s in self.spans]
        parent = [s[3] for s in self.spans]
        anc = {}
        for key in ("transfer.apply_power", "predim.solve_predim",
                    "pressure.pressure_root", "sums.lambda_enclosure"):
            col = [-1] * len(names)
            for i, nm in enumerate(names):
                col[i] = i if nm == key else (col[parent[i]] if parent[i] >= 0 else -1)
            anc[key] = col
        return names, dur, parent, anc

    def self_times(self) -> dict:
        names, dur, parent, _ = self._tables()
        own = list(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        out = Counter()
        for nm, t in zip(names, own):
            out[nm] += t
        return dict(out)

    def metrics(self) -> dict:
        names, dur, parent, anc = self._tables()
        outer_s = Counter()
        calls = Counter()
        for i, s in enumerate(self.spans):
            calls[names[i]] += 1
            if s[4]:
                outer_s[names[i]] += dur[i]
        app = anc["transfer.apply_power"]

        elements = sum(v for i, v in self.info.items() if names[i] == "ivec.ipow_neg")
        setup = sum(
            dur[i] for i, nm in enumerate(names)
            if nm in IVEC and app[i] >= 0 and names[parent[i]] not in IVEC
        )
        evals_by_level = Counter()
        bin_steps = 0
        widths = {0: [], 1: [], 2: []}
        level_of = {}
        for i, nm in enumerate(names):
            if nm != "transfer.apply_power" or i not in self.info:
                continue
            n, nbins, ncells, lo, hi = self.info[i]
            level_of[i] = level = LEVEL_OF_BINS.get(nbins)
            evals_by_level[level] += 1
            bin_steps += ncells * nbins * (n - 1)
            if level in widths and hi > 0:
                widths[level].append((hi - lo) / (0.5 * (hi + lo)))

        lam = anc["sums.lambda_enclosure"]
        lam_with_eval = {lam[i] for i, nm in enumerate(names)
                         if nm == "transfer.apply_power" and lam[i] >= 0}
        lam_hits = sum(1 for i, nm in enumerate(names)
                       if nm == "sums.lambda_enclosure" and i not in lam_with_eval)

        solve = anc["predim.solve_predim"]
        roots = sum(1 for i, nm in enumerate(names) if nm == "predim.solve_predim" and self.info.get(i))
        solve_evals = sum(1 for i, nm in enumerate(names)
                          if nm in ("transfer.apply_power", "sums.zeta_enclosure") and solve[i] >= 0)
        escalations = sum(1 for i, level in level_of.items()
                          if solve[i] >= 0 and (level is None or level >= 2))
        proot = anc["pressure.pressure_root"]
        # an evaluation is one envelope run, or one exact-route reduction
        proot_evals = sum(1 for i, nm in enumerate(names) if proot[i] >= 0 and (
            nm == "transfer.apply_power" or (nm == "ivec.tree_sum" and app[i] < 0)))
        holder_samples = sum(v for i, v in self.info.items() if names[i] == "massdist.holder_check")

        def geomean(xs):
            return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        apply_s = outer_s["transfer.apply_power"]
        return {
            "ivec.ipow_neg.calls": calls["ivec.ipow_neg"],
            "ivec.ipow_neg.elements": elements,
            "ivec.ipow_neg.s": outer_s["ivec.ipow_neg"],
            "ivec.ipow_neg.ns_per_element": ratio(outer_s["ivec.ipow_neg"] * 1e9, elements),
            "ivec.iexp.s": outer_s["ivec.iexp"],
            "ivec.iln.s": outer_s["ivec.iln"],
            "ivec.tree_sum.s": outer_s["ivec.tree_sum"],
            "transfer.evals": calls["transfer.apply_power"],
            **{f"transfer.evals.level{k}": evals_by_level[k] for k in range(4)},
            "transfer.setup_s": setup,
            "transfer.iter_s": apply_s - setup,
            "transfer.bin_steps": bin_steps,
            **{f"transfer.rel_width.level{k}": geomean(widths[k]) for k in range(3)},
            "sums.lambda_enclosure.calls": calls["sums.lambda_enclosure"],
            "sums.lambda_enclosure.hits": lam_hits,
            "sums.lemma_sum_batch.calls": calls["sums.lemma_sum_batch"],
            "sums.lemma_sum_batch.s": outer_s["sums.lemma_sum_batch"],
            "sums.zeta_enclosure.s": outer_s["sums.zeta_enclosure"],
            "rounding.ops": self.counts["rounding.ops"],
            "rounding.s": self.rounding_ns * 1e-9,
            "predim.solve_predim.calls": calls["predim.solve_predim"],
            "predim.solve_predim.s": outer_s["predim.solve_predim"],
            "predim.evals_per_root": ratio(solve_evals, roots),
            "predim.escalations": escalations,
            "pressure.pressure_root.s": outer_s["pressure.pressure_root"],
            "pressure.evals_per_root": ratio(proot_evals, calls["pressure.pressure_root"]),
            "shrink.cover_svolume.s": outer_s["shrink.cover_svolume"],
            "shrink.hit_times.s": outer_s["shrink.hit_times"],
            "massdist.build_witness.s": outer_s["massdist.build_witness"],
            "massdist.holder_check.s": outer_s["massdist.holder_check"],
            "massdist.holder_check.us_per_sample": ratio(outer_s["massdist.holder_check"] * 1e6,
                                                         holder_samples),
            "massdist.solve_finite_s.s": outer_s["massdist.solve_finite_s"],
            "cli.main.s": outer_s["cli.main"],
        }

    def dump(self, path, extra: dict):
        """Write spans, counts and per-name self times as gzipped JSON."""
        payload = {
            "names": self.names,
            "spans": [list(s[:4]) for s in self.spans],
            "info": {str(i): v for i, v in self.info.items()},
            "counts": dict(self.counts),
            "rounding_s": self.rounding_ns * 1e-9,
            "self_s": self.self_times(),
            "missing": self.missing,
            **extra,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
