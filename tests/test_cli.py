"""CLI pipelines: artifact shapes, documented examples, determinism."""

import csv
import json
import math
import xml.dom.minidom
from fractions import Fraction
from pathlib import Path

import pytest

from chord_envelope import chord_apply_power, chord_layout

from cfshrink import massdist as md
from cfshrink import rounding as rd
from cfshrink import shrink, sums, svgplot
from cfshrink.cli import _exponent, main, parse_range, parse_target
from cfshrink.predim import predim_result
from cfshrink.targets import TargetSpec


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_json(path):
    """Parse an artifact as strict JSON: NaN and Infinity are errors."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ["predim", "--M", "5", "--n", "1..2"],
    ["sstar", "--M", "5", "--n", "2..3"],
    ["cover", "--M", "5", "--n", "2..3", "--s", "0.8"],
    ["witness", "--samples", "2000"],
], ids=lambda argv: argv[0])
def test_table_artifacts_keep_their_text(argv, tmp_path):
    """The CSV and JSON text of each row-table subcommand and of the default
    witness, pinned byte for byte."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for ext in ("csv", "json"):
        name = f"{argv[0]}.{ext}"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_cover_totals_nest_inside_the_chord_envelope_totals(monkeypatch):
    """The golden cover totals (cubic-Hermite envelope) lie inside the ones the
    chord envelope gives at the same level roots."""
    roots = {n: predim_result(n, 4, math.inf, M=5, tol=1e-3) for n in (2, 3)}
    monkeypatch.setattr(sums, "lambda_enclosure", lambda n, s, *, alphabet_max, level: rd.from_f64(
        *chord_apply_power(n, 2.0 * s, chord_layout(level, range(1, alphabet_max + 1)))))
    for row in read_csv(GOLDEN / "cover.csv"):
        n = int(row["n"])
        chord = shrink.cover_svolume(n, 4, TargetSpec.zero(), 0.8, 5, predim=roots[n]).total
        assert chord.lo_float <= float(row["total_lo"]) <= float(row["total_hi"]) <= chord.hi_float


class TestParsing:
    def test_targets(self):
        assert parse_target("zero", 4) == TargetSpec.zero()
        assert parse_target("ones", 4) == TargetSpec.constant((), (1,))
        assert parse_target("const:1,2", 4) == TargetSpec.constant((1, 2))
        assert parse_target("const:1|3", 4) == TargetSpec.constant((1,), (3,))
        assert parse_target("exp:half", 16) == TargetSpec.exp_half_log(16)
        assert parse_target("exp:1/2|none", 4) == TargetSpec.exp_first_digit(
            Fraction(1, 2), tail=()
        )
        with pytest.raises(ValueError):
            parse_target("sevens", 4)

    def test_ranges(self):
        assert parse_range("2..6") == (2, 6)
        assert parse_range("5") == (5, 5)
        assert parse_range([1, 4]) == (1, 4)
        with pytest.raises(ValueError, match="reversed"):
            parse_range("5..3")

    def test_auto_exponent_side_is_the_sign_after_auto(self):
        assert _exponent("auto+1e-3") == ("above", 0.001)
        assert _exponent("auto-1e-3") == ("below", 0.001)
        assert _exponent("auto") == ("above", 0.05)
        assert _exponent("0.8") == 0.8


class TestSvgplot:
    def test_document_shape(self):
        text = svgplot.line_plot(
            [("a", [(1, 1.0), (2, 0.5)]), ("b", [(1, 2.0), (2, 1.5)])],
            title="t", xlabel="x", ylabel="y",
        )
        xml.dom.minidom.parseString(text)
        assert 'version="1.1"' in text
        assert text.count("<polyline") == 2
        # pure function of the input
        assert text == svgplot.line_plot(
            [("a", [(1, 1.0), (2, 0.5)]), ("b", [(1, 2.0), (2, 1.5)])],
            title="t", xlabel="x", ylabel="y",
        )

    def test_needs_points(self):
        with pytest.raises(ValueError):
            svgplot.line_plot([("a", [])])

    def test_ticks_are_nice(self):
        ticks = svgplot._ticks(0.0, 1.0)
        assert ticks == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]


class TestPredim:
    def test_zero_target_s2_convention(self, tmp_path):
        # documented example: s2 column identically 1 for the zero target
        assert main(["predim", "--B", "4", "--target", "zero", "--n", "1..6",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "predim.csv")
        assert len(rows) == 6
        assert all(float(r["s2_lo"]) == float(r["s2_hi"]) == 1.0 for r in rows)
        assert all(float(r["s1_lo"]) > 0.5 for r in rows)
        payload = read_json(tmp_path / "predim.json")
        assert payload["schema"] == 1
        assert len(payload["rows"]) == 6
        xml.dom.minidom.parse(str(tmp_path / "predim.svg"))

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"B": 4, "target": "zero", "n": "1..3", "M": 8}))
        out = tmp_path / "out"
        assert main(["predim", "--config", str(cfgfile), "--n", "1..2",
                     "--out", str(out)]) == 0
        assert len(read_csv(out / "predim.csv")) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        for key in ("bogus", "prec"):
            cfgfile.write_text(json.dumps({key: 1}))
            assert main(["predim", "--config", str(cfgfile)]) == 1
            err = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert err["error"]["type"] == "ValueError"
            assert key in err["error"]["message"]

    def test_root_below_left_edge_is_flagged(self, tmp_path):
        assert main(["predim", "--target", "exp:40", "--n", "1..1",
                     "--out", str(tmp_path)]) == 0
        (row,) = read_csv(tmp_path / "predim.csv")
        assert row["flags"] == "s3_root_below_left_edge"
        assert (row["s3_lo"], row["s3_hi"]) == ("0.0", "0.5055")
        assert read_json(tmp_path / "predim.json")["rows"][0]["flags"] == [
            "s3_root_below_left_edge"]


class TestSstar:
    def test_running_max_is_monotone(self, tmp_path):
        assert main(["sstar", "--B", "4", "--target", "ones", "--n", "2..5",
                     "--M", "12", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sstar.csv")
        runs = [float(r["running_hi"]) for r in rows]
        assert runs == sorted(runs)
        assert all(float(r["running_hi"]) >= float(r["sn_hi"]) - 1e-12 for r in rows)

    def test_levels_without_a_root_are_skipped_with_their_reason(self, tmp_path, capsys):
        # with every level skipped nothing is written; it used to write
        # sstar.csv and sstar.json, then fail with "nothing to plot"
        out = tmp_path / "out"
        assert main(["sstar", "--M", "1", "--n", "1..4", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
        assert err["type"] == "Inapplicable"
        assert err["message"] == "every level was skipped: " + "; ".join(
            f"n={n}: NoRoot: sum at s = 0.5055 is below 1 (n={n}, kind=1, M=1)"
            for n in range(1, 5)
        )
        assert not out.exists()


class TestCover:
    def test_zero_target_decay(self, tmp_path):
        # documented example: log2 totals decrease roughly linearly
        assert main(["cover", "--B", "4", "--target", "zero", "--s", "auto+0.05",
                     "--n", "2..6", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "cover.csv")
        logs = [float(r["log2_total"]) for r in rows]
        assert all(a > b for a, b in zip(logs, logs[1:]))
        payload = read_json(tmp_path / "cover.json")
        assert payload["slope"] <= -0.1
        assert payload["monotone_decreasing"] is True

    def test_fixed_exponent(self, tmp_path):
        assert main(["cover", "--B", "4", "--target", "zero", "--s", "0.8",
                     "--n", "2..4", "--M", "12", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "cover.csv")
        assert [r["s"] for r in rows] == ["0.8"] * 3


class TestWitness:
    def test_default_instance_all_pass(self, tmp_path):
        # the defaults encode the small first-family instance end to end
        assert main(["witness", "--samples", "400", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "witness.json")
        assert payload["all_pass"] is True
        assert payload["intervals"] == 81
        assert payload["case" ] == "I"
        assert payload["holder_limit"] == 2_560_000
        rows = read_csv(tmp_path / "witness.csv")
        assert len(rows) == 81
        assert Fraction(rows[0]["lo"]) < Fraction(rows[0]["hi"])
        dump = (tmp_path / "witness.txt").read_text()
        assert dump.startswith("case=I")

    @pytest.mark.parametrize("argv", [
        ["--target", "const:2|3"],  # z = [0; 2, 3, 3, ...]
        ["--target", "ones"],  # a1(z_n) = 1 next to the closing digit 2
        ["--target", "const:1|2", "--case", "III", "--relax"],
    ], ids=["const-2-3", "ones", "const-1-2-III"])
    def test_surd_target_builds(self, argv, tmp_path):
        # root ends shaved to rationals in the tail: no interval is exact
        assert main(["witness", *argv, "--samples", "400", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "witness.json")
        assert payload["intervals"] == 81
        assert set(payload["verdicts"].values()) == {"PASS"}
        assert [r["exact"] for r in read_csv(tmp_path / "witness.csv")] == ["False"] * 81

    def test_invariant_failure_is_structured(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(md, "extremal_interval", lambda *args: [])
        assert main(["witness", "--samples", "10", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert err["error"]["type"] == "InvalidWitness"
        assert "hit set empty" in err["error"]["message"]

    def test_needs_single_level(self, tmp_path, capsys):
        assert main(["witness", "--n", "2..6", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "single level" in err["error"]["message"]


class TestSimulate:
    def test_hits_table(self, tmp_path):
        assert main(["simulate", "--B", "3", "--target", "ones",
                     "--x", "w:1,1,1,2,1,1,3", "--N", "12",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "simulate.csv")
        assert len(rows) == 12
        payload = read_json(tmp_path / "simulate.json")
        flagged = [int(r["n"]) for r in rows if r["hit"] == "1"]
        assert flagged == payload["hits"]
        assert payload["hits"]  # the early digits match, so some hit exists


class TestPressure:
    def test_pinned_root_and_bracket(self, tmp_path):
        # {1..6}^7 = 279,936 words: the envelope route
        assert main(["pressure", "--M", "6", "--depth", "7", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "pressure.json")
        assert payload["root"] == 0.59673095703125
        # the cubic-Hermite envelope certifies halvings the chord envelope's
        # [0.5725897779383453, 0.6050928598642349] left straddling
        assert payload["bracket"] == [0.5725898095618649, 0.605092837959528]
        assert 0.5725897779383453 <= payload["bracket"][0] <= payload["bracket"][1] <= 0.6050928598642349
        assert "certified" not in payload  # never set, so no longer written
        rows = read_csv(tmp_path / "pressure.csv")
        assert "certified" not in rows[0]
        assert [float(rows[0][k]) for k in ("root", "bracket_lo", "bracket_hi")] == [
            payload["root"], *payload["bracket"]]


    def test_pinned_default_run(self, tmp_path):
        # M = 20 at depth 8: the envelope route; the float.hex pins are the
        # outputs of the all-certified bisections
        assert main(["pressure", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "pressure.json")
        assert (payload["M"], payload["depth"]) == (20, 8)
        assert payload["root"].hex() == "0x1.5dfe666666666p-1"
        assert [v.hex() for v in payload["bracket"]] == [
            "0x1.537fe3110b52cp-1", "0x1.60ddde347ae14p-1"]
        # inside the chord envelope's bracket
        assert float.fromhex("0x1.537fe1ba6ae52p-1") <= payload["bracket"][0]

    def test_zero_tol_is_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pressure", "--tol", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.out.splitlines()[-1])
        assert err["error"]["type"] == "ValueError"
        assert "tol" in err["error"]["message"]
        assert not out.exists()


class TestLemmas:
    def test_all_pass_and_thread_determinism(self, tmp_path):
        # spec determinism clause: byte-identical outputs across thread counts
        one, four = tmp_path / "t1", tmp_path / "t4"
        assert main(["lemmas", "--threads", "1", "--out", str(one)]) == 0
        assert main(["lemmas", "--threads", "4", "--out", str(four)]) == 0
        assert (one / "lemmas.csv").read_bytes() == (four / "lemmas.csv").read_bytes()
        assert (one / "lemmas.json").read_bytes() == (four / "lemmas.json").read_bytes()
        payload = read_json(one / "lemmas.json")
        assert payload["all_pass"] is True
        assert len(payload["suites"]) == 8


class TestErrors:
    def test_bad_target_is_structured(self, capsys):
        assert main(["predim", "--target", "sevens"]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert err["schema"] == 1
        assert err["error"]["type"] == "ValueError"

    def test_module_error_propagates_as_json(self, tmp_path, capsys):
        # cover sums diverge at s <= 1/2 + margin: ExponentTooSmall
        assert main(["cover", "--s", "0.4", "--n", "2..3",
                     "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert err["error"]["type"] == "ExponentTooSmall"

    def _assert_reversed_range_rejected(self, argv, out, capsys):
        assert main(argv + ["--n", "5..3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.out.splitlines()[-1])
        assert err["error"]["type"] == "ValueError"
        assert "5..3" in err["error"]["message"]
        assert captured.err == ""
        assert not out.exists()

    def test_reversed_range_cover(self, tmp_path, capsys):
        # used to end in a ZeroDivisionError from the slope fit on no points
        self._assert_reversed_range_rejected(["cover", "--s", "0.8"], tmp_path / "out", capsys)

    def test_reversed_range_predim(self, tmp_path, capsys):
        # used to write empty predim.csv/json, then fail with "nothing to plot"
        self._assert_reversed_range_rejected(["predim"], tmp_path / "out", capsys)


# flags of runs above, and the same values as a config file's JSON
_FLAG_RUNS = [
    (["predim", "--B", "4", "--target", "zero", "--n", "1..6"],
     {"B": 4, "target": "zero", "n": "1..6"}),
    (["sstar", "--B", "4", "--target", "ones", "--n", "2..5", "--M", "12"],
     {"B": 4, "target": "ones", "n": [2, 5], "M": 12}),
    (["pressure", "--M", "6", "--depth", "7"], {"M": 6, "depth": 7, "kind": "phi1"}),
    (["cover", "--B", "4", "--target", "zero", "--s", "0.8", "--n", "2..4", "--M", "12"],
     {"B": 4, "target": "zero", "s": 0.8, "n": "2..4", "M": 12}),
    (["witness", "--samples", "400"], {"samples": 400, "relax": False, "t": "3/200"}),
    (["simulate", "--B", "3", "--target", "ones", "--x", "w:1,1,1,2,1,1,3", "--N", "12"],
     {"B": 3, "target": "ones", "x": "w:1,1,1,2,1,1,3", "N": 12}),
    (["lemmas", "--threads", "1"], {"threads": 1}),
]


class TestConfigFiles:
    @pytest.mark.parametrize("argv, values", _FLAG_RUNS, ids=[a[0] for a, _ in _FLAG_RUNS])
    def test_config_values_match_flags(self, argv, values, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(values))
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        assert main(argv + ["--out", str(by_flag)]) == 0
        flag_out = capsys.readouterr().out.replace(str(by_flag), "OUT")
        assert main([argv[0], "--config", str(cfgfile), "--out", str(by_file)]) == 0
        assert capsys.readouterr().out.replace(str(by_file), "OUT") == flag_out
        names = sorted(p.name for p in by_flag.iterdir())
        assert names == sorted(p.name for p in by_file.iterdir())
        for name in names:
            assert (by_flag / name).read_bytes() == (by_file / name).read_bytes(), name

    @pytest.mark.parametrize("sub, values, key", [
        ("witness", {"core": False}, "core"),  # no such key: the witness picks its path
        ("witness", {"relax": "false"}, "relax"),
        ("predim", {"B": 4.7}, "B"),
        ("predim", {"B": True}, "B"),
        ("cover", {"level": 7}, "level"),
        ("witness", {"tol": 1e-3}, "tol"),
        ("lemmas", {"B": 4}, "B"),
    ])
    def test_bad_value_names_the_key(self, sub, values, key, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfgfile), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
        assert err["type"] == "ValueError"
        assert key in err["message"]
        assert not out.exists()


class TestRejectedRequests:
    @pytest.mark.parametrize("argv, needle", [
        (["witness", "--samples", "0"], "sample count"),
        (["witness", "--samples", "-3"], "sample count"),
        (["pressure", "--M", "full"], "option M"),
        (["witness", "--M", "full"], "option M"),
        (["simulate", "--B", "0"], "base B must exceed 1"),
        (["simulate", "--B", "-3"], "base B must exceed 1"),
        (["predim", "--B", "4.7"], "option B"),
        (["pressure", "--kind", "phi4"], "option kind"),
        (["lemmas", "--threads", "0"], "option threads"),
        (["lemmas", "--threads", "-2"], "option threads"),
        (["witness", "--ell", "0"], "ell and M must be positive"),
        (["pressure", "--kind", "phi3", "--rate", "inf"], "growth rate beta"),
        (["pressure", "--kind", "phi2", "--rate", "nan"], "growth rate alpha"),
        (["pressure", "--kind", "phi1", "--rate", "inf"], "option rate"),
        (["pressure", "--kind", "phi1", "--rate", "nan"], "option rate"),
        (["cover", "--s", "nan"], "option s"),
        (["cover", "--s", "inf"], "option s"),
        (["cover", "--s", "auto+inf"], "option s"),
        (["cover", "--s", "auto+nan"], "option s"),
    ])
    def test_json_error_and_nothing_written(self, argv, needle, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
        assert err["type"] == "ValueError"
        assert needle in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["predim", "--target", "exp:800", "--n", "1..1"],
        ["simulate", "--target", "exp:710"],
        ["witness", "--target", "exp:800", "--case", "II"],
    ])
    def test_exponential_target_past_float_range(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
        assert err["type"] == "PrecisionExhausted"
        assert "cannot round e^(gamma n)" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["lemmas", "--B", "4"], ["simulate", "--n", "3"], ["witness", "--tol", "0.1"],
        ["pressure", "--target", "ones"], ["predim", "--seed", "1"], ["witness", "--core"],
    ])
    def test_options_the_subcommand_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

