"""Command-line interface: outputs, file formats, and exit codes."""
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

import u2metrics.cli
from u2metrics.btflat import bt_csc_seed
from u2metrics.cli import main
from u2metrics.catalog import catalog_get
from u2metrics.exppoly import MAX_ROOT_DEGREE
from u2metrics.metricfile import emit_metric, parse_metric
from u2metrics.profiles import Domain, ExpFactor, MetricSpec, canonical


CLI_GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data" / "cli_goldens.json"

# the commands and library calls that make no array, in a fresh interpreter:
# it prints the numpy modules they loaded and whether dataclasses was loaded
_NUMPY_FREE = """
import contextlib, io, os, sys, tempfile
import u2metrics
from u2metrics import cli
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.metricfile import emit_metric, parse_metric
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["catalog", "list"]) == 0
    for name in catalog_names():
        assert cli.main(["catalog", "emit", name]) == 0
    path = os.path.join(tmp, "mtn.txt")
    assert cli.main(["catalog", "emit", "modified-taub-nut-2", "--out", path]) == 0
    assert cli.main(["transform", path]) == 0
    tn = os.path.join(tmp, "tn.txt")
    assert cli.main(["catalog", "emit", "taub-nut", "--param", "m=2", "--out", tn]) == 0
    for metric in (tn, path):
        assert cli.main(["ends", metric]) == 0
    assert cli.main(["roots", "page"]) == 0
    seed = os.path.join(tmp, "seed.txt")
    with open(seed, "w") as handle:
        handle.write("z 0.0\\nF 1.5\\nF1d 0.3\\nF2d -0.2\\nF3d 0.1\\nC 1.2\\nC1d 0.1\\ns 0.5\\nK 0.0\\n")
    assert cli.main(["bt", "integrate", "--t", "1", "--init", seed, "--span", "0:0.8",
                     "--out", os.path.join(tmp, "traj.tsv")]) == 0
    assert cli.main(["bt", "search", "--t", "1", "--trials", "4"]) == 0
for name in catalog_names():
    parse_metric(emit_metric(catalog_get(name)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
print('dataclasses' in sys.modules)
"""


def _write_metric(tmp_path, name, params=None, fname="metric.txt"):
    path = tmp_path / fname
    path.write_text(emit_metric(catalog_get(name, params)))
    return str(path)


class TestCatalogCommands:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "taub-nut" in out and "eguchi-hanson" in out

    def test_emit_to_file_and_classify(self, tmp_path, capsys):
        out_file = tmp_path / "tn.txt"
        rc = main(["catalog", "emit", "taub-nut", "--param", "m=2", "--out", str(out_file)])
        assert rc == 0
        rc = main(["classify", str(out_file)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ricci_flat yes" in text
        assert "hyperkahler_Iplus yes" in text

    def test_emit_unknown_name_exits_1(self, capsys):
        assert main(["catalog", "emit", "nope"]) == 1
        assert capsys.readouterr().err != ""

    def test_emit_bad_param_exits_1(self):
        assert main(["catalog", "emit", "taub-nut", "--param", "m=-1"]) == 1

    @pytest.mark.parametrize(
        "name, param",
        [
            ("taub-nut", "m=inf"),
            ("burns", "m=inf"),
            ("fubini-study", "Lambda=inf"),
            ("lebrun", "k=inf"),
            ("eguchi-hanson-lambda", "k=nan"),
        ],
    )
    def test_emit_non_finite_param_exits_1(self, name, param, capsys):
        assert main(["catalog", "emit", name, "--param", param]) == 1
        assert "violates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, param, message",
        [
            ("burns", "m=1e200", "burns(m=1e+200) is not a valid metric: non-finite coefficient -inf"),
            ("taub-nut", "m=1e-320", "is not a valid metric: non-finite coefficient inf"),
            ("eguchi-hanson", "m=1e100", "eguchi-hanson(m=1e+100) is not a valid metric"),
        ],
    )
    def test_emit_param_that_gives_no_valid_metric_exits_1(self, name, param, message, capsys):
        # before: burns m=1e200 emitted "F canonical 0 -inf 0 0" with exit 0
        assert main(["catalog", "emit", name, "--param", param]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("target", ["missing/tn.txt", "existing-dir"])
    def test_unwritable_out_exits_1_and_leaves_no_temp_file(self, target, tmp_path, capsys):
        # before: a traceback from tempfile.mkstemp (FileNotFoundError) or
        # from os.replace (IsADirectoryError)
        (tmp_path / "existing-dir").mkdir()
        out_path = tmp_path / target
        assert main(["catalog", "emit", "taub-nut", "--out", str(out_path)]) == 1
        out, err = capsys.readouterr()
        reason = "No such file or directory" if target.startswith("missing") else "Is a directory"
        assert out == "" and err == f"usage error: cannot write {out_path}: {reason}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["existing-dir"]

    def test_emit_repeated_param_exits_1(self, capsys):
        assert main(["catalog", "emit", "taub-nut", "--param", "m=2", "--param", "m=3"]) == 1
        assert "usage error: --param m given twice" in capsys.readouterr().err


class TestInvalidMetricFiles:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("F canonical inf -2 0 0\nC exp C0=1 eps=-1", "line 3: non-finite coefficient inf"),
            ("F canonical 0 0 0 0\nC exp C0=inf eps=-1", "line 4: non-finite coefficient inf"),
            ("F canonical 0 0 0 0\nC einstein C5=nan C6=1", "line 4: non-finite coefficient nan"),
            ("F canonical 0 0 0 0\nC einstein C5=0 C6=0", "line 4: (C5, C6) must not both vanish"),
            ("F term 0 1\nF term -inf 1\nC exp C0=1 eps=-1", "line 4: exponent -inf is not a half-integer"),
        ],
    )
    @pytest.mark.parametrize("command", [["classify"], ["ends"], ["transform"], ["curvature", "--grid", "0.1:0.9:3"]])
    def test_exit_2_on_the_line(self, tmp_path, capsys, line, message, command):
        # before: classify, ends and curvature ended in a traceback, and
        # transform wrote C0=inf back out with exit 0
        path = tmp_path / "m.txt"
        path.write_text(f"name x\ndomain 0 1 open open\n{line}\n")
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"parse error: {message}" in err


def _past_the_root_bound(tmp_path):
    """A metric file whose F = 2 − e^{33z} is one degree past real_roots' bound, and the bound's message."""
    path = tmp_path / "deg.txt"
    path.write_text(f"name deg\ndomain -5 0 open open\nF term 0 2\nF term {MAX_ROOT_DEGREE + 1} -1\nC exp C0=1 eps=-1\n")
    reason = f"real_roots is bounded at degree {MAX_ROOT_DEGREE}: the polynomial in x = e^z has degree"
    return str(path), f"{reason} {MAX_ROOT_DEGREE + 1}"


_OUT_OF_FLOAT_RANGE = "a real zero lies outside float range: its x = e^z is past the largest float or below the least"


def _zero_outside_float_range(tmp_path, f0, f1):
    """A metric file whose F = f0 + f1·e^z vanishes at x = e^z = −f0/f1, outside float range."""
    path = tmp_path / "far.txt"
    path.write_text(f"name far\ndomain -inf inf open open\nF term 0 {f0}\nF term 1 {f1}\nC exp C0=1 eps=-1\n")
    return str(path)


_FAR_ZEROS = pytest.mark.parametrize("f0, f1", [("-1e-300", "1e300"), ("-1e300", "1e-300")], ids=["below", "above"])


class TestClassifyCommand:
    def test_non_extremal_profile(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text(
            "name off\ndomain -1 1 open open\nF term 0 1\nF term 3 1\nC exp C0=1 eps=-1\n"
        )
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "conformally_extremal no" in out

    def test_bt_predicate_with_t(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "taub-bolt")
        assert main(["classify", path, "--t", "1.0"]) == 0
        assert "bt_flat yes" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_unmeetable_tol_exits_1(self, tmp_path, capsys, tol):
        path = _write_metric(tmp_path, "taub-nut")
        assert main(["classify", path, f"--tol={tol}"]) == 1
        assert "usage error: --tol must be positive" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("name x\nnot-a-directive\n")
        assert main(["classify", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_root_degree_past_the_bound_is_the_indeterminate_reason(self, tmp_path, capsys):
        path, reason = _past_the_root_bound(tmp_path)
        assert main(["classify", path]) == 0
        lines = capsys.readouterr().out.splitlines()[3:]
        assert len(lines) == 17 and all(line.endswith(f" indeterminate residual=inf [{reason}]") for line in lines)

    @_FAR_ZEROS
    def test_zero_outside_float_range_is_the_indeterminate_reason(self, tmp_path, capsys, f0, f1):
        # before: "math domain error" below float range, and an integer division error above it
        assert main(["classify", _zero_outside_float_range(tmp_path, f0, f1)]) == 0
        lines = capsys.readouterr().out.splitlines()[3:]
        assert len(lines) == 17
        assert all(line.endswith(f" indeterminate residual=inf [{_OUT_OF_FLOAT_RANGE}]") for line in lines)


class TestCurvatureCommand:
    def test_tsv_output(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "taub-nut")
        assert main(["curvature", path, "--grid", "0.5:2.0:5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert "u2metrics=" in lines[0]
        assert "\t" in lines[0] and "\t" in lines[1]
        assert len(lines) == 6

    def test_out_file_written_atomically(self, tmp_path):
        path = _write_metric(tmp_path, "taub-nut")
        out_file = tmp_path / "curv.tsv"
        assert main(["curvature", path, "--grid", "0.5:2.0:5", "--out", str(out_file)]) == 0
        content = out_file.read_text()
        assert content.endswith("\n")
        assert len(content.strip().splitlines()) == 6

    def test_grid_outside_domain_exits_3(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "taub-nut")  # domain (0, inf)
        assert main(["curvature", path, "--grid=-2.0:-1.0:3"]) == 3
        assert capsys.readouterr().err != ""

    def test_bad_grid_syntax_exits_1(self, tmp_path):
        path = _write_metric(tmp_path, "taub-nut")
        assert main(["curvature", path, "--grid", "nope"]) == 1


class TestGridCommandsMatchGoldens:
    """``curvature --grid`` and ``bt residuals --grid`` sample the grid one
    float z at a time (``curvature_sample`` and ``state_from_metric``), so
    they make no array, and print what the benchmark's CLI goldens hold,
    within their rtol 1e-7 and atol 1e-9."""

    @pytest.mark.parametrize("command", ["curvature-grid", "bt-residuals"])
    def test_one_sample_call_and_golden_output(self, command, tmp_path, capsys, monkeypatch):
        golden = json.loads(CLI_GOLDENS.read_text())[command]
        points = int(golden["argv"][golden["argv"].index("--grid") + 1].split(":")[2])  # 50 and 10
        _write_metric(tmp_path, "taub-nut", {"m": 2.0}, fname="tn.txt")
        calls = []
        hooked = "curvature_sample" if command == "curvature-grid" else "state_from_metric"
        sample = getattr(u2metrics.cli, hooked)
        monkeypatch.setattr(u2metrics.cli, hooked, lambda m, z, *rest: calls.append(z) or sample(m, z, *rest))
        assert main([a.format(**{"in": tmp_path, "out": tmp_path}) for a in golden["argv"]]) == 0
        assert len(calls) == points and all(type(z) is float for z in calls)
        outputs = [(capsys.readouterr().out, golden["stdout"])]
        if "out" in golden:
            outputs.append(((tmp_path / "curv.tsv").read_text(), golden["out"]))
        for got, want in outputs:
            got, want = got.splitlines(), want.splitlines()
            assert len(got) == len(want) and got[:1] == want[:1]
            for line, want_line in zip(got[1:], want[1:]):
                xs, ys = [float(v) for v in line.split("\t")], [float(v) for v in want_line.split("\t")]
                assert len(xs) == len(ys)
                for x, y in zip(xs, ys):
                    assert abs(x - y) <= 1e-7 * max(abs(x), abs(y)) + 1e-9, (line, want_line)

    @pytest.mark.parametrize("command", ["curvature", "bt residuals"])
    def test_first_failing_point_in_grid_order(self, command, tmp_path, capsys):
        # g = e^{z/2} − e^{−z/2} vanishes at z = 0, and z = 2 is outside the
        # open domain; before, the whole-grid call named z=2.0, the first z
        # of jet_F's domain check, which runs before jet_C's pole check
        path = tmp_path / "pole.txt"
        path.write_text("name pole\ndomain -2 2 open open\nF canonical 2 -2 0 0\nC einstein C5=1 C6=-1\n")
        extra = ["--t", "1"] if command.startswith("bt") else []
        assert main([*command.split(), str(path), *extra, "--grid=-1:3:5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "numeric error: conformal denominator vanishes at z=0.0\n"


class TestFlowCommandsMatchGoldens:
    """``bt integrate`` and ``bt search`` print and write what the benchmark's CLI
    goldens hold, within their rtol 1e-7 and atol 1e-9: a one-ulp change of the
    flow's kernel moves the integrated trajectory past that."""

    _NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b)")

    def _assert_close(self, got, want):
        got, want = self._NUMBER.split(got), self._NUMBER.split(want)
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            if i % 2 == 0:
                assert a == b
            else:
                x, y = float(a), float(b)
                assert abs(x - y) <= 1e-7 * max(abs(x), abs(y)) + 1e-9, (a, b)

    @pytest.mark.parametrize("command", ["bt-integrate", "bt-search"])
    def test_golden_output(self, command, tmp_path, capsys):
        golden = json.loads(CLI_GOLDENS.read_text())[command]
        seed = bt_csc_seed(F=1.5, F1d=0.3, F2d=-0.2, C=1.2, C1d=0.1, s=0.5, t=1.0)
        (tmp_path / "seed.txt").write_text("".join(f"{k} {v!r}\n" for k, v in seed._asdict().items()))
        assert main([a.format(**{"in": tmp_path, "out": tmp_path}) for a in golden["argv"]]) == 0
        self._assert_close(capsys.readouterr().out, golden["stdout"])
        if command == "bt-integrate":
            traj = (tmp_path / "traj.tsv").read_text()
            assert traj.count("\n") == golden["out"].count("\n") > 20
            self._assert_close(traj, golden["out"])


class TestEndsCommand:
    def test_reports_bolt_and_ends(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "eguchi-hanson")
        assert main(["ends", path]) == 0
        out = capsys.readouterr().out
        assert "bolt" in out
        assert "ALE" in out

    def test_failed_distance_exits_3_with_reason(self, tmp_path, capsys):
        # F = 1 − 0.001·e^z: the upper end lies past the zero at ln 1000
        spec = MetricSpec("s", canonical(0, 0, -0.001, 0), ExpFactor(1.0, -1), Domain(-1.0, math.inf))
        path = tmp_path / "s.txt"
        path.write_text(emit_metric(spec))
        assert main(["ends", str(path)]) == 3
        captured = capsys.readouterr()
        assert "end upper" in captured.out and "distance=nan" in captured.out
        assert captured.err.startswith("numeric error: ")

    def test_root_degree_past_the_bound_exits_3_in_one_line(self, tmp_path, capsys):
        # before: no bound on the degree find_bolts isolates, and an ExpPolyError ended in a traceback
        path, reason = _past_the_root_bound(tmp_path)
        assert main(["ends", path]) == 3
        assert capsys.readouterr() == ("", f"numeric error: {reason}\n")

    @_FAR_ZEROS
    def test_zero_outside_float_range_exits_3_in_one_line(self, tmp_path, capsys, f0, f1):
        # before: a ValueError traceback below float range, and an integer division error above it
        assert main(["ends", _zero_outside_float_range(tmp_path, f0, f1)]) == 3
        assert capsys.readouterr() == ("", f"numeric error: {_OUT_OF_FLOAT_RANGE}\n")


class TestTransformCommand:
    def test_roundtrip_is_identity(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "modified-taub-nut-2")
        original = open(path).read()
        assert main(["transform", path]) == 0
        once = capsys.readouterr().out
        partner = tmp_path / "partner.txt"
        partner.write_text(once)
        assert main(["transform", str(partner)]) == 0
        twice = capsys.readouterr().out
        assert "eps=+1" in once
        assert twice == original

    def test_non_kahler_exits_3(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "taub-bolt")
        assert main(["transform", path]) != 0

    def test_non_kahler_is_an_error_line_and_exit_1(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "taub-bolt")
        assert main(["transform", path]) == 1
        assert capsys.readouterr() == ("", "error: metric 'taub-bolt(m=1)' is not Kähler: C is not C0·e^{∓z}\n")

    def test_single_term_ratio_is_kahler(self, tmp_path, capsys):
        # C = e^{−z}/1: kahler_plus yes, and so the tag Jplus, which transform flips
        path = tmp_path / "t.txt"
        path.write_text("name t\ndomain 0 inf open open\nF canonical 2 -2 0 0\nC ratio\nnum term -1 1\nden term 0 1\n")
        assert main(["classify", str(path)]) == 0
        assert "kahler_plus yes" in capsys.readouterr().out
        assert main(["transform", str(path)]) == 0
        assert capsys.readouterr().out.endswith("C ratio\nnum term 1 1\nden term 0 1\ntag Jminus\n")
        emitted = emit_metric(parse_metric(path.read_text()))
        assert emitted.endswith("C ratio\nnum term -1 1\nden term 0 1\ntag Jplus\n")

    def test_untagged_exp_factor_is_kahler(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("name t\ndomain 0 inf open open\nF canonical 2 -2 0 0\nC exp C0=1 eps=-1\n")
        assert main(["classify", str(path)]) == 0
        assert "kahler_plus yes" in capsys.readouterr().out
        assert main(["transform", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("C exp C0=1.0 eps=+1\ntag Jminus\n")

    @pytest.mark.parametrize("tag, message", [
        ("Jminus", "tag Jminus requires C = C0·e^{+z}"),
        ("Iplus", "tag must be Jplus or Jminus"),
    ])
    def test_tag_that_contradicts_c_exits_2(self, tmp_path, capsys, tag, message):
        path = tmp_path / "t.txt"
        path.write_text(f"name t\ndomain 0 inf open open\nF canonical 2 -2 0 0\nC exp C0=1 eps=-1\ntag {tag}\n")
        assert main(["transform", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestBtCommands:
    def test_residuals_tsv(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "taub-bolt")
        rc = main(["bt", "residuals", path, "--t", "1", "--s", "const:0", "--grid=-1.0:-0.3:5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("#")
        for line in lines[1:]:
            cols = [float(v) for v in line.split("\t")]
            assert max(abs(v) for v in cols[1:]) < 1e-6

    def test_integrate_from_state_file(self, tmp_path, capsys):
        state = tmp_path / "seed.txt"
        state.write_text(
            "z 0.0\nF 1.3\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n"
        )
        out_file = tmp_path / "traj.tsv"
        rc = main(
            ["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.4", "--out", str(out_file)]
        )
        assert rc == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 5

    def test_integrate_residual_columns_are_round_off(self, tmp_path):
        # the README's bt integrate on the benchmark's CSC seed: F1res/F2res
        # are the residuals of each sample's own F⁗ and C″
        seed = bt_csc_seed(F=1.5, F1d=0.3, F2d=-0.2, C=1.2, C1d=0.1, s=0.5, t=1.0)
        state = tmp_path / "seed.txt"
        state.write_text("".join(f"{k} {float(v)!r}\n" for k, v in seed._asdict().items()))
        out_file = tmp_path / "traj.tsv"
        argv = ["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.8", "--out", str(out_file)]
        assert main(argv) == 0
        lines = out_file.read_text().splitlines()
        header = lines[0].split("\t")
        assert header[-3:-1] == ["F1res", "F2res"] and len(lines) > 20
        for line in lines[1:]:
            f1res, f2res = (float(v) for v in line.split("\t")[-2:])
            assert math.isfinite(f1res) and math.isfinite(f2res)
            assert abs(f1res) <= 1e-12 and abs(f2res) <= 1e-12

    def test_integrate_truncated_at_the_seed_writes_the_header_only(self, tmp_path, capsys):
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 0.0\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        assert main(["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.4"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and out.startswith("# z\t")
        assert "truncated=yes (F vanishes at z=0.0)" in err

    def test_residuals_read_only_the_state_fields(self, tmp_path, capsys):
        # before: exit 3 with "bach_B1 is not finite at z=399.0", a field the state does not use
        path = _write_metric(tmp_path, "flat")
        assert main(["bt", "residuals", path, "--t", "1", "--grid", "399:400:2"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [399.0, 400.0]
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    def test_residuals_where_f_vanishes_exit_3(self, tmp_path, capsys):
        # F = 1 − e^{−2z} is exactly 0 at z = 0, the third grid point
        path = tmp_path / "m.txt"
        path.write_text("name zero-f\ndomain -2 2 open open\nF canonical -2 0 0 0\nC exp C0=1 eps=-1\n")
        assert main(["bt", "residuals", str(path), "--t", "1", "--grid=-1:0:3"]) == 3
        assert "F vanishes at z=0.0" in capsys.readouterr().err

    def test_integrate_non_positive_tol_exits_1(self, tmp_path, capsys):
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 1.3\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        assert main(["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.4", "--tol", "0"]) == 1
        assert "--tol must be positive" in capsys.readouterr().err

    def test_integrate_infinite_tol_exits_1(self, tmp_path, capsys):
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 1.3\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        assert main(["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.4", "--tol", "inf"]) == 1
        assert "usage error: --tol must be positive and finite" in capsys.readouterr().err

    def test_search(self, capsys):
        assert main(["bt", "search", "--t", "1", "--trials", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "extremality_residual" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--t", "0"], "--t must be nonzero"),
            (["--t", "1", "--trials", "0"], "--trials must be at least 1"),
            (["--t", "1", "--seed", "-1"], "--seed must be non-negative, got -1"),
        ],
    )
    def test_search_bad_arguments_exit_1(self, argv, message, capsys):
        assert main(["bt", "search", *argv]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_state_value_exits_2_on_its_line(self, tmp_path, capsys, value):
        # before: F nan exited 3 with "B^t residuals are not finite at z=0.0"
        state = tmp_path / "seed.txt"
        state.write_text(f"z 0.0\nF {value}\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        assert main(["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.4"]) == 2
        assert f"parse error: line 2: F must be finite, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("F 9\n", "parse error: line 10: second F line (first on line 2)"),
            ("bogus 7\n", "parse error: line 10: unknown state field 'bogus'"),
        ],
    )
    def test_repeated_or_unknown_state_key_exits_2_on_its_line(self, tmp_path, capsys, extra, message):
        # before: the last F won and an unknown key was ignored, and the run exited 0
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 1.5\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n" + extra)
        assert main(["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.4"]) == 2
        assert message in capsys.readouterr().err

    def test_missing_state_key_exits_2(self, tmp_path, capsys):
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 1.3\n")
        assert main(["bt", "integrate", "--t", "1", "--init", str(state), "--span", "0:0.4"]) == 2
        assert "missing fields" in capsys.readouterr().err


class TestRootsCommand:
    def test_page_constants(self, capsys):
        assert main(["roots", "page"]) == 0
        out = capsys.readouterr().out
        assert "0.281701557908" in out
        assert "0.579058676041" in out


def _subprocess_env() -> dict:
    src = str(pathlib.Path(u2metrics.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_commands_that_make_no_array_leave_numpy_unloaded():
    env = _subprocess_env()
    run = subprocess.run([sys.executable, "-c", _NUMPY_FREE], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\nFalse\n"


def test_numpy_loads_only_for_the_readme_commands_that_make_an_array(tmp_path):
    # one fresh process per README command, as the benchmark runs them: the
    # curvature and bt residuals grids, the B^t flow and the quadrature of ends
    # are run on floats, and numpy loads only for classify's grid sample;
    # no command loads dataclasses (the records are plain classes)
    env = _subprocess_env()
    dirs = {"in": tmp_path, "out": tmp_path}
    _write_metric(tmp_path, "taub-nut", {"m": 2.0}, fname="tn.txt")
    _write_metric(tmp_path, "modified-taub-nut-2", fname="mtn.txt")
    seed = bt_csc_seed(F=1.5, F1d=0.3, F2d=-0.2, C=1.2, C1d=0.1, s=0.5, t=1.0)
    (tmp_path / "seed.txt").write_text("".join(f"{k} {v!r}\n" for k, v in seed._asdict().items()))
    script = (
        "import sys\nfrom u2metrics.cli import main\ncode = main(sys.argv[1:])\n"
        "print('dataclasses' in sys.modules, 'numpy' in sys.modules)\nsys.exit(code)"
    )
    loaded, dataclasses = set(), set()
    goldens = json.loads(CLI_GOLDENS.read_text())
    for label, golden in goldens.items():
        argv = [a.format(**dirs) for a in golden["argv"]]
        run = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, (label, run.stderr)
        modules = run.stdout.splitlines()[-1].split()
        if modules[0] == "True":
            dataclasses.add(label)
        if modules[1] == "True":
            loaded.add(label)
    assert len(goldens) == 11
    assert loaded == {"classify-t"}
    assert dataclasses == set()


def _children(pid: int) -> list:
    """The pids whose parent is ``pid``, from its ``children`` file where the kernel has one."""
    listed = pathlib.Path(f"/proc/{pid}/task/{pid}/children")
    if listed.exists():
        return [int(c) for c in listed.read_text().split()]
    out = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while the directory was read
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs: a zombie, left for a reaper outside this test, does not."""
    try:
        state = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not (sys.platform.startswith("linux") and hasattr(os, "fork")), reason="reads /proc")
def test_a_killed_search_leaves_no_child():
    # the search forks after seeding its 100 000 trials; SIGKILL its process and the
    # child, which checks its parent after every trial, leaves within 2 s
    script = (
        "import os, sys\nos.sched_getaffinity = lambda pid: {0, 1}  # split on any machine\n"
        "from u2metrics.cli import main\nsys.exit(main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", script, "bt", "search", "--t", "1", "--trials", "100000"]
    proc = subprocess.Popen(argv, env=_subprocess_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        give_up = time.monotonic() + 60.0
        while not (children := _children(proc.pid)):
            assert proc.poll() is None and time.monotonic() < give_up
            time.sleep(0.02)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    gone_by = time.monotonic() + 2.0
    while any(_running(c) for c in children) and time.monotonic() < gone_by:
        time.sleep(0.02)
    assert not any(_running(c) for c in children)


class TestNegativeRangeStart:
    """A --grid or --span value with a negative start may follow its flag as a separate argument."""

    @pytest.mark.parametrize("command, flag, value", [
        (["curvature", "METRIC"], "--grid", "-1:1:3"),
        (["curvature", "METRIC"], "--grid", "-.5:1:2"),
        (["bt", "residuals", "METRIC", "--t", "1"], "--grid", "-1:1:3"),
        (["bt", "integrate", "--t", "1", "--init", "SEED"], "--span", "-1:0"),
    ], ids=["curvature", "curvature-dot", "bt-residuals", "bt-integrate"])
    def test_both_spellings_give_the_same_output(self, tmp_path, capsys, command, flag, value):
        # before: "--grid -1:1:3" exited 1 with "argument --grid: expected one argument"
        seed = tmp_path / "seed.txt"
        seed.write_text("z 0.0\nF 1.3\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        paths = {"METRIC": _write_metric(tmp_path, "flat"), "SEED": str(seed)}
        argv = [paths.get(a, a) for a in command]
        runs = []
        for i, spelling in enumerate(([f"{flag}={value}"], [flag, value])):
            out = tmp_path / f"out{i}.tsv"
            assert main([*argv, *spelling]) == 0
            printed = capsys.readouterr()
            assert main([*argv, *spelling, "--out", str(out)]) == 0
            runs.append((printed, capsys.readouterr(), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0].out.count("\n") > 2

    @pytest.mark.parametrize("value", ["0:1:2", "-1:1:3"])
    def test_an_abbreviated_option_is_a_usage_error(self, tmp_path, capsys, value):
        # before: "--gri 0:1:2" ran as --grid, and "--gri -1:1:3" failed as "expected one argument"
        path = _write_metric(tmp_path, "flat")
        assert main(["curvature", path, "--gri", value]) == 1
        assert capsys.readouterr() == ("", "usage error: the following arguments are required: --grid\n")

    def test_a_flag_as_the_value_stays_a_usage_error(self, tmp_path, capsys):
        path = _write_metric(tmp_path, "flat")
        assert main(["curvature", path, "--grid", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr() == ("", "usage error: argument --grid: expected one argument\n")
        assert not (tmp_path / "x").exists()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["classify", "bt residuals", "bt integrate", "bt search"])
    def test_non_finite_t_exits_1(self, tmp_path, capsys, command, value):
        path = _write_metric(tmp_path, "taub-bolt")
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 1.3\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        rest = {
            "classify": [path],
            "bt residuals": [path, "--grid=-1.0:-0.3:3"],
            "bt integrate": ["--init", str(state), "--span", "0:0.4"],
            "bt search": ["--trials", "2"],
        }[command]
        assert main([*command.split(), *rest, f"--t={value}"]) == 1
        assert f"usage error: --t must be finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:3", "nan:1:3", "1:-inf:1"])
    @pytest.mark.parametrize("command", [["curvature"], ["bt", "residuals", "--t", "1"]], ids=["curvature", "bt"])
    def test_non_finite_grid_exits_1(self, tmp_path, capsys, command, grid):
        path = _write_metric(tmp_path, "taub-nut")
        assert main([*command, path, f"--grid={grid}"]) == 1
        assert f"usage error: --grid endpoints must be finite, got '{grid}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "1:2", "--grid must be a:b:n, got '1:2'"),
        ("--grid", "1:2:x", "bad --grid '1:2:x': invalid literal for int() with base 10: 'x'"),
        ("--grid", "a:2:3", "bad --grid 'a:2:3': could not convert string to float: 'a'"),
        ("--grid", "1:2:0", "--grid needs n >= 1"),
        ("--span", "0", "--span must be a:b, got '0'"),
        ("--span", "0:1:2", "--span must be a:b, got '0:1:2'"),
        ("--span", "0:x", "bad --span '0:x': could not convert string to float: 'x'"),
    ])
    def test_bad_range_exits_1(self, tmp_path, capsys, flag, value, message):
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 1.3\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        if flag == "--grid":
            argv = ["curvature", _write_metric(tmp_path, "taub-nut"), f"--grid={value}"]
        else:
            argv = ["bt", "integrate", "--t", "1", "--init", str(state), f"--span={value}"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_s_exits_1(self, tmp_path, capsys, value):
        # before: const:nan exited 3 with "B^t residuals are not finite at z=-1.0"
        path = _write_metric(tmp_path, "taub-bolt")
        assert main(["bt", "residuals", path, "--t", "1", "--grid=-1.0:-0.3:3", f"--s=const:{value}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"usage error: --s value must be finite, got 'const:{value}'" in err

    @pytest.mark.parametrize("span", ["0:nan", "nan:1", "0:inf"])
    def test_non_finite_span_exits_1(self, tmp_path, capsys, span):
        # before: 0:nan exited 0 with a one-sample trajectory, 0:inf after a "step underflow"
        state = tmp_path / "seed.txt"
        state.write_text("z 0.0\nF 1.3\nF1d 0.4\nF2d -0.2\nF3d 0.1\nC 1.0\nC1d 0.3\ns 0.5\nK 0.0\n")
        assert main(["bt", "integrate", "--t", "1", "--init", str(state), f"--span={span}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"usage error: --span endpoints must be finite, got '{span}'" in err

    def test_missing_file_exits_nonzero(self, capsys):
        assert main(["classify", "/no/such/file.txt"]) in (1, 2)
