"""Plain-text metric serialization: round trips and error reporting."""
import json
import math
import pathlib
import re
from fractions import Fraction

import pytest

from u2metrics.catalog import catalog_entry, catalog_get, catalog_names
from u2metrics.cli import main
from u2metrics.exppoly import ExpPoly
from u2metrics.metricfile import MetricFileError, emit_metric, parse_metric
from u2metrics.profiles import Domain, ExpFactor, MetricSpec, canonical

PIN_SPECS = json.loads((pathlib.Path(__file__).parent / "data" / "catalog_pins.json").read_text())["specs"]


def _assert_round_trip_by_value(m) -> str:
    """emit → parse gives m's F, and a second emit repeats the first; returns the text."""
    text = emit_metric(m)
    again = parse_metric(text)
    assert again.F == m.F
    assert emit_metric(again) == text
    return text


class TestRoundTrip:
    @pytest.mark.parametrize("name", catalog_names())
    def test_emit_parse_emit_idempotent(self, name):
        m = catalog_entry(name).build()
        text = emit_metric(m)
        again = emit_metric(parse_metric(text))
        assert text == again

    def test_rationals_survive(self):
        # exponent 3 is off the canonical family, so F is written as term lines
        text = "name t\ndomain -1 1 open open\nF term 0 1\nF term 3 1/2\nC exp C0=1 eps=-1\n"
        m = parse_metric(text)
        assert m.f_poly().coefficient(3) == Fraction(1, 2)
        assert "F term 3 1/2\n" in emit_metric(m)

    @pytest.mark.parametrize(
        "pin", PIN_SPECS, ids=[f"{p['name']}{p['params'] or ''}" for p in PIN_SPECS]
    )
    def test_pinned_spec_round_trips_by_value(self, pin):
        _assert_round_trip_by_value(catalog_get(pin["name"], pin["params"]))

    @pytest.mark.parametrize(
        "f_lines, written",
        [
            ("F term -2 1/2\nF term -1 3\nF term 0 1\n", "F canonical 1 3 0 0\n"),
            ("F term 0 1\nF term 3 -1/4\n", "F term 0 1\nF term 3 -1/4\n"),
            # C1 = 2·1e308 has no float value, so this canonical-shaped F stays as terms
            ("F term -2 1e308\nF term 0 1\n", "F term -2 1e+308\nF term 0 1\n"),
        ],
        ids=["canonical-shaped", "exponent-3", "C1-past-float-range"],
    )
    def test_term_lines_round_trip_by_value(self, f_lines, written):
        m = parse_metric("name t\ndomain -1 1 open open\n" + f_lines + "C exp C0=1 eps=-1\n")
        assert written in _assert_round_trip_by_value(m)

    @pytest.mark.parametrize(
        "cs, terms",
        [
            ((2, -2, 0, 0), [(0, 1), (-2, 1), (-1, -2)]),
            ((0.3, -0.4, 0.1, 0.0), [(-2, 0.15), (-1, -0.4), (0, 1), (1, 0.1)]),
        ],
    )
    def test_canonical_and_explicit_profile_are_one_spec(self, cs, terms):
        d, c = Domain(0.0, math.inf), ExpFactor(1.0, -1)
        a, b = MetricSpec("t", canonical(*cs), c, d), MetricSpec("t", ExpPoly(terms), c, d)
        assert a == b and hash(a) == hash(b)
        assert emit_metric(a) == emit_metric(b)

    def test_ratio_model(self):
        text = (
            "name t\ndomain -1 1 open open\nF canonical 0 0 0 0\n"
            "C ratio\nnum term -1 1\nden term 0 1\nden term -1 2\n"
        )
        m = parse_metric(text)
        assert emit_metric(parse_metric(emit_metric(m))) == emit_metric(m)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# header comment\n\nname t  # trailing comment\n"
            "domain 0 inf closed open\nF canonical 2 -2 0 0\nC exp C0=1 eps=-1\ntag Jplus\n"
        )
        m = parse_metric(text)
        assert m.name == "t"
        assert m.tag == "Jplus"


def _readme_metric_files() -> list:
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Metric file format", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```\n(.*?)```", section, flags=re.S)


def test_readme_metric_files_parse_to_the_catalog_entries_they_show():
    texts = _readme_metric_files()
    specs = [catalog_entry(n).build() for n in ("taub-nut", "modified-taub-nut-2")]
    assert [parse_metric(text) for text in texts] == specs
    assert texts == [emit_metric(m) for m in specs]


class TestTag:
    UNTAGGED = "name t\ndomain 0 inf open open\nF canonical 2 -2 0 0\nC exp C0=1 eps={}\n"

    @pytest.mark.parametrize("eps, tag", [("-1", "Jplus"), ("+1", "Jminus")])
    def test_tag_comes_from_c(self, eps, tag):
        m = parse_metric(self.UNTAGGED.format(eps))
        assert m.tag == tag
        assert emit_metric(m).endswith(f"\ntag {tag}\n")
        assert parse_metric(self.UNTAGGED.format(eps) + f"tag {tag}\n") == m

    def test_no_tag_for_an_einstein_factor(self):
        text = "name t\ndomain 0 inf open open\nF canonical 2 -2 0 0\nC einstein C5=1/2 C6=-1/2\n"
        m = parse_metric(text)
        assert m.tag is None and "tag" not in emit_metric(m)

    @pytest.mark.parametrize("text, message", [
        (UNTAGGED.format("+1") + "tag Jplus\n", "line 5: tag Jplus requires C = C0·e^{-z}"),
        ("tag Jminus\n" + UNTAGGED.format("-1"), "line 1: tag Jminus requires C = C0·e^{+z}"),
        (
            "name t\ndomain 0 inf open open\nF canonical 2 -2 0 0\nC einstein C5=1 C6=-1\ntag Jplus\n",
            "line 5: tag Jplus requires C = C0·e^{-z}",
        ),
        (UNTAGGED.format("-1") + "tag Iplus\n", "line 5: tag must be Jplus or Jminus"),
    ], ids=["Jplus-on-plus-exp", "Jminus-on-minus-exp", "Jplus-on-einstein", "Iplus"])
    def test_tag_that_contradicts_c_is_an_error(self, text, message):
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert str(info.value) == message


class TestErrors:
    def test_unknown_directive_carries_line_number(self):
        text = "name t\ndomain 0 1 open open\nbogus stuff\n"
        with pytest.raises(MetricFileError, match="line 3"):
            parse_metric(text)

    def test_bad_number(self):
        with pytest.raises(MetricFileError, match="line 2"):
            parse_metric("name t\ndomain zero 1 open open\n")

    def test_bad_eps(self):
        text = "name t\ndomain 0 1 open open\nF canonical 0 0 0 0\nC exp C0=1 eps=3\n"
        with pytest.raises(MetricFileError, match="eps"):
            parse_metric(text)

    def test_missing_name(self):
        with pytest.raises(MetricFileError, match="name"):
            parse_metric("domain 0 1 open open\nF canonical 0 0 0 0\nC exp C0=1 eps=-1\n")

    def test_missing_conformal_model(self):
        with pytest.raises(MetricFileError, match="C definition"):
            parse_metric("name t\ndomain 0 1 open open\nF canonical 0 0 0 0\n")

    def test_ratio_without_terms(self):
        text = "name t\ndomain 0 1 open open\nF canonical 0 0 0 0\nC ratio\n"
        with pytest.raises(MetricFileError, match="ratio"):
            parse_metric(text)

    def test_num_line_without_ratio(self):
        text = "name t\ndomain 0 1 open open\nnum term -1 1\n"
        with pytest.raises(MetricFileError, match="line 3"):
            parse_metric(text)

    def test_conflicting_profiles(self):
        text = (
            "name t\ndomain 0 1 open open\nF canonical 0 0 0 0\nF term 3 1\n"
            "C exp C0=1 eps=-1\n"
        )
        with pytest.raises(MetricFileError, match="both"):
            parse_metric(text)

    def test_bad_endpoint_flag(self):
        with pytest.raises(MetricFileError, match="open or closed"):
            parse_metric("name t\ndomain 0 1 shut open\n")

    @pytest.mark.parametrize("line, message", [
        ("F canonical inf -2 0 0", "line 3: non-finite coefficient inf"),
        ("C exp C0=inf eps=-1", "line 3: non-finite coefficient inf"),
        ("C einstein C5=nan C6=1", "line 3: non-finite coefficient nan"),
        ("C einstein C5=0 C6=0", "line 3: (C5, C6) must not both vanish"),
    ])
    def test_invalid_constructor_arguments_fail_on_their_line(self, line, message):
        # before: these parsed, and the first evaluation raised outside the parser
        text = "name t\ndomain 0 1 open open\n" + line + "\n"
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, lineno, message", [
        ("F term 0 1\nF term 1 nan\nC exp C0=1 eps=-1\n", 4, "non-finite coefficient nan"),
        ("F term 1/3 1\nC exp C0=1 eps=-1\n", 3, "exponent 1/3 has denominator 3; only 1 or 2 allowed"),
        ("F term inf 1\nC exp C0=1 eps=-1\n", 3, "exponent inf is not a half-integer"),
        ("F term 0 1\nF term nan 1\nC exp C0=1 eps=-1\n", 4, "exponent nan is not a half-integer"),
        ("F canonical 0 0 0 0\nC ratio\nnum term 0 1\nnum term 1 inf\nden term 0 1\n", 6,
         "non-finite coefficient inf"),
        ("F canonical 0 0 0 0\nC ratio\nnum term 0 1\nden term 0 1\nden term -1 -inf\n", 7,
         "non-finite coefficient -inf"),
    ], ids=["F-coefficient", "F-exponent", "F-exponent-inf", "F-exponent-nan", "num", "den"])
    def test_bad_term_fails_on_its_line(self, tmp_path, capsys, text, lineno, message):
        # before: "bad F terms: non-finite coefficient nan", with no line number;
        # an inf exponent exited 3 with "cannot convert float infinity to integer"
        text = "name t\ndomain 0 1 open open\n" + text
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert info.value.lineno == lineno and str(info.value) == f"line {lineno}: {message}"
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main(["classify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"parse error: line {lineno}: {message}" in err

    @pytest.mark.parametrize("text, lineno, message", [
        ("F term 0 0\nC exp C0=1 eps=-1\n", 3, "line 3: F is identically zero"),
        ("F term 1 2\nF term 0 1\nF term 1 -2\nF term 0 -1\nC exp C0=1 eps=-1\n", 6, "line 6: F is identically zero"),
        ("F term 0 1\nC ratio\nnum term 0 1\nnum term 0 -1\nden term 0 1\n", 6,
         "line 6: bad ratio terms: numerator must be nonzero"),
        ("F term 0 1\nC ratio\nden term 1 1\nden term 1 -1\nnum term 0 1\nnum term 1 1\n", 6,
         "line 6: bad ratio terms: denominator must be nonzero"),
    ], ids=["F-zero-term", "F-cancelling-terms", "num", "den"])
    @pytest.mark.parametrize("command", [["classify"], ["ends"], ["curvature", "--grid", "0.1:0.9:3"]])
    def test_identically_zero_f_or_numerator_fails(self, tmp_path, capsys, text, lineno, message, command):
        # before: these parsed; ends ended in a traceback and curvature printed a table for F ≡ 0
        # (and a cancelling ratio side was "bad ratio terms: …" with no line number)
        text = "name t\ndomain 0 1 open open\n" + text
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert info.value.lineno == lineno and str(info.value) == message
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"parse error: {message}" in err

    @pytest.mark.parametrize("text, lineno", [
        ("F term 0 1e308\nF term 0 1e308\nC exp C0=1 eps=-1\n", 4),
        ("F term 0 " + "9" * 400 + "\nF term 0 1.5\nC exp C0=1 eps=-1\n", 4),
        ("F canonical 0 0 0 0\nC ratio\nnum term 0 1\nden term 1 -1e308\nden term 0 1\nden term 1 -1e308\n", 8),
    ], ids=["F-inf", "F-big-integer", "den"])
    def test_combined_coefficient_fails_on_the_line_that_combines(self, tmp_path, capsys, text, lineno):
        # before: the first parsed to F with an infinite constant, and classify exited 0 with every
        # predicate indeterminate; the second was "bad F terms: integer division result too large
        # for a float", with no line number
        text = "name t\ndomain 0 1 open open\n" + text
        k = 1 if lineno == 8 else 0
        message = f"coefficient of e^({k}z) sums past float range"
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert info.value.lineno == lineno and str(info.value) == f"line {lineno}: {message}"
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main(["classify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"parse error: line {lineno}: {message}" in err

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize("text, lineno", [
        (f"F term 0 {HUGE}\nC exp C0=1 eps=-1\n", 3),
        (f"F term 1 {HUGE}\nF term 1 -{HUGE}\nF term 0 1\nF term 1 {HUGE}\nC exp C0=1 eps=-1\n", 6),
        (f"F canonical 0 0 0 0\nC ratio\nnum term 0 1\nnum term 2 {HUGE}\nden term 0 1\n", 6),
        (f"F canonical 0 0 0 0\nC ratio\nnum term 0 1\nden term -1 {HUGE}\nden term 0 1\n", 6),
    ], ids=["F", "F-after-a-cancellation", "num", "den"])
    def test_lone_exact_term_past_float_range_fails_on_its_line(self, tmp_path, capsys, text, lineno):
        # before: it parsed, and classify exited 0 with every predicate "indeterminate
        # [integer division result too large for a float]"
        text = "name t\ndomain 0 1 open open\n" + text
        message = "exact coefficient is too large for a float"
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert info.value.lineno == lineno and str(info.value) == f"line {lineno}: {message}"
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main(["classify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"parse error: line {lineno}: {message}" in err

    def test_exact_cancellation_past_float_range_parses(self, tmp_path, capsys):
        text = (
            f"name t\ndomain 0 1 open open\nF term 0 1\nF term 1 {self.HUGE}\nF term 1 -{self.HUGE}\n"
            f"C ratio\nnum term 0 1\nnum term 2 -{self.HUGE}\nnum term 2 {self.HUGE}\nden term 0 1\n"
        )
        m = parse_metric(text)
        assert m.F == ExpPoly.constant(1) and m.C.num == ExpPoly.constant(1)
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main(["classify", str(path)]) == 0
        assert "kahler_plus no" in capsys.readouterr().out

    @pytest.mark.parametrize("lo, hi", [("-inf", "inf"), ("-Infinity", "+inf"), ("-INF", "infinity")])
    def test_infinite_endpoints(self, lo, hi):
        m = parse_metric(f"name t\ndomain {lo} {hi} open open\nF canonical 0 0 0 0\nC exp C0=1 eps=-1\n")
        assert (m.domain.lo, m.domain.hi) == (-math.inf, math.inf)

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("text, lineno, number", [
        (f"domain 0 1 open open\nF canonical {BIG} 0 0 0\nC exp C0=1 eps=-1\n", 3, BIG),
        (f"domain 0 1 open open\nF canonical 0 0 0 0\nC exp C0={BIG} eps=-1\n", 4, BIG),
        (f"domain 0 1 open open\nF canonical 0 0 0 0\nC einstein C5=1 C6=-{BIG}/3\n", 4, f"-{BIG}/3"),
        (f"domain 0 {BIG} open open\nF canonical 0 0 0 0\nC exp C0=1 eps=-1\n", 2, BIG),
    ], ids=["F-canonical", "C-exp", "C-einstein", "domain"])
    def test_exact_number_past_float_range_fails_on_its_line(self, tmp_path, capsys, text, lineno, number):
        # before: the first parsed and classify gave every predicate "indeterminate [integer
        # division result too large for a float]"; the others exited 3 with that numeric error
        text = "name t\n" + text
        message = f"line {lineno}: bad number {number[:20]}…: too large for a float"
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert info.value.lineno == lineno and str(info.value) == message
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main(["classify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"parse error: {message}" in err

    KAHLER = "name a\ndomain 0 inf open open\nF canonical 2 -2 0 0\nC exp C0=1 eps=-1\ntag Jplus\n"

    @pytest.mark.parametrize("text, message", [
        (KAHLER + "name b\n", "line 6: second name directive (first on line 1)"),
        (KAHLER + "domain 0 1 open open\n", "line 6: second domain directive (first on line 2)"),
        (KAHLER + "F canonical 0 0 0 0\n", "line 6: second F canonical directive (first on line 3)"),
        (KAHLER + "C einstein C5=1 C6=0\n", "line 6: second C directive (first on line 4)"),
        (
            "name a\ndomain 0 1 open open\nF canonical 0 0 0 0\nC ratio\nnum term -1 1\nden term 0 1\n"
            "C exp C0=1 eps=-1\n",
            "line 7: second C directive (first on line 4)",
        ),
        (KAHLER + "tag Jplus\n", "line 6: second tag directive (first on line 5)"),
    ], ids=["name", "domain", "F-canonical", "C", "C-after-ratio", "tag"])
    def test_second_directive_is_an_error(self, text, message):
        # a later line would otherwise replace the earlier one without a word
        with pytest.raises(MetricFileError) as info:
            parse_metric(text)
        assert str(info.value) == message
