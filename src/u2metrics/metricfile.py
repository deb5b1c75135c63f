"""Plain-text serialization of a MetricSpec.

Format (one directive per line, ``#`` starts a comment):

    name <text>
    domain <a> <b> <open|closed> <open|closed>
    F canonical <C1> <C2> <C3> <C4>
    F term <p[/q]> <coeff>            # repeatable; q in {1, 2}
    C exp C0=<v> eps=<+1|-1>
    C einstein C5=<v> C6=<v>
    C ratio                           # followed by num/den term lines
    num term <p[/q]> <coeff>
    den term <p[/q]> <coeff>
    tag <Jplus|Jminus>                # optional

Only ``term`` lines repeat: a second name, domain, F canonical, C or tag is an error.
The Kähler tag is worked out from C (``MetricSpec.tag``): Jplus for
C = C0·e^{-z}, Jminus for C = C0·e^{+z}, none otherwise, whatever form C is
written in: a ``C ratio`` whose lowest terms are n·e^{az} and d·e^{bz} is
tagged where n·d > 0, a − b = ∓1 and num·d = den·n·e^{(a−b)z}.  A ``tag`` line is
optional; when given it must agree with C, else the file does not parse.
Numbers are decimals or exact rationals ``p/q`` (rationals parse to Fraction
and stay exact).  Both F forms parse to the same ExpPoly, and emission reads
that value alone: an F in the canonical family whose C1…C4 have finite float
values is written ``F canonical`` (a zero coefficient as ``0``), any other F
as ``F term`` lines, so emit → parse gives an equal spec and
emit → parse → emit is textually idempotent.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .exppoly import ExpPoly, _as_coefficient
from .profiles import (
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    RatioFactor,
    canonical,
    canonical_coefficients,
)

__all__ = ["MetricFileError", "parse_metric", "emit_metric"]


class MetricFileError(ValueError):
    """Parse failure; message carries the 1-based line number."""

    def __init__(self, lineno: Optional[int], message: str):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


def _parse_number(tok: str, lineno: int):
    """Decimal -> float; ``p/q`` or bare integer -> exact Fraction."""
    try:
        if "/" in tok or tok.lstrip("+-").isdigit():
            return Fraction(tok)
        return float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise MetricFileError(lineno, f"bad number {tok!r}: {exc}") from None


def _parse_value(tok: str, lineno: int):
    """A number with a float value (a ``term`` coefficient is checked where it combines)."""
    v = _parse_number(tok, lineno)
    try:
        float(v)
    except OverflowError:
        raise MetricFileError(lineno, f"bad number {tok[:20]}…: too large for a float") from None
    return v


def _parse_kv(tok: str, key: str, lineno: int):
    if not tok.startswith(key + "="):
        raise MetricFileError(lineno, f"expected {key}=<value>, got {tok!r}")
    return _parse_value(tok[len(key) + 1 :], lineno)


def _make(lineno: int, ctor, *args, **kwargs):
    """``ctor(*args, **kwargs)``; its ValueError (a non-finite coefficient,
    an empty domain, ...) is a parse error on this line."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise MetricFileError(lineno, str(exc)) from None


def _poly(terms: list) -> ExpPoly:
    return ExpPoly((k, c) for k, c, _ in terms)


def _add_term(terms: list, toks: list, lineno: int):
    """Append the (exponent, coefficient, line) of a ``term <p> <coeff>`` line
    to ``terms`` and check them all as an ExpPoly, so that a bad term, or one
    that makes a combined coefficient non-finite, is a parse error on this line."""
    terms.append((_parse_number(toks[2], lineno), _parse_number(toks[3], lineno), lineno))
    _make(lineno, _poly, terms)


def _finished(terms: list) -> ExpPoly:
    """The ExpPoly of a finished term list.  A coefficient with no float value
    (a lone exact term past float range) is a parse error on the last line
    with its exponent."""
    poly = _poly(terms)
    for k, c in poly.terms():
        _make(max(n for e, _, n in terms if e == k), _as_coefficient, c)
    return poly


_TAG_FACTORS = {"Jplus": "C0·e^{-z}", "Jminus": "C0·e^{+z}"}


def parse_metric(text: str) -> MetricSpec:
    name = None
    domain = None
    tag = None
    f_canonical = None
    f_terms = []
    c_model = None
    c_mode = None  # None | "ratio"
    num_terms = []
    den_terms = []
    first = {}  # name, domain, F canonical, C and tag: the line that gave each

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        key = "F canonical" if toks[:2] == ["F", "canonical"] else head
        if key in ("name", "domain", "F canonical", "C", "tag") and first.setdefault(key, lineno) != lineno:
            raise MetricFileError(lineno, f"second {key} directive (first on line {first[key]})")

        if head == "name":
            if len(toks) < 2:
                raise MetricFileError(lineno, "name requires a value")
            name = " ".join(toks[1:])
        elif head == "domain":
            if len(toks) != 5:
                raise MetricFileError(lineno, "domain requires: <a> <b> <open|closed> <open|closed>")
            a, b = (float(_parse_value(t, lineno)) for t in toks[1:3])  # float() reads inf, -inf, infinity
            flags = []
            for t in toks[3:5]:
                if t not in ("open", "closed"):
                    raise MetricFileError(lineno, f"endpoint flag must be open or closed, got {t!r}")
                flags.append(t == "closed")
            domain = _make(lineno, Domain, a, b, lo_closed=flags[0], hi_closed=flags[1])
        elif head == "F":
            if len(toks) >= 2 and toks[1] == "canonical":
                if len(toks) != 6:
                    raise MetricFileError(lineno, "F canonical requires 4 coefficients")
                f_canonical = _make(lineno, canonical, *(_parse_value(t, lineno) for t in toks[2:6]))
            elif len(toks) == 4 and toks[1] == "term":
                _add_term(f_terms, toks, lineno)
            else:
                raise MetricFileError(lineno, "F requires 'canonical C1 C2 C3 C4' or 'term p coeff'")
        elif head == "C":
            if len(toks) >= 2 and toks[1] == "exp":
                if len(toks) != 4:
                    raise MetricFileError(lineno, "C exp requires C0=<v> eps=<+1|-1>")
                c0 = _parse_kv(toks[2], "C0", lineno)
                eps = _parse_kv(toks[3], "eps", lineno)
                if eps not in (1, -1):
                    raise MetricFileError(lineno, f"eps must be +1 or -1, got {eps}")
                c_model = _make(lineno, ExpFactor, float(c0), int(eps))
            elif len(toks) >= 2 and toks[1] == "einstein":
                if len(toks) != 4:
                    raise MetricFileError(lineno, "C einstein requires C5=<v> C6=<v>")
                c5 = _parse_kv(toks[2], "C5", lineno)
                c6 = _parse_kv(toks[3], "C6", lineno)
                c_model = _make(lineno, EinsteinFactor, float(c5), float(c6))
            elif len(toks) == 2 and toks[1] == "ratio":
                c_mode = "ratio"
            else:
                raise MetricFileError(lineno, "C requires 'exp', 'einstein', or 'ratio'")
        elif head in ("num", "den"):
            if c_mode != "ratio":
                raise MetricFileError(lineno, f"{head} lines require a preceding 'C ratio'")
            if len(toks) != 4 or toks[1] != "term":
                raise MetricFileError(lineno, f"{head} requires: term <p> <coeff>")
            _add_term(num_terms if head == "num" else den_terms, toks, lineno)
        elif head == "tag":
            if len(toks) != 2 or toks[1] not in _TAG_FACTORS:
                raise MetricFileError(lineno, "tag must be Jplus or Jminus")
            tag = (lineno, toks[1])
        else:
            raise MetricFileError(lineno, f"unknown directive {head!r}")

    if name is None:
        raise MetricFileError(None, "missing 'name' line")
    if domain is None:
        raise MetricFileError(None, "missing 'domain' line")
    if f_canonical is not None and f_terms:
        raise MetricFileError(None, "F given both as canonical and as term lines")
    if f_canonical is not None:
        profile = f_canonical
    elif f_terms:
        profile = _finished(f_terms)
    else:
        raise MetricFileError(None, "missing F definition")
    if c_mode == "ratio":
        if not num_terms or not den_terms:
            raise MetricFileError(None, "C ratio requires num and den term lines")
        num, den = _finished(num_terms), _finished(den_terms)
        try:
            c_model = RatioFactor(num, den)
        except ValueError as exc:  # a side whose terms cancel, on its last term line
            raise MetricFileError((num_terms if num.is_zero else den_terms)[-1][2], f"bad ratio terms: {exc}") from None
    if c_model is None:
        raise MetricFileError(None, "missing C definition")
    # MetricSpec's one ValueError, F ≡ 0, is an error on the last F term line
    m = _make(f_terms[-1][2] if f_terms else None, MetricSpec, name=name, F=profile, C=c_model, domain=domain)
    if tag is not None and tag[1] != m.tag:
        raise MetricFileError(tag[0], f"tag {tag[1]} requires C = {_TAG_FACTORS[tag[1]]}")
    return m


# --------------------------------------------------------------------- emission
def _fmt_number(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _fmt_endpoint(v: float) -> str:
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    return _fmt_number(v)


def _has_float_value(v) -> bool:
    try:
        return math.isfinite(float(v))
    except OverflowError:  # an exact number past float range
        return False


def _term_lines(prefix: str, poly: ExpPoly) -> list:
    return [f"{prefix} term {_fmt_number(k)} {_fmt_number(c)}" for k, c in poly.terms()]


def emit_metric(m: MetricSpec) -> str:
    lines = [f"name {m.name}"]
    d = m.domain
    lines.append(
        "domain {} {} {} {}".format(
            _fmt_endpoint(d.lo),
            _fmt_endpoint(d.hi),
            "closed" if d.lo_closed else "open",
            "closed" if d.hi_closed else "open",
        )
    )
    coeffs = canonical_coefficients(m.F)
    if coeffs is not None and all(_has_float_value(c) for c in coeffs):
        lines.append("F canonical {} {} {} {}".format(*map(_fmt_number, coeffs)))
    else:
        lines.extend(_term_lines("F", m.F))
    c = m.C
    if isinstance(c, ExpFactor):
        lines.append(f"C exp C0={_fmt_number(c.c0)} eps={'+1' if c.eps > 0 else '-1'}")
    elif isinstance(c, EinsteinFactor):
        lines.append(f"C einstein C5={_fmt_number(c.c5)} C6={_fmt_number(c.c6)}")
    elif isinstance(c, RatioFactor):
        lines.append("C ratio")
        lines.extend(_term_lines("num", c.num))
        lines.extend(_term_lines("den", c.den))
    else:
        raise TypeError(f"cannot emit conformal model {type(c).__name__}")
    if m.tag is not None:
        lines.append(f"tag {m.tag}")
    return "\n".join(lines) + "\n"
