"""Symbolic oracle for the curvature kernel's formulas (skipped without sympy).

The metric is  C·(dz²/(4F) + F·η₁² + η₂² + η₃²)  with dη₁ = 2·η₂∧η₃
(cyclic), in the orthonormal coframe e⁰ = √C/(2√F)·dz, e¹ = √(CF)·η₁,
e² = √C·η₂, e³ = √C·η₃.  Cartan's structure equations give the connection
and the Riemann tensor of that coframe for symbolic F(z) and g(z) = C^{−1/2};
the kernel's helpers, evaluated on sympy jet symbols, must equal the result.
"""
import itertools

import pytest

sp = pytest.importorskip("sympy")

from u2metrics.curvature import (  # noqa: E402
    _bach_from_jets,
    _rho_from_jets,
    _scalar_from_jets,
    _scalar_prime_from_jets,
    _tf_ricci_from_jets,
    _weyl_from_jets,
)

Z = sp.Symbol("z", real=True)
F = sp.Function("F", positive=True)(Z)
G = sp.Function("g", positive=True)(Z)
FJ = sp.symbols("F0:5")
GJ = sp.symbols("g0:5")
_CYCLE = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def _frame_riemann():
    """R[a][b][c][d] = R_abcd in the orthonormal coframe, on the jet symbols."""
    scale = [1 / (2 * G * sp.sqrt(F)), sp.sqrt(F) / G, 1 / G, 1 / G]  # e^a = scale[a]·(dz, η₁, η₂, η₃)
    # de^a = ½ d[a][b][c] e^b∧e^c, d antisymmetric in b, c
    d = [[[sp.S(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i, (j, k) in _CYCLE.items():
        for b, c, v in ((0, i, sp.diff(scale[i], Z) / (scale[0] * scale[i])), (j, k, 2 * scale[i] / (scale[j] * scale[k]))):
            d[i][b][c] += v
            d[i][c][b] -= v
    # ω_ab = Γ[a][b][c] e^c, the unique Γ antisymmetric in a, b with de^a = −ω_ab∧e^b (checked below)
    gam = [[[sp.S(0)] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                gam[a][b][c] = sp.Rational(1, 2) * (d[a][b][c] + d[b][c][a] - d[c][a][b])
    for a in range(4):
        for b in range(4):
            for c in range(b + 1, 4):
                assert sp.simplify(gam[a][b][c] - gam[a][c][b] - d[a][b][c]) == 0
                assert sp.simplify(gam[b][a][c] + gam[a][b][c]) == 0

    def d_one_form(coeffs):  # d(Σ f_c e^c) as the antisymmetric W with ½ W_bc e^b∧e^c
        w = [[sp.S(0)] * 4 for _ in range(4)]
        for c, f in enumerate(coeffs):
            df = sp.diff(f, Z) / scale[0]  # df = (f′/scale[0])·e⁰
            w[0][c] += df
            w[c][0] -= df
            for b in range(4):
                for e in range(4):
                    w[b][e] += f * d[c][b][e]
        return w

    riem = [[[[sp.S(0)] * 4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            omega = d_one_form(gam[a][b])  # Ω_ab = dω_ab + ω_ac∧ω_cb = ½ R_abij e^i∧e^j
            for c in range(4):
                p, q = gam[a][c], gam[c][b]
                for i in range(4):
                    for j in range(4):
                        omega[i][j] += p[i] * q[j] - p[j] * q[i]
            riem[a][b] = [[sp.simplify(_on_jets(v)) for v in row] for row in omega]
            riem[b][a] = [[-v for v in row] for row in riem[a][b]]
    return riem


def _on_jets(expr):
    """expr with F, g and their derivatives replaced by the jet symbols."""
    for k in range(4, 0, -1):
        expr = expr.subs(sp.Derivative(F, (Z, k)), FJ[k]).subs(sp.Derivative(G, (Z, k)), GJ[k])
    return expr.subs(F, FJ[0]).subs(G, GJ[0])


def _d_dz(expr):
    """The z-derivative of an expression in the jet symbols."""
    return sum(sp.diff(expr, j[k]) * j[k + 1] for j in (FJ, GJ) for k in range(4))


def _sign(perm) -> int:
    return (-1) ** sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))


@pytest.fixture(scope="module")
def frame():
    """(s, Ric, Rm) with Ric_be = Σ_a R_abae, on the jet symbols."""
    riem = _frame_riemann()
    ric = [[sum(riem[a][b][a][e] for a in range(4)) for e in range(4)] for b in range(4)]
    return sp.expand(sum(ric[a][a] for a in range(4))), ric, riem


def test_ricci_is_diagonal_in_the_coframe(frame):
    _, ric, _ = frame
    assert all(sp.expand(ric[a][b]) == 0 for a in range(4) for b in range(4) if a != b)


def test_scalar_curvature(frame):
    s, _, _ = frame
    assert sp.expand(s - _scalar_from_jets(FJ, GJ)) == 0


def test_scalar_curvature_derivative(frame):
    s, _, _ = frame
    assert sp.expand(_d_dz(s) - _scalar_prime_from_jets(FJ, GJ)) == 0


def test_trace_free_ricci(frame):
    # tf Ric = ric0_a·((e⁰)² − (e¹)²) + ric0_b·((e⁰)² + (e¹)² − (e²)² − (e³)²)
    s, ric, _ = frame
    ric0_a, ric0_b = _tf_ricci_from_jets(FJ, GJ)
    want = (ric0_a + ric0_b, -ric0_a + ric0_b, -ric0_b, -ric0_b)
    for a in range(4):
        assert sp.expand(ric[a][a] - s / 4 - want[a]) == 0


def test_weyl_norms(frame):
    # full contractions, ε^{0123} = 1:
    #   |W⁺|² + |W⁻|² = |Rm|² − 2|Ric|² + s²/3,   |W⁺|² − |W⁻|² = −½·R_abcd·R_abef·ε^{cdef}
    # the sign makes W⁺ the anti-self-dual half for e⁰∧e¹∧e²∧e³
    s, ric, riem = frame
    idx = range(4)
    rm2 = sum(riem[a][b][c][d] ** 2 for a in idx for b in idx for c in idx for d in idx)
    ric2 = sum(ric[a][b] ** 2 for a in idx for b in idx)
    pontryagin = sum(
        _sign(p) * riem[a][b][p[0]][p[1]] * riem[a][b][p[2]][p[3]]
        for p in itertools.permutations(idx) for a in idx for b in idx
    )
    _, _, wp2, wm2 = _weyl_from_jets(FJ, GJ)
    assert sp.expand(wp2 + wm2 - (rm2 - 2 * ric2 + s**2 / 3)) == 0
    assert sp.expand(wp2 - wm2 + pontryagin / 2) == 0


@pytest.mark.parametrize("helper", [
    _scalar_from_jets,
    _scalar_prime_from_jets,
    _tf_ricci_from_jets,
    _weyl_from_jets,
    _bach_from_jets,
    lambda fj, g: _rho_from_jets(1, fj, g),
    lambda fj, g: _rho_from_jets(-1, fj, g),
], ids=["s", "s1d", "tf_ricci", "weyl", "bach", "rho-Jplus", "rho-Jminus"])
def test_helper_is_a_polynomial_in_the_jets(helper):
    # no power of C, no division and no float: one formula serves float, array and exact carriers
    out = helper(FJ, GJ)
    for value in out if isinstance(out, tuple) else (out,):
        assert sp.Poly(value, *FJ, *GJ).domain in (sp.ZZ, sp.QQ)  # Poly raises for a non-polynomial
