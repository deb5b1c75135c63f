"""Symbolic oracle for the curvature kernel's formulas (skipped without sympy).

The metric is  C·(dz²/(4F) + F·η₁² + η₂² + η₃²)  with dη₁ = 2·η₂∧η₃
(cyclic), in the orthonormal coframe e⁰ = √C/(2√F)·dz, e¹ = √(CF)·η₁,
e² = √C·η₂, e³ = √C·η₃.  Cartan's structure equations give the connection
and curvature of that coframe for symbolic F(z) and g(z) = C^{−1/2}; the
kernel's helpers, evaluated on sympy jet symbols, must equal the result.
"""
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


def _frame_ricci():
    """(s, Ric) in the orthonormal coframe, Ric a 4×4 list of expressions."""
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

    ric = [[sp.S(0)] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            omega = d_one_form(gam[a][b])  # Ω_ab = dω_ab + ω_ac∧ω_cb
            for c in range(4):
                p, q = gam[a][c], gam[c][b]
                for i in range(4):
                    for j in range(4):
                        omega[i][j] += p[i] * q[j] - p[j] * q[i]
            for e in range(4):
                ric[b][e] += omega[a][e]  # Ric_be = Σ_a R^a_bae
    s = sp.simplify(sum(ric[a][a] for a in range(4)))
    return s, ric


def _on_jets(expr):
    """expr with F, g and their derivatives replaced by the jet symbols."""
    for k in range(4, 0, -1):
        expr = expr.subs(sp.Derivative(F, (Z, k)), FJ[k]).subs(sp.Derivative(G, (Z, k)), GJ[k])
    return expr.subs(F, FJ[0]).subs(G, GJ[0])


def _exact(expr):
    """A helper's output with its float coefficients as rationals."""
    return sp.nsimplify(expr, rational=True)


@pytest.fixture(scope="module")
def frame():
    return _frame_ricci()


def test_ricci_is_diagonal_in_the_coframe(frame):
    _, ric = frame
    assert all(sp.simplify(ric[a][b]) == 0 for a in range(4) for b in range(4) if a != b)


def test_scalar_curvature(frame):
    s, _ = frame
    assert sp.simplify(_on_jets(s) - _exact(_scalar_from_jets(FJ, GJ))) == 0


def test_scalar_curvature_derivative(frame):
    s, _ = frame
    assert sp.simplify(_on_jets(sp.diff(s, Z)) - _exact(_scalar_prime_from_jets(FJ, GJ))) == 0


def test_trace_free_ricci(frame):
    # tf Ric = ric0_a·((e⁰)² − (e¹)²) + ric0_b·((e⁰)² + (e¹)² − (e²)² − (e³)²)
    s, ric = frame
    ric0_a, ric0_b = (_exact(v) for v in _tf_ricci_from_jets(FJ, GJ))
    want = (ric0_a + ric0_b, -ric0_a + ric0_b, -ric0_b, -ric0_b)
    for a in range(4):
        assert sp.simplify(_on_jets(ric[a][a] - s / 4) - want[a]) == 0


@pytest.mark.parametrize("helper", [
    _scalar_from_jets,
    _scalar_prime_from_jets,
    _tf_ricci_from_jets,
    _weyl_from_jets,
    _bach_from_jets,
    lambda fj, g: _rho_from_jets("Jplus", fj, g),
    lambda fj, g: _rho_from_jets("Jminus", fj, g),
], ids=["s", "s1d", "tf_ricci", "weyl", "bach", "rho-Jplus", "rho-Jminus"])
def test_helper_is_a_polynomial_in_the_jets(helper):
    # no power of C and no division: one formula serves float, array and exact carriers
    out = helper(FJ, GJ)
    for value in out if isinstance(out, tuple) else (out,):
        assert sp.Poly(_exact(value), *FJ, *GJ).free_symbols <= set(FJ + GJ)  # Poly raises for a non-polynomial
