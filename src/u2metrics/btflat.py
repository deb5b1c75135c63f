"""The B^t-flat system as an explicit first-order ODE flow.

State is the 8-vector (F, F′, F″, F‴, C, C′, s, K) with K = C·F·s′ carried as
a field so the quadrature (CFs′)′ = 0 is solved structurally rather than
integrated.  The flow solves the second-order equation F1 = 0 for C″ and the
fourth-order equation F2 = 0 for F⁗ (triangular elimination: F1 contains no
F⁗).  The third-order quantity T is a constant of the motion and is monitored
along every trajectory; B^t-flat solutions are those with T = 0.

F1, F2 and T (functional ∫|W|² + t∫s², Gursky–Viaclovsky 2016) are written
once, with no square root, in C and d = C′/C: F1res = C·(s − s[F, C]) is an
F-only part plus C·s + 12F′·d − 6F·d² + 12F·C″/C, and F2res and T are
(8/3)(L⁺L⁻F − 1) and 16·B(F,F) plus t·C times a polynomial in F's jet, d,
C″/C, s and s′.  One body serves the float flow and float or array residuals.
A closed form's state is built where it is read (``state_from_metric`` from the
jets, ``bt_grid_residual`` from a kept curvature sample): over an array z every
field is an array but a pinned s, which is one float.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .curvature import CurvatureSample, _checked, _scalar_from_jets, _scalar_prime_from_jets
from .numerics import UniformStream, at_first, is_array
from .operators import b_op_jet, l_compose_jet
from .profiles import MetricSpec, _Record, jet_C, jet_F

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BtState",
    "BtSample",
    "BtTrajectory",
    "SingularSystemError",
    "SeedError",
    "SearchFailure",
    "bt_residuals",
    "bt_rhs",
    "bt_integrate",
    "bt_csc_seed",
    "bt_nonextremal_search",
    "bt_grid_residual",
    "state_from_metric",
]

_COEF_FLOOR = 1e-12
_MAX_STEPS = 200000  # bt_integrate's cap on accepted steps
_DRIFT_CAP = 1e-7  # bt_nonextremal_search's cap on a trial's |T − T₀|


class SingularSystemError(ArithmeticError):
    """A linear solve for a highest derivative is singular (or F/C vanished)."""


class SeedError(ValueError):
    """CSC seeding could not place the state on the T = 0 constraint."""


class SearchFailure(RuntimeError):
    """All search trials failed to produce a usable trajectory."""


class BtState(NamedTuple):
    """One point of the flow: z and the 8-vector (F, F′, F″, F‴, C, C′, s, K)."""

    z: float
    F: float
    F1d: float
    F2d: float
    F3d: float
    C: float
    C1d: float
    s: float
    K: float

    def vector(self) -> np.ndarray:
        import numpy as np
        return np.array([self.F, self.F1d, self.F2d, self.F3d, self.C, self.C1d, self.s, self.K])

    @staticmethod
    def from_vector(z: float, y: Sequence[float]) -> "BtState":
        return BtState(z, *(float(v) for v in y))


STATE_FIELDS = BtState._fields[1:]  # the 8-vector's names, in order


class BtSample(NamedTuple):
    """A trajectory point: the state, the kernel's F⁗ and C″ there (``bt_rhs`` wraps it), and T."""

    state: BtState
    F4d: float
    C2d: float
    Tval: float


class BtTrajectory(_Record):
    """A B^t flow's samples, its largest drift of T from its start, its step counts and why it stopped, if early."""

    __hash__, __setattr__, __delattr__ = None, object.__setattr__, object.__delattr__

    def __init__(self, t: float, samples: Optional[list] = None, max_T_drift: float = 0.0, steps_accepted: int = 0,
                 steps_rejected: int = 0, truncated: bool = False, truncation_reason: Optional[str] = None):
        self.t, self.samples, self.max_T_drift = t, [] if samples is None else samples, max_T_drift
        self.steps_accepted, self.steps_rejected = steps_accepted, steps_rejected
        self.truncated, self.truncation_reason = truncated, truncation_reason

    def truncate(self, reason: str) -> "BtTrajectory":
        self.truncated, self.truncation_reason = True, reason
        return self

    def extremality_residual(self) -> float:
        """max |L⁺(L⁻F) − 1| over the trajectory, from the carried F⁗."""
        return max([0.0] + [abs(l_compose_jet((*smp.state[1:5], smp.F4d)) - 1.0) for smp in self.samples])


# ----------------------------------------------------------------- residuals
# The helpers take the state's fields as floats (the flow) or, as both closed-form
# builders make them, F and C and their jets as 1-D arrays over z (s may be one pinned float).
def _guard(z, F, C):
    """The one singular-state decision of every B^t formula: raises
    :class:`SingularSystemError` at the first z where C ≤ 0, F = 0 or C·F
    underflows to 0.  Every division below is by C, F, 2F, 12F or C·F, so
    past this guard none of them can raise."""
    if is_array(z):  # the first singular z, checked as a float state's
        hit = at_first((C <= 0.0) | (F == 0.0) | (C * F == 0.0), z, F, C)
        if hit is None:
            return
        z, F, C = hit
    if C <= 0.0:
        raise SingularSystemError(f"C={C} is not positive at z={z}")
    if F == 0.0:
        raise SingularSystemError(f"F vanishes at z={z}")
    if C * F == 0.0:
        raise SingularSystemError(f"C·F = {C}·{F} underflows to 0 at z={z}")


def _f1_parts(F, F1, F2, C, C1, s) -> tuple:
    """F1res = coef·C″/C + rest, with coef = 12F and d = C′/C in rest."""
    d = C1 / C
    return 12.0 * F, 12.0 * F1 * d - 6.0 * F * d * d + 4.0 * (F2 + 0.5 * F - 2.0) + C * s


def _f2_value(t, F, F1, F2, C, C1, s, s1, F4d, C2d) -> float:
    """F2res at a state with s′ = s1 and the given F⁗, C″."""
    d = C1 / C
    return (8.0 / 3.0) * (0.25 * F4d - 1.25 * F2 + F - 1.0) + t * C * (
        s * (0.75 * d * d - 0.5 * C2d / C - 0.25) + s1 * (d + F1 / (2.0 * F))
    )


def tval(state: BtState, t: float) -> float:
    """The first-integral operator T at a state (third order; no C″ or F⁗); only
    a singular or non-float state meets :func:`_guard`, as in :func:`_derivative`."""
    z, F, F1, F2, F3, C, C1, s, K = state
    cf = C * F
    if type(z) is not float or C <= 0.0 or F == 0.0 or cf == 0.0:
        _guard(z, F, C)  # an array state, or one that raises
    s1 = K / cf
    d = C1 / C
    return 16.0 * b_op_jet((F, F1, F2, F3)) - t * C * (
        s1 * (18.0 * F * d + 6.0 * F1) + 0.75 * s * (4.0 * F - 16.0 + C * s + 12.0 * F * d * d + 8.0 * F1 * d)
    )


def bt_residuals(state: BtState, t: float, F4d, C2d) -> tuple:
    """(F1res, F2res, Tval) at a state with the given F⁗ and C″.

    F1res = C·(s − s[F, C]) = 0 says that s is the scalar curvature, F2res = 0
    is the fourth-order equation; s′ = K/(CF) makes (CFs′)′ = 0 by construction.
    Of ``bt_rhs``'s own F⁗ and C″ they are round-off.  A float state and an
    array state follow one rule: :func:`_guard`'s singular states raise
    :class:`SingularSystemError` at their first z, and the first residual
    that is not finite raises ``ArithmeticError`` naming it and its first z
    (curvature's finiteness rule; an array is evaluated with floating-point
    warnings off).
    """
    z, F, F1, F2, F3, C, C1, s, K = state

    def residuals():
        tv = tval(state, t)  # which guards F and C first
        coef, rest = _f1_parts(F, F1, F2, C, C1, s)
        return coef * C2d / C + rest, _f2_value(t, F, F1, F2, C, C1, s, K / (C * F), F4d, C2d), tv

    return _checked(z, residuals, "F1res F2res Tval")


# ----------------------------------------------------------------------- flow
def _derivative(state: Sequence[float], t: float) -> list:
    """The flow's float kernel: the derivative [F′, F″, F‴, F⁗, C′, C″, s′, 0.0].

    ``state`` is any (z, F, F′, F″, F‴, C, C′, s, K) sequence of floats: a
    :class:`BtState` or an integrator stage's plain tuple.  Solves F1 = 0 for
    C″ = −C·rest/(12F) (the coefficient of C″ is 12F/C) and then F2 = 0 for
    F⁗ (coefficient 2/3); raises :class:`SingularSystemError` at
    :func:`_guard`'s singular states and when |12F/C| falls below 1e-12.
    """
    z, F, F1, F2, F3, C, C1, s, K = state
    cf = C * F
    if C <= 0.0 or F == 0.0 or cf == 0.0:  # C = inf makes C·F nan at F = 0
        _guard(z, F, C)  # raises, naming z and the condition
    coef, rest = _f1_parts(F, F1, F2, C, C1, s)
    if abs(coef) < _COEF_FLOOR * C:  # |12F/C|, without forming a quotient that may overflow
        raise SingularSystemError(f"F1 solve for C'' is singular (coefficient {coef / C:g})")
    C2d = -C * rest / coef
    s1 = K / cf
    # F2 = (2/3)·F⁗ + rest
    F4d = -_f2_value(t, F, F1, F2, C, C1, s, s1, 0.0, C2d) / (2.0 / 3.0)
    return [F1, F2, F3, F4d, C1, C2d, s1, 0.0]


def bt_rhs(state: Sequence[float], t: float) -> tuple:
    """The kernel ``_derivative`` as a float64 array, with F⁗ and C″, for callers other than the stepper."""
    import numpy as np
    d = _derivative(state, t)
    return np.array(d, np.float64), d[3], d[5]


# Dormand-Prince 5(4) pair (Dormand & Prince 1980), which bt_integrate unpacks
# into locals: nodes c2..c5 (c6 = c7 = 1), stage rows _A, the 5th-order
# weights _B (also the seventh stage's row, so the pair is first same as last)
# and the 4th-order weights _E; the zero weights b2 = e2 = b7 = 0 are left out.
_DP54 = (
    1 / 5, 3 / 10, 4 / 5, 8 / 9, 1 / 5, 3 / 40, 9 / 40, 44 / 45, -56 / 15, 32 / 9,  # c2..c5, a21, a3j, a4j
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,  # a5j
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,  # a6j
    35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,  # b1, b3..b6
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40,  # e1, e3..e7
)


def bt_integrate(
    init: BtState,
    t: float,
    span: tuple,
    tol: float = 1e-10,
    *,
    _drift_cap: float = math.inf,
) -> BtTrajectory:
    """Integrate the 8th-order flow over ``span`` with an embedded 5(4) pair.

    Adaptive step control at relative+absolute tolerance ``tol`` (the RMS of
    the scaled 5th/4th-order difference must be ≤ 1; a ``tol`` that is not
    positive and finite, a non-finite ``t``, span endpoint or field of
    ``init`` raises ValueError); never steps across F = 0 or C = 0 — on a
    singular solve the trajectory is truncated and flagged, with the partial
    samples returned, as it is after ``_MAX_STEPS`` = 200 000 accepted
    steps and once |h| < 1e-14·max(1, |z|).  The pair is first-same-as-last:
    the seventh stage is evaluated at (z + h, y5), so on acceptance it is the
    next step's first stage, and a step costs six calls of the float kernel
    ``_derivative``, with one more for ``init``'s derivative (never
    ``bt_rhs``).  K is carried, never
    integrated, so it keeps its initial value (a −0.0 turns 0.0 on a forward
    step); the drift of the first integral T is in ``max_T_drift``.

    One step is unrolled over named float locals, with no lists: each stage
    is one kernel call on a plain (z, F, …, K) tuple written out component by
    component and its derivative unpacked into locals, as are the kernel,
    ``tval``, the tableau, ``_MAX_STEPS`` and the counts (written back on
    every exit); an accepted state and its sample are built as ``_make`` does.  Each
    weighted sum runs left to right from 0.0, so no partial sum is −0.0 and
    a term 0.0·k would leave it as it is for any finite k: the zero weights
    b₂ = e₂ = b₇ = 0 are left out and the seventh stage's input is y5
    itself.  A non-finite k₂ makes stage 3 non-finite (or a stage raises)
    and a non-finite k₇ makes y4 so (e₇ = 1/40), so that step is rejected
    either way, and every step is bit-identical to the formulation that sums
    every weight.  As K′ is the literal 0.0, every stage's K is K + h·0.0,
    what those sums give.  ``_drift_cap`` is the search's: the trajectory
    stops, truncated, at the first accepted sample whose |T − T₀| exceeds it.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    for name, v in zip(STATE_FIELDS, init[1:]):
        if not math.isfinite(v):
            raise ValueError(f"init {name} must be finite, got {v!r}")
    a, b = float(span[0]), float(span[1])
    for name, v in (("span start", a), ("span end", b)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    direction = 1.0 if b >= a else -1.0
    traj = BtTrajectory(t=t)
    derivative, T, new, max_steps = _derivative, tval, tuple.__new__, _MAX_STEPS
    (_C2, _C3, _C4, _C5, _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
     _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7) = _DP54

    z = a
    state = BtState(z, *map(float, init[1:]))  # init's own z is superseded by the span start
    try:
        p0, p1, p2, p3, p4, p5, p6, _ = derivative(state, t)  # k0, the derivative at (z, F, …, s, K)
    except SingularSystemError as exc:
        return traj.truncate(str(exc))
    T0 = T(state, t)
    samples = traj.samples = [BtSample(state, p3, p5, T0)]
    F, F1, F2, F3, C, C1, s, K = state[1:]
    accepted, rejected, drift, reason = 0, 0, 0.0, None

    h = direction * min(0.01, abs(b - a))

    while (b - z) * direction > 0.0:
        if abs(h) > abs(b - z):
            h = b - z
        Kh = K + h * 0.0  # K + h·(0.0 + …) of every stage, y5 and y4: each sum of K′ = 0.0 is 0.0
        try:
            q0, q1, q2, q3, q4, q5, q6, _ = derivative((
                z + _C2 * h, F + h * (0.0 + _A21 * p0), F1 + h * (0.0 + _A21 * p1), F2 + h * (0.0 + _A21 * p2),
                F3 + h * (0.0 + _A21 * p3), C + h * (0.0 + _A21 * p4), C1 + h * (0.0 + _A21 * p5),
                s + h * (0.0 + _A21 * p6), Kh), t)
            r0, r1, r2, r3, r4, r5, r6, _ = derivative((
                z + _C3 * h, F + h * (0.0 + _A31 * p0 + _A32 * q0), F1 + h * (0.0 + _A31 * p1 + _A32 * q1),
                F2 + h * (0.0 + _A31 * p2 + _A32 * q2), F3 + h * (0.0 + _A31 * p3 + _A32 * q3),
                C + h * (0.0 + _A31 * p4 + _A32 * q4), C1 + h * (0.0 + _A31 * p5 + _A32 * q5),
                s + h * (0.0 + _A31 * p6 + _A32 * q6), Kh), t)
            w0, w1, w2, w3, w4, w5, w6, _ = derivative((
                z + _C4 * h, F + h * (0.0 + _A41 * p0 + _A42 * q0 + _A43 * r0),
                F1 + h * (0.0 + _A41 * p1 + _A42 * q1 + _A43 * r1),
                F2 + h * (0.0 + _A41 * p2 + _A42 * q2 + _A43 * r2),
                F3 + h * (0.0 + _A41 * p3 + _A42 * q3 + _A43 * r3),
                C + h * (0.0 + _A41 * p4 + _A42 * q4 + _A43 * r4),
                C1 + h * (0.0 + _A41 * p5 + _A42 * q5 + _A43 * r5),
                s + h * (0.0 + _A41 * p6 + _A42 * q6 + _A43 * r6), Kh), t)
            x0, x1, x2, x3, x4, x5, x6, _ = derivative((
                z + _C5 * h, F + h * (0.0 + _A51 * p0 + _A52 * q0 + _A53 * r0 + _A54 * w0),
                F1 + h * (0.0 + _A51 * p1 + _A52 * q1 + _A53 * r1 + _A54 * w1),
                F2 + h * (0.0 + _A51 * p2 + _A52 * q2 + _A53 * r2 + _A54 * w2),
                F3 + h * (0.0 + _A51 * p3 + _A52 * q3 + _A53 * r3 + _A54 * w3),
                C + h * (0.0 + _A51 * p4 + _A52 * q4 + _A53 * r4 + _A54 * w4),
                C1 + h * (0.0 + _A51 * p5 + _A52 * q5 + _A53 * r5 + _A54 * w5),
                s + h * (0.0 + _A51 * p6 + _A52 * q6 + _A53 * r6 + _A54 * w6), Kh), t)
            o0, o1, o2, o3, o4, o5, o6, _ = derivative((
                z + h, F + h * (0.0 + _A61 * p0 + _A62 * q0 + _A63 * r0 + _A64 * w0 + _A65 * x0),
                F1 + h * (0.0 + _A61 * p1 + _A62 * q1 + _A63 * r1 + _A64 * w1 + _A65 * x1),
                F2 + h * (0.0 + _A61 * p2 + _A62 * q2 + _A63 * r2 + _A64 * w2 + _A65 * x2),
                F3 + h * (0.0 + _A61 * p3 + _A62 * q3 + _A63 * r3 + _A64 * w3 + _A65 * x3),
                C + h * (0.0 + _A61 * p4 + _A62 * q4 + _A63 * r4 + _A64 * w4 + _A65 * x4),
                C1 + h * (0.0 + _A61 * p5 + _A62 * q5 + _A63 * r5 + _A64 * w5 + _A65 * x5),
                s + h * (0.0 + _A61 * p6 + _A62 * q6 + _A63 * r6 + _A64 * w6 + _A65 * x6), Kh), t)
            n0 = F + h * (0.0 + _B1 * p0 + _B3 * r0 + _B4 * w0 + _B5 * x0 + _B6 * o0)
            n1 = F1 + h * (0.0 + _B1 * p1 + _B3 * r1 + _B4 * w1 + _B5 * x1 + _B6 * o1)
            n2 = F2 + h * (0.0 + _B1 * p2 + _B3 * r2 + _B4 * w2 + _B5 * x2 + _B6 * o2)
            n3 = F3 + h * (0.0 + _B1 * p3 + _B3 * r3 + _B4 * w3 + _B5 * x3 + _B6 * o3)
            n4 = C + h * (0.0 + _B1 * p4 + _B3 * r4 + _B4 * w4 + _B5 * x4 + _B6 * o4)
            n5 = C1 + h * (0.0 + _B1 * p5 + _B3 * r5 + _B4 * w5 + _B5 * x5 + _B6 * o5)
            n6 = s + h * (0.0 + _B1 * p6 + _B3 * r6 + _B4 * w6 + _B5 * x6 + _B6 * o6)
            y5 = (z + h, n0, n1, n2, n3, n4, n5, n6, Kh)  # the seventh stage's input
            g0, g1, g2, g3, g4, g5, g6, _ = derivative(y5, t)
        except (SingularSystemError, OverflowError):
            err = math.nan
        else:
            # y4
            m0 = F + h * (0.0 + _E1 * p0 + _E3 * r0 + _E4 * w0 + _E5 * x0 + _E6 * o0 + _E7 * g0)
            m1 = F1 + h * (0.0 + _E1 * p1 + _E3 * r1 + _E4 * w1 + _E5 * x1 + _E6 * o1 + _E7 * g1)
            m2 = F2 + h * (0.0 + _E1 * p2 + _E3 * r2 + _E4 * w2 + _E5 * x2 + _E6 * o2 + _E7 * g2)
            m3 = F3 + h * (0.0 + _E1 * p3 + _E3 * r3 + _E4 * w3 + _E5 * x3 + _E6 * o3 + _E7 * g3)
            m4 = C + h * (0.0 + _E1 * p4 + _E3 * r4 + _E4 * w4 + _E5 * x4 + _E6 * o4 + _E7 * g4)
            m5 = C1 + h * (0.0 + _E1 * p5 + _E3 * r5 + _E4 * w5 + _E5 * x5 + _E6 * o5 + _E7 * g5)
            m6 = s + h * (0.0 + _E1 * p6 + _E3 * r6 + _E4 * w6 + _E5 * x6 + _E6 * o6 + _E7 * g6)
            # each 5th/4th-order difference scaled by tol + tol·|y| (K's is 0.0: its y5 and y4 are both Kh)
            e0, e1 = (n0 - m0) / (tol + tol * abs(F)), (n1 - m1) / (tol + tol * abs(F1))
            e2, e3 = (n2 - m2) / (tol + tol * abs(F2)), (n3 - m3) / (tol + tol * abs(F3))
            e4, e5 = (n4 - m4) / (tol + tol * abs(C)), (n5 - m5) / (tol + tol * abs(C1))
            e6 = (n6 - m6) / (tol + tol * abs(s))
            # the RMS, summed pairwise as numpy's mean of 8 values is (e7² = 0.0 leaves e6² as it is)
            err = math.sqrt((((e0 * e0 + e1 * e1) + (e2 * e2 + e3 * e3)) + ((e4 * e4 + e5 * e5) + e6 * e6)) / 8)
        if err <= 1.0:
            # first same as last: the last stage is the accepted state and its derivative
            z = z + h
            F, F1, F2, F3, C, C1, s, K = n0, n1, n2, n3, n4, n5, n6, Kh
            p0, p1, p2, p3, p4, p5, p6 = g0, g1, g2, g3, g4, g5, g6
            Tv = T(y5, t)
            dT = abs(Tv - T0)
            if dT > drift:
                drift = dT
            samples.append(new(BtSample, (new(BtState, y5), g3, g5, Tv)))
            accepted += 1
            if drift > _drift_cap:
                reason = f"T drift {dT:g} above {_drift_cap:g} at z={z:.6g}"
                break
            if accepted >= max_steps:
                reason = "max step count reached"
                break
        else:
            rejected += 1  # a non-finite err included: it halves h
        h *= min(5.0, max(0.2, 0.9 * err ** (-0.2) if err > 0.0 else 5.0)) if math.isfinite(err) else 0.5
        if abs(h) < 1e-14 * max(1.0, abs(z)):
            reason = f"step underflow near z={z:.6g}"
            break
    traj.steps_accepted, traj.steps_rejected, traj.max_T_drift = accepted, rejected, drift
    return traj if reason is None else traj.truncate(reason)


# ------------------------------------------------------------------- seeding
def bt_csc_seed(
    F: float,
    F1d: float,
    F2d: float,
    C: float,
    C1d: float,
    s: float,
    t: float,
) -> BtState:
    """A state on the CSC constraint manifold: K = 0 and T = 0.

    T is linear in F‴ with coefficient 8·F′ (via the F′·(L⁺F)′ term of B), so
    F‴ is solved for directly; when F′ = 0 the solve retargets F″ instead
    (T is then quadratic in F″) and F‴ is set to zero.  A non-finite
    argument raises SeedError naming the first, and a singular F and C
    (:func:`_guard`'s) raise it with the guard's message, as does a T whose
    solved F‴ or F″ is not finite (a huge t·C term may round the slope to 0).
    """
    args = (("F", F), ("F1d", F1d), ("F2d", F2d), ("C", C), ("C1d", C1d), ("s", s), ("t", t))
    for name, v in args:
        if not math.isfinite(v):
            raise SeedError(f"seed argument {name} must be finite, got {v!r}")
    try:
        _guard(0.0, F, C)
    except SingularSystemError as exc:
        raise SeedError(str(exc)) from None
    if abs(F1d) >= _COEF_FLOOR:
        t0 = tval(BtState(0.0, F, F1d, F2d, 0.0, C, C1d, s, 0.0), t)
        slope = tval(BtState(0.0, F, F1d, F2d, 1.0, C, C1d, s, 0.0), t) - t0  # = 8·F1d
        f3d = -t0 / slope if slope else math.nan
        if not math.isfinite(f3d):
            raise SeedError(f"T = 0 unsolvable: T = {t0:g} + {slope:g}·F‴ has no finite root F‴")
        return BtState(0.0, F, F1d, F2d, f3d, C, C1d, s, 0.0)
    # Fallback: with F′ = F‴ = K = 0, T = rest − 4F″², rest being T at F″ = 0
    rest = tval(BtState(0.0, F, 0.0, 0.0, 0.0, C, C1d, s, 0.0), t)
    if not 0.0 <= rest < math.inf:
        raise SeedError(f"T = 0 unsolvable: F′ = 0 and the F″² target {rest / 4.0:g} is negative or not finite")
    f2d = math.sqrt(rest / 4.0)
    if F2d < 0.0:
        f2d = -f2d
    return BtState(0.0, F, F1d, f2d, 0.0, C, C1d, s, 0.0)


def bt_nonextremal_search(
    t: float,
    trials: int = 32,
    seed: int = 0,
) -> tuple:
    """Search random CSC (s ≠ 0) seeds for a non-conformally-extremal witness.

    Seed distributions: F, F′, F″ uniform in [−2, 2]; C uniform in [0.2, 3];
    C′ uniform in [−1, 1]; s uniform in [−1, 1], drawn in turn from ``UniformStream(seed)``,
    numpy's ``default_rng(seed).uniform`` without numpy (a ``seed`` that is not a non-negative
    int, or ``trials`` that is not an int ≥ 1, raises ValueError).  Each seed is integrated
    over z ∈ [0, 0.8] at ``bt_integrate``'s default tol.  Returns the
    trajectory with the largest extremality residual among trials whose
    conservation drift |T − T₀| stays within ``_DRIFT_CAP`` = 1e-7.  A trial
    is stopped, truncated, at its first sample past the cap: the drift never
    decreases, so it could not be chosen, and the chosen trajectory is the
    one a full integration of every trial would choose.
    """
    if not math.isfinite(t) or t == 0.0:
        raise ValueError(f"t must be finite and nonzero, got {t!r}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be an int of at least 1, got {trials!r}")
    rng = UniformStream(seed)
    best, best_res = None, -1.0
    failures, skipped = [], 0
    for trial in range(trials):
        F, F1d, F2d = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        C, C1d, s = rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if abs(F) < 0.2 or abs(s) < 0.05:
            skipped += 1
            continue  # skip near-singular / near-ZSC draws
        try:
            init = bt_csc_seed(F, F1d, F2d, C, C1d, s, t)
        except SeedError as exc:
            failures.append(f"trial {trial}: {exc}")
            continue
        traj = bt_integrate(init, t, (0.0, 0.8), _drift_cap=_DRIFT_CAP)
        if traj.truncated or len(traj.samples) < 5:
            failures.append(f"trial {trial}: {traj.truncation_reason or 'too short'}")
            continue
        res = traj.extremality_residual()
        if res > best_res:
            best, best_res = traj, res
    if best is None:
        skips = f"{skipped} of {trials} draws skipped with |F| < 0.2 or |s| < 0.05"
        raise SearchFailure("all trials failed: " + "; ".join(failures[:8] + [skips]))
    return best, best_res


# -------------------------------------------------- residuals for closed forms
def state_from_metric(m: MetricSpec, z, s_const: Optional[float] = None) -> tuple:
    """(BtState, F4d, C2d) sampled from a closed-form metric at z, a float or
    a 1-D array (then every field is an array over z but a pinned s).

    Read from F's jet, C's jet and the metric's s and s′ alone, as
    ``curvature_sample(m, z)`` gives them: s is the scalar curvature and
    K = CFs′ uses the analytic s′ from the same jets; ``s_const`` instead
    pins s to a constant with s′ = 0.  Raises where the jets do, and under
    curvature's finiteness rule for these fields alone; then a non-finite
    ``s_const`` raises ValueError.
    """
    def jets():
        fj = jet_F(m, z)
        c, g = jet_C(m, z)
        return (z, *fj, *c[:3], _scalar_from_jets(fj, g), _scalar_prime_from_jets(fj, g))

    z, F, F1d, F2d, F3d, F4d, C, C1d, C2d, s, s1d = _checked(z, jets, "z F F1d F2d F3d F4d C C1d C2d s s1d")
    if s_const is not None:
        if not math.isfinite(s_const):
            raise ValueError(f"s_const must be finite, got {s_const!r}")
        s, s1d = float(s_const), 0.0
    return BtState(z, F, F1d, F2d, F3d, C, C1d, s, C * F * s1d), F4d, C2d


def bt_grid_residual(cs: CurvatureSample, t: float) -> float:
    """max over an array curvature sample of the B^t-flat residuals |F1|, |F2|, |T|.

    Each residual is normalized by the magnitude of the terms entering it:
    near a conformal-factor pole the T expression carries C·s and C·d² terms
    (C²s², F·C′²/C) that amplify round-off in the sampled scalar curvature,
    so raw residuals there are pure float noise scaled by those factors.
    """
    import numpy as np
    c, c1d = cs.C, cs.C1d
    scale = 1.0 + c**1.5 * (1.0 + np.abs(cs.s)) + (c1d * c1d) / np.maximum(c, 1e-30)
    state = BtState(cs.z, cs.F, cs.F1d, cs.F2d, cs.F3d, c, c1d, cs.s, c * cs.F * cs.s1d)
    return float(np.max(np.abs(bt_residuals(state, t, cs.F4d, cs.C2d)) / scale))
