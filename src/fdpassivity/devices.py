"""Catalog of parameterized dq-frame device admittance models.

Every model maps a dq voltage perturbation at the terminal bus to the dq
current drawn *into* the device, as a 2x2 complex matrix over complex
frequency s.  Per-unit conventions, stated once:

- reactances X are given in pu at the base angular frequency omega_b, and
  the Laplace operator enters inductive/capacitive terms as s/omega_b;
- controller integrators carry an explicit omega_b to convert pu frequency
  to rad/s;
- with current measured into the device, dissipated power is Re{v^dagger i},
  so passive elements have a positive-semidefinite Hermitian part.

The grid-following (GFL) and grid-forming (GFM) converter models are
level-1 linearizations: GFL keeps the inner current loop, PLL frame
coupling and the voltage feedforward (outer PQ loop frozen); GFM keeps the
swing emulation behind a virtual impedance (reactive/voltage loops
frozen).  Parameters owned by the frozen outer loops are carried but
inert, which keeps them visible to sensitivity studies (zero derivative).

admittance(s) takes a scalar s or a 1-D array of M values and returns a
(2, 2) matrix or an (M, 2, 2) stack.  Element k of a stack has the same
bits as evaluating s[k] alone in Python's complex arithmetic, the way
every published result was computed: complex products and quotients of
arrays go through _cmul and _div, which round as that arithmetic rounds.
A guard refusing elements of a stack names them in its error's points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .errors import (
    MalformedTableError,
    NonFiniteError,
    NotDifferentiableError,
    OutOfRangeError,
    SingularMatrixError,
)

# 90-degree rotation in the dq plane.
J = np.array([[0.0, -1.0], [1.0, 0.0]])
I2 = np.eye(2)
_E_Q = np.array([0.0, 1.0])

SCR_VALIDITY_LIMIT = 1e6


def _mat2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]]: (2, 2) for scalar entries, (M, 2, 2) when a is an
    (M,) array (a depends on s wherever this is called)."""
    if not isinstance(a, np.ndarray) or not a.shape:
        return np.array([[a, b], [c, d]], dtype=complex)
    y = np.empty(a.shape + (2, 2), dtype=complex)
    y[..., 0, 0] = a
    y[..., 0, 1] = b
    y[..., 1, 0] = c
    y[..., 1, 1] = d
    return y


def _any(mask) -> bool:
    """np.any, minus its cost on the single bool that a scalar s gives."""
    return bool(mask) if isinstance(mask, (bool, np.bool_)) else bool(mask.any())


def _col(x, ndim: int = 2):
    """A scalar as it is; an (M,) array with ndim trailing axes, so it scales
    stacked vectors (ndim 1) or matrices (ndim 2) row by row."""
    return x[(...,) + (None,) * ndim] if isinstance(x, np.ndarray) else x


def _refuse(points, error: type, message: str, shape=None) -> None:
    """If any of points is set, raise error(message) naming them in its points."""
    if _any(points):
        try:
            raise error(message)
        except error as exc:  # exc is unbound on leaving: it and this frame form no cycle
            exc.points = points if shape is None else np.broadcast_to(points, shape)
            raise


# Python's own numbers: their arithmetic is the reference _div reproduces.
_PLAIN = (complex, float, int)


def _cmul(a, b):
    """a * b, rounded as scalar complex arithmetic (Python's or numpy's)
    rounds it: each real product on its own.  numpy's array loop may fuse
    a multiply-add and move the last bit."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return a * b
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out[()]


def _div(a, b):
    """a / b, rounded as Python's complex division rounds it (Smith's
    method, dividing by the larger part of b); numpy instead multiplies
    by a reciprocal and moves the last bit."""
    if type(a) in _PLAIN and type(b) in _PLAIN:
        return a / b
    a = np.asarray(a, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    ar, ai = a.real, a.imag
    b = np.asarray(b, dtype=complex)
    br, bi = b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    big = np.where(by_real, br, bi)
    _refuse(big == 0, ZeroDivisionError, "complex division by zero", out.shape)
    small = np.where(by_real, bi, br)
    ratio = small / big
    denom = big + small * ratio
    t_r, t_i = ar * ratio, ai * ratio
    out.real = np.where(by_real, ar + t_i, t_r + ai) / denom
    out.imag = np.where(by_real, ai - t_r, t_i - ar) / denom
    return out[()]


def _inv2(m: np.ndarray, what: str) -> np.ndarray:
    """Closed-form inverse of a 2x2 matrix or of each of a stack."""
    if m.ndim == 2:  # one matrix, in scalar arithmetic: the per-point hot path
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det == 0:
            raise SingularMatrixError(f"{what} is singular at the requested frequency")
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = _cmul(m00, m11) - _cmul(m01, m10)
    _refuse(det == 0, SingularMatrixError, f"{what} is singular at the requested frequency")
    return _mat2(m11, -m01, -m10, m00) / det[..., None, None]


def rl_impedance(r: float, x: float, s, omega_b: float) -> np.ndarray:
    """Series RL impedance in the dq frame: (r + s*x/omega_b)*I + x*J."""
    a = r + _div(s, omega_b) * x
    return _mat2(a, -x, x, a)


@dataclass(frozen=True)
class OperatingPoint:
    """Steady-state terminal quantities used by the converter linearizations.

    The terminal frame is aligned so v_q0 = 0 and v_d0 > 0; currents are
    measured out of the device into the bus (delivered), matching the
    sign convention of declared power flows.
    """

    v_d0: float
    v_q0: float
    i_d0: float
    i_q0: float
    omega_b: float  # per-unit base angular frequency, rad/s

    def __post_init__(self):
        if self.omega_b <= 0:
            raise ValueError("omega_b must be positive")

    @classmethod
    def from_terminal(cls, p: float, q: float, v: float, omega_b: float) -> "OperatingPoint":
        """Operating point from declared terminal (P, Q, V), P and Q delivered to the bus.

        i0 = conj((P + jQ)/V) mapped to dq in a frame with v_q0 = 0.
        """
        if v <= 0:
            raise ValueError("terminal voltage magnitude must be positive")
        i = complex(p, q).conjugate() / v
        return cls(v_d0=v, v_q0=0.0, i_d0=i.real, i_q0=i.imag, omega_b=omega_b)

    @property
    def v0(self) -> np.ndarray:
        return np.array([self.v_d0, self.v_q0])

    @property
    def i0(self) -> np.ndarray:
        return np.array([self.i_d0, self.i_q0])


@dataclass(frozen=True)
class GflParams:
    """GFL converter parameters (pu unless noted). Defaults: single-converter study set.

    k_p_pq, k_i_pq and t_i belong to the outer PQ loop, frozen at this
    modeling level; they are carried for sensitivity bookkeeping and have
    no effect on the admittance.
    """

    l_c: float = 0.15        # converter interface inductance
    r_c: float = 0.015       # converter interface resistance
    k_p_i: float = 0.75      # current-control proportional gain
    k_i_i: float = 37.69     # current-control integral gain
    k_p_pll: float = 0.4     # PLL proportional gain
    k_i_pll: float = 30.28   # PLL integral gain
    t_v: float = 0.002       # voltage feedforward low-pass time constant, s
    k_p_pq: float = 0.016    # outer PQ loop, inert at this level
    k_i_pq: float = 31.4159  # outer PQ loop, inert at this level
    t_i: float = 0.0001      # current-measurement low-pass, inert at this level, s


@dataclass(frozen=True)
class GfmParams:
    """GFM converter parameters (pu unless noted). Defaults: validation study set.

    k_vsm belongs to the reactive/voltage loop, frozen at this modeling
    level; it is carried but inert.
    """

    h_vsm: float = 3.0    # virtual inertia constant, s
    d_vsm: float = 300.0  # virtual damping
    l_v: float = 0.2      # virtual inductance
    r_v: float = 0.15     # virtual resistance
    k_vsm: float = 10.0   # reactive/voltage loop gain, inert at this level


class DeviceModel:
    """Evaluable, parameterized source of 2x2 dq admittance.

    Subclasses are immutable; evaluation is pure, so models are safe to
    share across threads.  A model has no adjustable parameters unless it
    derives from ParametricModel.
    """

    kind: ClassVar[str] = "device"

    def admittance(self, s) -> np.ndarray:
        """Y(s): (2, 2) for a scalar s, (M, 2, 2) for a 1-D array of M values."""
        raise NotImplementedError

    def param_names(self) -> tuple[str, ...]:
        return ()

    def get_param(self, name: str) -> float:
        self._require_param(name)
        return getattr(self._param_source(), name)

    def with_param(self, name: str, value: float) -> "DeviceModel":
        raise NotDifferentiableError(f"{self.kind} model has no adjustable parameters")

    def _param_source(self):
        return getattr(self, "params", self)

    def _require_param(self, name: str) -> None:
        if name not in self.param_names():
            raise ValueError(f"{self.kind} model has no parameter {name!r}")


class ParametricModel(DeviceModel):
    """Dataclass model whose parameters are dataclass fields: those of its
    ``params`` dataclass when it has one, else its own fields except omega_b.

    A model without a ``params`` dataclass (RL element, capacitor, Thevenin
    grid) also takes 1-D arrays of equal length for its parameters and then
    stands for that many elements: at s[..., None] it returns their
    admittances stacked as (..., C, 2, 2).  See combine.
    """

    def param_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self._param_source()) if f.name != "omega_b")

    def with_param(self, name: str, value: float) -> "DeviceModel":
        self._require_param(name)
        source = self._param_source()
        changed = replace(source, **{name: value})
        return changed if source is self else replace(self, params=changed)


@dataclass(frozen=True)
class RlBranch(ParametricModel):
    """Series RL element (branch, grid shunt, or passive load)."""

    r: float
    x: float
    omega_b: float

    kind: ClassVar[str] = "rl"

    def __post_init__(self):
        if _any(self.r < 0) or _any(self.x < 0) or _any((self.r == 0) & (self.x == 0)):
            raise ValueError("RL element needs r >= 0, x >= 0 and not both zero")

    def admittance(self, s) -> np.ndarray:
        return _inv2(rl_impedance(self.r, self.x, s, self.omega_b), "RL impedance")


@dataclass(frozen=True)
class ShuntCapacitor(ParametricModel):
    """Shunt capacitor with susceptance b (pu); lossless."""

    b: float
    omega_b: float

    kind: ClassVar[str] = "shunt_c"

    def __post_init__(self):
        if _any(self.b <= 0):
            raise ValueError("shunt capacitor needs b > 0")

    def admittance(self, s) -> np.ndarray:
        sb = _div(s, self.omega_b) * self.b
        return _mat2(sb, -self.b, self.b, sb)


@dataclass(frozen=True)
class TheveninGrid(ParametricModel):
    """Grid equivalent characterized by short-circuit ratio and X/R."""

    scr: float
    xr_ratio: float
    omega_b: float

    kind: ClassVar[str] = "thevenin"

    def __post_init__(self):
        if _any(self.scr <= 0) or _any(self.xr_ratio <= 0):
            raise ValueError("thevenin grid needs scr > 0 and xr_ratio > 0")
        if _any(self.scr > SCR_VALIDITY_LIMIT):
            raise ValueError(f"scr > {SCR_VALIDITY_LIMIT:.0e} rejected (stiff-source limit)")

    def admittance(self, s) -> np.ndarray:
        x = 1.0 / self.scr
        return _inv2(rl_impedance(x / self.xr_ratio, x, s, self.omega_b), "RL impedance")


@dataclass(frozen=True)
class GflConverterL1(ParametricModel):
    """Grid-following converter, level-1 linearization.

    Blocks: current PI G_ci, cross-coupling decoupling D_dec, voltage
    feedforward low-pass F_v, PLL closed loop T_pll (angle per grid-frame
    q-voltage), converter RL filter Z_f.  Eliminating the modulated
    voltage and the PLL angle gives the delivered-current response

        di = [Z_f + G_ci - D_dec]^-1 ([F_v - 1] I + K_theta T_pll e_q^T) dv

    with K_theta collecting the operating-point terms rotated by the PLL
    angle; the admittance is its negative, so current counts into the
    device like any shunt.  The current reference is frozen (outer loop
    inert).
    """

    params: GflParams
    op: OperatingPoint

    kind: ClassVar[str] = "gfl_l1"

    def __post_init__(self):
        # the terms that do not depend on s: D_dec, J i0, J v0 and J v_m0
        x_c, v0, i0 = self.params.l_c, self.op.v0, self.op.i0
        v_m0 = v0 + (self.params.r_c * I2 + x_c * J) @ i0
        object.__setattr__(self, "_frame", (x_c * J, J @ i0, J @ v0, J @ v_m0))

    def admittance(self, s) -> np.ndarray:
        _refuse(s == 0, ValueError, "GFL admittance is not evaluable at s = 0 (pure integrators)")
        params, op = self.params, self.op
        wb = op.omega_b
        d_dec, j_i0, j_v0, j_vm0 = self._frame

        h_pll = params.k_p_pll + _div(params.k_i_pll, s)
        t_pll = _div(wb * h_pll, s + op.v_d0 * wb * h_pll)
        g_ci = params.k_p_i + _div(params.k_i_i, s)
        f_v = _div(1.0, 1.0 + s * params.t_v)

        z_f = rl_impedance(params.r_c, params.l_c, s, wb)
        k_theta = (_col(g_ci) * I2 - d_dec) @ j_i0 - _col(f_v, 1) * j_v0 + j_vm0
        bracket = z_f + _col(g_ci) * I2 - d_dec
        rhs = _col(f_v - 1.0) * I2 + _col(t_pll) * (k_theta[..., :, None] * _E_Q)
        return -(_inv2(bracket, "GFL closed-loop matrix") @ rhs)


@dataclass(frozen=True)
class GfmConverterL1(ParametricModel):
    """Grid-forming converter, level-1 linearization.

    Swing emulation behind a virtual impedance.  The internal voltage is
    fixed in the swing frame, so a swing-angle perturbation rotates it in
    the grid frame; the delivered-power linearization closes the loop:

        delta_theta = (omega_b / s) * (-delta_P) / (2 H s + D)
        delta_i     = Z_v^-1 (J e0 delta_theta - delta_v)
        delta_P     = i0^T delta_v + v0^T delta_i

    with e0 = v0 + (R_v I + X_v J) i0 the internal voltage behind the
    virtual impedance and i0 the delivered current.  Eliminating the
    angle and negating (current into the device) gives

        Y = Z_v^-1 + (a / (1 + a v0^T u)) u (i0 - Z_v^-T v0)^T,
        u = Z_v^-1 J e0,  a = omega_b / (s (2 H s + D)).
    """

    params: GfmParams
    op: OperatingPoint

    kind: ClassVar[str] = "gfm_l1"

    def __post_init__(self):
        # the terms that do not depend on s: v0, i0 and J e0
        v0, i0 = self.op.v0, self.op.i0
        e0 = v0 + (self.params.r_v * I2 + self.params.l_v * J) @ i0
        object.__setattr__(self, "_frame", (v0, i0, J @ e0))

    def admittance(self, s) -> np.ndarray:
        _refuse(s == 0, ValueError, "GFM admittance is not evaluable at s = 0 (angle integrator)")
        params, wb = self.params, self.op.omega_b
        v0, i0, j_e0 = self._frame
        swing = _cmul(s, 2.0 * params.h_vsm * s + params.d_vsm)
        _refuse(swing == 0, SingularMatrixError,
                "GFM swing dynamics singular at the requested frequency")
        a = _div(wb, swing)

        y_v = _inv2(rl_impedance(params.r_v, params.l_v, s, wb), "virtual impedance")
        u = y_v @ j_e0        # current response to an angle swing
        row = i0 - v0 @ y_v   # delivered-power sensitivity to the terminal voltage
        denom = 1.0 + _cmul(a, (v0 @ u[..., :, None])[..., 0][()])
        _refuse(denom == 0, SingularMatrixError,
                "GFM power loop singular at the requested frequency")
        return y_v + _col(a / denom) * (u[..., :, None] * row[..., None, :])


def combine(models) -> list[tuple[DeviceModel, tuple[int, ...], bool]]:
    """Evaluators for a sequence of models: (model, positions, combined).

    Two or more models whose parameters are their own fields are merged,
    per class and omega_b, into one model with array parameters (combined
    True); it evaluates all of them in one admittance call at s[..., None],
    which costs about what one of them costs.  Any other model stands
    alone at its one position (combined False) and is evaluated at s.
    Every element is computed as its own model computes it, to the bit.
    """
    groups: dict = {}
    for k, m in enumerate(models):
        own = isinstance(m, ParametricModel) and m._param_source() is m
        groups.setdefault((type(m), m.omega_b) if own else k, []).append(k)
    out = []
    for key, positions in groups.items():
        first = models[positions[0]]
        if len(positions) == 1:
            out.append((first, tuple(positions), False))
            continue
        arrays = {f.name: np.array([getattr(models[k], f.name) for k in positions], dtype=float)
                  for f in fields(first) if f.name != "omega_b"}
        out.append((type(first)(**arrays, omega_b=first.omega_b), tuple(positions), True))
    return out


@dataclass(frozen=True, eq=False)
class BlackBoxModel(DeviceModel):
    """Frequency-response table, interpolated entrywise against log10(f).

    Evaluable only on the imaginary axis within the tabulated span; real
    and imaginary parts are interpolated linearly, exactly reproducing the
    table at its own grid points.  Negative frequencies are served through
    conjugate symmetry (real-coefficient response assumed).
    """

    freqs_hz: np.ndarray   # strictly increasing, positive
    ydata: np.ndarray      # (M, 2, 2) complex

    kind: ClassVar[str] = "blackbox"

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        y = np.asarray(self.ydata, dtype=complex)
        if f.ndim != 1 or f.size < 2:
            raise MalformedTableError("table needs at least 2 rows")
        if not (np.isfinite(f).all() and (f > 0).all() and (np.diff(f) > 0).all()):
            raise MalformedTableError(
                "table frequencies must be finite, positive and strictly increasing")
        if y.shape != (f.size, 2, 2):
            raise MalformedTableError(f"table data must have shape ({f.size}, 2, 2), got {y.shape}")
        if not np.isfinite(y).all():
            raise MalformedTableError("table contains non-finite admittance entries")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "ydata", y)
        object.__setattr__(self, "_logf", np.log10(f))

    def admittance(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=complex)
        if np.any(np.abs(s.real) > 1e-12 * np.maximum(np.abs(s), 1.0)):
            raise OutOfRangeError("black-box model is only evaluable at s = j*omega")
        f = np.abs(s.imag) / (2.0 * math.pi)
        lo, hi = float(self.freqs_hz[0]), float(self.freqs_hz[-1])
        # Hz <-> rad/s round trips may overshoot the span edges by an ulp;
        # only genuinely out-of-band queries are errors
        slack = 1e-12 * hi
        outside = np.ravel((f < lo - slack) | (f > hi + slack))
        if np.any(outside):
            raise OutOfRangeError(
                f"{np.ravel(f)[outside][0]:.6g} Hz outside the tabulated span "
                f"[{lo:.6g}, {hi:.6g}] Hz"
            )
        lf = np.log10(np.clip(f, lo, hi))
        y = np.empty(s.shape + (2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                y.real[..., p, q] = np.interp(lf, self._logf, self.ydata[:, p, q].real)
                y.imag[..., p, q] = np.interp(lf, self._logf, self.ydata[:, p, q].imag)
        return np.where((s.imag < 0)[..., None, None], y.conj(), y)


def sample_model(model: DeviceModel, freqs_hz) -> BlackBoxModel:
    """Tabulate any model on a frequency grid as a black-box device."""
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    return BlackBoxModel(freqs_hz, model.admittance(1j * 2.0 * math.pi * freqs_hz))


def param_derivative(model: DeviceModel, param_name: str, s) -> np.ndarray:
    """Entrywise dY/d(rho) by central differences with one Richardson level.

    s is a scalar or a 1-D array, as for admittance; the four perturbed
    models are each evaluated once on all of it.  Step
    h = max(|rho|, 1) * 1e-6; the h and h/2 estimates combine as
    (4 D(h/2) - D(h)) / 3, cancelling the leading truncation term.  Where
    rho - h or rho + h is outside the model's range (r = 0 of an RL element,
    scr = 1e6 of a Thevenin grid), the one-sided differences D toward the
    side it accepts combine as 2 D(+-h/2) - D(+-h), which cancels it too.
    """
    if not model.param_names():
        raise NotDifferentiableError(f"{model.kind} model is not differentiable in parameters")
    rho = model.get_param(param_name)
    h = max(abs(rho), 1.0) * 1e-6

    def central(step: float) -> np.ndarray:
        y_plus = model.with_param(param_name, rho + step).admittance(s)
        y_minus = model.with_param(param_name, rho - step).admittance(s)
        return (y_plus - y_minus) / (2.0 * step)

    try:
        for side in (-h, h):
            model.with_param(param_name, rho + side)
    except ValueError:  # rho + side is rejected: step away from it
        y = model.admittance(s)

        def one_sided(step: float) -> np.ndarray:
            return (model.with_param(param_name, rho + step).admittance(s) - y) / step

        d = 2.0 * one_sided(-side / 2.0) - one_sided(-side)
    else:
        d = (4.0 * central(h / 2.0) - central(h)) / 3.0
    bad = np.ravel(~np.isfinite(d).all(axis=(-2, -1)))
    if np.any(bad):
        raise NonFiniteError(
            f"derivative of {model.kind} admittance w.r.t. {param_name!r} is not finite "
            f"at s={np.ravel(s)[bad][0]}"
        )
    return d
