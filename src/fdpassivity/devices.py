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
"""

from __future__ import annotations

import csv
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

BLACKBOX_HEADER = (
    "freq_hz",
    "re_ydd", "im_ydd",
    "re_ydq", "im_ydq",
    "re_yqd", "im_yqd",
    "re_yqq", "im_yqq",
)


def _inv2(m: np.ndarray, what: str) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det == 0:
        raise SingularMatrixError(f"{what} is singular at the requested frequency")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def rl_impedance(r: float, x: float, s: complex, omega_b: float) -> np.ndarray:
    """Series RL impedance in the dq frame: (r + s*x/omega_b)*I + x*J."""
    a = r + (s / omega_b) * x
    return np.array([[a, -x], [x, a]], dtype=complex)


def rl_branch_admittance(r: float, x: float, s: complex, omega_b: float) -> np.ndarray:
    """Admittance of a series RL element; inverse of rl_impedance."""
    if r < 0 or x < 0 or (r == 0 and x == 0):
        raise ValueError("RL element needs r >= 0, x >= 0 and not both zero")
    return _inv2(rl_impedance(r, x, s, omega_b), "RL impedance")


def shunt_c_admittance(b: float, s: complex, omega_b: float) -> np.ndarray:
    """Admittance of a shunt capacitor with susceptance b (pu)."""
    if b <= 0:
        raise ValueError("shunt capacitor needs b > 0")
    return np.array(
        [[(s / omega_b) * b, -b], [b, (s / omega_b) * b]], dtype=complex
    )


def thevenin_grid(scr: float, xr_ratio: float, s: complex, omega_b: float) -> np.ndarray:
    """Thevenin grid admittance from short-circuit ratio and X/R ratio."""
    if scr <= 0 or xr_ratio <= 0:
        raise ValueError("thevenin grid needs scr > 0 and xr_ratio > 0")
    if scr > SCR_VALIDITY_LIMIT:
        raise ValueError(f"scr > {SCR_VALIDITY_LIMIT:.0e} rejected (stiff-source limit)")
    x = 1.0 / scr
    return rl_branch_admittance(x / xr_ratio, x, s, omega_b)


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
    omega0: float   # synchronous angular frequency, rad/s
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
        return cls(v_d0=v, v_q0=0.0, i_d0=i.real, i_q0=i.imag,
                   omega0=omega_b, omega_b=omega_b)

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


def gfl_admittance_l1(params: GflParams, op: OperatingPoint, s: complex) -> np.ndarray:
    """GFL converter dq admittance: inner current loop + PLL frame coupling.

    Blocks: current PI G_ci, cross-coupling decoupling D_dec, voltage
    feedforward low-pass F_v, PLL closed loop T_pll (angle per grid-frame
    q-voltage), converter RL filter Z_f.  Eliminating the modulated
    voltage and the PLL angle gives the delivered-current response

        di = [Z_f + G_ci - D_dec]^-1 ([F_v - 1] I + K_theta T_pll e_q^T) dv

    with K_theta collecting the operating-point terms rotated by the PLL
    angle; the admittance returned is its negative, so current counts
    into the device like any shunt.  The current reference is frozen
    (outer loop inert).
    """
    if s == 0:
        raise ValueError("GFL admittance is not evaluable at s = 0 (pure integrators)")
    wb = op.omega_b
    x_c, r_c = params.l_c, params.r_c

    h_pll = params.k_p_pll + params.k_i_pll / s
    t_pll = wb * h_pll / (s + op.v_d0 * wb * h_pll)
    g_ci = params.k_p_i + params.k_i_i / s
    f_v = 1.0 / (1.0 + s * params.t_v)

    z_f = rl_impedance(r_c, x_c, s, wb)
    d_dec = x_c * J
    v0, i0 = op.v0, op.i0
    v_m0 = v0 + (r_c * I2 + x_c * J) @ i0

    k_theta = (g_ci * I2 - d_dec) @ (J @ i0) - f_v * (J @ v0) + J @ v_m0
    bracket = z_f + g_ci * I2 - d_dec
    rhs = (f_v - 1.0) * I2 + t_pll * np.outer(k_theta, _E_Q)
    return -(_inv2(bracket, "GFL closed-loop matrix") @ rhs)


def gfm_admittance_l1(params: GfmParams, op: OperatingPoint, s: complex) -> np.ndarray:
    """GFM converter dq admittance: swing emulation behind a virtual impedance.

    The internal voltage is fixed in the swing frame, so a swing-angle
    perturbation rotates it in the grid frame; the delivered-power
    linearization closes the loop:

        delta_theta = (omega_b / s) * (-delta_P) / (2 H s + D)
        delta_i     = Z_v^-1 (J e0 delta_theta - delta_v)
        delta_P     = i0^T delta_v + v0^T delta_i

    with e0 = v0 + (R_v I + X_v J) i0 the internal voltage behind the
    virtual impedance and i0 the delivered current.  Eliminating the
    angle and negating (current into the device) gives

        Y = Z_v^-1 + (a / (1 + a v0^T u)) u (i0 - Z_v^-T v0)^T,
        u = Z_v^-1 J e0,  a = omega_b / (s (2 H s + D)).
    """
    if s == 0:
        raise ValueError("GFM admittance is not evaluable at s = 0 (angle integrator)")
    wb = op.omega_b
    swing = s * (2.0 * params.h_vsm * s + params.d_vsm)
    if swing == 0:
        raise SingularMatrixError("GFM swing dynamics singular at the requested frequency")
    a = wb / swing

    y_v = _inv2(rl_impedance(params.r_v, params.l_v, s, wb), "virtual impedance")
    v0, i0 = op.v0, op.i0
    e0 = v0 + (params.r_v * I2 + params.l_v * J) @ i0

    u = y_v @ (J @ e0)        # current response to an angle swing
    row = i0 - v0 @ y_v       # delivered-power sensitivity to the terminal voltage
    denom = 1.0 + a * (v0 @ u)
    if denom == 0:
        raise SingularMatrixError("GFM power loop singular at the requested frequency")
    return y_v + (a / denom) * np.outer(u, row)


class DeviceModel:
    """Evaluable, parameterized source of 2x2 dq admittance.

    Subclasses are immutable; evaluation is pure, so models are safe to
    share across threads.  A model has no adjustable parameters unless it
    derives from ParametricModel.
    """

    kind: ClassVar[str] = "device"

    def admittance(self, s: complex) -> np.ndarray:
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
    ``params`` dataclass when it has one, else its own fields except omega_b."""

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

    def admittance(self, s: complex) -> np.ndarray:
        return rl_branch_admittance(self.r, self.x, s, self.omega_b)


@dataclass(frozen=True)
class ShuntCapacitor(ParametricModel):
    """Shunt capacitor with susceptance b (pu); lossless."""

    b: float
    omega_b: float

    kind: ClassVar[str] = "c"

    def admittance(self, s: complex) -> np.ndarray:
        return shunt_c_admittance(self.b, s, self.omega_b)


@dataclass(frozen=True)
class TheveninGrid(ParametricModel):
    """Grid equivalent characterized by short-circuit ratio and X/R."""

    scr: float
    xr_ratio: float
    omega_b: float

    kind: ClassVar[str] = "thevenin"

    def admittance(self, s: complex) -> np.ndarray:
        return thevenin_grid(self.scr, self.xr_ratio, s, self.omega_b)


@dataclass(frozen=True)
class GflConverterL1(ParametricModel):
    """Grid-following converter, level-1 linearization."""

    params: GflParams
    op: OperatingPoint

    kind: ClassVar[str] = "gfl_l1"

    def admittance(self, s: complex) -> np.ndarray:
        return gfl_admittance_l1(self.params, self.op, s)


@dataclass(frozen=True)
class GfmConverterL1(ParametricModel):
    """Grid-forming converter, level-1 linearization."""

    params: GfmParams
    op: OperatingPoint

    kind: ClassVar[str] = "gfm_l1"

    def admittance(self, s: complex) -> np.ndarray:
        return gfm_admittance_l1(self.params, self.op, s)


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
            raise MalformedTableError("table needs at least 2 frequency rows")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise MalformedTableError("table frequencies must be positive and strictly increasing")
        if y.shape != (f.size, 2, 2):
            raise MalformedTableError(f"table data must have shape ({f.size}, 2, 2), got {y.shape}")
        if not np.all(np.isfinite(y.real)) or not np.all(np.isfinite(y.imag)):
            raise MalformedTableError("table contains non-finite admittance entries")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "ydata", y)
        object.__setattr__(self, "_logf", np.log10(f))

    def admittance(self, s: complex) -> np.ndarray:
        s = complex(s)
        if abs(s.real) > 1e-12 * max(abs(s), 1.0):
            raise OutOfRangeError("black-box model is only evaluable at s = j*omega")
        omega = s.imag
        f = abs(omega) / (2.0 * math.pi)
        lo, hi = float(self.freqs_hz[0]), float(self.freqs_hz[-1])
        # Hz <-> rad/s round trips may overshoot the span edges by an ulp;
        # only genuinely out-of-band queries are errors
        slack = 1e-12 * hi
        if f < lo - slack or f > hi + slack:
            raise OutOfRangeError(
                f"{f:.6g} Hz outside the tabulated span "
                f"[{lo:.6g}, {hi:.6g}] Hz"
            )
        lf = math.log10(min(max(f, lo), hi))
        re = np.empty((2, 2))
        im = np.empty((2, 2))
        for p in range(2):
            for q in range(2):
                re[p, q] = np.interp(lf, self._logf, self.ydata[:, p, q].real)
                im[p, q] = np.interp(lf, self._logf, self.ydata[:, p, q].imag)
        y = re + 1j * im
        return y.conj() if omega < 0 else y


def blackbox_model(freqs_hz, ydata) -> BlackBoxModel:
    """Build a black-box device from a frequency-response table in memory."""
    return BlackBoxModel(freqs_hz=np.asarray(freqs_hz, dtype=float),
                         ydata=np.asarray(ydata, dtype=complex))


def sample_model(model: DeviceModel, freqs_hz) -> BlackBoxModel:
    """Tabulate any model on a frequency grid as a black-box device."""
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    ydata = np.empty((freqs_hz.size, 2, 2), dtype=complex)
    for k, f in enumerate(freqs_hz):
        ydata[k] = model.admittance(1j * 2.0 * math.pi * f)
    return blackbox_model(freqs_hz, ydata)


def read_blackbox_table(path) -> BlackBoxModel:
    """Load a frequency-response table from CSV (see BLACKBOX_HEADER)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MalformedTableError(f"{path}: empty table file") from None
            if tuple(h.strip() for h in header) != BLACKBOX_HEADER:
                raise MalformedTableError(
                    f"{path}: bad header {header!r}, expected {','.join(BLACKBOX_HEADER)}"
                )
            freqs, rows = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 9:
                    raise MalformedTableError(f"{path}:{lineno}: expected 9 columns, got {len(row)}")
                try:
                    vals = [float(v) for v in row]
                except ValueError as exc:
                    raise MalformedTableError(f"{path}:{lineno}: {exc}") from None
                freqs.append(vals[0])
                rows.append(vals[1:])
    except OSError as exc:
        raise MalformedTableError(f"cannot read table {path}: {exc}") from exc
    if len(freqs) < 2:
        raise MalformedTableError(f"{path}: table needs at least 2 rows")
    data = np.asarray(rows, dtype=float)
    ydata = (data[:, 0::2] + 1j * data[:, 1::2]).reshape(-1, 2, 2)
    return blackbox_model(np.asarray(freqs), ydata)


def write_blackbox_table(path, model: DeviceModel, freqs_hz) -> None:
    """Tabulate a model to the CSV exchange format at 17 significant digits."""
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(BLACKBOX_HEADER) + "\n")
        for f in freqs_hz:
            y = model.admittance(1j * 2.0 * math.pi * f)
            cells = [f"{f:.17g}"]
            for p in range(2):
                for q in range(2):
                    cells.append(f"{y[p, q].real:.17g}")
                    cells.append(f"{y[p, q].imag:.17g}")
            fh.write(",".join(cells) + "\n")


def param_derivative(model: DeviceModel, param_name: str, s: complex) -> np.ndarray:
    """Entrywise dY/d(rho) by central differences with one Richardson level.

    Step h = max(|rho|, 1) * 1e-6; the h and h/2 estimates combine as
    (4 D(h/2) - D(h)) / 3, cancelling the leading truncation term.
    """
    if not model.param_names():
        raise NotDifferentiableError(f"{model.kind} model is not differentiable in parameters")
    rho = model.get_param(param_name)
    h = max(abs(rho), 1.0) * 1e-6

    def central(step: float) -> np.ndarray:
        y_plus = model.with_param(param_name, rho + step).admittance(s)
        y_minus = model.with_param(param_name, rho - step).admittance(s)
        return (y_plus - y_minus) / (2.0 * step)

    d = (4.0 * central(h / 2.0) - central(h)) / 3.0
    if not np.all(np.isfinite(d.real)) or not np.all(np.isfinite(d.imag)):
        raise NonFiniteError(
            f"derivative of {model.kind} admittance w.r.t. {param_name!r} is not finite at s={s}"
        )
    return d
