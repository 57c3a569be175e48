"""Independent reference computations for the test suite.

Everything here is derived by a different route than the package code it
checks: the converter admittances come from block-by-block state-space
realizations of the control diagrams (the package eliminates the loops
algebraically), the Hermitian eigenvalues from LDL-inertia bisection (the
package calls LAPACK), and the test-network modes from explicitly derived
characteristic polynomials (the package runs Muller iteration on the
determinant).  The eigenlocus tracker is checked against a plain
step-by-step loop (the package decides the greedy steps for all
frequencies at once), and so is the mode scan (the package runs every
seed's Muller search in lockstep, one stacked determinant per round).
The self-refining Nyquist verdict is checked against plain doubling of
the point count, solving every grid from scratch (the package nests its
grids and keeps the eigenvalues of the points it has already solved).
The SVG series paths are checked against a per-sample loop (the package
maps and formats each series as arrays).  The adjugate is checked against
cofactor expansion and LU column replacement (the package takes one SVD),
and branch assembly against the incidence sandwich Inc^T diag(Y_k) Inc
(the package scatters each branch's 2x2 blocks).  The component table is
checked against names and bus indices derived section by section (the
package builds it in one pass over a table of naming formats).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from fdpassivity.errors import NoConvergenceError, OutOfRegionError, RefineGridError
from fdpassivity.passivity import log_omega_grid
from fdpassivity.stability import UNSTABLE_RE_RTOL, ModeEstimate, ModeScan, gnc, refine_mode

J = np.array([[0.0, -1.0], [1.0, 0.0]])
I2 = np.eye(2)


def transfer(a: np.ndarray, b: np.ndarray, c: np.ndarray, s: complex,
             d: np.ndarray | None = None) -> np.ndarray:
    """C (sI - A)^-1 B + D."""
    n = a.shape[0]
    g = c @ np.linalg.solve(s * np.eye(n) - a, b)
    return g if d is None else g + d


def gfl_state_space(params, op):
    """8-state realization of the GFL diagram, generator convention.

    States: filter current i (grid frame, delivered), current-control
    integrator m, feedforward filter w, PLL integrator p, PLL angle theta.
    Input: terminal dq voltage (grid frame).  Output: delivered current.
    Frame maps are the linearized rotations dx_c = dx_g - theta * J x0.
    The package admittance must equal MINUS this transfer matrix (current
    counted into the device).
    """
    wb = op.omega_b
    lc, rc = params.l_c, params.r_c
    kp, ki = params.k_p_i, params.k_i_i
    kpll_p, kpll_i = params.k_p_pll, params.k_i_pll
    tv = params.t_v
    v0, i0 = op.v0, op.i0
    vm0 = v0 + (rc * I2 + lc * J) @ i0

    a = np.zeros((8, 8))
    b = np.zeros((8, 2))

    # plant: (lc/wb) di/dt = vm - v - (rc I + lc J) i, with
    # vm = w - (kp I - lc J)(i - theta J i0) + ki m + theta J vm0;
    # the lc J decoupling cancels the plant cross-coupling exactly
    g = wb / lc
    a[0:2, 0:2] = -g * (kp + rc) * I2
    a[0:2, 2:4] = g * ki * I2
    a[0:2, 4:6] = g * I2
    a[0:2, 7] = g * ((kp * I2 - lc * J) @ (J @ i0) + J @ vm0)
    b[0:2, :] = -g * I2

    # current-control integrator: dm/dt = -(i - theta J i0)
    a[2:4, 0:2] = -I2
    a[2:4, 7] = J @ i0

    # feedforward filter: dw/dt = ((v - theta J v0) - w) / tv
    a[4:6, 4:6] = -I2 / tv
    a[4:6, 7] = -(J @ v0) / tv
    b[4:6, :] = I2 / tv

    # PLL: dp/dt = v_q - theta v_d0; dtheta/dt = wb (kpll_p dp/dt-arg + kpll_i p)
    a[6, 7] = -op.v_d0
    b[6, :] = [0.0, 1.0]
    a[7, 6] = wb * kpll_i
    a[7, 7] = -wb * kpll_p * op.v_d0
    b[7, :] = [0.0, wb * kpll_p]

    c = np.zeros((2, 8))
    c[:, 0:2] = I2
    return a, b, c


def gfm_state_space(params, op):
    """4-state realization of the GFM diagram, generator convention.

    States: virtual-impedance current i (delivered), swing speed, swing
    angle.  The internal voltage is fixed in the swing frame, so an angle
    perturbation rotates it in the grid frame; delivered power closes the
    swing loop.  The package admittance must equal MINUS this transfer.
    """
    wb = op.omega_b
    rv, xv = params.r_v, params.l_v
    h2 = 2.0 * params.h_vsm
    v0, i0 = op.v0, op.i0
    e0 = v0 + (rv * I2 + xv * J) @ i0

    a = np.zeros((4, 4))
    b = np.zeros((4, 2))

    # (xv/wb) di/dt = theta J e0 - v - (rv I + xv J) i
    g = wb / xv
    a[0:2, 0:2] = -g * (rv * I2 + xv * J)
    a[0:2, 3] = g * (J @ e0)
    b[0:2, :] = -g * I2

    # swing: h2 domega/dt = -dP - D omega, dP = i0^T v + v0^T i
    a[2, 0:2] = -v0 / h2
    a[2, 2] = -params.d_vsm / h2
    b[2, :] = -i0 / h2

    a[3, 2] = wb

    c = np.zeros((2, 4))
    c[:, 0:2] = I2
    return a, b, c


def _inertia_below(h: np.ndarray, x: float) -> int:
    """Count of eigenvalues of Hermitian h strictly below x (Sylvester)."""
    shifted = h - x * np.eye(h.shape[0])
    _, d, _ = scipy.linalg.ldl(shifted)
    count = 0
    k = 0
    n = d.shape[0]
    while k < n:
        if k + 1 < n and (d[k, k + 1] != 0 or d[k + 1, k] != 0):
            blk = d[k:k + 2, k:k + 2]
            tr = blk[0, 0].real + blk[1, 1].real
            det = (blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]).real
            disc = np.sqrt(max(tr * tr / 4.0 - det, 0.0))
            for lam in (tr / 2.0 - disc, tr / 2.0 + disc):
                if lam < 0:
                    count += 1
            k += 2
        else:
            if d[k, k].real < 0:
                count += 1
            k += 1
    return count


def hermitian_eigs_bisect(h: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix by inertia bisection.

    Never calls an eigensolver; each eigenvalue is located by bisecting the
    count of eigenvalues below x.  Exact-pivot breakdowns are sidestepped
    by a tiny shift of the probe point.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    radius = np.sum(np.abs(h), axis=1).max()  # Gershgorin bound
    lo, hi = -radius - 1.0, radius + 1.0
    scale = max(radius, 1.0)

    def count(x: float) -> int:
        for shift in (0.0, 1e-14 * scale, -1e-14 * scale):
            try:
                return _inertia_below(h, x + shift)
            except (ValueError, np.linalg.LinAlgError):
                continue
        raise RuntimeError(f"LDL failed near x={x}")

    eigs = []
    for k in range(1, n + 1):
        a, bnd = lo, hi
        while bnd - a > tol * scale:
            mid = 0.5 * (a + bnd)
            if count(mid) >= k:
                bnd = mid
            else:
                a = mid
        eigs.append(0.5 * (a + bnd))
    return np.array(eigs)


def rlc_bus_modes(r: float, x: float, b: float, omega_b: float) -> np.ndarray:
    """Exact modes of a single bus with a shunt capacitor and a shunt RL.

    det(Y_c + Y_rl) = 0 iff det(Y_c Z_rl + I) = 0.  Both factors are of the
    rotational form alpha I + beta J, whose determinant is alpha^2 + beta^2
    = (alpha + i beta)(alpha - i beta); collecting alpha + i beta in powers
    of s gives one quadratic, the other factor contributes the conjugate
    roots.  Returns all four roots.
    """
    c2 = b * x / omega_b ** 2
    c1 = b * (r + 2j * x) / omega_b
    c0 = 1.0 - b * x + 1j * b * r
    roots = np.roots([c2, c1, c0])
    return np.concatenate([roots, roots.conj()])


def _match_step(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Index permutation aligning nxt to the tracks ending at prev.

    Greedy nearest-neighbour; falls back to a minimal-total-displacement
    assignment when greedy collides or two candidates are closer than
    half the minimum inter-eigenvalue spacing.
    """
    m = prev.size
    dist = np.abs(prev[:, None] - nxt[None, :])
    choice = np.argmin(dist, axis=1)
    ambiguous = len(set(choice.tolist())) != m
    if not ambiguous and m > 1:
        sep = np.abs(nxt[:, None] - nxt[None, :])
        np.fill_diagonal(sep, np.inf)
        ranked = np.sort(dist, axis=1)
        ambiguous = bool(np.any(ranked[:, 1] - ranked[:, 0] < 0.5 * sep.min()))
    if ambiguous:
        rows, cols = linear_sum_assignment(dist)
        choice = cols[np.argsort(rows)]
    return choice


def track_loci_sequential(per_freq) -> np.ndarray:
    """Eigenvalue sets per frequency matched into tracks (m, K), one step
    at a time."""
    m = per_freq[0].size
    loci = np.empty((m, len(per_freq)), dtype=complex)
    loci[:, 0] = per_freq[0]
    for k in range(1, len(per_freq)):
        loci[:, k] = per_freq[k][_match_step(loci[:, k - 1], per_freq[k])]
    return loci


def mode_scan_sequential(
    network,
    omega_b: float,
    re_range: tuple[float, float] = (-500.0, 200.0),
    im_range: tuple[float, float] = (0.0, 2.0 * math.pi * 500.0),
    n_re: int = 7,
    n_im: int = 11,
) -> ModeScan:
    """The seeded mode scan as a plain loop: refine_mode from one seed after
    another, in seed order."""
    re_lo, re_hi = re_range
    im_lo, im_hi = im_range
    pad_re = 0.2 * (re_hi - re_lo) + omega_b
    pad_im = 0.2 * (im_hi - im_lo) + omega_b
    region = (re_lo - pad_re, re_hi + pad_re, im_lo - pad_im, im_hi + pad_im)

    found: list[ModeEstimate] = []
    for sig in np.linspace(re_lo, re_hi, n_re):
        for omg in np.linspace(im_lo, im_hi, n_im):
            try:
                est = refine_mode(network, complex(sig, omg), omega_b, region=region)
            except (NoConvergenceError, OutOfRegionError):
                continue
            if not est.converged:
                continue
            if est.lam.imag < 0:
                # real-coefficient models: fold onto the implied conjugate
                est = ModeEstimate(lam=est.lam.conjugate(), residual=est.residual,
                                   converged=est.converged, iterations=est.iterations)
            dup = any(
                abs(est.lam - kept.lam) <= 1e-6 * max(abs(est.lam), omega_b)
                for kept in found
            )
            if not dup:
                found.append(est)
    unstable = any(m.lam.real > UNSTABLE_RE_RTOL * omega_b for m in found)
    return ModeScan(modes=tuple(found), unstable=unstable)


def gnc_auto_doubling(network, f_min_hz: float = 1e-2, f_max_hz: float = 1e4,
                      points: int = 800, max_doublings: int = 6):
    """GNC on log grids of points * 2**level points, each solved from
    scratch, until the winding count is unambiguous."""
    for level in range(max_doublings + 1):
        try:
            return gnc(network, log_omega_grid(f_min_hz, f_max_hz, points * 2 ** level))
        except RefineGridError as exc:
            last = exc
    raise RefineGridError(f"{last} (after {max_doublings + 1} grids, "
                          f"up to {points * 2 ** max_doublings} points)") from last


def series_path_pointwise(color, xs, ys, sx, sy) -> str:
    """An SVG series path built one sample at a time: sx and sy map one
    value, and every finite point is formatted on its own."""
    parts = []
    pen_down = False
    for x, y in zip(xs, ys):
        px = sx(x) if math.isfinite(x) else math.nan
        py = sy(y) if math.isfinite(y) else math.nan
        if not (math.isfinite(px) and math.isfinite(py)):
            pen_down = False
            continue
        parts.append(f"{'L' if pen_down else 'M'}{px:.2f} {py:.2f}")
        pen_down = True
    return (f'<path class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" d="{" ".join(parts)}"/>')


def adjugate_cofactor(a: np.ndarray) -> np.ndarray:
    """Adjugate by cofactors: minor determinants for n <= 8; above that,
    each cofactor is the LU determinant of A with one column replaced by a
    unit vector (the package takes one SVD at every size)."""
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    adj = np.empty((n, n), dtype=complex)
    if n <= 8:
        for i in range(n):
            for j in range(n):
                keep_r = [r for r in range(n) if r != i]
                keep_c = [c for c in range(n) if c != j]
                adj[j, i] = (-1) ** (i + j) * np.linalg.det(a[np.ix_(keep_r, keep_c)])
    else:
        work = np.array(a, dtype=complex)
        for j in range(n):
            col = work[:, j].copy()
            for i in range(n):
                work[:, j] = 0.0
                work[i, j] = 1.0
                adj[j, i] = np.linalg.det(work)
            work[:, j] = col
    return adj


def incidence(network) -> np.ndarray:
    """Signed branch-bus incidence, 2B x 2N, made of +-I2 blocks (the
    package scatters each branch's blocks straight into Y_n)."""
    nb, nn = len(network.branches), network.n_buses
    inc = np.zeros((2 * nb, 2 * nn))
    for k, br in enumerate(network.branches):
        i, j = network.bus_index(br.from_bus), network.bus_index(br.to_bus)
        inc[2 * k:2 * k + 2, 2 * i:2 * i + 2] = np.eye(2)
        inc[2 * k:2 * k + 2, 2 * j:2 * j + 2] = -np.eye(2)
    return inc


def component_refs(network) -> list[tuple]:
    """(name, kind, bus indices, model) of every component, in the order
    components() lists them: devices by their own names, branches as
    from-to#k with a per-pair counter k, shunts as sh@bus."""
    refs = [(d.name, "device", (network.bus_index(d.bus),), d.model) for d in network.devices]
    pairs = {}
    for br in network.branches:
        pair = (br.from_bus, br.to_bus)
        pairs[pair] = pairs.get(pair, 0) + 1
        refs.append((f"{br.from_bus}-{br.to_bus}#{pairs[pair]}", "branch",
                     (network.bus_index(br.from_bus), network.bus_index(br.to_bus)), br.model))
    return refs + [(f"sh@{sh.bus}", "shunt", (network.bus_index(sh.bus),), sh.model)
                   for sh in network.shunts]
