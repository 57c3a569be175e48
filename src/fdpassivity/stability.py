"""Frequency-domain stability toolkit over the nodal admittance model.

Four instruments, all driven by the same network description:

- Generalized Nyquist: eigenloci of the loop gain L(s) = Z_net(s) Y_a(s),
  tracked continuously in frequency; the interconnection is stable iff
  the loci do not encircle (-1, 0), assuming both subsystems are
  standalone stable (asserted by the caller, not verified here).
- Participation factors of the critical (smallest-modulus) eigenvalue of
  Y_n(s), from the left/right eigenvector product with psi Phi = I.
- The compensation coefficient xi = -tr(adj(Y_n)) / det'(Y_n) that turns
  critical-eigenvalue sensitivities into mode sensitivities
  d lambda / d Y_n[i, j] = xi * P[i, j].
- Muller iteration on det Y_n(s) to refine system modes (zeros of the
  determinant), plus a seeded scan that harvests distinct modes from a
  region of the complex plane.

GNC evaluates its grid in the blocks of the values-only passivity sweeps
(passivity.eigenvalue_blocks): one stacked loop gain and one batched
eigenvalue solve (no eigenvectors) per block, spread over worker threads
by parallel_map, with the same bits for any worker count.  gnc_auto
refines adaptively on one nested log grid: a refused pass bisects only
the intervals the guards flag, a count found after any refinement stands
only if one more pass that halves every interval gives it again, and
max_doublings caps how often an interval is halved.  Each pass solves the
loop gain only at its new points.
The loci tracker decides every greedy step at once and composes the
step permutations by a prefix scan; only steps whose greedy match
collides are settled one at a time.  The mode scan runs the Muller searches
of all its seeds in lockstep: each round evaluates det Y_n at the next
point of every live search as one stack, again without the points a
device guard names (one live search as a point); a seed that meets a
point where det Y_n is not evaluable is re-run alone by refine_mode.  xi
evaluates its four difference points as one stack and takes adj(Y_n)
from one SVD (numerics.adjugate, O(n^3) at any size); refine_mode and the
participation factors work at one s.

Winding numbers come from summed principal-value angle increments around
(-1, 0) along the positive-frequency sweep; the negative-frequency half
is its conjugate mirror and contributes the same total, and the two
junction segments (near omega = 0 and at the sweep end) are closed
analytically.  Any ambiguity (angle jump near pi, large displacement
close to the critical point, or a winding sum far from an integer)
raises RefineGrid instead of guessing; a refusal by the first two
guards names the grid intervals they flag.
"""

from __future__ import annotations

import cmath
import itertools
import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .errors import (
    DefectiveMatrixError,
    NoConvergenceError,
    NonFiniteError,
    OutOfRegionError,
    RefineGridError,
    SingularMatrixError,
    ZeroDenominatorError,
)
from .network import Network, assemble_devices, assemble_net, assemble_nodal
from .numerics import adjugate, determinant, eigenvalues, general_eigen, inverse
from .passivity import eigenvalue_blocks, frequency_blocks, log_omega_grid, log_omega_points

CRITICAL = -1.0 + 0.0j

# A mode counts as unstable when its real part clears this fraction of
# omega_b; far below physical damping scales, far above eigenvalue noise.
UNSTABLE_RE_RTOL = 1e-6

# Muller steps a mode search may take before it counts as not converged.
MAX_ITERATIONS = 100

# What makes det Y_n not evaluable at a point: device poles make det Y_n
# meromorphic, so an exact pole hit raises deep in a model, and a near one
# can overflow an entry of Y_n.  Any other error propagates.
NOT_EVALUABLE = (ZeroDivisionError, ValueError, SingularMatrixError, NonFiniteError)


def loop_gain(network: Network, s) -> np.ndarray:
    """L = Z_net Y_a at a scalar s, (2N, 2N), or at each of a 1-D array of
    s, (M, 2N, 2N); raises SingularMatrixError at a network resonance."""
    return inverse(assemble_net(network, s)) @ assemble_devices(network, s)


@dataclass(frozen=True, eq=False)
class LoopGainLoci:
    """Eigenvalues of L(j omega) matched into continuous tracks."""

    omegas: np.ndarray  # ascending, rad/s
    loci: np.ndarray    # (n_tracks, n_freqs) complex


@dataclass(frozen=True)
class GncVerdict:
    """Winding count of all loci around (-1, 0) and the verdict it implies."""

    encirclements: int
    stable: bool
    winding_float: float          # pre-rounding sum; far from integer => RefineGrid
    min_critical_distance: float  # closest approach of any locus to (-1, 0)


def _match_tracks(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Index permutation aligning nxt to the tracks ending at prev with the
    minimal total displacement.

    scipy is imported here, not at module load: this runs only on tracking
    steps whose greedy match collides, so importing the package loads numpy
    alone, and scipy is loaded on the first such step.
    """
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(np.abs(prev[:, None] - nxt[None, :]))
    return cols[np.argsort(rows)]


def _track_loci(values: np.ndarray) -> np.ndarray:
    """Match the eigenvalues (K, m) at K frequencies into m continuous
    tracks, (m, K).

    Each step is greedy nearest-neighbour, and falls back to _match_tracks
    only when greedy collides (two tracks pick one eigenvalue); a greedy
    permutation already has the minimal total displacement.  The greedy
    choice depends only on the two eigenvalue sets, not on the track
    order, so it is decided for all steps first, in the frequency blocks
    of the sweeps: the distance tables then take at most
    passivity.BLOCK_BYTES at a time, plus O(K m) for the result.  A step's
    track permutation is the greedy choice composed with the previous one;
    between colliding steps these compositions come from one prefix scan,
    and only the colliding steps are matched one at a time.
    """
    k_count, m = values.shape
    before, after = values[:-1], values[1:]
    choice = np.empty((k_count - 1, m), dtype=np.intp)
    for rows in frequency_blocks(k_count - 1, m):
        choice[rows] = np.argmin(np.abs(before[rows, :, None] - after[rows, None, :]), axis=2)
    picked = np.sort(choice, axis=1)
    ambiguous = np.flatnonzero(np.any(picked[:, 1:] == picked[:, :-1], axis=1)) + 1
    perms = np.empty((k_count, m), dtype=np.intp)
    perms[0] = np.arange(m)
    start = 0
    for stop in [*ambiguous.tolist(), k_count]:
        # greedy steps start+1 .. stop-1, then the colliding step stop
        perms[start + 1:stop] = _compose_prefix(choice[start:stop - 1])[:, perms[start]]
        if stop < k_count:
            perms[stop] = _match_tracks(values[stop - 1, perms[stop - 1]], values[stop])
        start = stop
    # C order: gnc's angle sums add in memory order, so the layout sets the
    # last bits of winding_float
    return np.ascontiguousarray(np.take_along_axis(values, perms, axis=1).T)


def _compose_prefix(steps: np.ndarray) -> np.ndarray:
    """Row j of the result is steps[j] o steps[j - 1] o ... o steps[0], where
    (p o q)[i] = p[q[i]]; a Hillis-Steele scan in log2(len(steps)) passes."""
    out = steps.copy()
    span = 1
    while span < len(out):
        out[span:] = np.take_along_axis(out[span:], out[:-span], axis=1)
        span *= 2
    return out


def _loop_gain_eigenvalues(network: Network, omegas: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of L(j omega) at each omega, (K, 2N): one stacked
    loop gain and one stacked eigenvalue solve per frequency block."""
    return np.concatenate(parallel_map(
        lambda rows: eigenvalues(loop_gain(network, 1j * omegas[rows])),
        eigenvalue_blocks(omegas.size, 2 * network.n_buses)))


def _winding_verdict(omegas: np.ndarray, loci: np.ndarray) -> GncVerdict:
    """The verdict tracked loci give on omegas, or RefineGridError naming
    the intervals k (omegas[k] to omegas[k + 1]) that the displacement and
    angle guards flag; a refusal for another reason names none."""
    rel = loci - CRITICAL
    dist = np.abs(rel)
    min_dist = float(dist.min())
    if min_dist == 0.0:
        raise RefineGridError("an eigenlocus sample hit (-1, 0) exactly")

    # Grid-density guard near the critical point.
    step = np.abs(np.diff(loci, axis=1))
    near = np.minimum(dist[:, :-1], dist[:, 1:])
    coarse = ((near < 1.0) & (step >= 0.25 * near)).any(axis=0)
    angles = np.angle(rel[:, 1:] / rel[:, :-1])
    jumps = (np.abs(angles) > 0.95 * math.pi).any(axis=0)
    for guard, text in ((coarse, "eigenlocus displacement exceeds a quarter of the distance "
                                 "to (-1, 0)"),
                        (jumps, "angle increment around (-1, 0) near pi")):
        if guard.any():
            k = int(np.argmax(guard))
            raise RefineGridError(f"{text} between omega={omegas[k]:.6g} and "
                                  f"omega={omegas[k + 1]:.6g} rad/s",
                                  intervals=np.flatnonzero(coarse | jumps))

    # Conjugate closure: the negative-frequency mirror repeats the swept
    # total, and the junction segments contribute the angle between each
    # endpoint and its conjugate; both halves fold into a division by pi.
    swept = float(angles.sum())
    junction = float(np.angle(rel[:, 0]).sum() - np.angle(rel[:, -1]).sum())
    winding_float = (swept + junction) / math.pi
    encirclements = round(winding_float)
    if abs(winding_float - encirclements) > 0.25:
        raise RefineGridError(
            f"winding sum {winding_float:.3f} is not close to an integer; "
            f"the sweep span or density is insufficient"
        )
    return GncVerdict(
        encirclements=encirclements,
        stable=(encirclements == 0),
        winding_float=winding_float,
        min_critical_distance=min_dist,
    )


def gnc(network: Network, omegas, *, values=None) -> tuple[LoopGainLoci, GncVerdict]:
    """Generalized Nyquist verdict on a fixed positive-frequency grid.

    values, when given, are the loop-gain eigenvalues (K, 2N) on omegas
    as _loop_gain_eigenvalues gives them; they are computed when omitted.
    Raises RefineGrid when the grid is too coarse to count windings
    unambiguously; see gnc_auto for self-refining behavior.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size < 2:
        raise ValueError("need an ascending grid of at least 2 frequencies")
    if np.any(omegas <= 0) or np.any(np.diff(omegas) <= 0):
        raise ValueError("frequencies must be positive and strictly increasing")

    if values is None:
        values = _loop_gain_eigenvalues(network, omegas)
    elif np.shape(values) != (omegas.size, 2 * network.n_buses):
        raise ValueError("values must hold the 2N loop-gain eigenvalues at each frequency")
    loci = _track_loci(values)
    return LoopGainLoci(omegas=omegas, loci=loci), _winding_verdict(omegas, loci)


def gnc_auto(
    network: Network,
    f_min_hz: float = 1e-2,
    f_max_hz: float = 1e4,
    points: int = 800,
    max_doublings: int = 6,
) -> tuple[LoopGainLoci, GncVerdict]:
    """GNC on a log grid, refined where the guards flag it until the
    winding count is unambiguous; raises RefineGrid with the last pass's
    reason when refinement hits the depth cap.

    Every grid is a subset of the finest nested grid,
    log_omega_grid(f_min_hz, f_max_hz, (points - 1) * 2**max_doublings + 1);
    the first takes every 2**max_doublings-th point of it, which is
    log_omega_grid(f_min_hz, f_max_hz, points) to the bit, so an interval
    is bisected at most max_doublings times.  A refused pass bisects the
    intervals the displacement and angle guards flag, or every interval
    when the refusal names none (a winding sum far from an integer).
    After any refinement a count is accepted only when one more pass that
    bisects every interval passes the guards with the same count; an
    unflagged interval can hide a jump that no guard sees until it is
    halved.  Each pass solves the loop gain only at its new points, and
    its result is gnc's on its grid, to the bit.
    """
    finest = (points - 1) * 2 ** max_doublings + 1
    idx = np.arange(0, finest, 2 ** max_doublings)
    omegas = log_omega_grid(f_min_hz, f_max_hz, points)
    values = _loop_gain_eigenvalues(network, omegas)
    candidate = None
    for passes in itertools.count(1):
        try:
            loci, verdict = gnc(network, omegas, values=values)
        except RefineGridError as exc:
            # kept without its traceback: that holds this frame and its
            # callers', a cycle that would keep their arrays alive until the
            # cyclic collector runs, also after a later pass succeeds
            last, candidate = exc.with_traceback(None), None
            bisect = np.asarray(exc.intervals, dtype=np.intp)
            if bisect.size == 0:
                bisect = np.arange(idx.size - 1)
        else:
            if passes == 1 or verdict.encirclements == candidate:
                return loci, verdict
            candidate = verdict.encirclements
            bisect = np.arange(idx.size - 1)
        bisect = bisect[np.diff(idx)[bisect] > 1]
        if bisect.size == 0:
            if candidate is not None:  # the whole finest grid: no halving left to confirm on
                return loci, verdict
            raise RefineGridError(f"{last} (after {passes} grids, "
                                  f"up to {omegas.size} points)") from last
        mids = (idx[bisect] + idx[bisect + 1]) // 2
        new = log_omega_points(f_min_hz, f_max_hz, finest, mids)
        idx = np.insert(idx, bisect + 1, mids)
        omegas = np.insert(omegas, bisect + 1, new)
        values = np.insert(values, bisect + 1, _loop_gain_eigenvalues(network, new), axis=0)


@dataclass(frozen=True, eq=False)
class FdParticipation:
    """Participation factors of the critical eigenvalue of Y_n(s).

    matrix[i, j] = psi_c[i] * phi_c[j] with psi the left eigenvector row
    normalized by psi Phi = I; its diagonal sums to 1.  tied_with lists
    other eigenvalues whose modulus matches the critical one within
    tolerance; a tie is reported, never silently resolved.
    """

    s: complex
    eigenvalues: np.ndarray
    critical_index: int
    tied_with: tuple[int, ...]
    matrix: np.ndarray  # (2N, 2N) complex

    @property
    def critical_value(self) -> complex:
        return complex(self.eigenvalues[self.critical_index])

    def bus_block(self, i: int, j: int) -> np.ndarray:
        return self.matrix[2 * i:2 * i + 2, 2 * j:2 * j + 2]

    def diagonal_by_bus(self) -> np.ndarray:
        n = self.matrix.shape[0] // 2
        return np.array([np.trace(self.bus_block(k, k)) for k in range(n)])


def fd_pf(network: Network, s: complex) -> FdParticipation:
    """Participation factors at any complex frequency (s = j omega for a
    frequency reading, s = lambda for a full-modal reading)."""
    eig = general_eigen(assemble_nodal(network, s))
    if eig.defective:
        raise DefectiveMatrixError(
            f"nodal admittance eigenvectors are numerically defective at s={s:.6g}"
        )
    mods = np.abs(eig.values)
    c = int(np.argmin(mods))
    scale = float(mods.max())
    tol = 1e-6 * (scale if scale > 0 else 1.0)
    tied = tuple(int(k) for k in np.flatnonzero(mods - mods[c] <= tol) if k != c)
    p = np.outer(eig.left[c, :], eig.right[:, c])
    return FdParticipation(
        s=complex(s),
        eigenvalues=eig.values,
        critical_index=c,
        tied_with=tied,
        matrix=p,
    )


def _det_nudged(network: Network, s: complex, span: float) -> tuple[complex, complex] | None:
    """Evaluate det Y_n at s, stepping off non-evaluable points.

    Returns (point actually used, value) or None when a small
    neighborhood is not evaluable either.
    """
    x = complex(s)
    for attempt in range(4):
        val = complex(_det_stack(network, np.array([x]))[0])
        if cmath.isfinite(val):
            return x, val
        x = complex(s) + span * 1e-3 * (attempt + 1) * complex(1.0, 1.0)
    return None


def _det_stack(network: Network, s: np.ndarray) -> np.ndarray:
    """det Y_n at each point of a 1-D array s; NaN where that point alone
    raises NOT_EVALUABLE or gives a Y_n with a non-finite entry.  A stack of
    one is evaluated as a point; a larger one per frequency block, again
    without the points a NOT_EVALUABLE error names, until none is refused."""
    if s.size == 1:
        with suppress(*NOT_EVALUABLE):
            return np.array([determinant(assemble_nodal(network, complex(s[0])))])
        return np.array([complex(math.nan, math.nan)])
    dets = np.full(s.shape, complex(math.nan, math.nan))
    for rows in frequency_blocks(s.size, 2 * network.n_buses):
        live = np.arange(s.size)[rows]
        while True:
            try:
                y = assemble_nodal(network, s[live])
                break
            except NOT_EVALUABLE as exc:
                if getattr(exc, "points", None) is None:  # no telling which point to drop
                    raise
                live = live[~exc.points.reshape(live.size, -1).any(axis=1)]
        try:
            dets[live] = determinant(y)
        except NonFiniteError:  # an overflow; checking every block first would cost more
            finite = np.isfinite(y).all(axis=(-2, -1))
            dets[live[finite]] = determinant(y[finite])
        del y  # freed before the next block is assembled, which then reuses its memory
    return dets


def xi_coefficient(network: Network, lam: complex, omega_b: float) -> complex:
    """xi = -tr(adj(Y_n(lambda))) / det'(lambda).

    The determinant derivative uses central differences with step
    h = 1e-6 * max(|lambda|, omega_b) and one Richardson level; the four
    determinants come from one stacked evaluation.
    """
    h = 1e-6 * max(abs(lam), omega_b)
    fp, fm, fp2, fm2 = (complex(f) for f in determinant(assemble_nodal(
        network, np.array([lam + h, lam - h, lam + h / 2.0, lam - h / 2.0]))))

    def quotient(fp: complex, fm: complex, step: float) -> tuple[complex, float]:
        return (fp - fm) / (2.0 * step), max(abs(fp), abs(fm))

    d_h, m1 = quotient(fp, fm, h)
    d_h2, m2 = quotient(fp2, fm2, h / 2.0)
    d = (4.0 * d_h2 - d_h) / 3.0
    scale = max(m1, m2) / h
    if abs(d) < 1e-14 * max(scale, 1e-300):
        raise ZeroDenominatorError(
            f"determinant derivative vanishes at lambda={lam:.6g}; xi undefined"
        )
    return -complex(np.trace(adjugate(assemble_nodal(network, lam)))) / d


def mode_admittance_sensitivity(network: Network, lam: complex, omega_b: float) -> np.ndarray:
    """Entrywise mode sensitivity d lambda / d Y_n[i, j] = xi * P[i, j],
    evaluated full-modally at a refined mode lambda."""
    xi = xi_coefficient(network, lam, omega_b)
    return xi * fd_pf(network, lam).matrix


@dataclass(frozen=True)
class ModeEstimate:
    """One refined zero of det Y_n(s)."""

    lam: complex       # rad/s
    residual: float    # |det Y_n(lam)|
    converged: bool
    iterations: int

    @property
    def frequency_hz(self) -> float:
        return abs(self.lam.imag) / (2.0 * math.pi)


def _in_region(s: complex, region) -> bool:
    re_lo, re_hi, im_lo, im_hi = region
    return re_lo <= s.real <= re_hi and im_lo <= s.imag <= im_hi


def _muller_start(s0: complex, omega_b: float) -> tuple[float, tuple[complex, ...]]:
    """The base step d of a search from seed s0 and its three start points."""
    d = 1e-4 * max(abs(s0), omega_b)
    return d, (s0 - d, s0 + d, s0)


class _Muller:
    """Muller iteration on det Y_n from three evaluated start points.

    propose() gives the next iterate and accept() takes det Y_n there,
    returning the estimate once the step has shrunk.  refine_mode feeds
    one search one point at a time; mode_scan feeds all its seeds'
    searches one stack per round.  Both take the same steps in the same
    scalar complex arithmetic.
    """

    def __init__(self, xs, fs, d: float, omega_b: float, region):
        self.xs, self.fs = list(xs), list(fs)
        self.fscale = max(max(abs(f) for f in fs), 1e-300)
        self.d, self.omega_b, self.region = d, omega_b, region
        self.iterations = 0

    def propose(self) -> complex:
        """The next iterate; raises NonFiniteError, or OutOfRegionError when
        it leaves the region."""
        self.iterations += 1
        it = self.iterations
        (x0, x1, x2), (f0, f1, f2) = self.xs, [f / self.fscale for f in self.fs]
        if x1 == x0 or x2 == x1:
            x3 = x2 + self.d * (1 + it)
        else:
            q = (x2 - x1) / (x1 - x0)
            a = q * f2 - q * (1 + q) * f1 + q * q * f0
            b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
            c = (1 + q) * f2
            disc = cmath.sqrt(b * b - 4 * a * c)
            den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
            if den == 0:
                x3 = x2 + (x2 - x1)
            else:
                x3 = x2 - (x2 - x1) * (2 * c / den)
        if not (math.isfinite(x3.real) and math.isfinite(x3.imag)):
            raise NonFiniteError("Muller iterate became non-finite")
        if self.region is not None and not _in_region(x3, self.region):
            raise OutOfRegionError(
                f"iterate {x3:.6g} left the search region after {it} iterations"
            )
        return x3

    def accept(self, x3: complex, f3: complex) -> ModeEstimate | None:
        """Take det Y_n(x3) = f3, x3 being the proposal or a point nudged off
        it; the estimate once the step shrank to 1e-9 * max(|x3|, omega_b)."""
        x2 = self.xs[2]
        self.fscale = max(self.fscale, abs(f3))
        self.xs = [self.xs[1], x2, x3]
        self.fs = [self.fs[1], self.fs[2], f3]
        if abs(x3 - x2) > 1e-9 * max(abs(x3), self.omega_b):
            return None
        residual = abs(f3)
        return ModeEstimate(lam=x3, residual=residual,
                            converged=(residual <= 1e-8 * self.fscale),
                            iterations=self.iterations)

    @property
    def partial(self) -> ModeEstimate:
        """The latest point, unconverged."""
        return ModeEstimate(lam=self.xs[2], residual=abs(self.fs[2]), converged=False,
                            iterations=self.iterations)


def _not_converged(s0, search: _Muller) -> NoConvergenceError:
    return NoConvergenceError(
        f"Muller did not converge from seed {s0:.6g} in {search.iterations} iterations",
        partial=search.partial,
    )


def refine_mode(
    network: Network,
    s0: complex,
    omega_b: float,
    region=None,
    max_iterations: int = MAX_ITERATIONS,
) -> ModeEstimate:
    """Muller iteration on det Y_n(s) from seed s0.

    region, when given, is (re_min, re_max, im_min, im_max); iterates
    leaving it raise OutOfRegion.  Converged means the step shrank to
    1e-9 * max(|s|, omega_b) and the residual is small against the
    largest determinant magnitude seen during the search.  A point where
    det Y_n is not evaluable is nudged off (see _det_nudged).
    """
    if region is not None and not _in_region(complex(s0), region):
        raise OutOfRegionError(f"seed {s0:.6g} outside the search region")

    d, starts = _muller_start(complex(s0), omega_b)
    xs, fs = [], []
    for x in starts:
        got = _det_nudged(network, x, d)
        if got is None:
            raise NoConvergenceError(
                f"determinant not evaluable near seed {s0:.6g}", partial=None
            )
        xs.append(got[0])
        fs.append(got[1])
    search = _Muller(xs, fs, d, omega_b, region)

    for _ in range(max_iterations):
        x3 = search.propose()
        got = _det_nudged(network, x3, max(abs(x3 - search.xs[2]), d))
        if got is None:
            raise NoConvergenceError(
                f"determinant not evaluable near iterate {x3:.6g}", partial=search.partial
            )
        est = search.accept(*got)
        if est is not None:
            return est
    raise _not_converged(s0, search)


def _lockstep(network: Network, seeds, omega_b: float, region) -> list:
    """Muller from every seed at once, one stacked det Y_n per round.

    Gives, per seed, what refine_mode(network, seed, omega_b, region)
    would: its ModeEstimate or the exception it would raise.  None marks a
    seed that met a point where det Y_n is not evaluable: refine_mode's
    nudging decides such a seed, so the caller runs it alone.  Every seed
    must lie in the region.  An error that _det_stack raises propagates.
    """
    outcomes: list = [None] * len(seeds)
    starts = [_muller_start(s0, omega_b) for s0 in seeds]
    dets = _det_stack(network, np.array([x for _, xs in starts for x in xs],
                                        dtype=complex)).reshape(-1, 3)
    searches = {k: _Muller(xs, [complex(f) for f in fs], d, omega_b, region)
                for k, ((d, xs), fs) in enumerate(zip(starts, dets)) if np.all(np.isfinite(fs))}

    for _ in range(MAX_ITERATIONS):
        if not searches:
            break
        proposed = {}
        for k, search in searches.items():
            try:
                proposed[k] = search.propose()
            except (NonFiniteError, OutOfRegionError) as exc:
                # kept without its traceback: that holds this frame, which
                # holds outcomes, a cycle that would keep every round's
                # stacks alive until the cyclic collector runs
                outcomes[k] = exc.with_traceback(None)
        dets = _det_stack(network, np.array(list(proposed.values()), dtype=complex))
        live = {}
        for (k, x3), f3 in zip(proposed.items(), dets):
            if not np.isfinite(f3):
                continue
            est = searches[k].accept(x3, complex(f3))
            if est is None:
                live[k] = searches[k]
            else:
                outcomes[k] = est
        searches = live
    for k, search in searches.items():
        outcomes[k] = _not_converged(seeds[k], search)
    return outcomes


@dataclass(frozen=True)
class ModeScan:
    """Distinct converged modes harvested from a seeded region scan."""

    modes: tuple[ModeEstimate, ...]
    unstable: bool


def mode_scan(
    network: Network,
    omega_b: float,
    re_range: tuple[float, float] = (-500.0, 200.0),
    im_range: tuple[float, float] = (0.0, 2.0 * math.pi * 500.0),
    n_re: int = 7,
    n_im: int = 11,
) -> ModeScan:
    """Refine modes from a rectangular seed grid (upper half-plane; the
    conjugate partners are implied) and deduplicate the results.

    Every seed's Muller search advances in lockstep with the others, one
    stacked det Y_n per round, and gives what refine_mode from that seed
    gives, to the bit; results are taken in seed order, so an error a
    search raises, other than failing or wandering off, is raised as a
    loop over the seeds would raise it.  An error det Y_n raises that does
    not mark it not evaluable (a black box off the j omega axis) is raised
    by the first stacked evaluation that meets it.  Seeds that fail to
    converge or wander off are dropped; the scan is a coverage tool, not a
    completeness proof.
    """
    re_lo, re_hi = re_range
    im_lo, im_hi = im_range
    pad_re = 0.2 * (re_hi - re_lo) + omega_b
    pad_im = 0.2 * (im_hi - im_lo) + omega_b
    region = (re_lo - pad_re, re_hi + pad_re, im_lo - pad_im, im_hi + pad_im)

    seeds = [complex(sig, omg) for sig in np.linspace(re_lo, re_hi, n_re)
             for omg in np.linspace(im_lo, im_hi, n_im)]
    found: list[ModeEstimate] = []
    for s0, est in zip(seeds, _lockstep(network, seeds, omega_b, region)):
        if est is None:
            try:
                est = refine_mode(network, s0, omega_b, region=region)
            except (NoConvergenceError, OutOfRegionError):
                continue
        if isinstance(est, (NoConvergenceError, OutOfRegionError)):
            continue
        if isinstance(est, Exception):
            raise est
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
