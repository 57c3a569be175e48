"""Multi-bus network assembly, nodal passivity and component sensitivity.

Buses carry a 2-dimensional dq coordinate pair, so an N-bus network lives
in a 2N-dimensional space.  The nodal admittance splits as

    Y_n(s) = Y_e(s) + Y_c(s) + Y_a(s)

where Y_e = Inc^T diag(Y_branch) Inc collects the series branches through
the signed incidence matrix, Y_c the network shunts, and Y_a the active
devices (block diagonal over their buses).  Y_net = Y_e + Y_c is the
passive network seen by the devices.

The nodal passivity index is the minimum eigenvalue of H_n = Y_n +
Y_n^dagger.  Because Y_n is linear in each component's 2x2 admittance,
the sensitivity of the index to a component perturbation dY needs only
the bus sub-vectors of the global minimum eigenvector phi:

    shunt-connected at bus i:  d index = phi_i^dagger (dY + dY^dagger) phi_i
    branch between i and j:    d index = (phi_i - phi_j)^dagger (dY + dY^dagger) (phi_i - phi_j)

The branch form is the incidence sandwich Inc^T (E_k (x) dH) Inc collapsed
onto the only two bus blocks the branch touches.  Scaling every component
admittance by a common factor scales Y_n by it, so the directional
sensitivities along each component's own admittance (its participation)
sum exactly to the index.

Assembly takes a scalar s or a 1-D array of s; an array gives the stacked
(M, 2N, 2N) matrices, built from one stacked admittance evaluation per
component and one scatter into a zero-filled stack.  The nodal sweep
evaluates every component admittance once per chunk of its grid
(passivity.frequency_chunks); the chunk's blocks (frequency_blocks) only
scatter those values into Y_n and solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .devices import DeviceModel, combine, param_derivative
from .errors import UnknownBusError, UnknownComponentError
# inverse is unused here, but bench/tracing.py hooks network.inverse
from .numerics import hermitian_eigen, inverse  # noqa: F401
from .passivity import (
    IndexSweep,
    SensitivitySeries,
    frequency_blocks,
    frequency_chunks,
    hermitian_part,
    is_degenerate,
    join_blocks,
    quadratic_form,
)


@dataclass(frozen=True)
class Branch:
    """Series element between two distinct buses."""

    from_bus: str
    to_bus: str
    model: DeviceModel


@dataclass(frozen=True)
class Shunt:
    """Passive network shunt at a bus."""

    bus: str
    model: DeviceModel


@dataclass(frozen=True)
class Device:
    """Named active device (converter, grid equivalent) shunt-connected at a bus."""

    bus: str
    name: str
    model: DeviceModel


@dataclass(frozen=True)
class ComponentRef:
    """Uniform handle on any network component for sensitivity work."""

    name: str
    kind: str                 # "device" | "branch" | "shunt"
    buses: tuple[int, ...]    # one bus index, or (from, to) for a branch
    model: DeviceModel


def _evaluate(evaluators, s) -> np.ndarray:
    """The admittances of the models behind evaluators (devices.combine) at
    s, one call each, in evaluator order: (K, 2, 2), or (M, K, 2, 2)."""
    stacks = [m.admittance(np.asarray(s)[..., None]) if combined
              else m.admittance(s)[..., None, :, :] for m, _, combined in evaluators]
    return np.concatenate(stacks, axis=-3) if stacks else np.zeros(np.shape(s) + (0, 2, 2), complex)


@dataclass(frozen=True)
class _Part:
    """Where one part of Y_n (branches, shunts or devices) goes, resolved once.

    The part's evaluators give its 2x2 admittances in evaluator order (the
    component's slot).  Each round (target, source, op) applies op (add or
    subtract) to entries target of the flattened 2N x 2N matrix and
    entries source of that stack flattened.  No round repeats a target,
    and the rounds run in the order that adds each matrix entry's
    contributions in component order.
    """

    evaluators: tuple
    rounds: tuple

    @classmethod
    def of(cls, n_buses: int, placed) -> "_Part":
        """placed: (model, bus i, bus j or None).  A shunt adds Y at block
        (i, i); a series element adds Y at (i, i) and (j, j) and -Y at
        (i, j) and (j, i)."""
        evaluators = combine([m for m, _, _ in placed])
        slot = {k: n for n, k in enumerate(k for _, ks, _ in evaluators for k in ks)}
        n, rounds, count = 2 * n_buses, {}, {}
        for k, (_, i, j) in enumerate(placed):
            blocks = [(i, i, np.add)] if j is None else [(i, i, np.add), (j, j, np.add),
                                                        (i, j, np.subtract), (j, i, np.subtract)]
            for row, col, op in blocks:
                for p in range(2):
                    for q in range(2):
                        t = (2 * row + p) * n + 2 * col + q
                        count[t] = count.get(t, -1) + 1  # t's earlier contributions
                        target, source = rounds.setdefault((count[t], op), ([], []))
                        target.append(t)
                        source.append(4 * slot[k] + 2 * p + q)
        return cls(tuple(evaluators),
                   tuple((np.array(t, dtype=np.intp), np.array(s, dtype=np.intp), op)
                         for (_, op), (t, s) in rounds.items()))


@dataclass(frozen=True)
class Network:
    """Immutable bus/branch/shunt/device description.

    The bus index of every component is resolved once, here, for
    assembly to read.
    """

    buses: tuple[str, ...]
    branches: tuple[Branch, ...] = ()
    shunts: tuple[Shunt, ...] = ()
    devices: tuple[Device, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "shunts", tuple(self.shunts))
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.buses:
            raise ValueError("network needs at least one bus")
        if len(set(self.buses)) != len(self.buses):
            raise ValueError("bus names must be unique")
        index = {b: k for k, b in enumerate(self.buses)}
        for br in self.branches:
            for b in (br.from_bus, br.to_bus):
                if b not in index:
                    raise UnknownBusError(f"branch endpoint {b!r} is not a bus")
            if br.from_bus == br.to_bus:
                raise ValueError(f"branch endpoints must differ, got {br.from_bus!r} twice")
        seen_shunt = set()
        for sh in self.shunts:
            if sh.bus not in index:
                raise UnknownBusError(f"shunt bus {sh.bus!r} is not a bus")
            if sh.bus in seen_shunt:
                raise ValueError(f"more than one shunt at bus {sh.bus!r}; merge them")
            seen_shunt.add(sh.bus)
        names = set()
        for dev in self.devices:
            if dev.bus not in index:
                raise UnknownBusError(f"device bus {dev.bus!r} is not a bus")
            if dev.name in names:
                raise ValueError(f"duplicate device name {dev.name!r}")
            names.add(dev.name)
        object.__setattr__(self, "_index", index)
        n = len(self.buses)
        object.__setattr__(self, "_parts", (  # the order every Y_n entry sums in
            _Part.of(n, [(br.model, index[br.from_bus], index[br.to_bus]) for br in self.branches]),
            _Part.of(n, [(sh.model, index[sh.bus], None) for sh in self.shunts]),
            _Part.of(n, [(dev.model, index[dev.bus], None) for dev in self.devices]),
        ))

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def bus_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownBusError(f"{name!r} is not a bus") from None


def components(network: Network) -> tuple[ComponentRef, ...]:
    """All components in deterministic order: devices, branches, shunts.

    Devices keep their declared names; branches are named from-to#k with a
    per-pair counter; shunts are named sh@bus.
    """
    refs = []
    for dev in network.devices:
        refs.append(ComponentRef(dev.name, "device", (network.bus_index(dev.bus),), dev.model))
    pair_count: dict[tuple[str, str], int] = {}
    for br in network.branches:
        pair = (br.from_bus, br.to_bus)
        pair_count[pair] = pair_count.get(pair, 0) + 1
        name = f"{br.from_bus}-{br.to_bus}#{pair_count[pair]}"
        refs.append(ComponentRef(
            name, "branch",
            (network.bus_index(br.from_bus), network.bus_index(br.to_bus)),
            br.model,
        ))
    for sh in network.shunts:
        refs.append(ComponentRef(f"sh@{sh.bus}", "shunt", (network.bus_index(sh.bus),), sh.model))
    return tuple(refs)


def component(network: Network, name: str) -> ComponentRef:
    for ref in components(network):
        if ref.name == name:
            return ref
    raise UnknownComponentError(f"no component named {name!r}")


def incidence(network: Network) -> np.ndarray:
    """Signed branch-bus incidence, 2B x 2N, made of +-I2 blocks."""
    nb, nn = len(network.branches), network.n_buses
    inc = np.zeros((2 * nb, 2 * nn))
    for k, br in enumerate(network.branches):
        i, j = network.bus_index(br.from_bus), network.bus_index(br.to_bus)
        inc[2 * k:2 * k + 2, 2 * i:2 * i + 2] = np.eye(2)
        inc[2 * k:2 * k + 2, 2 * j:2 * j + 2] = -np.eye(2)
    return inc


def _assemble(network: Network, s, parts, values=None) -> np.ndarray:
    """The sum of some parts of Y_n at s: (2N, 2N), or (M, 2N, 2N) for M
    values of s, scattered into one zero-filled stack."""
    n = 2 * network.n_buses
    shape = np.shape(s)
    y = np.zeros(shape + (n * n,), dtype=complex)
    if y.size:
        if values is None:
            values = [_evaluate(part.evaluators, s) for part in parts]
        for part, v in zip(parts, values, strict=True):
            v = v.reshape(shape + (-1,)).T  # entries first: the fastest fancy indexing
            for target, source, op in part.rounds:
                y.T[target] = op(y.T[target], v[source])
    return y.reshape(shape + (n, n))


def assemble_devices(network: Network, s) -> np.ndarray:
    """Active-device part Y_a: block diagonal over the device buses."""
    return _assemble(network, s, network._parts[2:])


def assemble_net(network: Network, s) -> np.ndarray:
    """Passive network admittance Y_net = branches + shunts."""
    return _assemble(network, s, network._parts[:2])


def assemble_nodal(network: Network, s, *, values=None) -> np.ndarray:
    """Full nodal admittance Y_n = Y_net + Y_a.  values, when given, are the
    branch, shunt and device stacks at s, as _evaluate gives them for each
    of network._parts; they are evaluated when omitted."""
    if values is not None and any(np.shape(v)[:-3] != np.shape(s) for v in values):
        raise ValueError("values must hold each part's admittances at every s")
    return _assemble(network, s, network._parts, values)


@dataclass(frozen=True)
class NodalSpectrum(IndexSweep):
    """Nodal passivity over a frequency grid with the minimum eigenpair.

    Row k belongs to omegas[k].  Where degenerate[k] is set the minimum
    eigenvalue is not simple, so min_vectors[k] and every sensitivity or
    participation drawn from it are not defined there.
    """

    spectra: np.ndarray      # (M, 2N) eigenvalues of H_n, ascending; spectra[:, 0] == indices
    min_vectors: np.ndarray  # (M, 2N) unit eigenvectors of the minimum eigenvalue
    degenerate: np.ndarray   # (M,) bool


def nodal_passivity_sweep(network: Network, omegas) -> NodalSpectrum:
    """Nodal passivity index and minimum eigenpair over a frequency grid."""
    omegas = np.asarray(omegas, dtype=float)
    n = 2 * network.n_buses

    def block(s, values):
        h = hermitian_part(assemble_nodal(network, s, values=values))
        eig = hermitian_eigen(h)
        # copy the one column so the full eigenvector matrices can be freed
        return (eig.values, eig.min_vector.copy(),
                is_degenerate(eig, np.linalg.norm(h, axis=(-2, -1))))

    def chunk(rows: slice):
        s = 1j * omegas[rows]
        values = [_evaluate(part.evaluators, s) for part in network._parts]
        return [block(s[b], [v[b] for v in values]) for b in frequency_blocks(s.size, n)]

    count = len(network.branches) + len(network.shunts) + len(network.devices)
    chunks = parallel_map(chunk, frequency_chunks(omegas.size, 64 * count))
    spectra, min_vectors, degenerate = join_blocks([row for c in chunks for row in c])
    return NodalSpectrum(
        omegas=omegas,
        indices=spectra[:, 0],
        eigen_gaps=spectra[:, 1] - spectra[:, 0],
        spectra=spectra,
        min_vectors=min_vectors,
        degenerate=degenerate,
    )


def directional_nodal_sensitivity(phi: np.ndarray, ref: ComponentRef, dy: np.ndarray):
    """d index along a 2x2 perturbation dY of any component.

    phi_w^dagger (dY + dY^dagger) phi_w, with phi the unit minimum
    eigenvector of the nodal Hermitian part and phi_w the window the
    component sees: its bus sub-vector, or the difference of the two for a
    branch.  phi (..., 2N) and dY (..., 2, 2) may be stacks over frequency.
    """
    return quadratic_form(_window(phi, ref), np.asarray(dy, dtype=complex))


def _window(phi: np.ndarray, ref: ComponentRef) -> np.ndarray:
    i = 2 * ref.buses[0]
    w = phi[..., i:i + 2]
    if len(ref.buses) == 2:
        j = 2 * ref.buses[1]
        w = w - phi[..., j:j + 2]
    return w


def nodal_param_sensitivity(network: Network, name: str, param_name: str, omegas) -> SensitivitySeries:
    """Nodal index and its derivative w.r.t. one component parameter.

    Degenerate frequencies are flagged per point (derivative NaN) instead
    of aborting the sweep; the derivative is evaluated only off them.
    """
    ref = component(network, name)
    spec = nodal_passivity_sweep(network, omegas)
    ok = ~spec.degenerate
    derivatives = np.full(ok.shape, math.nan)
    dy = param_derivative(ref.model, param_name, 1j * spec.omegas[ok])
    derivatives[ok] = directional_nodal_sensitivity(spec.min_vectors[ok], ref, dy)
    return SensitivitySeries(
        param_name=param_name,
        omegas=spec.omegas,
        indices=spec.indices,
        derivatives=derivatives,
        degenerate=spec.degenerate,
    )


@dataclass(frozen=True)
class ParticipationTable:
    """Component participations in the nodal index over a frequency grid.

    values[c, k] is component c's share at frequency k; at non-degenerate
    frequencies the column sums equal the index exactly (scaling
    homogeneity of the minimum eigenvalue).
    """

    names: tuple[str, ...]
    omegas: np.ndarray
    indices: np.ndarray
    values: np.ndarray      # (len(names), len(omegas))
    degenerate: np.ndarray  # bool per frequency

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.omegas / (2.0 * math.pi)


def participation_sweep(network: Network, omegas) -> ParticipationTable:
    """Component participations across a frequency grid; degenerate points flagged.

    A component's participation is the directional sensitivity along its
    own admittance, i.e. the response to scaling it by (1 + eps).
    """
    refs = components(network)
    spec = nodal_passivity_sweep(network, omegas)
    s = 1j * spec.omegas
    shares = np.empty((len(refs), s.size))
    for m, positions, combined in combine([ref.model for ref in refs]):
        for rows in frequency_chunks(s.size, 64 * len(positions)):
            w = np.stack([_window(spec.min_vectors[rows], refs[k]) for k in positions], axis=-2)
            y = _evaluate([(m, positions, combined)], s[rows])
            shares[list(positions), rows] = quadratic_form(w, y).T
    shares[:, spec.degenerate] = math.nan
    return ParticipationTable(
        names=tuple(r.name for r in refs),
        omegas=spec.omegas,
        indices=spec.indices,
        values=shares,
        degenerate=spec.degenerate,
    )
