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
component and one scatter into a zero-filled stack.  The nodal sweeps
evaluate every component admittance once per chunk of their grid
(passivity.frequency_chunks); the chunk's blocks only scatter those values
into Y_n and solve.  nodal_passivity_sweep solves eigenpairs, for the
sensitivities and participations; nodal_index_sweep solves eigenvalues
alone, in blocks large enough for the solves to overlap (eigenvalue_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._parallel import parallel_map
from .devices import DeviceModel, combine, param_derivative
from .errors import UnknownBusError, UnknownComponentError
# inverse is unused here, but bench/tracing.py hooks network.inverse
from .numerics import hermitian_eigen, hermitian_eigenvalues, inverse  # noqa: F401
from .passivity import (
    IndexSweep,
    SensitivitySeries,
    eigenvalue_blocks,
    frequency_blocks,
    frequency_chunks,
    hermitian_part,
    join_blocks,
    quadratic_form,
)


class Branch(NamedTuple):
    """Series element between two distinct buses."""

    from_bus: str
    to_bus: str
    model: DeviceModel


class Shunt(NamedTuple):
    """Passive network shunt at a bus."""

    bus: str
    model: DeviceModel


class Device(NamedTuple):
    """Named active device (converter, grid equivalent) shunt-connected at a bus."""

    bus: str
    name: str
    model: DeviceModel


# section -> (the string keys of its entries in a scenario, in field order;
#   its class, made from their values and then the model, and named like
#   its components' kind; the message for an entry's last value repeating
#   an earlier entry's, or None for a branch, whose two ends must differ
#   instead; its components' name, made from those values and n, the
#   entry's count among the section's entries with the same values)
SECTIONS = {
    "branches": (("from", "to"), Branch, None, "{0}-{1}#{n}"),
    "shunts": (("bus",), Shunt, "more than one shunt at bus {!r}; merge them", "sh@{0}"),
    "devices": (("bus", "name"), Device, "duplicate device name {!r}", "{1}"),
}


def _unsafe_name(name) -> list[str]:
    """The message for a name that would break out of its CSV header field."""
    unsafe = set(str(name)) & set(',"\r\n')
    return [f"name {name!r} contains a comma, double quote, CR or LF"] if unsafe else []


def bus_problems(buses) -> list[str]:
    """The rules a list of bus names breaks, in message order."""
    repeated = ["names must be unique"] if len(set(buses)) != len(buses) else []
    return repeated + [m for b in buses for m in _unsafe_name(b)]


def entry_problems(section: str, values, buses, seen: set) -> list[tuple[type, str]]:
    """The topology rules one entry of a section breaks, in message order,
    each as (error class, message).  values are the entry's strings in
    SECTIONS key order, None where one did not parse; no bus is unknown
    when buses is empty; seen holds the last values of earlier entries."""
    keys, _, repeated, _ = SECTIONS[section]
    problems = [(UnknownBusError, f"unknown bus {v!r}") for k, v in zip(keys, values)
                if k != "name" and v is not None and buses and v not in buses]
    last = values[-1]
    if last is None:
        return problems
    if keys[-1] == "name":
        problems += [(ValueError, m) for m in _unsafe_name(last)]
    if repeated is None:
        if last == values[0]:
            problems.append((ValueError, "endpoints must differ"))
    elif last in seen:
        problems.append((ValueError, repeated.format(last)))
    seen.add(last)
    return problems


class ComponentRef(NamedTuple):
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


class _Part(NamedTuple):
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
    def of(cls, n_buses: int, refs) -> "_Part":
        """A shunt-connected component adds Y at block (i, i); a branch
        adds Y at (i, i) and (j, j) and -Y at (i, j) and (j, i)."""
        evaluators = combine([ref.model for ref in refs])
        slot = {k: n for n, k in enumerate(k for _, ks, _ in evaluators for k in ks)}
        n, rounds, count = 2 * n_buses, {}, {}
        for k, ref in enumerate(refs):
            i, j = ref.buses[0], ref.buses[-1]  # a branch's two ends differ
            blocks = [(i, i, np.add)] if i == j else [(i, i, np.add), (j, j, np.add),
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

    Each component's name, bus indices and model are resolved once, here,
    into the table that components() lists and assembly reads.  A broken
    rule raises the message the scenario loader reports for it:
    UnknownBusError for an unknown bus, ValueError otherwise.
    """

    buses: tuple[str, ...]
    branches: tuple[Branch, ...] = ()
    shunts: tuple[Shunt, ...] = ()
    devices: tuple[Device, ...] = ()

    def __post_init__(self):
        for field in ("buses", *SECTIONS):
            object.__setattr__(self, field, tuple(getattr(self, field)))
        if not self.buses:
            raise ValueError("network needs at least one bus")
        index = {b: k for k, b in enumerate(self.buses)}
        problems = [(ValueError, f"buses: {p}") for p in bus_problems(self.buses)]
        for section in SECTIONS:
            seen = set()
            problems += [(error, f"{section}[{k}]: {message}")
                         for k, entry in enumerate(getattr(self, section))
                         for error, message in entry_problems(section, entry[:-1], index, seen)]
        if problems:
            error, message = problems[0]
            raise error(message)
        table, owner, count = {}, {}, {}
        for section in ("devices", "branches", "shunts"):  # the order components() lists
            keys, cls, _, name = SECTIONS[section]
            for k, entry in enumerate(getattr(self, section)):
                values = entry[:-1]
                count[section, values] = n = count.get((section, values), 0) + 1
                ref = ComponentRef(name.format(*values, n=n), cls.__name__.lower(),
                                   tuple(index[v] for key, v in zip(keys, values) if key != "name"),
                                   entry.model)
                if ref.name in table:
                    raise ValueError(f"{owner[ref.name]} and {section}[{k}] "
                                     f"are both named {ref.name!r}")
                table[ref.name], owner[ref.name] = ref, f"{section}[{k}]"
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_components", table)
        object.__setattr__(self, "_parts", tuple(  # the order every Y_n entry sums in
            _Part.of(len(self.buses), [ref for ref in table.values() if ref.kind == kind])
            for kind in ("branch", "shunt", "device")))

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
    per-pair counter; shunts are named sh@bus.  No two share a name.
    """
    return tuple(network._components.values())


def component(network: Network, name: str) -> ComponentRef:
    try:
        return network._components[name]
    except KeyError:
        raise UnknownComponentError(f"no component named {name!r}") from None


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


def _sweep_blocks(network: Network, omegas: np.ndarray, solve, blocks) -> tuple[np.ndarray, ...]:
    """solve(H) on every block of H_n = Y_n + Y_n^dagger over omegas, its
    per-block tuples of arrays joined field by field.

    Each chunk of the grid (frequency_chunks) evaluates every component
    admittance once; blocks(points, n) splits the chunk, and each block
    only scatters those values into Y_n and solves.
    """
    n = 2 * network.n_buses

    def chunk(rows: slice):
        s = 1j * omegas[rows]
        values = [_evaluate(part.evaluators, s) for part in network._parts]
        return [solve(hermitian_part(assemble_nodal(network, s[b], values=[v[b] for v in values])))
                for b in blocks(s.size, n)]

    count = len(network.branches) + len(network.shunts) + len(network.devices)
    chunks = parallel_map(chunk, frequency_chunks(omegas.size, 64 * count))
    return join_blocks([row for c in chunks for row in c])


def nodal_passivity_sweep(network: Network, omegas) -> NodalSpectrum:
    """Nodal passivity index and minimum eigenpair over a frequency grid."""
    omegas = np.asarray(omegas, dtype=float)

    def solve(h):
        eig = hermitian_eigen(h)
        # copy the one column so the full eigenvector matrices can be freed
        return eig.values, eig.min_vector.copy(), eig.degenerate

    spectra, min_vectors, degenerate = _sweep_blocks(network, omegas, solve, frequency_blocks)
    return NodalSpectrum(
        omegas=omegas,
        indices=spectra[:, 0],
        eigen_gaps=spectra[:, 1] - spectra[:, 0],
        spectra=spectra,
        min_vectors=min_vectors,
        degenerate=degenerate,
    )


def nodal_index_sweep(network: Network, omegas) -> IndexSweep:
    """Nodal passivity index and gap over a frequency grid, from the
    eigenvalues alone: nodal_passivity_sweep's to within 1e-14 of each
    point's max|lambda|."""
    omegas = np.asarray(omegas, dtype=float)

    def solve(h):
        values = hermitian_eigenvalues(h)
        return values[:, 0], values[:, 1] - values[:, 0]

    indices, gaps = _sweep_blocks(network, omegas, solve, eigenvalue_blocks)
    return IndexSweep(omegas=omegas, indices=indices, eigen_gaps=gaps)


def directional_nodal_sensitivity(phi: np.ndarray, ref: ComponentRef, dy: np.ndarray):
    """d index along a 2x2 perturbation dY of any component.

    phi_w^dagger (dY + dY^dagger) phi_w, with phi the unit minimum
    eigenvector of the nodal Hermitian part and phi_w the window the
    component sees: its bus sub-vector, or the difference of the two for a
    branch.  phi (..., 2N) and dY (..., 2, 2) may be stacks over frequency.
    """
    i = 2 * ref.buses[0]
    w = phi[..., i:i + 2]
    if len(ref.buses) == 2:
        j = 2 * ref.buses[1]
        w = w - phi[..., j:j + 2]
    return quadratic_form(w, dy)


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


class ParticipationTable(NamedTuple):
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
    own admittance, i.e. the response to scaling it by (1 + eps): one
    whole-grid admittance call per component.
    """
    refs = components(network)
    spec = nodal_passivity_sweep(network, omegas)
    s = 1j * spec.omegas
    shares = np.array([directional_nodal_sensitivity(spec.min_vectors, r, r.model.admittance(s))
                       for r in refs]).reshape(len(refs), s.size)
    shares[:, spec.degenerate] = math.nan
    return ParticipationTable(
        names=tuple(r.name for r in refs),
        omegas=spec.omegas,
        indices=spec.indices,
        values=shares,
        degenerate=spec.degenerate,
    )
