"""Shared fixtures: the two study systems and small helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fdpassivity.devices import (
    DeviceModel,
    GflConverterL1,
    GflParams,
    GfmConverterL1,
    GfmParams,
    OperatingPoint,
    RlBranch,
    ShuntCapacitor,
    TheveninGrid,
)
from fdpassivity.network import Branch, Device, Network, Shunt

WB = 2.0 * math.pi * 60.0


class ScaledModel(DeviceModel):
    """Wraps a model, scaling its admittance by a constant factor."""

    kind = "scaled"

    def __init__(self, inner: DeviceModel, factor: float):
        self.inner = inner
        self.factor = factor

    def admittance(self, s: complex) -> np.ndarray:
        return self.factor * self.inner.admittance(s)


def scale_component(network: Network, name: str, factor: float) -> Network:
    """Copy of the network with one device's admittance scaled."""
    devices = tuple(
        Device(bus=d.bus, name=d.name, model=ScaledModel(d.model, factor))
        if d.name == name else d
        for d in network.devices
    )
    if not any(d.name == name for d in network.devices):
        raise ValueError(f"no device named {name!r}")
    return Network(buses=network.buses, branches=network.branches,
                   shunts=network.shunts, devices=devices)


def scale_all(network: Network, factor: float) -> Network:
    """Copy of the network with every component admittance scaled."""
    wrap = lambda m: ScaledModel(m, factor)
    return Network(
        buses=network.buses,
        branches=tuple(Branch(b.from_bus, b.to_bus, wrap(b.model)) for b in network.branches),
        shunts=tuple(Shunt(sh.bus, wrap(sh.model)) for sh in network.shunts),
        devices=tuple(Device(d.bus, d.name, wrap(d.model)) for d in network.devices),
    )


@pytest.fixture(scope="session")
def wb() -> float:
    return WB


@pytest.fixture(scope="session")
def gfl_op() -> OperatingPoint:
    # single-converter study terminal: P=0.7, Q=0.2, V=1.0
    return OperatingPoint.from_terminal(0.7, 0.2, 1.0, WB)


@pytest.fixture(scope="session")
def gfl_model(gfl_op) -> GflConverterL1:
    return GflConverterL1(GflParams(), gfl_op)


@pytest.fixture(scope="session")
def gfm_model() -> GfmConverterL1:
    op = OperatingPoint.from_terminal(-0.35, 0.1, 1.0, WB)
    return GfmConverterL1(GfmParams(), op)


def make_single_gfl(scr: float = 3.0, k_p_pll: float = 0.4, xr_ratio: float = 6.0,
                    p: float = 0.7, q: float = 0.2) -> Network:
    """One converter against a Thevenin grid at the point of connection."""
    op = OperatingPoint.from_terminal(p, q, 1.0, WB)
    model = GflConverterL1(GflParams(k_p_pll=k_p_pll), op)
    return Network(
        buses=("poc",),
        shunts=(Shunt("poc", TheveninGrid(scr, xr_ratio, WB)),),
        devices=(Device("poc", "GFL-1", model),),
    )


def make_three_bus() -> Network:
    """Three-bus study system: two grid-forming units and one grid-following.

    Branch impedances 0.086 + j0.69 on every pair, and a small lossless
    shunt capacitor at each bus, which touches no Hermitian part.  The
    capacitors do not keep the passive network invertible on the j omega
    axis: a dq shunt capacitor is b((s/omega_b)I + J), singular at
    s = +-j omega_b, and the floating network's common mode sees only the
    capacitors.  cond(assemble_net(net, 1j * w)) is 2.9e16 at w = omega_b,
    1.3e7 at omega_b +- 0.1 rad/s and 1.7e3 at omega_b / 2.  So Z_net, and with
    it the loop gain, has an open-loop pole on the j omega axis, which is
    why gnc on this network ends in RefineGridError near 377 rad/s.

    GFM-1 (b1) and GFM-2 (b2) are identical and the three lines are equal,
    so the case is symmetric under exchanging b1 and b2.  Above ~40 Hz the
    two smallest eigenvalues of H_n belong to the b1+b2 and b1-b2
    combinations (bus weights 0.5/0.5/~0), split only by the branches'
    resistance: the gap is 0.10 at 100 Hz, 0.020 at 300 Hz, 2.3e-3 at 1 kHz
    and 6.1e-4 at 2 kHz.  A perturbation on one GFM larger than that gap
    moves the minimum eigenvector onto the other GFM's bus.
    """
    gfm_params = GfmParams()
    gfl_params = GflParams(l_c=0.1, r_c=0.02, k_p_i=0.5)
    line = lambda: RlBranch(0.086, 0.69, WB)
    cap = lambda: ShuntCapacitor(0.01, WB)
    op_gfm = OperatingPoint.from_terminal(-0.35, 0.1, 1.0, WB)
    op_gfl = OperatingPoint.from_terminal(0.7, 0.0, 1.0, WB)
    return Network(
        buses=("b1", "b2", "b3"),
        branches=(Branch("b1", "b2", line()), Branch("b2", "b3", line()),
                  Branch("b1", "b3", line())),
        shunts=(Shunt("b1", cap()), Shunt("b2", cap()), Shunt("b3", cap())),
        devices=(
            Device("b1", "GFM-1", GfmConverterL1(gfm_params, op_gfm)),
            Device("b2", "GFM-2", GfmConverterL1(gfm_params, op_gfm)),
            Device("b3", "GFL-1", GflConverterL1(gfl_params, op_gfl)),
        ),
    )


@pytest.fixture(scope="session")
def single_gfl_network() -> Network:
    return make_single_gfl()


@pytest.fixture(scope="session")
def three_bus_network() -> Network:
    return make_three_bus()


def make_rlc_bus(r: float = 0.05, x: float = 0.6, b: float = 0.3) -> Network:
    """Single bus with a shunt capacitor and an RL load; has true modes."""
    return Network(
        buses=("b1",),
        shunts=(Shunt("b1", ShuntCapacitor(b, WB)),),
        devices=(Device("b1", "rl-load", RlBranch(r, x, WB)),),
    )


def random_passive_network(rng, n_buses: int) -> Network:
    """Connected random topology built only from passive RL and C parts."""
    buses = tuple(f"b{k}" for k in range(n_buses))
    branches = []
    for j in range(1, n_buses):
        i = int(rng.integers(0, j))  # connected by construction
        branches.append(Branch(buses[i], buses[j],
                               RlBranch(0.01 + rng.uniform(0, 0.1), 0.1 + rng.uniform(0, 1.0), WB)))
    if n_buses >= 2 and rng.random() < 0.5:
        branches.append(Branch(buses[0], buses[-1], RlBranch(0.05, 0.4, WB)))
    shunts = tuple(Shunt(b, ShuntCapacitor(0.01 + rng.uniform(0, 0.3), WB))
                   for b in buses if rng.random() < 0.7)
    devices = tuple(Device(b, f"rl@{b}", RlBranch(0.02 + rng.uniform(0, 0.2), 0.2 + rng.uniform(0, 0.8), WB))
                    for b in buses if rng.random() < 0.7)
    return Network(buses=buses, branches=tuple(branches), shunts=shunts, devices=devices)
