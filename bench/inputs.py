"""Scenario files (schema 1) that the benchmark generates for the program.

Two generators:

- ladder_scenario: a seeded synthetic ladder.  A chain of buses plus a
  fixed number of random ties, RL branches, a Thevenin grid at bus 0, a
  shunt capacitor at every other bus, one GFL and one GFM converter in
  every ten buses, and RL loads.  Bus and component counts are fixed; only
  tie endpoints and parameter values follow the seed, inside ranges narrow
  enough that the cost of an analysis varies little from seed to seed.
- single_gfl_scenario: one GFL converter against a Thevenin grid, the
  system of acceptance criterion 8, at a given SCR and PLL gain.

Standard library only, so the benchmark writes its inputs without
importing the program.
"""

from __future__ import annotations

import json
import random

DEFAULT_SEED = 1  # the ladder seed the reference outputs were recorded for
LADDER_BUSES = 40
# stability-study's ladder.  On the 40-bus ladder a pass took 15-23 s of
# serial Muller and adjugate work (a 9 s mode scan, 0.65 s per 80x80
# sensitivity), so a run held one pass and no median, and wall_s spread
# 0.27 of its median over seeds 1-10.  Ten buses give 5.5-7 s passes,
# four or five to a run.
STABILITY_LADDER_BUSES = 10
LADDER_TIES = 5
GRID_POINTS = 400

# Acceptance criterion 8: SCR x k_p_pll.
STABILITY_GRID = tuple((scr, kp) for scr in (3.0, 1.3) for kp in (0.14, 0.4, 0.66))

_BASE = {"s_va": 5000000.0, "v_v": 600.0, "f_hz": 60.0}
_GRID = {"f_min_hz": 1.0, "f_max_hz": 2000.0, "points": GRID_POINTS}
_GFL = {"l_c": 0.15, "r_c": 0.015, "k_p_i": 0.75, "k_i_i": 37.69,
        "k_p_pll": 0.4, "k_i_pll": 30.28, "t_v": 0.002}
_GFM = {"h_vsm": 3.0, "d_vsm": 300.0, "l_v": 0.2, "r_v": 0.15}


def _jitter(rng: random.Random, value: float, rel: float = 0.05) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def ladder_scenario(seed: int, n_buses: int = LADDER_BUSES) -> dict:
    """Ladder scenario for one seed; the same seed gives the same document."""
    rng = random.Random(seed)
    buses = [f"b{k}" for k in range(n_buses)]

    def rl(r, x):
        return {"kind": "rl", "params": {"r": _jitter(rng, r), "x": _jitter(rng, x)}}

    branches = [{"from": buses[k], "to": buses[k + 1], **rl(0.02, 0.12)}
                for k in range(n_buses - 1)]
    ties = set()
    while len(ties) < LADDER_TIES:
        i, j = sorted(rng.sample(range(n_buses), 2))
        if j - i >= 3:
            ties.add((i, j))
    branches += [{"from": buses[i], "to": buses[j], **rl(0.04, 0.3)}
                 for i, j in sorted(ties)]

    shunts = [{"bus": buses[0], "kind": "thevenin",
               "params": {"scr": _jitter(rng, 5.0), "xr_ratio": _jitter(rng, 8.0)}}]
    shunts += [{"bus": b, "kind": "shunt_c", "params": {"b": _jitter(rng, 0.02)}}
               for b in buses[1:]]

    devices = []
    for block in range(n_buses // 10):
        base = 10 * block
        devices.append({
            "bus": buses[base + 4], "name": f"GFL-{block + 1}", "kind": "gfl_l1",
            "params": {k: _jitter(rng, v) for k, v in _GFL.items()},
            "op": {"p": _jitter(rng, 0.5), "q": _jitter(rng, 0.1), "v": 1.0},
        })
        devices.append({
            "bus": buses[base + 8], "name": f"GFM-{block + 1}", "kind": "gfm_l1",
            "params": {k: _jitter(rng, v) for k, v in _GFM.items()},
            "op": {"p": _jitter(rng, -0.3), "q": _jitter(rng, 0.05), "v": 1.0},
        })
        for off in (2, 6):
            devices.append({"bus": buses[base + off], "name": f"load-{base + off}",
                            **rl(0.8, 0.4)})

    return {
        "schema": 1,
        "name": f"ladder{n_buses}_seed{seed}",
        "base": _BASE,
        "grid": _GRID,
        "buses": buses,
        "branches": branches,
        "shunts": shunts,
        "devices": devices,
        "standalone_stable": True,
        "analyses": {
            "nodal-passivity": {},
            "nodal-sens": {"component": "GFL-1", "param": "k_p_pll"},
            "participation": {},
            "modes": {},
        },
    }


def single_gfl_scenario(scr: float, k_p_pll: float) -> dict:
    """One GFL converter (P=0.7, Q=0.2, V=1) behind a Thevenin grid, X/R = 6."""
    return {
        "schema": 1,
        "name": f"single_gfl_scr{scr:g}_kp{k_p_pll:g}",
        "base": _BASE,
        "grid": _GRID,
        "buses": ["poc"],
        "shunts": [{"bus": "poc", "kind": "thevenin",
                    "params": {"scr": scr, "xr_ratio": 6.0}}],
        "devices": [{"bus": "poc", "name": "GFL-1", "kind": "gfl_l1",
                     "params": {"k_p_pll": k_p_pll},
                     "op": {"p": 0.7, "q": 0.2, "v": 1.0}}],
        "standalone_stable": True,
        "analyses": {"gnc": {}, "modes": {}},
    }


def write_scenario(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def scenario_paths(chosen: dict) -> list[str]:
    """Every scenario file of a workload, as chosen by run.write_inputs."""
    return chosen["fixtures"] + chosen["grid"] + ([chosen["ladder"]] if chosen["ladder"] else [])
