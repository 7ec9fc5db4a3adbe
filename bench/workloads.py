"""Seeded config generator for the benchmark workloads.

Each workload is a list of ``(name, config)`` pairs; every config is run as
its own ``folnersys run`` process.  Sizes are fixed per workload, and the
seed only picks residues, shifts, supports, probabilities and the seeds of
the random sets, orbits and functions.  The program sees nothing but the
YAML written from these dicts.
"""
from __future__ import annotations

import random
from typing import Dict, List, Tuple

import yaml

Config = Dict[str, object]

Z_FOLNER = {"shape": "interval", "start": 1}


def _dyadic(lo: int, hi: int) -> dict:
    return {"dyadic": {"min_exp": lo, "max_exp": hi}}


def z_counting(rng: random.Random) -> List[Tuple[str, Config]]:
    """Window-AND-count kernels of density, cylinders and spectrum on Z."""
    m = rng.choice([3, 5, 7])
    # multiples of 6 keep the evens/odds/thirds spectra exact at every index
    by_six = [3 << k for k in range(9, 20)]
    cfg = {
        "group": {"kind": "Z"},
        "folner": Z_FOLNER,
        "schedule": _dyadic(10, 20),
        "seed": rng.randrange(1 << 31),
        "sets": {
            "noise": {"rule": "bitmask", "lo": -64, "n": (1 << 20) + 128},
            "cong": {"rule": "congruence", "a": rng.randrange(m), "m": m},
            "evens": {"rule": "congruence", "a": rng.randrange(2), "m": 2},
            "odds": {"rule": "complement", "of": "evens"},
            "thirds": {"rule": "congruence", "a": rng.randrange(3), "m": 3},
            "blocks": {"rule": "dyadic"},
        },
        "tasks": [
            {"task": "spectrum", "set": "noise", "depth": 3, "radius": 8},
            {"task": "spectrum", "set": "cong", "depth": 3, "radius": 8},
            {"task": "compare", "set1": "evens", "set2": "odds", "depth": 3,
             "radius": 8, "eps": 1e-9, "schedule": by_six, "expect": "CONSISTENT"},
            {"task": "compare", "set1": "evens", "set2": "thirds", "depth": 3,
             "radius": 8, "eps": 1e-9, "schedule": by_six, "expect": "DISTINGUISHED"},
            {"task": "cylinders", "set": "blocks", "radius": 3, "depth": 3},
            {"task": "upper_density", "set": "blocks"},
            {"task": "subsequence", "set": "blocks",
             "queries": [[0], [0, rng.randrange(1, 4)]], "eps": 0.05},
            {"task": "pair_correlation", "set": "noise", "N": 1 << 16, "H": 32},
        ],
    }
    return [("z_counting", cfg)]


def _beta(rng: random.Random) -> str:
    return f"{rng.randrange(20, 81)}/100"


def _stochastic_row(rng: random.Random, k: int) -> List[float]:
    """k probabilities in hundredths, each at least 0.1, summing to 1."""
    parts = []
    for left in range(k - 1, 0, -1):
        parts.append(rng.randrange(10, 100 - sum(parts) - 10 * left + 1))
    parts.append(100 - sum(parts))
    return [p / 100 for p in parts]


def orbit_generators(rng: random.Random) -> List[Tuple[str, Config]]:
    """Pure-Python orbit samplers and the regrown rotation window."""
    def shifts(n):
        return sorted(rng.sample(range(0, 17), n))

    cfg = {
        "group": {"kind": "Z"},
        "folner": Z_FOLNER,
        "schedule": _dyadic(9, 19),
        "seed": rng.randrange(1 << 31),
        "systems": {
            "golden": {"kind": "rotation", "alpha": "golden", "beta": _beta(rng)},
            "chain2": {"kind": "markov", "accept": [1],
                       "P": [_stochastic_row(rng, 2) for _ in range(2)]},
            "chain3": {"kind": "markov", "accept": [rng.randrange(3)],
                       "P": [_stochastic_row(rng, 3) for _ in range(3)]},
            "cycle": {"kind": "periodic",
                      "pattern": "1" + "".join(rng.choice("01") for _ in range(7))},
        },
        "sets": {
            "rot": {"rule": "rotation", "alpha": "golden", "beta": _beta(rng)},
            "rot2": {"rule": "rotation", "alpha": "sqrt2", "beta": _beta(rng)},
        },
        "tasks": [
            {"task": "verify", "system": "golden", "schedule": [200_000],
             "queries": [shifts(rng.randrange(1, 4)) for _ in range(5)]},
            # one query per chain: each Markov row is a 4-sigma statistical band
            {"task": "verify", "system": "chain2", "schedule": [200_000],
             "seed": rng.randrange(1 << 31), "queries": [shifts(2)]},
            {"task": "verify", "system": "chain3", "schedule": [100_000],
             "seed": rng.randrange(1 << 31), "queries": [shifts(2)]},
            {"task": "verify", "system": "cycle", "schedule": [1 << 20],
             "queries": [shifts(1), shifts(2)]},
            {"task": "spectrum", "set": "rot", "depth": 2, "radius": 8},
            {"task": "upper_density", "set": "rot2"},
        ],
    }
    return [("orbit_generators", cfg)]


def moments_heisenberg(rng: random.Random) -> List[Tuple[str, Config]]:
    """Complex moment evaluation and exact sums on Z; H3 windows and translation."""
    N = 200_000

    # (function index, conjugated) per factor; the seed picks the shifts only,
    # since the functions and conjugations decide the arrays a moment allocates
    shapes = [[(1, False)], [(2, False), (3, True)], [(3, False), (4, False), (1, True)],
              [(2, True)], [(3, True), (4, False)], [(1, False), (2, True), (4, False)]]
    queries = [[[i, c, rng.randrange(0, 9)] for i, c in shape] for shape in shapes]
    queries.append([[4, False, 0], [4, False, rng.randrange(1, 9)]])  # exact path
    m = rng.randrange(2, 6)
    moments = {
        "group": {"kind": "Z"},
        "folner": Z_FOLNER,
        "seed": rng.randrange(1 << 31),
        "sets": {"marks": {"rule": "congruence", "a": rng.randrange(m), "m": m}},
        "functions": {
            "e1": {"kind": "exponential", "theta": rng.random()},
            "e2": {"kind": "exponential", "theta": rng.random()},
            "disk": {"kind": "random_disk"},
            "ind": {"kind": "indicator", "set": "marks"},
        },
        "schemes": {
            "unit": {},
            "decay": {"weight": {"kind": "exp_decay", "rate": 1e-5}},
            "lin": {"weight": {"kind": "linear"}, "normalizer": {"kind": "linear_mean"}},
        },
        "tasks": [
            *({"task": "moments", "family": ["e1", "e2", "disk", "ind"],
               "scheme": s, "queries": queries, "N": N}
              for s in ("unit", "decay", "lin")),
            {"task": "accordance", "family": ["e1", "e2", "disk", "ind"],
             "scheme": "unit", "queries": queries[:2],
             "schedule": [N // 4, N // 2, N], "eps": 0.05},
            {"task": "normcheck", "scheme": "lin", "N": N, "tol": 1e-12},
        ],
    }

    def h3_element(radius):
        return [rng.randrange(-radius, radius + 1) for _ in range(3)]

    rules = [[rng.randrange(2), 2], None, [rng.randrange(3), 3]]
    cylinder = [[[1, 0, 0], rng.randrange(2)], [[0, 1, 0], rng.randrange(2)]]
    heisenberg = {
        "group": {"kind": "H3"},
        "folner": {"shape": "heisenberg_box"},
        "schedule": [4, 8, 12, 16],
        "sets": {"lattice": {"rule": "component", "rules": rules}},
        "tasks": [
            {"task": "cylinders", "set": "lattice", "radius": 1, "depth": 2},
            {"task": "invariance", "set": "lattice", "cylinder": cylinder,
             "shift": h3_element(1), "N": 20},
            {"task": "additivity", "set": "lattice", "cylinder": cylinder,
             "element": [0, 0, rng.randrange(1, 4)], "N": 20},
            {"task": "density", "set": "lattice",
             "shifts": [[0, 0, 0], h3_element(2)], "N": 20},
        ],
    }
    return [("moments", moments), ("heisenberg", heisenberg)]


def warm_rerun(rng: random.Random) -> List[Tuple[str, Config]]:
    """Many small Z tasks, all served from a prepared result cache."""
    sets = {
        "evens": {"rule": "congruence", "a": 0, "m": 2},
        "odds": {"rule": "complement", "of": "evens"},
        "blocks": {"rule": "dyadic"},
        "gold": {"rule": "rotation", "alpha": "golden", "beta": _beta(rng)},
        "noise": {"rule": "bitmask", "lo": 0, "n": 20_000},
    }
    for i in range(3):
        m = rng.randrange(3, 12)
        sets[f"cong{i}"] = {"rule": "congruence", "a": rng.randrange(m), "m": m}
    names = sorted(sets)
    tasks = []
    for i in range(2400):
        kind = i % 10  # a fixed mix: 6 density, 2 additivity, 1 spectrum, 1 normcheck
        name = rng.choice(names)
        if kind < 6:
            tasks.append({"task": "density", "set": name, "N": rng.randrange(1000, 10_000),
                          "shifts": sorted(rng.sample(range(0, 32), rng.randrange(1, 4)))})
        elif kind < 8:
            tasks.append({"task": "additivity", "set": name, "N": rng.randrange(500, 5000),
                          "cylinder": [[rng.randrange(0, 4), rng.randrange(2)]],
                          "element": rng.randrange(4, 8)})
        elif kind < 9:
            tasks.append({"task": "spectrum", "set": name, "depth": 2, "radius": 3,
                          "schedule": [64, 256, rng.randrange(512, 2048)]})
        else:
            tasks.append({"task": "normcheck", "scheme": rng.choice(["unit", "lin"]),
                          "N": rng.randrange(100, 1000), "tol": 1e-12})
    cfg = {
        "group": {"kind": "Z"},
        "folner": Z_FOLNER,
        "seed": rng.randrange(1 << 31),
        "sets": sets,
        "schemes": {
            "unit": {},
            "lin": {"weight": {"kind": "linear"}, "normalizer": {"kind": "linear_mean"}},
        },
        "tasks": tasks,
    }
    return [("warm_rerun", cfg)]


WORKLOADS = {
    "z_counting": z_counting,
    "orbit_generators": orbit_generators,
    "moments_heisenberg": moments_heisenberg,
    "warm_rerun": warm_rerun,
}


def generate(workload: str, seed: int) -> List[Tuple[str, int, str]]:
    """``(name, task count, YAML text)`` per config of the workload; the same
    seed gives the same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    return [(name, len(cfg["tasks"]), yaml.safe_dump(cfg, default_flow_style=None))
            for name, cfg in WORKLOADS[workload](rng)]
