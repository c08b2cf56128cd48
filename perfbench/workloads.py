"""Seeded config generators for the benchmark workloads.

Each generator takes the workload seed and returns a list of
``(config_id, config_dict)`` pairs; the CLI only ever sees these configs
written out as JSON files.  Model parameters that set the amount of work
(quadrature node counts, Matsubara term counts, transition counts) are
fixed per workload, so different seeds cost about the same; the seed
moves geometry jitter, dipole strengths and frequencies inside narrow
bands.  Nothing here imports fluctem.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 137.035999084

# shipped example configs that join a workload byte for byte
SHIPPED = {
    "clusters": ["manybody.json"],
    "spectra-sweep": ["pairwise.json", "cavity.json"],
}


def _site_model(alpha_static: float, omega: float) -> dict:
    return {"model": "single_resonance", "alpha_static": alpha_static,
            "omega": omega}


def _cubic_cluster(rng: np.random.Generator, side: int, spacing: float,
                   jitter: float, model: dict) -> list[dict]:
    atoms = []
    for i in range(side):
        for j in range(side):
            for k in range(side):
                pos = np.array([i, j, k], dtype=float) * spacing \
                    + rng.uniform(-jitter, jitter, 3)
                atoms.append(dict(model, position=[float(x) for x in pos]))
    return atoms


def clusters(seed: int) -> list[tuple[str, dict]]:
    rng = np.random.default_rng([seed, 1])
    model = _site_model(2.0, 0.6)
    configs = []
    # retarded T = 0: Green-block assembly grows as N^2, eigensolves as
    # (3N)^3; one nonretarded identical-model cluster of the same size
    for side in (2, 3):
        atoms = _cubic_cluster(rng, side, 6.0, 0.25, model)
        configs.append((f"ret-N{side**3}",
                        {"task": "manybody", "atoms": atoms}))
    atoms = _cubic_cluster(rng, 3, 6.0, 0.25, model)
    configs.append(("nonret-N27", {"task": "manybody", "atoms": atoms,
                                   "nonretarded": True}))
    # finite T on N = 8: the Matsubara terms grow as 1/T, many small
    # solves instead of a few large ones; nonretarded identical models
    # make every term one scalar alpha evaluation
    rng = np.random.default_rng([seed, 2])
    atoms = _cubic_cluster(rng, 2, 6.0, 0.25, model)
    configs += [(f"ret-N8-T{temp:g}",
                 {"task": "manybody", "atoms": atoms, "temperature": temp})
                for temp in (1e-1, 1e-2)]
    configs.append(("nonret-N8-T0.001",
                    {"task": "manybody", "atoms": atoms, "temperature": 1e-3,
                     "nonretarded": True}))
    return configs


def _transitions(rng: np.random.Generator, count: int) -> dict:
    """A multi-transition model with frequencies in [0.3, 2.0].

    The frequencies sit at fixed, log-spaced places, each moved by at most
    3 %: where they fall sets how many nodes the adaptive quadratures
    take, so wider bands would make some seeds cost much more than others.
    """
    omegas = np.geomspace(0.3, 2.0, count + 2)[1:-1] \
        * rng.uniform(0.97, 1.03, count)
    d2 = rng.uniform(0.6, 1.0, count)
    return {"model": "transitions",
            "transitions": [{"omega": float(w), "d2": float(s)}
                            for w, s in zip(omegas, d2)]}


def _lowest(model: dict) -> float:
    return min(t["omega"] for t in model["transitions"])


# thermal-shift temperatures: hot T^2 law, scipy-oracle middle, cold T^4
# law down to the points ROADMAP item 4 reports as wrong
LAMB_TEMPERATURES = [50.0, 5.0, 0.5, 0.05, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def spectra_sweep(seed: int) -> list[tuple[str, dict]]:
    rng = np.random.default_rng([seed, 3])
    configs = []
    # pairwise scans from 1 bohr to 1e3 c/omega_low, 1..8 transitions
    for count in range(1, 9):
        model_a = _transitions(rng, count)
        model_b = _transitions(rng, 9 - count)
        deep = 1e3 * SPEED_OF_LIGHT / min(_lowest(model_a), _lowest(model_b))
        values = [float(r) for r in np.geomspace(1.0, deep, 16)]
        configs.append((f"pairwise-{count}x{9 - count}", {
            "task": "scan", "subtask": "pairwise",
            "atoms": [model_a, model_b], "separation": values[0],
            "sweep": {"parameter": "separation", "values": values}}))
    # thermal sweeps, 1..3 transitions per atom, the first two in vacuum
    # so that the err column is the thermal error alone
    for count in (1, 2):
        configs.append((f"lamb-vacuum-{count}", {
            "task": "scan", "subtask": "lamb",
            "atom": _transitions(rng, count),
            "temperature": LAMB_TEMPERATURES[0],
            "sweep": {"parameter": "temperature",
                      "values": LAMB_TEMPERATURES}}))
    for count in (1, 2, 3):
        atom = _transitions(rng, count)
        host = _transitions(rng, 2)
        host_static = sum((2.0 / 3.0) * t["d2"] / t["omega"]
                          for t in host["transitions"])
        density = float(rng.uniform(0.1, 0.5)) * 0.1 \
            / (2.0 * math.pi * host_static)
        configs.append((f"lamb-medium-{count}", {
            "task": "scan", "subtask": "lamb", "atom": atom,
            "medium": {"number_density": density, "host": host},
            "temperature": LAMB_TEMPERATURES[0],
            "sweep": {"parameter": "temperature",
                      "values": LAMB_TEMPERATURES}}))
    # cavity separation scans, the slowest configs here, so that the tail
    # percentile falls among them; the last one puts atom 0 on a mode node
    for k in range(6):
        dipoles = []
        for _ in range(2):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            dipoles.append([float(x) for x in 0.1 * direction])
        polarization = rng.standard_normal(3)
        polarization /= np.linalg.norm(polarization)
        amplitudes = [float(a) for a in rng.uniform(0.02, 0.05, 2)]
        if k == 5:
            amplitudes[0] = 0.0
        configs.append((f"cavity-{k}" if k < 5 else "cavity-node", {
            "task": "scan", "subtask": "cavity",
            "atoms": [{"omega": float(rng.uniform(0.7, 1.3)),
                       "dipole": dipoles[0]},
                      {"omega": float(rng.uniform(0.7, 1.3)),
                       "dipole": dipoles[1]}],
            "mode": {"omega": float(rng.uniform(15.0, 30.0)),
                     "polarization": [float(x) for x in polarization],
                     "amplitudes": amplitudes},
            "separation": 5.0,
            "sweep": {"parameter": "separation",
                      "values": [5.0, 6.5, 8.0, 10.0, 12.0, 16.0, 20.0,
                                 30.0]}}))
    return configs


GENERATORS = {
    "clusters": clusters,
    "spectra-sweep": spectra_sweep,
}


def write_workload(name: str, seed: int, checkout: Path,
                   out_dir: Path) -> list[dict]:
    """Write the workload's config files; return the manifest entries.

    Shipped configs are copied byte for byte from ``configs/``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for config_id, cfg in GENERATORS[name](seed):
        path = out_dir / f"{config_id}.json"
        path.write_text(json.dumps(cfg, indent=1))
        entries.append({"id": config_id, "path": str(path)})
    for filename in SHIPPED.get(name, []):
        source = checkout / "configs" / filename
        path = out_dir / f"shipped-{filename}"
        path.write_bytes(source.read_bytes())
        entries.append({"id": f"shipped-{filename[:-5]}", "path": str(path)})
    return entries
