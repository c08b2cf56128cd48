"""Time each layer of a many-body quadrature node, per node.

The cubes are those of the benchmark's ``clusters`` workload at seed
101: its retarded N = 8 and N = 27 cubes, and for N = 64 (which the
workload does not run) a 4 x 4 x 4 cube of the same site model, spacing
and jitter, drawn by the workload's own generator.  The frequency stacks
that one ``free_energy_T0`` and one ``second_order_energy`` call hand
their integrands are recorded, then the integrands are called on them
again ``--repeat`` times, with each layer's function wrapped in a timer:

    green     the blocks -G(i xi) of every pair (``SystemGeometry._blocks``)
    gather    sqrt(alpha_i alpha_j) -G into the 3N x 3N stack
              (``SystemGeometry._pair_products`` and ``_matrices``)
    cholesky  ``np.linalg.cholesky`` of the unit-diagonal 1 + M
    log1p     the rest of ``_log_det_1p``: its time less the Cholesky's
              (the diagonal writes, the row sums, log1p and their sum)
    logdet    one whole node of the log-det integrand, unwrapped
    frob      ||M||_F^2 from the pair products of M (``_frobenius``), the
              one reduction the log-det nodes add for the second order of
              ``free_energy_T0_and_second_order``
    second    one whole node of the pair-polynomial second-order
              integrand, unwrapped: what a retarded T = 0 row no longer
              evaluates

Each figure is the median over the repeats of a layer's time over all
recorded stacks, divided by the nodes in them; each repeat runs the
wrapped and the unwrapped calls in turn, so drift of the host touches
them alike.  The column ``call`` is the whole log-det time per integrand
call instead: the fixed per-call work that stacking nodes spreads.
Beside them are the integrals' evaluation counts and the nodes and calls
their integrands took, discarded nodes past a cut among them: of the log
det, of ``second_order_energy``, of the second order of
``free_energy_T0_and_second_order``, whose nodes and calls are those it
made without the log det's nodes, and of ``free_energy_finiteT`` at
T = 0.1, its Matsubara terms and tail nodes together.  Fewer calls for
the same nodes show as fewer calls at an equal ``logdet``; cheaper
nodes as a lower ``logdet``.  BLAS runs on one thread.  Only the
standard library and numpy are used; fluctem is imported from ``src/``
and the workload generator from ``perfbench/`` of the checkout that
holds this file.

Usage, from the root of a checkout:

    python tools/node_costs.py [--repeat 21] [--sides 2 3 4]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# set before numpy loads BLAS, and only when run: importing this module
# changes no environment
if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

CHECKOUT = Path(__file__).resolve().parents[1]
SEED = 101
LAYERS = ("green", "gather", "cholesky", "log1p", "logdet", "frob",
          "second")


def workloads():
    """perfbench's config generators, loaded read-only from their file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", CHECKOUT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cube(side: int):
    """The seed-101 retarded cube of ``side``^3 sites."""
    from fluctem.manybody import SystemGeometry
    from fluctem.polarizability import single_resonance
    generators = workloads()
    configs = dict(generators.clusters(SEED))
    atoms = configs.get(f"ret-N{side**3}", {}).get("atoms")
    if atoms is None:
        model = {k: v for k, v in configs["ret-N8"]["atoms"][0].items()
                 if k != "position"}
        atoms = generators._cubic_cluster(
            np.random.default_rng([SEED, side]), side, 6.0, 0.25, model)
    return SystemGeometry([
        (np.array(atom["position"]),
         single_resonance(atom["alpha_static"], atom["omega"]))
        for atom in atoms])


def recorded(energy, geom, integrator="integrate_semi_infinite"):
    """The result of ``energy(geom)``, its integrand and the frequency
    stacks the integrand was called on, through the ``integrator`` of
    ``fluctem.manybody`` that ``energy`` calls."""
    import fluctem.manybody as manybody
    integrate = getattr(manybody, integrator)
    integrands, stacks = [], []

    def recording(f, *args):
        integrands.append(f)

        def g(xi):
            stacks.append(np.array(xi))
            return f(xi)
        return integrate(g, *args)

    setattr(manybody, integrator, recording)
    try:
        result = energy(geom)
    finally:
        setattr(manybody, integrator, integrate)
    (integrand,) = integrands
    return result, integrand, stacks


@contextlib.contextmanager
def layers_timed(spent: dict):
    """Add the time of each layer's calls to ``spent``; the log1p entry
    takes all of ``_log_det_1p``, the Cholesky inside it included."""
    import fluctem.manybody as manybody
    points = [(manybody.SystemGeometry, "_blocks", "green"),
              (manybody.SystemGeometry, "_pair_products", "gather"),
              (manybody.SystemGeometry, "_matrices", "gather"),
              (np.linalg, "cholesky", "cholesky"),
              (manybody, "_log_det_1p", "log1p"),
              (manybody, "_frobenius", "frob")]

    def timer(f, layer):
        def timed(*args):
            start = time.perf_counter()
            try:
                return f(*args)
            finally:
                spent[layer] += time.perf_counter() - start
        return timed

    originals = [getattr(owner, name) for owner, name, _ in points]
    for (owner, name, layer), f in zip(points, originals):
        setattr(owner, name, timer(f, layer))
    try:
        yield
    finally:
        for (owner, name, _), f in zip(points, originals):
            setattr(owner, name, f)


def joint(geom):
    """The second order of ``free_energy_T0_and_second_order(geom)``, and
    the stacks its integrand took alone, past the log det's nodes."""
    import fluctem.manybody as manybody
    shared = manybody.integrate_shared
    stacks = []

    def recording(f, g, *args):
        return shared(f, lambda xi: stacks.append(xi) or g(xi), *args)

    manybody.integrate_shared = recording
    try:
        _, second = manybody.free_energy_T0_and_second_order(geom)
    finally:
        manybody.integrate_shared = shared
    return second, stacks


def _time(f, stacks) -> float:
    start = time.perf_counter()
    for xi in stacks:
        f(xi)
    return time.perf_counter() - start


def node_costs(side: int, repeat: int) -> dict:
    """Median microseconds per node of each layer, with the counts."""
    import fluctem.manybody as manybody
    geom = cube(side)
    log_det, g, log_det_stacks = recorded(manybody.free_energy_T0, geom)
    second, f, second_stacks = recorded(manybody.second_order_energy, geom)
    shared, shared_stacks = joint(geom)
    thermal, _, thermal_stacks = recorded(
        lambda geom: manybody.free_energy_finiteT(geom, 0.1), geom,
        "matsubara_sum")
    both = manybody._logdet_function(geom, False, frobenius=True)
    seconds = {name: [] for name in LAYERS}
    for _ in range(repeat):
        spent = dict.fromkeys(LAYERS, 0.0)
        with layers_timed(spent):
            _time(both, log_det_stacks)
        spent["log1p"] -= spent["cholesky"]
        spent["logdet"] = _time(g, log_det_stacks)
        spent["second"] = _time(f, second_stacks)
        for name, t in spent.items():
            seconds[name].append(t)
    stacks = (log_det_stacks, second_stacks, shared_stacks, thermal_stacks)
    nodes = [sum(map(len, s)) for s in stacks]
    per_node = {name: 1e6 * statistics.median(t)
                / nodes[name == "second"] for name, t in seconds.items()}
    per_node["call"] = per_node["logdet"] * nodes[0] / len(log_det_stacks)
    return {"n": geom.n_sites, "us": per_node,
            "evaluations": (log_det.evaluations, second.evaluations,
                            shared.evaluations, thermal.evaluations),
            "nodes": nodes, "calls": [len(s) for s in stacks]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=21)
    parser.add_argument("--sides", type=int, nargs="+", default=[2, 3, 4])
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.sides) < 2:
        parser.error("--repeat must be >= 1 and every side >= 2")
    sys.path.insert(0, str(CHECKOUT / "src"))
    # microseconds per node and per log-det call, then the evaluations,
    # nodes and calls of the log det, of second_order_energy, of the
    # joint path's second order past the log det's nodes, and of the
    # T = 0.1 thermal sum
    columns = LAYERS + ("call",)
    print(f"{'N':>3} " + " ".join(f"{name:>8}" for name in columns)
          + " | evals nodes calls" * 4)
    for side in args.sides:
        row = node_costs(side, args.repeat)
        print(f"{row['n']:>3} "
              + " ".join(f"{row['us'][name]:8.2f}" for name in columns)
              + "".join(f" | {e:5} {n:5} {c:5}" for e, n, c in zip(
                  row["evaluations"], row["nodes"], row["calls"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
