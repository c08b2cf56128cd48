"""Per-layer figures of one traced pass, computed from its spans.

A layer's self time is the thread CPU time of its spans minus that of
their children and minus the tracer's calibrated cost per child
(``tracer.self_times``).  ``linalg`` is
``numpy.linalg.eigvalsh``, attributed to the layer of the span that
called it and counted in wall time, since BLAS may run it on threads of
its own.  Integrand spans belong to the module that handed the integrand
to the quadrature engine, so ``quadrature.self_s`` is engine overhead
alone.  Totals (``*.s``) are wall durations.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import Tracer, self_times


def per_pass(tracer: Tracer, spans: dict[str, np.ndarray], wall: float,
             child_cost: dict[str, float]) -> dict[str, float]:
    names = np.array(tracer.names, dtype=object)[spans["name"]] \
        if len(spans["name"]) else np.array([], dtype=object)
    duration = spans["end"] - spans["start"]
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    integrand = np.array([n.endswith(".integrand") for n in names],
                         dtype=bool)
    own = self_times(spans, np.where(integrand, child_cost["integrand"],
                                     child_cost["call"]))
    tracer_s = float(np.sum(self_times(spans)) - np.sum(own))
    own[layer == "linalg"] = duration[layer == "linalg"]
    position = {int(s): k for k, s in enumerate(spans["sid"])}

    count = defaultdict(int)
    total = defaultdict(float)
    self_by_layer = defaultdict(float)
    for k, name in enumerate(names):
        count[name] += 1
        total[name] += duration[k]
        key = "manybody.build_T" if name == "manybody.build_T" \
            else layer[k]
        self_by_layer[key] += own[k]
        if name == "linalg.eigvalsh":
            parent = position.get(int(spans["parent"][k]))
            caller = layer[parent] if parent is not None else "none"
            count[f"linalg.eigvalsh.{caller}"] += 1
            total[f"linalg.eigvalsh.{caller}"] += duration[k]

    quad_sids = [int(s) for s, n in zip(spans["sid"], names)
                 if n.startswith("quadrature.")]
    evals = sum(tracer.evaluations.get(s, 0) for s in quad_sids)
    integrand_calls = sum(c for n, c in count.items()
                          if n.endswith(".integrand"))
    eig_s = total["linalg.eigvalsh"]

    figures = {
        "green.dyadic_green_imag.calls": count["green.dyadic_green_imag"],
        "green.dyadic_green_imag.s": total["green.dyadic_green_imag"],
        "green.static_green.calls": count["green.static_green"],
        "green.self_s": self_by_layer["green"],
        "manybody.build_T.calls": count["manybody.build_T"],
        "manybody.build_T.self_s": self_by_layer["manybody.build_T"],
        "manybody.free_energy.s": total["manybody.free_energy_T0"]
        + total["manybody.free_energy_finiteT"],
        "manybody.second_order_energy.s":
            total["manybody.second_order_energy"],
        "manybody.self_s": self_by_layer["manybody"],
        "linalg.eigvalsh.calls.manybody": count["linalg.eigvalsh.manybody"],
        "linalg.eigvalsh.s.manybody": total["linalg.eigvalsh.manybody"],
        "linalg.eigvalsh.calls.cavity": count["linalg.eigvalsh.cavity"],
        "linalg.eigvalsh.s.cavity": total["linalg.eigvalsh.cavity"],
        "linalg.share": eig_s / wall,
        "quadrature.calls": len(quad_sids),
        "quadrature.evals": evals,
        "quadrature.integrand_calls": integrand_calls,
        "quadrature.self_s": self_by_layer["quadrature"],
        "quadrature.us_per_eval": 1e6 * self_by_layer["quadrature"] / evals
        if evals else 0.0,
        "polarizability.alpha_imag.calls": count["polarizability.alpha_imag"],
        "polarizability.alpha_imag.s": total["polarizability.alpha_imag"],
        "pairwise.vdw_energy.s": total["pairwise.vdw_energy"],
        "pairwise.london_energy.s": total["pairwise.london_energy"],
        "pairwise.self_s": self_by_layer["pairwise"],
        "lamb.thermal_shift.s": total["lamb.thermal_shift"],
        "lamb.dielectric_shift_difference.s":
            total["lamb.dielectric_shift_difference"],
        "lamb.self_s": self_by_layer["lamb"],
        "cavity.exact_ground_energy.s": total["cavity.exact_ground_energy"],
        "cavity.interaction_extract.s": total["cavity.interaction_extract"],
        "cavity.build_s": self_by_layer["cavity"],
        "cli.run.s": total["cli.run"],
        "cli.self_s": self_by_layer["cli"],
        "trace.spans": len(names),
    }
    # what neither a layer nor the tracer's calibrated cost accounts for
    attributed = sum(self_by_layer.values())
    figures["trace.unattributed_s"] = wall - attributed - tracer_s
    return {k: float(v) for k, v in figures.items()}
