"""Independent references for every output column, and the checks.

Each reference comes from a route the CLI does not take: a closed form,
an eigenvalue sum of the benchmark's own coupled-dipole matrices, the
benchmark's own direct Matsubara sum, scipy's QUADPACK, or a sum of
two-body energies.  Everything here runs after the timed passes.

A check compares one output value with its reference:

* ``miss``: |value - ref| > tol, where tol is the reference's own
  tolerance plus ``STATED_REL`` * |ref|.  Feeds ``fail_rate``.
* ``bound_miss``: |value - ref| > err + ref_tol, for columns the CLI
  covers with its ``err`` column.  Feeds ``bound_miss_rate``.
* ``gate_miss``: |value - ref| > tol + ``STATED_ABS`` * abs_scale, i.e.
  the value misses the reference even at the stated accuracy, which is
  the seed's default ``QuadratureSpec`` (rel_tol 1e-9, abs_tol 1e-14)
  with a factor 10 of headroom.  The package applies abs_tol to each
  quadrature it runs, before the result is multiplied by its prefactor,
  so ``abs_scale`` is that prefactor summed over the quadratures behind
  the value and its reference (c/(pi r^7) for ``E_vdw``, 3/(pi r^6) for
  ``E_london``, 4 (4/(3 pi c^3)) sum d2 omega for the four pieces of each
  thermal principal value, ...); it is 0 for closed forms and exact
  diagonalisation.  A gate miss makes the run incorrect.
* Checks marked ``gate=False`` test a physics expectation the package
  does not claim.  They are audits: listed, but left out of
  ``fail_rate`` and ``bound_miss_rate``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from fluctem.core import SPEED_OF_LIGHT as C
from fluctem.lamb import bethe_shift_quadrature
from fluctem.pairwise import PairSpec, london_closed_form, vdw_energy
from fluctem.polarizability import KramersHeisenberg, Transition

# stated accuracy: the seed defaults of QuadratureSpec, pinned here so a
# change of the package defaults cannot loosen the checks
STATED_REL = 10 * 1e-9
STATED_ABS = 10 * 1e-14
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Check:
    config: str
    row: int
    column: str
    value: float
    ref: float
    ref_tol: float
    tol: float
    err: float | None
    gate: bool
    reference: str
    abs_scale: float

    @property
    def diff(self) -> float:
        return abs(self.value - self.ref)

    @property
    def miss(self) -> bool:
        return not self.diff <= self.tol

    @property
    def bound_miss(self) -> bool:
        return self.err is not None and not self.diff <= self.err + self.ref_tol

    @property
    def gate_miss(self) -> bool:
        return self.gate \
            and not self.diff <= self.tol + STATED_ABS * self.abs_scale

    def describe(self) -> str:
        rel = self.diff / abs(self.ref) if self.ref else math.inf
        text = (f"{self.config} row {self.row} {self.column}: "
                f"{self.value:.6e} vs {self.reference} {self.ref:.6e} "
                f"(|diff| {self.diff:.2e}, rel {rel:.2e}, tol {self.tol:.2e}")
        if self.err is not None:
            text += f", err {self.err:.2e}"
        return text + ")"


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    """Columns and rows of a CLI CSV table."""
    lines = text.split("\r\n")
    if not lines[0].startswith("# config_hash="):
        raise ValueError("output does not start with the config hash line")
    rows = [r for r in csv.reader(io.StringIO("\r\n".join(lines[1:]))) if r]
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


# ---------------------------------------------------------------- models

def transitions(model: dict) -> list[tuple[float, float]]:
    """(omega, d2) pairs of a config model object, atomic units."""
    if model["model"] == "single_resonance":
        omega = float(model["omega"])
        return [(omega, 1.5 * float(model["alpha_static"]) * omega)]
    return [(float(t["omega"]), float(t["d2"])) for t in model["transitions"]]


def alpha_imag(trans: list[tuple[float, float]], xi) -> np.ndarray:
    xi2 = np.square(np.asarray(xi, dtype=float))
    return (2.0 / 3.0) * sum(w * d2 / (w * w + xi2) for w, d2 in trans)


def _package_model(trans) -> KramersHeisenberg:
    return KramersHeisenberg(tuple(Transition(w, d2) for w, d2 in trans))


# -------------------------------------------------------------- manybody

class Cluster:
    """The benchmark's own coupled-dipole matrices for one manybody config."""

    def __init__(self, cfg: dict):
        positions = np.array([a["position"] for a in cfg["atoms"]],
                             dtype=float)
        self.trans = [transitions(a) for a in cfg["atoms"]]
        n = len(self.trans)
        d = positions[:, None, :] - positions[None, :, :]
        r = np.linalg.norm(d, axis=-1)
        np.fill_diagonal(r, 1.0)
        rhat = d / r[..., None]
        p = rhat[..., :, None] * rhat[..., None, :]
        eye = np.eye(3)
        self.r = r
        self.transverse = eye - p
        self.static = eye - 3.0 * p
        self.offdiag = ~np.eye(n, dtype=bool)
        self.n = n

    def alphas(self, xi: np.ndarray) -> np.ndarray:
        """(K, N) polarizabilities at the frequencies xi."""
        return np.stack([alpha_imag(t, xi) for t in self.trans], axis=-1)

    def interaction(self, xi: np.ndarray, retarded: bool) -> np.ndarray:
        """(K, 3N, 3N) interaction matrices T(i xi), zero self blocks."""
        xi = np.asarray(xi, dtype=float)[:, None, None]
        r = self.r[None]
        if retarded:
            k = xi / C
            blocks = np.exp(-k * r)[..., None, None] * (
                (k * k / r)[..., None, None] * self.transverse
                + (k / r**2)[..., None, None] * self.static
                + (1.0 / r**3)[..., None, None] * self.static)
        else:
            blocks = np.broadcast_to(
                (1.0 / r**3)[..., None, None] * self.static,
                (xi.shape[0],) + self.static.shape)
        blocks = blocks * self.offdiag[None, :, :, None, None]
        k_count, n = blocks.shape[0], self.n
        return blocks.transpose(0, 1, 3, 2, 4).reshape(k_count, 3 * n, 3 * n)

    def log_det(self, xi, retarded: bool = True) -> np.ndarray:
        """log det[1 + A T] = sum log1p(mu) over the eigenvalues mu of
        sqrt(A) T sqrt(A), batched over the frequencies."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty(xi.shape[0])
        chunk = max(1, 10**6 // (9 * self.n * self.n))
        for start in range(0, xi.shape[0], chunk):
            part = xi[start:start + chunk]
            s = np.repeat(np.sqrt(self.alphas(part)), 3, axis=-1)
            m = s[:, :, None] * self.interaction(part, retarded) \
                * s[:, None, :]
            out[start:start + chunk] = np.sum(
                np.log1p(np.linalg.eigvalsh(m)), axis=-1)
        return out

    def normal_modes(self) -> tuple[np.ndarray, float]:
        """Mode shifts Omega_k - omega0 of identical single resonances."""
        (omega, d2), = self.trans[0]
        if any(t != self.trans[0] for t in self.trans):
            raise ValueError("normal modes need identical single resonances")
        alpha0 = (2.0 / 3.0) * d2 / omega
        t_eigs = np.linalg.eigvalsh(self.interaction(np.zeros(1), False)[0])
        # expm1(log1p(x)/2) = sqrt(1 + x) - 1 without cancellation
        shifts = omega * np.expm1(0.5 * np.log1p(alpha0 * t_eigs))
        return shifts, omega


def _normal_mode_free_energy(cluster: Cluster, temperature: float | None
                             ) -> float:
    shifts, omega = cluster.normal_modes()
    modes = omega + shifts
    zero_point = 0.5 * math.fsum(shifts)
    if temperature is None:
        return zero_point
    thermal = temperature * math.fsum(
        np.log1p(-np.exp(-modes / temperature))
        - np.log1p(-np.exp(-omega / temperature)))
    return zero_point + thermal


def _semi_infinite(f, scale: float) -> tuple[float, float]:
    """int_0^inf f(x) dx for a vectorised f, by composite Gauss-Legendre
    on t = x / (scale + x) at 8 and 16 panels of 16 nodes; returns the
    fine value and the coarse-fine difference."""
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def rule(panels: int) -> float:
        edges = np.linspace(0.0, 1.0, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
        w = (half * weights).ravel()
        return math.fsum(w * f(scale * t / (1.0 - t)) * scale / (1.0 - t) ** 2)

    coarse, fine = rule(8), rule(16)
    return fine, abs(fine - coarse) + 8 * _EPS * abs(fine)


def _t0_integral(cluster: Cluster) -> tuple[float, float]:
    scale = min(min(w for t in cluster.trans for w, _ in t),
                C / float(cluster.r[cluster.offdiag].min()))
    value, err = _semi_infinite(cluster.log_det, scale)
    return value / (2.0 * math.pi), err / (2.0 * math.pi)


def _matsubara_direct(cluster: Cluster, temperature: float
                      ) -> tuple[float, float]:
    """T [g(0)/2 + sum g(xi_n)], summed out to xi = 200 omega_max, plus
    the midpoint-rule integral of the remainder."""
    step = 2.0 * math.pi * temperature
    omega_top = max(w for t in cluster.trans for w, _ in t)
    count = max(int(200.0 * omega_top / step), 8)
    g = cluster.log_det(step * np.arange(count + 1))
    g[0] *= 0.5
    head = temperature * math.fsum(g)
    start = (count + 0.5) * step
    tail, tail_err = _semi_infinite(lambda x: cluster.log_det(start + x),
                                    start)
    tail /= 2.0 * math.pi
    # midpoint rule error on the remainder: O((step / start)^2) relative
    ref_tol = abs(tail) * (step / start) ** 2 + tail_err / (2.0 * math.pi) \
        + 8 * _EPS * temperature * math.fsum(np.abs(g))
    return head + tail, ref_tol


def _pairwise_sum(cluster: Cluster) -> tuple[float, float]:
    models = [_package_model(t) for t in cluster.trans]
    values, errors = [], []
    for i in range(cluster.n):
        for j in range(i + 1, cluster.n):
            res = vdw_energy(PairSpec(models[i], models[j],
                                      float(cluster.r[i, j])))
            values.append(res.value)
            errors.append(res.error_estimate)
    return math.fsum(values), math.fsum(errors)


def _check(config, row, column, value, ref, ref_tol, err=None, gate=True,
           reference="", tol=None, abs_scale=0.0):
    if tol is None:
        tol = ref_tol + STATED_REL * abs(ref)
    return Check(config, row, column, value, ref, ref_tol, tol, err, gate,
                 reference, abs_scale)


def check_manybody(cid: str, cfg: dict, columns, rows) -> list[Check]:
    cluster = Cluster(cfg)
    (free, second, err), = rows
    retarded = not cfg.get("nonretarded", False)
    temperature = cfg.get("temperature")
    # free_energy_T0 is 1/(2 pi) times one quadrature; the Matsubara sum
    # has a relative tolerance only
    free_scale = 1.0 / (2.0 * math.pi) if temperature is None else 0.0
    if not retarded:
        ref = _normal_mode_free_energy(cluster, temperature)
        ref_tol, name = 64 * _EPS * abs(ref) * cluster.n, "normal modes"
    elif temperature is None:
        (ref, ref_tol), name = _t0_integral(cluster), "Gauss-Legendre"
    else:
        (ref, ref_tol), name = _matsubara_direct(cluster, temperature), \
            "direct Matsubara sum"
    pair_sum, pair_err = _pairwise_sum(cluster)
    # second_order_energy is 1/(4 pi) times one quadrature, the reference
    # one vdw_energy quadrature per pair
    pair_scale = 1.0 / (4.0 * math.pi) + math.fsum(
        C / (math.pi * cluster.r[i, j] ** 7)
        for i in range(cluster.n) for j in range(i + 1, cluster.n))
    return [
        _check(cid, 0, "free_energy", free, ref, ref_tol, err,
               reference=name, abs_scale=free_scale),
        _check(cid, 0, "second_order", second, pair_sum,
               pair_err + 8 * _EPS * abs(pair_sum),
               reference="sum of pair vdw_energy", abs_scale=pair_scale),
    ]


# -------------------------------------------------------------- pairwise

def _retarded_pair(ta, tb, r: float) -> tuple[float, float]:
    def integrand(x: float) -> float:
        xi = C * x / r
        poly = (((x + 2.0) * x + 5.0) * x * x) + 6.0 * x + 3.0
        return float(alpha_imag(ta, xi) * alpha_imag(tb, xi)) * poly \
            * math.exp(-2.0 * x)

    value, abserr = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0,
                                   epsrel=1e-12, limit=200)
    pref = C / (math.pi * r**7)
    return -pref * value, pref * abserr + 8 * _EPS * pref * abs(value)


def _casimir_polder(ta, tb, r: float) -> float:
    a0 = float(alpha_imag(ta, 0.0))
    b0 = float(alpha_imag(tb, 0.0))
    return -23.0 * C * a0 * b0 / (4.0 * math.pi * r**7)


def check_pairwise(cid: str, cfg: dict, columns, rows) -> list[Check]:
    ta, tb = (transitions(a) for a in cfg["atoms"])
    col = {name: k for k, name in enumerate(columns)}
    swept = "separation" in col
    checks = []
    deepest = max(range(len(rows)), key=lambda k: rows[k][col["r"]])
    omega_low = min(w for w, _ in ta + tb)
    for k, row in enumerate(rows):
        r = row[col["r"]]
        expected_r = row[col["separation"]] if swept else cfg["separation"]
        checks.append(_check(cid, k, "r", r, float(expected_r), 0.0,
                             tol=0.0, reference="config separation"))
        err = row[col["err"]]
        vdw_scale = C / (math.pi * r**7)
        ref, ref_tol = _retarded_pair(ta, tb, r)
        checks.append(_check(cid, k, "E_vdw", row[col["E_vdw"]], ref,
                             ref_tol, err, reference="scipy quad",
                             abs_scale=vdw_scale))
        london = london_closed_form(PairSpec(
            _package_model(ta), _package_model(tb), r))
        checks.append(_check(cid, k, "E_london", row[col["E_london"]],
                             london, 16 * _EPS * abs(london), err,
                             reference="london_closed_form",
                             abs_scale=3.0 / (math.pi * r**6)))
        cp = _casimir_polder(ta, tb, r)
        checks.append(_check(cid, k, "E_cp", row[col["E_cp"]], cp,
                             16 * _EPS * abs(cp), reference="closed form"))
        if k == deepest and omega_low * r / C >= 100.0:
            # E_vdw/E_cp = 1 - 2<x^2>(c/omega r)^2 + ..., <x^2> = 129/46
            next_order = 6.0 * (C / (omega_low * r)) ** 2
            checks.append(_check(
                cid, k, "E_vdw", row[col["E_vdw"]], cp,
                2.0 * next_order * abs(cp),
                reference="Casimir-Polder asymptote", abs_scale=vdw_scale))
    return checks


# ------------------------------------------------------------------ lamb

def _bose_cubed(w: float, temperature: float) -> float:
    grow = w / temperature
    if grow > 700.0:
        return 0.0
    return w**3 / math.expm1(grow) if w > 0.0 else 0.0


def _thermal_oracle(trans, temperature: float) -> tuple[float, float]:
    """scipy route: regular pieces by QAGS/QAGI, the pole by QAWC."""
    pref = -4.0 / (3.0 * math.pi * C**3)
    total, total_err = [], []
    for omega, d2 in trans:
        def regular(w, om=omega):
            return _bose_cubed(w, temperature) / ((om - w) * (om + w))

        def cauchy(w, om=omega):
            return -_bose_cubed(w, temperature) / (w + om)

        opts = dict(epsabs=0.0, epsrel=1e-12, limit=400)
        low, e1 = integrate.quad(regular, 0.0, 0.5 * omega, **opts)
        mid, e2 = integrate.quad(cauchy, 0.5 * omega, 1.5 * omega,
                                 weight="cauchy", wvar=omega, **opts)
        high, e3 = integrate.quad(regular, 1.5 * omega, math.inf, **opts)
        total.append(d2 * omega * (low + mid + high))
        total_err.append(d2 * omega * (e1 + e2 + e3))
    value = pref * math.fsum(total)
    return value, abs(pref) * math.fsum(total_err) + 8 * _EPS * abs(value)


def _thermal_reference(trans, temperature: float):
    omegas = [w for w, _ in trans]
    low, top = min(omegas), max(omegas)
    if temperature <= 0.01 * low:
        law = -(4.0 * math.pi**3 * temperature**4 / (45.0 * C**3)) \
            * math.fsum(d2 / w for w, d2 in trans)
        # next order: (120 pi^2/63) (T/omega)^2, doubled
        return law, 2.0 * (120.0 * math.pi**2 / 63.0) \
            * (temperature / low) ** 2 * abs(law), "cold T^4 law"
    if temperature >= 20.0 * top:
        strength = math.fsum((2.0 / 3.0) * w * d2 for w, d2 in trans)
        law = math.pi * temperature**2 / (3.0 * C**3) * strength
        # next order: (3/pi^2)(omega/T)^2 ln(T/omega), tripled
        rel = 3.0 * (3.0 / math.pi**2) * (top / temperature) ** 2 \
            * (1.0 + math.log(temperature / low))
        return law, rel * abs(law), "hot T^2 law"
    value, ref_tol = _thermal_oracle(trans, temperature)
    return value, ref_tol, "scipy PV quad"


def _dielectric_closed_form(trans, medium: dict) -> tuple[float, float]:
    """PV int_0^inf dw / ((a + w)(b^2 - w^2)) = ln(b/a) / (b^2 - a^2).

    Also returns the factor the package multiplies into its quadratures:
    four pieces per principal value, each weighted as in the sum."""
    host = transitions(medium["host"])
    terms = []
    for ws, d2s in trans:
        for wh, d2h in host:
            if abs(wh - ws) <= 1e-12 * ws:
                pv = 1.0 / (2.0 * ws * ws)
            else:
                pv = math.log(wh / ws) / ((wh - ws) * (wh + ws))
            terms.append(ws * ws * d2s * wh * d2h * pv)
    pref = -(2.0 / (3.0 * math.pi * C**3)) * 2.0 * math.pi \
        * float(medium["number_density"]) * (2.0 / 3.0)
    weights = math.fsum(ws * ws * d2s * wh * d2h
                        for ws, d2s in trans for wh, d2h in host)
    return pref * math.fsum(terms), 4.0 * abs(pref) * weights


def check_lamb(cid: str, cfg: dict, columns, rows) -> list[Check]:
    trans = transitions(cfg["atom"])
    col = {name: k for k, name in enumerate(columns)}
    bethe = bethe_shift_quadrature(_package_model(trans))
    # prefactors of the package's quadratures: one interval per transition
    # for the Bethe reference, four pieces per principal value otherwise
    atom = 1.0 / (3.0 * math.pi * C**3)
    bethe_scale = 2.0 * atom * math.fsum(w * w * d2 for w, d2 in trans)
    thermal_scale = 4.0 * 4.0 * atom * math.fsum(w * d2 for w, d2 in trans)
    checks = []
    for k, row in enumerate(rows):
        err = row[col["err"]]
        checks.append(_check(cid, k, "bethe", row[col["bethe"]], bethe.value,
                             bethe.error_estimate + 8 * _EPS * abs(bethe.value),
                             reference="bethe_shift_quadrature",
                             abs_scale=bethe_scale))
        if "temperature" in col or "temperature" in cfg:
            temperature = row[col["temperature"]] if "temperature" in col \
                else float(cfg["temperature"])
            ref, ref_tol, name = _thermal_reference(trans, temperature)
            checks.append(_check(cid, k, f"thermal(T={temperature:g})",
                                 row[col["thermal"]], ref, ref_tol, err,
                                 reference=name, abs_scale=thermal_scale))
        if "medium" in cfg:
            ref, scale = _dielectric_closed_form(trans, cfg["medium"])
            checks.append(_check(cid, k, "dielectric", row[col["dielectric"]],
                                 ref, 64 * _EPS * abs(ref), err,
                                 reference="closed form", abs_scale=scale))
    return checks


# ---------------------------------------------------------------- cavity

def check_cavity(cid: str, cfg: dict, columns, rows) -> list[Check]:
    """Second order selves and pair term, plus the third-order cross term
    g1 g2 v S3 of the documented Hamiltonian, which the extracted column
    isolates."""
    col = {name: k for k, name in enumerate(columns)}
    mode = cfg["mode"]
    omega = float(mode["omega"])
    pol = np.array(mode["polarization"], dtype=float)
    amps = [float(a) for a in mode["amplitudes"]]
    w = [float(a["omega"]) for a in cfg["atoms"]]
    dip = [np.array(a["dipole"], dtype=float) for a in cfg["atoms"]]
    proj = [float(d @ pol) for d in dip]
    g = [amps[n] * proj[n] * math.sqrt(omega) for n in range(2)]
    selves = [-amps[n] ** 2 * proj[n] ** 2 * omega / (omega + w[n])
              for n in range(2)]
    s3 = 2.0 / ((w[0] + omega) * (w[1] + omega)) + (2.0 / (w[0] + w[1])) \
        * (1.0 / (w[0] + omega) + 1.0 / (w[1] + omega))
    checks = []
    for k, row in enumerate(rows):
        r = row[col["r"]]
        expected_r = row[col["separation"]] if "separation" in col \
            else float(cfg["separation"])
        rhat = np.array([0.0, 0.0, 1.0])
        bracket = float(dip[0] @ dip[1]) \
            - 3.0 * float(dip[0] @ rhat) * float(dip[1] @ rhat)
        v = -bracket / r**3
        pair2 = -v * v / (w[0] + w[1])
        third = g[0] * g[1] * v * s3
        documented = -(amps[0] * amps[1] / (2.0 * r**3)) * proj[0] * proj[1] \
            * bracket / (w[0] + w[1])
        # relative size of the first neglected order
        kappa2 = max(gn * gn for gn in g) / (omega * min(w)) \
            + (v / (w[0] + w[1])) ** 2
        # fourth-order g^2 v^2 channel that survives the differencing
        quartic = max(gn * gn for gn in g) * v * v \
            / ((w[0] + w[1]) ** 2 * (omega + min(w)))
        self_scale = abs(selves[0]) + abs(selves[1])
        closed = 16 * _EPS
        checks += [
            _check(cid, k, "r", r, expected_r, 0.0, tol=0.0,
                   reference="config separation"),
            _check(cid, k, "self_1", row[col["self_1"]], selves[0],
                   closed * abs(selves[0]), reference="closed form"),
            _check(cid, k, "self_2", row[col["self_2"]], selves[1],
                   closed * abs(selves[1]), reference="closed form"),
            _check(cid, k, "interaction", row[col["interaction"]], documented,
                   closed * abs(documented), reference="documented form"),
            _check(cid, k, "interaction", row[col["interaction"]], third,
                   10.0 * kappa2 * abs(third), gate=False,
                   reference="third-order cross energy"),
            _check(cid, k, "extracted", row[col["extracted"]], third,
                   10.0 * (kappa2 * abs(third) + quartic)
                   + 1e-12 * self_scale,
                   reference="third-order cross energy"),
            _check(cid, k, "exact_total", row[col["exact_total"]],
                   selves[0] + selves[1] + third + pair2,
                   10.0 * kappa2 * (self_scale + abs(third) + abs(pair2)),
                   reference="perturbative total"),
        ]
    return checks


CHECKERS = {
    "manybody": check_manybody,
    "pairwise": check_pairwise,
    "lamb": check_lamb,
    "cavity": check_cavity,
}


def check_config(cid: str, cfg: dict, text: str) -> list[Check]:
    columns, rows = parse_table(text)
    task = cfg["subtask"] if cfg["task"] == "scan" else cfg["task"]
    return CHECKERS[task](cid, cfg, columns, rows)
