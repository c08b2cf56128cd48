"""Command-line frontend: JSON config in, machine-readable table out.

The config is a single JSON object.  Top-level keys:

  task         "pairwise" | "manybody" | "lamb" | "cavity" | "scan"
  description  free text, ignored
  units        {"length": "bohr"|"nm", "energy": "hartree"|"eV",
               "temperature": "kelvin"|"hartree_temperature"}; omitted
               entries default to atomic units.  Only positions and
               separations use the length unit and only frequencies,
               cutoffs, and temperatures are converted; polarizabilities,
               dipole moments, and mode amplitudes are always atomic.
  atoms        list of atom objects (see each task below)
  separation   scalar distance (pairwise; cavity shorthand for two atoms
               on the z axis)
  temperature  optional scalar (manybody -> thermal sum, lamb -> thermal
               shift)
  quadrature   optional {"rel_tol", "max_evals"} (pairwise, manybody,
               lamb); with a manybody temperature only rel_tol reaches
               the thermal sum, and both reach the second-order integral
  cutoff       optional frequency cutoff (lamb)
  medium       optional {"number_density", "host": <model>} (lamb);
               density in inverse cubic length units
  mode         {"omega", "polarization", "amplitudes"} (cavity); the
               cavity oracle grows its own photon cutoff until converged
  nonretarded  optional bool (manybody)
  sweep        {"parameter": <dotted path>, "values": [...]}, scan only;
               the points run one after another
  subtask      the task a scan wraps, scan only

Polarizable-atom model objects: {"model": "single_resonance",
"alpha_static": a0, "omega": w0} or {"model": "transitions",
"transitions": [{"omega": w, "d2": s}, ...]}.  Cavity atoms instead
carry {"omega": w, "dipole": [x, y, z], "position": [x, y, z]}.

Results are always in Hartree atomic units.  CSV output starts with
`# config_hash=<sha256> version=<semver>`, then a header row; numbers
carry 17 significant digits.  Identical configs produce byte-identical
files.  Exit codes: 0 success, 1 error, 2 validity warnings under
--strict.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .cavity import (
    CavityMode,
    CavitySystem,
    TwoStateAtom,
    exact_ground_energy,
    interaction_extract,
    perturbative_shift,
)
from .core import convert
from .lamb import (
    CutoffSpec,
    DiluteMedium,
    bethe_shift,
    dielectric_shift_difference,
    thermal_shift,
)
from .manybody import (
    SystemGeometry,
    free_energy_T0,
    free_energy_finiteT,
    second_order_energy,
)
# london_energy is unused here but stays bound: perfbench's tracer wraps it
from .pairwise import (
    PairSpec,
    casimir_polder_asymptote,
    london_closed_form,
    london_energy,
    validity_check,
    vdw_energy,
)
from .polarizability import KramersHeisenberg, Transition, single_resonance
from .quadrature import MatsubaraSpec, QuadratureSpec

__all__ = ["ConfigError", "run", "main"]

_TASKS = ("pairwise", "manybody", "lamb", "cavity", "scan")

# column whose log-log slope --fit-slope reports, per wrapped task
_SLOPE_COLUMN = {
    "pairwise": "E_vdw",
    "manybody": "free_energy",
    "lamb": "bethe",
    "cavity": "extracted",
}

_COMMON_KEYS = {"task", "description", "units"}
_TASK_KEYS = {
    "pairwise": {"atoms", "separation", "quadrature"},
    "manybody": {"atoms", "temperature", "nonretarded", "quadrature"},
    "lamb": {"atom", "temperature", "cutoff", "medium", "quadrature"},
    "cavity": {"atoms", "separation", "mode"},
}


# the unit each units entry defaults to, and converts into
_ATOMIC_UNITS = {"length": "bohr", "energy": "hartree",
                 "temperature": "hartree_temperature"}


class ConfigError(ValueError):
    """A config file that parses as JSON but violates the schema."""


class _Units:
    """Boundary conversions from config units into atomic units."""

    def __init__(self, cfg: dict):
        spec = cfg.get("units", {})
        if not isinstance(spec, dict):
            raise ConfigError("units must be an object")
        unknown = set(spec) - set(_ATOMIC_UNITS)
        if unknown:
            raise ConfigError(f"unknown units entries: {sorted(unknown)}")
        for entry, tag in spec.items():
            try:
                convert(1.0, tag, _ATOMIC_UNITS[entry])
            except (TypeError, ValueError):
                raise ConfigError(f"units.{entry} must be a {entry} unit "
                                  f"tag, got {tag!r}") from None
        self._tags = dict(_ATOMIC_UNITS, **spec)

    def length(self, value: float, label: str) -> float:
        return convert(_number(value, label), self._tags["length"], "bohr")

    def energy(self, value: float, label: str) -> float:
        return convert(_number(value, label), self._tags["energy"], "hartree")

    def temperature(self, value: float, label: str) -> float:
        return convert(_number(value, label), self._tags["temperature"],
                       "hartree_temperature")

    def inverse_volume(self, value: float, label: str) -> float:
        scale = convert(1.0, self._tags["length"], "bohr")
        return _number(value, label) / scale**3


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{label} must be finite")
    return number


def _positive(value: float, label: str) -> float:
    if not value > 0:
        raise ConfigError(f"{label} must be positive")
    return value


def _vector(value, label: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{label} must be a 3-element list")
    return tuple(_number(v, label) for v in value)


def _check_keys(cfg: dict, task: str) -> None:
    allowed = _COMMON_KEYS | _TASK_KEYS[task]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(
            f"unknown config keys for task {task!r}: {sorted(unknown)}")


def _model(obj, units: _Units, label: str) -> KramersHeisenberg:
    if not isinstance(obj, dict):
        raise ConfigError(f"{label} must be an object")
    kind = obj.get("model")
    if kind == "single_resonance":
        alpha_static = _positive(_number(obj.get("alpha_static"),
                                         f"{label}.alpha_static"),
                                 f"{label}.alpha_static")
        omega = _positive(units.energy(obj.get("omega"), f"{label}.omega"),
                          f"{label}.omega")
        try:
            return single_resonance(alpha_static, omega)
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from None
    if kind == "transitions":
        rows = obj.get("transitions")
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"{label}.transitions must be a nonempty list")
        transitions = []
        for i, row in enumerate(rows):
            row_label = f"{label}.transitions[{i}]"
            if not isinstance(row, dict):
                raise ConfigError(f"{row_label} must be an object")
            d2 = _number(row.get("d2"), f"{row_label}.d2")
            if d2 < 0:
                raise ConfigError(f"{row_label}.d2 cannot be negative")
            transitions.append(Transition(
                _positive(units.energy(row.get("omega"), f"{row_label}.omega"),
                          f"{row_label}.omega"), d2))
        try:
            return KramersHeisenberg(tuple(transitions))
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from None
    raise ConfigError(
        f"{label}.model must be 'single_resonance' or 'transitions'")


def _quad_spec(cfg: dict) -> QuadratureSpec | None:
    obj = cfg.get("quadrature")
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError("quadrature must be an object")
    unknown = set(obj) - {"rel_tol", "max_evals"}
    if unknown:
        raise ConfigError(f"unknown quadrature keys: {sorted(unknown)}")
    kwargs = {}
    if "rel_tol" in obj:
        kwargs["rel_tol"] = _number(obj["rel_tol"], "quadrature.rel_tol")
    if "max_evals" in obj:
        max_evals = _number(obj["max_evals"], "quadrature.max_evals")
        if not max_evals.is_integer():
            raise ConfigError(f"quadrature.max_evals must be an integer, "
                              f"got {obj['max_evals']!r}")
        kwargs["max_evals"] = int(max_evals)
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from None


def _run_pairwise(cfg: dict) -> tuple[list[str], list[float]]:
    units = _Units(cfg)
    quad = _quad_spec(cfg)
    atoms = cfg.get("atoms")
    if not isinstance(atoms, list) or len(atoms) != 2:
        raise ConfigError("pairwise needs exactly two atoms")
    model_a = _model(atoms[0], units, "atoms[0]")
    model_b = _model(atoms[1], units, "atoms[1]")
    r = _positive(units.length(cfg.get("separation"), "separation"),
                  "separation")
    pair = PairSpec(model_a, model_b, r)
    verdict = validity_check(pair)
    if not verdict.ok:
        warnings.warn(f"point-dipole picture strained: "
                      f"alpha_a0*alpha_b0/r^6 = {verdict.ratio:.3g} >= 1")
    vdw = vdw_energy(pair, quad)
    cp = casimir_polder_asymptote(model_a.static_polarizability(),
                                  model_b.static_polarizability(), r)
    return (["r", "E_vdw", "E_london", "E_cp", "err"],
            [r, vdw.value, london_closed_form(pair), cp, vdw.error_estimate])


def _run_manybody(cfg: dict) -> tuple[list[str], list[float]]:
    units = _Units(cfg)
    quad = _quad_spec(cfg)
    atoms = cfg.get("atoms")
    if not isinstance(atoms, list) or len(atoms) < 2:
        raise ConfigError("manybody needs at least two atoms")
    sites = []
    for k, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ConfigError(f"atoms[{k}] must be an object")
        label = f"atoms[{k}].position"
        pos = tuple(units.length(v, label)
                    for v in _vector(atom.get("position"), label))
        sites.append((pos, _model(atom, units, f"atoms[{k}]")))
    delta = np.array([pos for pos, _ in sites])
    with np.errstate(over="ignore"):
        delta = delta[:, None, :] - delta[None, :, :]
        r2 = np.sum(delta * delta, axis=-1)
    # a zero squared distance, as SystemGeometry finds it: equal positions,
    # or separations so small that their square underflows; an infinite
    # one: separations so large that it overflows
    for bad, verdict in ((r2 == 0.0, "coincide"),
                         (~np.isfinite(r2), "are too far apart for a "
                                            "finite distance")):
        i, j = np.nonzero(np.triu(bad, k=1))
        if i.size:
            raise ConfigError(f"atoms[{i[0]}] and atoms[{j[0]}] {verdict}")
    geometry = SystemGeometry(sites)
    nonretarded = cfg.get("nonretarded", False)
    if not isinstance(nonretarded, bool):
        raise ConfigError("nonretarded must be true or false")
    for i, j, verdict in geometry.validity_reports():
        if not verdict.ok:
            warnings.warn(f"atoms {i} and {j} strain the point-dipole "
                          f"picture: ratio = {verdict.ratio:.3g} >= 1")
    if "temperature" in cfg:
        temp = _positive(units.temperature(cfg["temperature"], "temperature"),
                         "temperature")
        tail = MatsubaraSpec(rel_tol=quad.rel_tol) if quad else None
        try:
            free = free_energy_finiteT(geometry, temp, tail,
                                       nonretarded=nonretarded)
        except ValueError as exc:
            # the one range error left: Matsubara frequencies that
            # overflow, whose message names the temperature
            raise ConfigError(str(exc)) from None
    else:
        free = free_energy_T0(geometry, quad, nonretarded=nonretarded)
    second = second_order_energy(geometry, quad)
    return (["free_energy", "second_order", "err"],
            [free.value, second.value, free.error_estimate])


def _run_lamb(cfg: dict) -> tuple[list[str], list[float]]:
    units = _Units(cfg)
    quad = _quad_spec(cfg)
    model = _model(cfg.get("atom"), units, "atom")
    cutoff = None
    if "cutoff" in cfg:
        try:
            cutoff = CutoffSpec(units.energy(cfg["cutoff"], "cutoff"))
        except ValueError as exc:
            raise ConfigError(f"cutoff: {exc}") from None
    try:
        bethe = bethe_shift(model, cutoff)
    except OverflowError as exc:
        raise ConfigError(f"atom: {exc}") from None
    thermal = dielectric = err = 0.0
    if "temperature" in cfg:
        temp = _positive(units.temperature(cfg["temperature"], "temperature"),
                         "temperature")
        res = thermal_shift(model, temp, quad)
        thermal, err = res.value, res.error_estimate
    if "medium" in cfg:
        spec = cfg["medium"]
        if not isinstance(spec, dict):
            raise ConfigError("medium must be an object")
        # these name their own keys; only the medium's checks need naming
        density = units.inverse_volume(spec.get("number_density"),
                                       "medium.number_density")
        if density < 0:
            raise ConfigError("medium.number_density cannot be negative")
        host = _model(spec.get("host"), units, "medium.host")
        try:
            medium = DiluteMedium(density, host)
        except ValueError as exc:
            raise ConfigError(f"medium: {exc}") from None
        dielectric = dielectric_shift_difference(model, medium).value
    return (["bethe", "thermal", "dielectric", "err"],
            [bethe, thermal, dielectric, err])


def _run_cavity(cfg: dict) -> tuple[list[str], list[float]]:
    units = _Units(cfg)
    atoms = cfg.get("atoms")
    if not isinstance(atoms, list) or len(atoms) != 2:
        raise ConfigError("cavity needs exactly two atoms")
    parsed = []
    for k, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ConfigError(f"atoms[{k}] must be an object")
        parsed.append(TwoStateAtom(
            _positive(units.energy(atom.get("omega"), f"atoms[{k}].omega"),
                      f"atoms[{k}].omega"),
            _vector(atom.get("dipole"), f"atoms[{k}].dipole")))
    if "separation" in cfg:
        r = _positive(units.length(cfg["separation"], "separation"),
                      "separation")
        positions = ((0.0, 0.0, 0.0), (0.0, 0.0, r))
    else:
        positions = tuple(
            tuple(units.length(v, f"atoms[{k}].position")
                  for v in _vector(atom.get("position"),
                                   f"atoms[{k}].position"))
            for k, atom in enumerate(atoms))
    delta = np.asarray(positions[1], dtype=float) \
        - np.asarray(positions[0], dtype=float)
    r = math.sqrt(float(delta @ delta))
    if r == 0.0:
        raise ConfigError("atoms[0] and atoms[1] coincide")
    spec = cfg.get("mode")
    if not isinstance(spec, dict):
        raise ConfigError("cavity needs a mode object")
    omega = _positive(units.energy(spec.get("omega"), "mode.omega"),
                      "mode.omega")
    polarization = np.array(
        _vector(spec.get("polarization"), "mode.polarization"))
    # CavityMode's own norm check, so that the two agree to the last bit
    if not abs(math.sqrt(float(polarization @ polarization)) - 1.0) <= 1e-12:
        raise ConfigError("mode.polarization must be a unit vector")
    amplitudes = spec.get("amplitudes")
    if not isinstance(amplitudes, list):
        raise ConfigError("mode.amplitudes must be a list")
    if len(amplitudes) != len(atoms):
        raise ConfigError(f"mode.amplitudes needs one entry per atom "
                          f"({len(atoms)}), got {len(amplitudes)}")
    mode = CavityMode(omega, polarization,
                      tuple(_number(a, "mode.amplitudes") for a in amplitudes))
    system = CavitySystem(parsed, positions, mode)
    if not system.high_frequency:
        raise ConfigError("mode.omega must be over 10x every atomic omega")
    shift = perturbative_shift(system)
    extracted = interaction_extract(system)
    exact = exact_ground_energy(system)
    return (["r", "self_1", "self_2", "interaction", "extracted",
             "exact_total"],
            [r, shift.self_1, shift.self_2, shift.interaction, extracted,
             exact])


_RUNNERS = {
    "pairwise": _run_pairwise,
    "manybody": _run_manybody,
    "lamb": _run_lamb,
    "cavity": _run_cavity,
}


def _set_path(cfg: dict, path: str, value: float) -> None:
    node = cfg
    parts = path.split(".")
    try:
        for part in parts[:-1]:
            node = node[int(part)] if isinstance(node, list) else node[part]
        last = parts[-1]
        key = int(last) if isinstance(node, list) else last
        current = node[key]
    except (KeyError, IndexError, TypeError, ValueError):
        raise ConfigError(
            f"sweep parameter {path!r} not found in config") from None
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(
            f"sweep parameter {path!r} must resolve to a numeric field")
    node[key] = value


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    points = [(x, abs(y)) for x, y in zip(xs, ys)
              if x > 0 and y != 0 and math.isfinite(y)]
    if len(points) < 2:
        return math.nan
    log_x = np.log([p[0] for p in points])
    log_y = np.log([p[1] for p in points])
    return float(np.polyfit(log_x, log_y, 1)[0])


def _run_scan(cfg: dict,
              fit_slope: bool) -> tuple[list[str], list[list[float]]]:
    subtask = cfg.get("subtask")
    if subtask not in _RUNNERS:
        raise ConfigError(
            f"scan subtask must be one of {sorted(_RUNNERS)}, got {subtask!r}")
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("scan needs a sweep object")
    unknown = set(sweep) - {"parameter", "values"}
    if unknown:
        raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
    parameter = sweep.get("parameter")
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep.parameter must be a nonempty string")
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a nonempty list")
    values = [_number(v, "sweep.values") for v in values]

    base = {k: v for k, v in cfg.items() if k not in ("sweep", "subtask")}
    base["task"] = subtask
    _check_keys(base, subtask)
    runner = _RUNNERS[subtask]

    # every runner returns the same columns at every point
    rows = []
    for value in values:
        local = copy.deepcopy(base)
        _set_path(local, parameter, value)
        columns, row = runner(local)
        rows.append([value] + row)
    columns = [parameter] + columns
    if fit_slope:
        target = _SLOPE_COLUMN[subtask]
        idx = columns.index(target)
        slope = _fit_slope(values, [row[idx] for row in rows])
        columns.append("loglog_slope")
        for row in rows:
            row.append(slope)
    return columns, rows


def _execute(cfg: dict,
             fit_slope: bool) -> tuple[list[str], list[list[float]]]:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    task = cfg.get("task")
    if task not in _TASKS:
        raise ConfigError(f"task must be one of {sorted(_TASKS)}, "
                          f"got {task!r}")
    if task == "scan":
        # a scan takes the keys of its subtask, which _run_scan checks
        return _run_scan(cfg, fit_slope)
    _check_keys(cfg, task)
    if fit_slope:
        raise ConfigError("--fit-slope needs task=scan")
    columns, row = _RUNNERS[task](cfg)
    return columns, [row]


def _render_csv(columns: list[str], rows: list[list[float]],
                config_hash: str) -> str:
    buffer = io.StringIO()
    buffer.write(f"# config_hash={config_hash} version={__version__}\r\n")
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(format(value, ".17g") for value in row)
    return buffer.getvalue()


def _render_json(columns: list[str], rows: list[list[float]],
                 config_hash: str) -> str:
    document = {
        "config_hash": config_hash,
        "version": __version__,
        "columns": columns,
        "rows": rows,
    }
    return json.dumps(document, indent=2) + "\n"


def run(config_path: str, output_path: str = "-", output_format: str = "csv",
        strict: bool = False, fit_slope: bool = False) -> int:
    """Execute one config file and write its table; returns the exit code."""
    try:
        raw = Path(config_path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    config_hash = hashlib.sha256(raw).hexdigest()
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        print(f"error: config is not UTF-8: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config parse failure at line {exc.lineno} "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            columns, rows = _execute(cfg, fit_slope)
        except ConfigError as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            # validity findings outrank the downstream failure under
            # --strict: an invalid system is the root cause, not the crash
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)
            if strict and caught:
                return 2
            origin = type(exc).__module__
            print(f"error [{origin}.{type(exc).__name__}]: {exc}",
                  file=sys.stderr)
            return 1
    notes = [str(w.message) for w in caught]

    render = _render_json if output_format == "json" else _render_csv
    text = render(columns, rows, config_hash)
    if output_path == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(output_path).write_bytes(text.encode("utf-8"))
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if strict and notes:
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluctem",
        description="Fluctuation-induced electromagnetic energies "
                    "(atomic units).")
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="execute one JSON config")
    runner.add_argument("--config", required=True,
                        help="path to the JSON config file")
    runner.add_argument("--output", default="-",
                        help="output file path, or - for stdout (default)")
    runner.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="output_format", help="output format")
    runner.add_argument("--strict", action="store_true",
                        help="exit 2 when validity warnings fire")
    runner.add_argument("--fit-slope", action="store_true",
                        dest="fit_slope",
                        help="append a log-log slope column to a scan")
    args = parser.parse_args(argv)
    return run(args.config, args.output, args.output_format, args.strict,
               args.fit_slope)


if __name__ == "__main__":
    sys.exit(main())
