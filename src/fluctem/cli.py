"""Command-line frontend: JSON config in, machine-readable table out.

The config is one JSON object with a "task": "pairwise", "manybody",
"lamb", "cavity", or "scan" over one of them.  ``_KEYS`` (and README's
table) lists every key of each task, and each numeric key's dimension
and range in atomic units.  One walk over a config rejects unknown keys,
converts each number by its dimension from the config's "units" into
atomic units, and checks its range, so the runners read checked numbers.
A scan checks its base config once and every swept value before the
first point runs.

Results are always in Hartree atomic units.  CSV output starts with
`# config_hash=<sha256> version=<semver>`, then a header row; numbers
carry 17 significant digits.  Identical configs produce byte-identical
files.  An existing output file is rewritten in place, its config hash
last: a run killed while writing leaves an incomplete file under the
old hash or none, never under the new one.  Nothing is synced to disk,
so after a power loss only a run's exit 0 vouches for its file.  Exit
codes: 0 success, 1 error, 2 validity warnings under --strict.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import stat
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

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
from .core import convert, unwrap
from .lamb import (
    CutoffSpec,
    DiluteMedium,
    bethe_shift,
    dielectric_shift_difference,
    thermal_shift,
)
from .manybody import (
    PairDistanceError,
    SystemGeometry,
    free_energy_T0,
    free_energy_T0_and_second_order,
    free_energy_finiteT,
    second_order_energy,
)
# london_energy and vdw_energy are unused here but stay bound: perfbench's
# tracer wraps them
from .pairwise import (
    PairSpec,
    casimir_polder_asymptote,
    london_closed_form,
    london_energy,
    validity_check,
    vdw_energies,
    vdw_energy,
)
from .polarizability import KramersHeisenberg, Transition, single_resonance
from .quadrature import QuadratureSpec

__all__ = ["ConfigError", "run", "main"]


class ConfigError(ValueError):
    """A config file that parses as JSON but violates the schema."""


class _Key(NamedTuple):
    """A numeric key: its dimension and its range lo .. hi, both included,
    in atomic units.  A "distance" is a length between two atoms, a
    "density" is per cubic length, "atomic" is never converted and a
    "count" is an integer."""

    dimension: str
    lo: float
    hi: float


_MAX = sys.float_info.max


def _model_keys(prefix: str, omega: _Key, hi: float) -> dict:
    """The keys of a model object at ``prefix``: frequencies in ``omega``,
    strengths up to ``hi``; alpha*omega^2 stays normal from 1e-100 on."""
    return {prefix + "model": None,
            prefix + "alpha_static": _Key("atomic", 1e-100, hi),
            prefix + "omega": omega,
            prefix + "transitions[].omega": omega,
            prefix + "transitions[].d2": _Key("atomic", 0.0, hi)}


_COMMON = {"task": None, "description": None, "units.length": None,
           "units.energy": None, "units.temperature": None}
# under 1e-14 the sums and ladders stop on rounding, not on rel_tol; a
# spent budget is a QuadratureError that names the budget
_QUADRATURE = {"quadrature.rel_tol": _Key("atomic", 1e-14, 1.0),
               "quadrature.max_evals": _Key("count", 100.0, _MAX)}
# the pair energies divide by up to r^7, which stays within 1e-280 ..
# 1e280 here, room left for prefactors
_SEPARATION = _Key("distance", 1e-40, 1e40)
_POSITION = _Key("length", -_MAX, _MAX)
# pair and cluster energies multiply two polarizabilities, so their
# models stop at 1e100; their integrals centre on the lowest frequency
# and resolve frequencies only up to about 1e17 above it
_PAIR_MODEL = _model_keys("atoms[].", _Key("energy", 1e-15, 1e100), 1e100)
# a lamb model's overflow is named by the model or by the shift it breaks
_LAMB_OMEGA = _Key("energy", 1e-100, _MAX)

# every key of each task: a _Key for a number, bool for a flag, or None
# for a key whose text its reader checks
_KEYS = {
    "pairwise": {**_COMMON, "separation": _SEPARATION, **_PAIR_MODEL,
                 **_QUADRATURE},
    "manybody": {**_COMMON, "temperature": _Key("temperature", 5e-324, _MAX),
                 "nonretarded": bool, "atoms[].position[]": _POSITION,
                 **_PAIR_MODEL, **_QUADRATURE},
    # the thermal shift's hot end is pi^2 T^2/6 per transition, which
    # stays finite up to 1e99
    "lamb": {**_COMMON, "temperature": _Key("temperature", 5e-324, 1e99),
             "cutoff": _LAMB_OMEGA,
             "medium.number_density": _Key("density", 0.0, _MAX),
             **_model_keys("atom.", _LAMB_OMEGA, _MAX),
             **_model_keys("medium.host.", _LAMB_OMEGA, _MAX)},
    # couplings amplitude (dipole . polarization) sqrt(omega) stay under
    # 1e150, so their squares and the Hamiltonian stay finite
    "cavity": {**_COMMON, "separation": _SEPARATION,
               "atoms[].omega": _Key("energy", 1e-100, 1e100),
               "atoms[].dipole[]": _Key("atomic", -1e50, 1e50),
               "atoms[].position[]": _POSITION,
               "mode.omega": _Key("energy", 1e-100, 1e100),
               "mode.polarization[]": _Key("atomic", -1.0, 1.0),
               "mode.amplitudes[]": _Key("atomic", -1e50, 1e50)},
}
# every key and every object or list on the way to one, per task
_PATHS = {task: {key[:k] for key in keys for k in range(1, len(key) + 1)
                 if k == len(key) or key[k] in ".["}
          for task, keys in _KEYS.items()}


def _text(x: float) -> str:
    return repr(float(x)).replace("e+", "e").removesuffix(".0")


def _scales(units) -> dict[str, float]:
    """One config unit of each dimension, in atomic units."""
    if not isinstance(units, dict):
        raise ConfigError("units must be an object")
    scales = {}
    # each entry defaults to the atomic unit, into which it converts
    for entry, atomic in (("length", "bohr"), ("energy", "hartree"),
                          ("temperature", "hartree_temperature")):
        try:
            scales[entry] = convert(1.0, units.get(entry, atomic), atomic)
        except (TypeError, ValueError):
            raise ConfigError(f"units.{entry} must be a {entry} unit tag, "
                              f"got {units[entry]!r}") from None
    return dict(scales, distance=scales["length"])


def _check_distance(r: float, pair: str) -> None:
    """Refuse the ``pair`` of atoms ``r`` bohr apart when they coincide or
    lie outside the range of a separation."""
    if r == 0.0:
        raise ConfigError(f"{pair} coincide")
    if r < _SEPARATION.lo:
        raise ConfigError(f"{pair} are closer than {_text(_SEPARATION.lo)} "
                          f"bohr")
    if not r <= _SEPARATION.hi:
        raise ConfigError(f"{pair} are too far apart: over "
                          f"{_text(_SEPARATION.hi)} bohr")


def _placed(build, *args):
    """``build(*args)``, a manybody or cavity system of placed atoms.  A
    pair whose distance has no normal square is refused as outside the
    range of a separation; the caller checks the distances of the system
    it gets against that range."""
    try:
        return build(*args)
    except PairDistanceError as exc:
        _check_distance(exc.distance, f"atoms[{exc.i}] and atoms[{exc.j}]")
        raise


def _past_one(ratio: float) -> str:
    """A validity ratio of 1 or more as a warning prints it; one past the
    double range prints as such, not as inf."""
    return f"= {ratio:.3g} >= 1" if ratio < math.inf else "> 1.8e308"


def _check(value, key: _Key, name: str, scales: dict[str, float]):
    """``value`` of the key ``name`` in atomic units, or a ConfigError
    unless it is a finite number inside ``key``'s range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if isinstance(value, int) and abs(value) > _MAX \
            or not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    x = value / scales["length"]**3 if key.dimension == "density" \
        else value * scales.get(key.dimension, 1.0)
    if key.lo <= x <= key.hi:
        if key.dimension != "count":
            return x
        if not x.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(x)
    if x <= 0.0 < key.lo:
        raise ConfigError(f"{name} must be positive")
    if x < 0.0 and key.lo == 0.0:
        raise ConfigError(f"{name} cannot be negative")
    if key.dimension == "distance":
        _check_distance(x, f"{name}: atoms[0] and atoms[1]")
    raise ConfigError(f"{name} must be within {_text(key.lo)} .. "
                      f"{_text(key.hi)} in atomic units")


def _walk(node, pattern: str, name: str, task: str,
          scales: dict[str, float]):
    """``node``, the value of the key ``name`` that ``pattern`` matches,
    with every number in it checked and in atomic units."""
    if pattern in _KEYS[task]:
        key = _KEYS[task][pattern]
        if key is bool and not isinstance(node, bool):
            raise ConfigError(f"{name} must be true or false")
        return _check(node, key, name, scales) if isinstance(key, _Key) \
            else node
    if pattern + "[]" in _PATHS[task]:
        if not isinstance(node, list):
            raise ConfigError(f"{name} must be a list")
        return [_walk(item, pattern + "[]", f"{name}[{k}]", task, scales)
                for k, item in enumerate(node)]
    if not isinstance(node, dict):
        raise ConfigError(f"{name} must be an object")
    dot = "." if pattern else ""
    # a dotted or bracketed key would pass for a path into a nested object
    unknown = [name + dot + k for k in node if not k.isidentifier()
               or pattern + dot + k not in _PATHS[task]]
    if unknown:
        raise ConfigError(
            f"unknown config keys for task {task!r}: {sorted(unknown)}")
    return {k: _walk(v, pattern + dot + k, name + dot + k, task, scales)
            for k, v in node.items()}


def _need(obj: dict, name: str, length: int | None = None):
    """The value of the required key ``name`` of ``obj``; a list of
    ``length`` numbers if given."""
    key = name.rsplit(".", 1)[-1]
    if key not in obj:
        raise ConfigError(f"{name} is missing")
    if length is not None and len(obj[key]) != length:
        raise ConfigError(f"{name} must be a list of {length} numbers")
    return obj[key]


def _named(name: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its range errors as a ConfigError
    naming the key or object ``name`` (none: the message names it)."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}" if name else str(exc)) from None


# the keys of each model kind, which the other kind does not take
_MODEL_KINDS = {"single_resonance": {"alpha_static", "omega"},
                "transitions": {"transitions"}}


def _model(obj: dict, name: str) -> KramersHeisenberg:
    kind = obj.get("model")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise ConfigError(
            f"{name}.model must be 'single_resonance' or 'transitions'")
    stray = [f"{name}.{key}" for other, keys in _MODEL_KINDS.items()
             if other != kind for key in sorted(keys & set(obj))]
    if stray:
        raise ConfigError(f"unknown keys for a {kind} model: {stray}")
    if kind == "single_resonance":
        return _named(name, single_resonance,
                      _need(obj, f"{name}.alpha_static"),
                      _need(obj, f"{name}.omega"))
    rows = [Transition(_need(row, f"{name}.transitions[{i}].omega"),
                       _need(row, f"{name}.transitions[{i}].d2"))
            for i, row in enumerate(_need(obj, f"{name}.transitions"))]
    return _named(name, KramersHeisenberg, tuple(rows))


def _pairwise_rows(cfg: dict, separations: list[float] | None = None):
    """The columns and row of a pairwise config at each of ``separations``
    (default: its own separation), one at a time.  The van der Waals
    integrals of all points are the rows of one ladder, but each point
    warns, and raises its own error, only when its turn comes: as if the
    points ran one after another."""
    atoms = _need(cfg, "atoms")
    if len(atoms) != 2:
        raise ConfigError("pairwise needs exactly two atoms")
    model_a = _model(atoms[0], "atoms[0]")
    model_b = _model(atoms[1], "atoms[1]")
    if separations is None:
        separations = [_need(cfg, "separation")]
    quad = QuadratureSpec(**cfg.get("quadrature", {}))
    energies = vdw_energies(model_a, model_b, separations, quad)
    for r, vdw in zip(separations, energies):
        pair = PairSpec(model_a, model_b, r)
        verdict = validity_check(pair)
        if not verdict.ok:
            warnings.warn(f"point-dipole picture strained: "
                          f"alpha_a0*alpha_b0/r^6 {_past_one(verdict.ratio)}")
        # an energy past the double range: atoms too strong for the
        # separation
        vdw, london, cp = _named("atoms and separation", lambda: (
            unwrap(vdw), london_closed_form(pair),
            casimir_polder_asymptote(model_a.static_polarizability(),
                                     model_b.static_polarizability(), r)))
        yield (["r", "E_vdw", "E_london", "E_cp", "err"],
               [r, vdw.value, london, cp, vdw.error_estimate])


def _manybody_rows(cfg: dict):
    quad = QuadratureSpec(**cfg.get("quadrature", {}))
    atoms = _need(cfg, "atoms")
    if len(atoms) < 2:
        raise ConfigError("manybody needs at least two atoms")
    sites = [(_need(atom, f"atoms[{k}].position", 3),
              _model(atom, f"atoms[{k}]")) for k, atom in enumerate(atoms)]
    geometry = _placed(SystemGeometry, sites)
    # some pair is out of range exactly when the closest or farthest is
    (i, j), r = geometry.pair_indices, geometry.pair_distances
    for k in (np.argmin(r), np.argmax(r)):
        _check_distance(float(r[k]), f"atoms[{i[k]}] and atoms[{j[k]}]")
    nonretarded = cfg.get("nonretarded", False)
    for i, j, verdict in geometry.validity_reports():
        if not verdict.ok:
            warnings.warn(f"atoms {i} and {j} strain the point-dipole "
                          f"picture: ratio {_past_one(verdict.ratio)}")
    # second_order is the retarded T = 0 pair sum on every row: the
    # truncation of free_energy only on retarded rows without temperature,
    # which take it from the log det's own nodes
    if "temperature" in cfg:
        # Matsubara frequencies that overflow: the message names the
        # temperature
        free = _named("", free_energy_finiteT, geometry, cfg["temperature"],
                      quad, nonretarded=nonretarded)
    elif nonretarded:
        free = free_energy_T0(geometry, quad, nonretarded=True)
    else:
        free, second = free_energy_T0_and_second_order(geometry, quad)
    if "temperature" in cfg or nonretarded:
        second = second_order_energy(geometry, quad)
    yield (["free_energy", "second_order", "err"],
           [free.value, second.value, free.error_estimate])


def _lamb_rows(cfg: dict):
    model = _model(_need(cfg, "atom"), "atom")
    cutoff = CutoffSpec(cfg["cutoff"]) if "cutoff" in cfg else None
    bethe = _named("atom", bethe_shift, model, cutoff)
    thermal = dielectric = err = 0.0
    if "temperature" in cfg:
        res = _named("atom", thermal_shift, model, cfg["temperature"])
        thermal, err = res.value, res.error_estimate
    if "medium" in cfg:
        host = _model(_need(cfg["medium"], "medium.host"), "medium.host")
        medium = _named("medium", DiluteMedium,
                        _need(cfg["medium"], "medium.number_density"), host)
        dielectric = _named("atom and medium", dielectric_shift_difference,
                            model, medium).value
    yield (["bethe", "thermal", "dielectric", "err"],
           [bethe, thermal, dielectric, err])


def _cavity_rows(cfg: dict, separations: list[float] | None = None):
    """The columns and row of a cavity config at each of ``separations``
    (default: its own separation or positions), one at a time.  The atoms
    and the mode are parsed once, and the systems of all points share
    one pair-free Hamiltonian per photon cutoff, but each point checks
    its distance and its mode, and raises its own error, only when its
    turn comes: as if the points ran one after another."""
    atoms = _need(cfg, "atoms")
    if len(atoms) != 2:
        raise ConfigError("cavity needs exactly two atoms")
    parsed = [TwoStateAtom(_need(atom, f"atoms[{k}].omega"),
                           _need(atom, f"atoms[{k}].dipole", 3))
              for k, atom in enumerate(atoms)]
    placed = [f"atoms[{k}].position" for k, atom in enumerate(atoms)
              if "position" in atom]
    if "separation" in cfg and placed:
        raise ConfigError(f"separation and {placed[0]} exclude each other")
    if "separation" not in cfg:
        positions = [_need(atom, f"atoms[{k}].position", 3)
                     for k, atom in enumerate(atoms)]
    spec = _need(cfg, "mode")
    # the ranges leave CavityMode one check: a unit polarization
    mode = _named("mode.polarization", CavityMode, _need(spec, "mode.omega"),
                  _need(spec, "mode.polarization", 3),
                  _need(spec, "mode.amplitudes", len(atoms)))
    if "separation" in cfg:
        systems = CavitySystem.on_axis(parsed, mode, separations
                                       or [cfg["separation"]])
    else:
        systems = [_placed(CavitySystem, parsed, positions, mode)]
    for system in systems:
        _check_distance(system.separation, "atoms[0] and atoms[1]")
        if not system.high_frequency:
            k = int(np.argmax([atom.omega for atom in parsed]))
            raise ConfigError(f"mode.omega must be over 10x atoms[{k}].omega")
        shift = perturbative_shift(system)
        extracted = interaction_extract(system)
        exact = exact_ground_energy(system)
        yield (["r", "self_1", "self_2", "interaction", "extracted",
                "exact_total"],
               [system.separation, shift.self_1, shift.self_2,
                shift.interaction, extracted, exact])


# each task's runner, a generator of (columns, row); the column whose
# log-log slope --fit-slope reports when a scan wraps it; and the key
# whose scan points the runner takes all at once, as its second argument,
# to build what that key does not touch once (None: one point per call)
_RUNNERS = {
    "pairwise": (_pairwise_rows, "E_vdw", "separation"),
    "manybody": (_manybody_rows, "free_energy", None),
    "lamb": (_lamb_rows, "bethe", None),
    "cavity": (_cavity_rows, "extracted", "separation"),
}


def _replace(node, path: list, value):
    """``node`` with the leaf at ``path`` set to ``value``, copying only
    the containers on the path."""
    if not path:
        return value
    copied = list(node) if isinstance(node, list) else dict(node)
    copied[path[0]] = _replace(node[path[0]], path[1:], value)
    return copied


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
    if not isinstance(subtask, str) or subtask not in _RUNNERS:
        raise ConfigError(
            f"scan subtask must be one of {sorted(_RUNNERS)}, got {subtask!r}")
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or set(sweep) != {"parameter", "values"} \
            or not isinstance(sweep["parameter"], str) \
            or not isinstance(sweep["values"], list) or not sweep["values"]:
        raise ConfigError('scan needs a sweep {"parameter": <dotted path>, '
                          '"values": [<number>, ...]}')
    parameter, values = sweep["parameter"], sweep["values"]
    base = {k: v for k, v in cfg.items() if k not in ("sweep", "subtask")}
    scales = _scales(base.get("units", {}))
    runner, slope_column, batched = _RUNNERS[subtask]

    # the swept leaf, its name and its table entry; the base's own value
    # of it is a placeholder, which the first swept value stands in for
    path = [int(p) if p.isdecimal() else p for p in parameter.split(".")]
    try:
        base = _replace(base, path, values[0])
    except (LookupError, TypeError, ValueError):
        raise ConfigError(
            f"sweep parameter {parameter!r} not found in config") from None
    name = re.sub(r"\.(\d+)", r"[\1]", parameter)
    key = _KEYS[subtask].get(re.sub(r"\[\d+\]", "[]", name))
    if not isinstance(key, _Key):
        raise ConfigError(
            f"sweep parameter {parameter!r} must resolve to a numeric field")
    points = [_check(value, key, f"sweep.values[{k}]: {name}", scales)
              for k, value in enumerate(values)]
    base = _walk(dict(base, task=subtask), "", "", subtask, scales)

    # every runner yields the same columns at every point
    if path == [batched]:
        results = runner(base, points)
    else:
        results = (next(runner(_replace(base, path, point)))
                   for point in points)
    rows = []
    for k, value in enumerate(values):
        try:
            columns, row = next(results)
        except ConfigError as exc:
            raise ConfigError(f"sweep.values[{k}]: {exc}") from None
        except RuntimeError as exc:
            # QuadratureError, StrongCouplingError and PhotonCutoffError:
            # the type, and so the tag the error line prints, stays
            exc.args = (f"sweep.values[{k}]: {exc}",)
            raise
        rows.append([float(value)] + row)
    columns = [parameter] + columns
    if fit_slope:
        idx = columns.index(slope_column)
        slope = _fit_slope([row[0] for row in rows],
                           [row[idx] for row in rows])
        columns.append("loglog_slope")
        for row in rows:
            row.append(slope)
    return columns, rows


def _execute(cfg: dict,
             fit_slope: bool) -> tuple[list[str], list[list[float]]]:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    task = cfg.get("task")
    if task == "scan":
        return _run_scan(cfg, fit_slope)
    if not isinstance(task, str) or task not in _RUNNERS:
        raise ConfigError(f"task must be one of "
                          f"{sorted([*_RUNNERS, 'scan'])}, got {task!r}")
    cfg = _walk(cfg, "", "", task, _scales(cfg.get("units", {})))
    if fit_slope:
        raise ConfigError("--fit-slope needs task=scan")
    columns, row = next(_RUNNERS[task][0](cfg))
    return columns, [row]


def _render_csv(columns: list[str], rows: list[list[float]],
                config_hash: str) -> str:
    # no column name or number the runners give needs CSV quoting
    lines = [f"# config_hash={config_hash} version={__version__}",
             ",".join(columns)]
    lines += [",".join([format(value, ".17g") for value in row])
              for row in rows]
    return "\r\n".join(lines) + "\r\n"


def _render_json(columns: list[str], rows: list[list[float]],
                 config_hash: str) -> str:
    # JSON has no NaN: a slope that cannot be fitted is null
    document = {
        "config_hash": config_hash,
        "version": __version__,
        "columns": columns,
        "rows": [[None if math.isnan(v) else v for v in row] for row in rows],
    }
    return json.dumps(document, indent=2) + "\n"


def _write_all(fd: int, view: memoryview) -> None:
    while view:
        view = view[os.write(fd, view):]


def _write_over(path: str, data: bytes, head: int) -> None:
    """Write ``data`` over the file at ``path``, creating it with the mode
    ``open(path, "wb")`` gives.  An existing file is not opened with
    O_TRUNC, which frees its blocks only to allocate them again: a longer
    file is cut to ``len(data)`` first.  A regular file gets its first
    ``head`` bytes, which end with the config hash, last: a run killed
    while writing leaves the old hash or none, so the new hash shows only
    once every other byte is in.  A FIFO or a device cannot seek and
    takes the bytes in order."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        info = os.fstat(fd)
        if info.st_size > len(data):
            os.ftruncate(fd, len(data))
        view = memoryview(data)
        if not stat.S_ISREG(info.st_mode):
            _write_all(fd, view)
            return
        os.lseek(fd, head, os.SEEK_SET)
        _write_all(fd, view[head:])
        os.lseek(fd, 0, os.SEEK_SET)
        _write_all(fd, view[:head])
    finally:
        os.close(fd)


def run(config_path: str, output_path: str = "-", output_format: str = "csv",
        strict: bool = False, fit_slope: bool = False) -> int:
    """Execute one config file and write its table; returns the exit code."""
    if output_format not in ("csv", "json"):
        print(f"error: unknown output format {output_format!r}: must be "
              f"'csv' or 'json'", file=sys.stderr)
        return 1
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
            data = text.encode("utf-8")
            _write_over(output_path, data,
                        data.index(config_hash.encode()) + len(config_hash))
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if strict and notes:
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    # only the command line parses arguments: run() and importers skip it
    import argparse

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
