"""Span recorder installed from the benchmark on the names each calling
module looks up.

A span is (name, start, end, parent, config), plus the thread it ran on
and that thread's CPU clock at start and end.  Each thread appends its
spans to flat arrays of its own, so recording takes no lock; the arrays
are collected after each pass and written out when the benchmark ends.
Wrappers go on module attributes (``fluctem.cli.vdw_energy``,
``fluctem.manybody.build_T``, ...), on ``KramersHeisenberg.alpha_imag``
and on ``numpy.linalg.eigvalsh``; nothing inside the package is edited.
Quadrature wrappers also wrap the integrand they are handed, so
quadrature engine time separates from the caller's integrand time, and
they record the ``evaluations`` of the ``EnergyResult`` they return.

Spans started in the CLI scan pool threads have no parent on their own
thread; they hang under the ``cli.run`` span that is open at the time.

Self times come from the thread CPU clock (``time.thread_time``), not
from the wall clock: when the scan pool runs two threads, a span's wall
duration also counts the time its thread waited for the GIL while the
other thread ran.  The wrapper of a child span spends some CPU time
outside the child's own clock readings, which would land in the parent's
self time; ``calibrate`` measures that cost per child and ``self_times``
takes it off.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array

import numpy as np

# (module path, attribute, span name); attribute lookups by the caller
SPANS = [
    ("fluctem.cli", "vdw_energy", "pairwise.vdw_energy"),
    ("fluctem.cli", "london_energy", "pairwise.london_energy"),
    ("fluctem.cli", "free_energy_T0", "manybody.free_energy_T0"),
    ("fluctem.cli", "free_energy_finiteT", "manybody.free_energy_finiteT"),
    ("fluctem.cli", "second_order_energy", "manybody.second_order_energy"),
    ("fluctem.cli", "bethe_shift", "lamb.bethe_shift"),
    ("fluctem.cli", "thermal_shift", "lamb.thermal_shift"),
    ("fluctem.cli", "dielectric_shift_difference",
     "lamb.dielectric_shift_difference"),
    ("fluctem.cli", "perturbative_shift", "cavity.perturbative_shift"),
    ("fluctem.cli", "interaction_extract", "cavity.interaction_extract"),
    ("fluctem.cli", "exact_ground_energy", "cavity.exact_ground_energy"),
    ("fluctem.manybody", "build_T", "manybody.build_T"),
    ("fluctem.manybody", "dyadic_green_imag", "green.dyadic_green_imag"),
    ("fluctem.manybody", "static_green", "green.static_green"),
    ("fluctem.polarizability.KramersHeisenberg", "alpha_imag",
     "polarizability.alpha_imag"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
]

# quadrature entry points, keyed by the physics module that calls them
QUADRATURE = [
    ("fluctem.manybody", "integrate_semi_infinite"),
    ("fluctem.manybody", "matsubara_sum"),
    ("fluctem.pairwise", "integrate_semi_infinite"),
    ("fluctem.lamb", "integrate_interval"),
    ("fluctem.lamb", "integrate_pv"),
]

ROOT = "cli.run"
# calibration: no-op children per parent, and parents per child kind
CALIBRATION_CHILDREN = 20000
CALIBRATION_REPEATS = 5


def _resolve(path: str):
    """Module or class object for a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


# span fields and their array typecodes
FIELDS = (("sid", "q"), ("name", "i"), ("parent", "q"), ("config", "i"),
          ("start", "d"), ("end", "d"), ("thread", "q"), ("cpu_start", "d"),
          ("cpu_end", "d"))


class _ThreadLog:
    """Open-span stack and recorded spans of one thread."""

    def __init__(self):
        self.stack: list[int] = []
        self.ident = threading.get_ident()
        self.reset()

    def reset(self) -> None:
        self.columns = {key: array(code) for key, code in FIELDS}


class Tracer:
    """Records spans while installed; ``remove`` restores every original."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.evaluations: dict[int, int] = {}
        self.current_config = -1
        self._root = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _record(self, log, sid, name, parent, t0, t1, c0, c1):
        c = log.columns
        c["sid"].append(sid)
        c["name"].append(name)
        c["parent"].append(parent)
        c["config"].append(self.current_config)
        c["start"].append(t0)
        c["end"].append(t1)
        c["thread"].append(log.ident)
        c["cpu_start"].append(c0)
        c["cpu_end"].append(c1)

    def wrap(self, span_name: str, fn, integrand_of: str | None = None):
        """A span-recording stand-in for ``fn``.

        With ``integrand_of`` set, the first argument is wrapped as a
        ``<integrand_of>.integrand`` span and the returned evaluations are
        recorded.
        """
        index = self._index(span_name)
        integrand_index = None if integrand_of is None \
            else self._index(f"{integrand_of}.integrand")
        is_root = span_name == ROOT
        clock, cpu = time.perf_counter, time.thread_time
        ids = self._ids

        def wrapper(*args, **kwargs):
            log = self._log()
            stack = log.stack
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            if is_root:
                self._root = sid
            if integrand_index is not None:
                args = (self.wrap_integrand(integrand_index, args[0]),) \
                    + args[1:]
            c0 = cpu()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                if is_root:
                    self._root = -1
                self._record(log, sid, index, parent, t0, t1, c0, c1)
            if integrand_index is not None:
                self.evaluations[sid] = result.evaluations
            return result

        return functools.wraps(fn)(wrapper)

    def wrap_integrand(self, index: int, fn):
        clock, cpu = time.perf_counter, time.thread_time
        ids = self._ids

        def integrand(x):
            log = self._log()
            stack = log.stack
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            c0 = cpu()
            t0 = clock()
            try:
                return fn(x)
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                self._record(log, sid, index, parent, t0, t1, c0, c1)

        return integrand

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original, replacement))
        setattr(owner, attr, replacement)

    def install(self, cli_module) -> None:
        """Wrap every traced name, and ``cli.run`` as the benchmark's own
        lookup of the CLI entry point."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(cli_module, "run", self.wrap(ROOT, cli_module.run))
        for path, attr, span_name in SPANS:
            owner = _resolve(path)
            self._patch(owner, attr, self.wrap(span_name, getattr(owner, attr)))
        for path, attr in QUADRATURE:
            owner = _resolve(path)
            caller = path.rsplit(".", 1)[1]
            self._patch(owner, attr,
                        self.wrap(f"quadrature.{attr}", getattr(owner, attr),
                                  integrand_of=caller))

    def remove(self) -> None:
        """Restore every original and check that no wrapper is left."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original, _ in self._patches
                if (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)) is not original]
        self._patches = []
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def calibrate(self) -> dict[str, float]:
        """Thread CPU seconds one traced child adds to its parent's self
        time, for a ``wrap`` child ("call") and a ``wrap_integrand`` child
        ("integrand"): median over ``CALIBRATION_REPEATS`` parents of
        ``CALIBRATION_CHILDREN`` calls each, less the same loop untraced.
        Call it before any traced pass; it drains what it records."""
        children = CALIBRATION_CHILDREN

        def loop(f):
            for _ in range(children):
                f(0.0)

        def leaf(x):
            return x

        parent = self.wrap("calibration.parent", loop)
        kinds = {
            "call": self.wrap("calibration.call", leaf),
            "integrand": self.wrap_integrand(
                self._index("calibration.integrand"), leaf),
        }
        costs = {kind: [] for kind in kinds}
        for _ in range(CALIBRATION_REPEATS):
            for kind, child in kinds.items():
                c0 = time.thread_time()
                loop(leaf)
                plain = time.thread_time() - c0
                parent(child)
                spans = self.drain()
                own = self_times(spans)[spans["parent"] < 0]
                costs[kind].append((float(own[0]) - plain) / children)
        return {kind: float(np.median(c)) for kind, c in costs.items()}

    def drain(self) -> dict[str, np.ndarray]:
        """Spans recorded since the last drain, as numpy arrays; call it
        while no traced code runs."""
        with self._lock:
            logs = list(self._logs)
        spans = {key: np.concatenate(
            [np.array(log.columns[key]) for log in logs]
            + [np.array(array(code))]) for key, code in FIELDS}
        for log in logs:
            log.reset()
        return spans


def self_times(spans: dict[str, np.ndarray], child_cost=0.0) -> np.ndarray:
    """Thread CPU time of each span minus that of its children on the
    same thread, and minus the tracer's cost of each such child
    (``child_cost``: one number, or one per span).

    A child on another thread (a scan pool task under ``cli.run``) spent
    none of its parent's thread CPU time, so nothing is taken off for it.
    """
    cpu = spans["cpu_end"] - spans["cpu_start"]
    position = {int(s): k for k, s in enumerate(spans["sid"])}
    owner = np.array([position.get(int(p), -1) for p in spans["parent"]],
                     dtype=np.int64)
    inside = owner >= 0
    inside[inside] &= spans["thread"][owner[inside]] \
        == spans["thread"][inside]
    cost = np.broadcast_to(np.asarray(child_cost, dtype=float), cpu.shape)
    return cpu - np.bincount(owner[inside], weights=cpu[inside]
                             + cost[inside], minlength=len(cpu))
