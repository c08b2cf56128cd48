"""fluctem benchmark: end-to-end and per-layer metrics of `fluctem run`.

Usage, from the root of a fluctem checkout:

    python3 perfbench/run.py --workload clusters --seed 1 --seconds 40 \
        --trace 0

Steps, one process at a time:

1. generate the workload's configs from the seed (``workloads.py``);
2. start ``probe.py`` in fresh processes, one after another, for the
   set-up time and the import split;
3. run ``worker.py`` in a fresh process, on one thread: a warm-up pass,
   then timed passes through ``fluctem.cli.run`` for ``--seconds``
   (closed loop, one client), with the machine-speed kernel of
   ``speed.py`` timed between configs; with ``--trace 1`` untraced and
   traced passes alternate;
4. check every output column against an independent reference
   (``references.py``) and list every failure by config and cause;
5. print the metrics by name and unit, and as the last line one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Everything a run writes goes under
``.perfbench/`` in the checkout, including ``record.json`` with the
provenance, all metrics and all failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
import workloads

HERE = Path(__file__).resolve().parent
PROBES = 10
# highest first; above p90 the tail of a 40-s run holds a dozen single
# calls that the host's scheduler happened to delay, not a slow config
TAIL_LADDER = (90.0, 75.0, 50.0)
THREAD_VARIABLES = ("FLUCT_THREADS", "OPENBLAS_NUM_THREADS",
                    "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the worker and the probes run on one thread: the host gives the run a
# few shared cores, and the scan pool's default of os.cpu_count() threads,
# each calling a multi-threaded BLAS, would measure the scheduler
PINNED = dict.fromkeys(THREAD_VARIABLES, "1")
# whole-run budget; the worker gets what is left after this reserve
RUN_LIMIT_S = 170.0
CHECK_RESERVE_S = 30.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _probe(env: dict, checkout: Path, src: Path) -> dict:
    spawned = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "probe.py")], env=env,
                          cwd=checkout, capture_output=True, text=True,
                          timeout=60, check=False)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(report["module"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"fluctem imported from {report['module']}, "
                         f"not from {src}")
    report["setup_s"] = report["ready"] - spawned
    return report


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it; the
    median when none has.  Also returns the samples beyond it."""
    n = len(latencies)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0),
               50.0)
    return pct, float(np.percentile(latencies, pct)), \
        int(n * (100.0 - pct) / 100.0)


def _provenance(checkout: Path) -> dict:
    import scipy

    from fluctem.quadrature import MatsubaraSpec, QuadratureSpec

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "thread_variables_pinned": PINNED,
        "speed_reference_s": speed.REFERENCE_S,
        "stated_accuracy": {
            "QuadratureSpec": dataclasses.asdict(QuadratureSpec()),
            "MatsubaraSpec": dataclasses.asdict(MatsubaraSpec()),
        },
    }


def _check_outputs(entries, result, run_dir: Path):
    """Checks per config, the configs that failed with their causes, and
    the audit checks that missed."""
    import references

    codes = np.array(result["codes"])
    checks, failures, audits, broken = [], [], [], set()
    for k, entry in enumerate(entries):
        bad = sorted({int(c) for c in codes[:, k] if c != 0})
        if bad:
            failures.append((entry["id"], f"fluctem run exit code {bad}"))
            broken.add(entry["id"])
            continue
        cfg = json.loads(Path(entry["path"]).read_text())
        text = (run_dir / "out" / f"{entry['id']}.csv").read_bytes().decode()
        try:
            checks.extend(references.check_config(entry["id"], cfg, text))
        except (ValueError, KeyError, IndexError) as exc:
            failures.append((entry["id"], f"output does not parse: {exc!r}"))
            broken.add(entry["id"])
    for cid, cause in result["mismatches"]:
        failures.append((cid, cause))
        broken.add(cid)
    for check in checks:
        if check.gate_miss:
            failures.append((check.config, "GATE " + check.describe()))
            broken.add(check.config)
        elif not check.gate and check.miss:
            audits.append((check.config, check.describe()))
        elif check.miss or check.bound_miss:
            kind = "miss+bound" if check.miss and check.bound_miss \
                else "miss" if check.miss else "bound"
            failures.append((check.config, f"{kind} {check.describe()}"))
    return checks, failures, audits, broken


def run(args) -> int:
    began = time.monotonic()
    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "fluctem" / "cli.py").is_file() \
            or not (checkout / "configs").is_dir():
        raise BenchError("no src/fluctem and configs/ here; run from the "
                         "root of a fluctem checkout")
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")

    run_dir = checkout / ".perfbench" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    entries = workloads.write_workload(args.workload, args.seed, checkout,
                                       run_dir / "configs")
    (run_dir / "manifest.json").write_text(json.dumps(entries))

    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # half the probes before the worker and half after, so that they
    # sample the machine at two moments of the run
    probes = [_probe(env, checkout, src) for _ in range(PROBES // 2)]

    budget = RUN_LIMIT_S - CHECK_RESERVE_S - (time.monotonic() - began)
    with open(run_dir / "worker.log", "wb") as log:
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 "--manifest", str(run_dir / "manifest.json"),
                 "--result", str(run_dir / "worker.json"),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                env=env, cwd=checkout, stdout=log, stderr=log,
                timeout=budget, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {budget:.0f} s") from None
    if done.returncode != 0:
        tail = (run_dir / "worker.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited {done.returncode}:\n{tail}")
    result = json.loads((run_dir / "worker.json").read_text())
    probes += [_probe(env, checkout, src) for _ in range(PROBES - len(probes))]

    sys.path.insert(0, str(src))
    provenance = _provenance(checkout)
    checks, failures, audits, broken = _check_outputs(entries, result,
                                                      run_dir)

    passes = len(result["codes"])
    attempted = passes * len(entries)
    failed = passes * len(broken)
    # audits (gate=False) test physics the package does not claim; they
    # are listed apart and left out of the rates
    claimed = [c for c in checks if c.gate]
    config_misses = {c.config for c in claimed if c.miss} | broken
    bounded = [c for c in claimed if c.err is not None]
    audit = {
        "fail_rate": len(config_misses) / len(entries),
        "bound_miss_rate": sum(c.bound_miss for c in bounded)
        / max(len(bounded), 1),
    }

    # times at the reference speed: each call of an untraced pass scaled
    # by the machine-speed samples taken near it
    factors = [speed.factors(result["speed_samples"], starts, row)
               for row, starts in zip(result["latencies"],
                                      result["config_starts"])]
    scaled = [[x * f for x, f in zip(row, row_factors)]
              for row, row_factors in zip(result["latencies"], factors)]
    raw = [x for row in result["latencies"] for x in row]
    latencies = [x for row in scaled for x in row]
    pct, tail, n_beyond = _tail(latencies)
    metrics = {
        "wall_s": statistics.median(sum(row) for row in scaled),
        "task_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "task_tail_ms": 1e3 * tail,
        "raw.wall_s": statistics.median(result["walls"]),
        "raw.task_p50_ms": 1e3 * float(np.percentile(raw, 50)),
        "raw.task_tail_ms": 1e3 * float(np.percentile(raw, pct)),
        "speed.kernel_ms": 1e3 * statistics.median(
            k for _, k in result["speed_samples"]),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": result["peak_rss_mb"],
        "core.import_numpy_s":
            statistics.median(p["import_numpy_s"] for p in probes),
        "core.import_fluctem_s":
            statistics.median(p["import_fluctem_s"] for p in probes),
        **audit,
    }
    if args.trace:
        for name in result["layers"][0]:
            metrics[name] = statistics.median(
                row[name] for row in result["layers"])
        metrics["trace.overhead_s"] = statistics.median(
            result["traced_walls"]) - metrics["raw.wall_s"]
        # recorded, not reported: the tracer's own cost per span, and the
        # part of it a child span adds to its parent (taken off self times)
        metrics["trace.us_per_span"] = 1e6 * metrics["trace.overhead_s"] \
            / metrics["trace.spans"]
        for kind, cost in result["child_cost"].items():
            metrics[f"trace.us_per_{kind}_child"] = 1e6 * cost

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in wanted}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result['walls'])} timed passes x {len(entries)} configs, "
          f"closed loop, 1 client, 1 thread, after 1 warm-up pass; times "
          f"scaled to the reference speed (speed kernel "
          f"{1e3 * speed.REFERENCE_S:g} ms; here "
          f"{metrics['speed.kernel_ms']:.3g} ms, so x"
          f"{statistics.median(f for row in factors for f in row):.3g})")
    print("provenance: " + json.dumps(provenance))
    shown = spec["end_to_end"] + [m for m in spec["per_layer"]
                                  if m["name"] in audit
                                  or m["name"].startswith(("raw.", "speed."))]
    if args.trace:
        shown += [m for m in spec["per_layer"] if m not in shown]
    for m in shown:
        print(f"  {m['name']:<38} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  task_tail_ms is p{pct:g} of n={len(latencies)} config runs"
          + ("" if n_beyond >= 10 else
             f" (no percentile has 10 samples beyond it; {n_beyond} are "
             f"beyond p{pct:g})"))
    if args.trace:
        print(f"  tracer cost {metrics['trace.us_per_span']:.3g} us per "
              "span (trace.overhead_s / trace.spans); calibrated and taken "
              "off self times: "
              f"{metrics['trace.us_per_call_child']:.3g} us per call child, "
              f"{metrics['trace.us_per_integrand_child']:.3g} us per "
              "integrand child")
    print(f"checks: {len(checks)} quantities, {len(failures)} failures "
          f"({len(broken)} configs fail the gate), {len(audits)} audit "
          "misses")
    for cid, cause in failures:
        print(f"  FAIL {cid}: {cause}")
    for cid, cause in audits:
        print(f"  AUDIT {cid}: {cause}")

    correct = not broken
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": provenance,
              "tail_percentile": pct, "tail_beyond": n_beyond,
              "samples": len(latencies), "metrics": metrics,
              "failures": failures, "audits": audits}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
