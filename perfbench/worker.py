"""Timed passes over one workload's configs, in a fresh process.

One client, one process, closed loop: each config goes through
``fluctem.cli.run`` only after the previous one returned.  A warm-up pass
comes first and is not timed.  Without tracing, passes repeat until the
time budget is spent; with tracing, untraced and traced passes alternate
and the traced outputs must match the untraced bytes.  Before a config,
the fixed kernel of ``speed.py`` runs when its last sample ended more
than ``speed.INTERVAL_S`` ago; its time is in no pass wall or latency.
The result (pass walls, per-config latencies and start times, exit
codes, kernel samples, peak RSS and, when traced, the per-layer figures
of each traced pass) is written as JSON; spans are written to
``spans.npz`` at the end.

Run by ``run.py``; the package comes from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import layers
import speed
from tracer import Tracer


def _one_pass(cli, entries, out_dir: Path, tracer: Tracer | None,
              speed_log: speed.SpeedLog):
    """Wall time (the sum of the config latencies), latencies, exit codes
    and the perf_counter readings at which the configs started."""
    latencies, codes, starts = [], [], []
    for k, entry in enumerate(entries):
        if tracer is not None:
            tracer.current_config = k
        speed_log.maybe_sample()
        t0 = time.perf_counter()
        # looked up on the module each time, so the tracer can wrap it
        code = cli.run(entry["path"], str(out_dir / f"{entry['id']}.csv"))
        latencies.append(time.perf_counter() - t0)
        codes.append(code)
        starts.append(t0)
    return sum(latencies), latencies, codes, starts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    entries = json.loads(Path(args.manifest).read_text())
    out_dir = Path(args.result).parent / "out"
    out_dir.mkdir(exist_ok=True)

    import fluctem.cli as cli

    reference_bytes: dict[str, bytes] = {}
    mismatches: list[list[str]] = []

    def compare(tag: str) -> None:
        for entry in entries:
            path = out_dir / f"{entry['id']}.csv"
            data = path.read_bytes() if path.exists() else b""
            first = reference_bytes.setdefault(entry["id"], data)
            if data != first:
                mismatches.append([entry["id"], f"{tag} output bytes differ "
                                   "from the warm-up pass"])

    speed_log = speed.SpeedLog()
    _one_pass(cli, entries, out_dir, None, speed_log)
    compare("warm-up")

    walls, latencies, codes, config_starts = [], [], [], []
    traced_walls, layer_rows = [], []
    tracer = Tracer() if args.trace else None
    child_cost = tracer.calibrate() if tracer is not None else None
    kept = []
    begin = time.perf_counter()
    while True:
        wall, lat, code, starts = _one_pass(cli, entries, out_dir, None,
                                            speed_log)
        config_starts.append([t - begin for t in starts])
        compare("untraced pass")
        walls.append(wall)
        latencies.append(lat)
        codes.append(code)
        if tracer is not None:
            tracer.install(cli)
            try:
                wall, lat, code, _ = _one_pass(cli, entries, out_dir,
                                               tracer, speed_log)
            finally:
                tracer.remove()
            compare("traced pass")
            traced_walls.append(wall)
            codes.append(code)
            kept.append(tracer.drain())
            layer_rows.append(layers.per_pass(tracer, kept[-1], wall,
                                              child_cost))
        if time.perf_counter() - begin >= args.seconds:
            break
    speed_log.sample()

    result = {
        "configs": [e["id"] for e in entries],
        "walls": walls,
        "latencies": latencies,
        "codes": codes,
        "traced_walls": traced_walls,
        "child_cost": child_cost,
        "config_starts": config_starts,
        "speed_samples": [[start - begin, k]
                          for start, k in speed_log.samples],
        "layers": layer_rows,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        np.savez_compressed(Path(args.result).parent / "spans.npz",
                            names=np.array(tracer.names),
                            **{key: np.concatenate([k[key] for k in kept])
                               for key in kept[0]})
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
