"""Time each stage of ``fluctem.cli.run``, per config.

The configs are those of a benchmark workload at seed 101, written by
perfbench's own generator into a temporary directory.  One untimed pass
runs each config through ``cli.run`` to its own output file, as the
benchmark's warm-up pass does, so that the timed passes write over
existing files, as the benchmark's timed passes do; with ``--fresh``
each timed pass writes to new files instead.  Then ``--repeat`` passes
run with the stage functions wrapped in timers:

    read     from the call of ``run`` to that of ``_execute``: reading the
             config, its sha256 and ``json.loads``
    execute  ``_execute``: the checks of the config and the physics
    render   ``_render_csv``: the table as text
    write    ``_write_over``: opening the output, cutting and writing it
    run      the whole call, the stages above and the rest of ``run``
             (collecting and printing warnings, encoding the text)

Each figure is the median over the passes of a stage's time over all
configs, divided by the configs: microseconds per config.  A config
that does not exit 0 in the untimed pass stops the tool.  BLAS runs on
one thread.  Only the standard library and numpy are used; fluctem is
imported from ``src/`` and the workload generator from ``perfbench/`` of
the checkout that holds this file.

Usage, from the root of a checkout:

    python tools/run_costs.py [--repeat 21] [--workloads clusters ...]
                              [--fresh]

The outputs go to a temporary directory, so ``TMPDIR`` picks the file
system whose write is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# set before numpy loads BLAS, and only when run: importing this module
# changes no environment
if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

CHECKOUT = Path(__file__).resolve().parents[1]
SEED = 101
WORKLOADS = ("clusters", "spectra-sweep")
STAGES = ("read", "execute", "render", "write", "run")


def workloads():
    """perfbench's config generators, loaded read-only from their file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", CHECKOUT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def stages_timed(cli, spent: dict, started: list):
    """Add the time of each stage's calls to ``spent``; the read stage
    runs from ``started[0]``, when the caller entered ``run``, to the
    call of ``_execute``."""
    def timer(f, stage):
        def timed(*args):
            start = time.perf_counter()
            if stage == "execute":
                spent["read"] += start - started[0]
            try:
                return f(*args)
            finally:
                spent[stage] += time.perf_counter() - start
        return timed

    points = {"_execute": "execute", "_render_csv": "render",
              "_write_over": "write"}
    originals = {name: getattr(cli, name) for name in points}
    for name, stage in points.items():
        setattr(cli, name, timer(originals[name], stage))
    try:
        yield
    finally:
        for name, f in originals.items():
            setattr(cli, name, f)


def run_costs(workload: str, repeat: int, fresh: bool = False) -> dict:
    """Median microseconds per config of each stage, and the configs;
    ``fresh`` writes each timed pass to files that do not exist yet."""
    import fluctem.cli as cli
    seconds = {stage: [] for stage in STAGES}
    with tempfile.TemporaryDirectory() as scratch:
        entries = workloads().write_workload(workload, SEED, CHECKOUT,
                                             Path(scratch) / "configs")
        outputs = [str(Path(scratch) / f"{entry['id']}.csv")
                   for entry in entries]
        # warnings go to stderr, which would drown the table
        with contextlib.redirect_stderr(io.StringIO()):
            for entry, output in zip(entries, outputs):
                code = cli.run(entry["path"], output)
                if code != 0:
                    raise SystemExit(f"{workload} {entry['id']}: "
                                     f"fluctem run exit code {code}")
            for k in range(repeat):
                if fresh:
                    outputs = [str(Path(scratch) / f"{entry['id']}.{k}.csv")
                               for entry in entries]
                spent = dict.fromkeys(STAGES, 0.0)
                started = [0.0]
                with stages_timed(cli, spent, started):
                    for entry, output in zip(entries, outputs):
                        started[0] = time.perf_counter()
                        cli.run(entry["path"], output)
                        spent["run"] += time.perf_counter() - started[0]
                for stage, t in spent.items():
                    seconds[stage].append(t)
    return {"configs": len(entries),
            "us": {stage: 1e6 * statistics.median(t) / len(entries)
                   for stage, t in seconds.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=21)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--fresh", action="store_true",
                        help="write each timed pass to new output files")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    sys.path.insert(0, str(CHECKOUT / "src"))
    # microseconds per config of each stage
    print(f"{'workload':<14} {'configs':>7} "
          + " ".join(f"{stage:>9}" for stage in STAGES))
    for workload in args.workloads:
        row = run_costs(workload, args.repeat, args.fresh)
        print(f"{workload:<14} {row['configs']:>7} "
              + " ".join(f"{row['us'][stage]:9.1f}" for stage in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
