"""Set-up probe: import numpy, then fluctem.cli, and report when usable.

Prints one JSON line with the CLOCK_MONOTONIC reading at the moment
``fluctem.cli.run`` is importable and callable, so the parent can take
the set-up time from its own reading before it started this process.
"""

import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
import fluctem.cli  # noqa: E402

if not callable(fluctem.cli.run):
    raise SystemExit("fluctem.cli.run is not callable")
ready = time.monotonic()
fluctem_done = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"ready": ready,
                  "import_numpy_s": numpy_done - start,
                  "import_fluctem_s": fluctem_done - numpy_done,
                  "module": fluctem.cli.__file__}))
