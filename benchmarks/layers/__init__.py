"""The repo's reference benchmark: four workloads, end-to-end metrics with
regression bounds, per-layer metrics from probes and a traced run.

Run everything: ``python3 -m benchmarks.layers --seed 11`` from the repo
root. ``BENCHMARK.json`` at the root declares the command, the workloads and
every metric by name; ``README.md`` here explains them.
"""

import pathlib
import sys

# The package measures ``src/repro`` of the checkout it sits in, and the
# driver's command line may not name ``src``, so it is put on the path here.
_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
