"""One benchmark set-up in a fresh process: import lgh, build a workload's
inputs and run its warm-up.  ``run.py`` times this script from outside.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import tempfile
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    lgh = workloads.import_lgh()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as workdir:
        workloads.build(lgh, name, seed, Path(workdir)).warm_up()
