"""Set-up time of one workload, measured inside a fresh interpreter.

Usage: python3 child.py <workload> <seed> <small 0|1> <src dir>

Builds the workload's inputs, then times `import incmac.cli` (which pulls
in every module, as each CLI run does) and the workload's first call, and
prints both in wall seconds, with the calibration chunks timed just before
and after (see refclock.py), as one JSON line.  Timing inside the child
keeps interpreter start-up out of both numbers.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refclock  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    name, seed, small, src = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    work = workloads.make(name, seed, small)
    sys.path.insert(0, src)
    before = refclock.chunk()
    start = time.perf_counter()
    import incmac.cli

    imported = time.perf_counter()
    work.first_call(incmac, workloads.tolerance(incmac))
    done = time.perf_counter()
    after = refclock.chunk()
    out = {"setup_s": done - start, "import_s": imported - start, "chunks": [before, after]}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
