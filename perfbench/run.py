#!/usr/bin/env python3
"""chromabench's layered benchmark: one command, every metric, oracle-gated.

    python3 perfbench/run.py --workload fullframe --seed 1 --seconds 10 --trace 0

Runs against the chromabench sources in ``src/`` of the same checkout and
exits 1 without a result when they are missing.  See ``perfbench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "chromabench" / "cli.py").is_file():
        print(f"error: chromabench sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC), str(ROOT)]
    import chromabench

    if Path(chromabench.__file__).resolve().parent != (SRC / "chromabench").resolve():
        print(f"error: imported chromabench from {chromabench.__file__}", file=sys.stderr)
        return 1
    from perfbench import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
