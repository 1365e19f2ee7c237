"""Benchmark of ``spandecode eval`` / ``decode`` on seeded synthetic inputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ``src``
and exits with code 2, printing no result, when that is missing. What a
run does is described in ``bench.py``; the workloads are defined in
``gen_inputs.WORKLOADS``, and why each was chosen is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from gen_inputs import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spandecode" / "__init__.py").is_file():
        print(f"error: no spandecode sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The stdio server children import the package from the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import spandecode

    if Path(spandecode.__file__).resolve().parent != SRC / "spandecode":
        print(f"error: imported spandecode from {spandecode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args)


if __name__ == "__main__":
    raise SystemExit(main())
