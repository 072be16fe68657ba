"""The command ``BENCHMARK.json`` names:

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Runs from the root of any checkout; needs the program under test at
``src/repro`` and exits non-zero, printing no result, without it.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}/src/repro: the program under test is not in "
                 "this checkout")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.ledger.cli import contract
    sys.exit(contract(sys.argv[1:]))
