"""Benchmark entry point; see harness.py for what it measures.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Runs from the root of a checkout and imports ltsim from its src/
directory, never from an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "ltsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ltsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(ROOT))
