"""Entry point named in ``BENCHMARK.json``.

Run from the root of a checkout as ``python3 benchmarks/ledger/run.py
--workload NAME --seed N --seconds S --trace 0|1``. Puts the checkout's
``src`` and root on ``sys.path`` (the command may not name them), then
hands over to :mod:`benchmarks.ledger.cli`. In a directory without
``src/repro`` it exits non-zero before printing any result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(
        f"no {ROOT / 'src' / 'repro'}: the ledger measures the checkout "
        "it sits in and there is none here"
    )
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
