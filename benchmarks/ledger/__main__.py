"""``PYTHONPATH=src python -m benchmarks.ledger`` — see :mod:`.cli`."""

from benchmarks.ledger.cli import main

raise SystemExit(main())
