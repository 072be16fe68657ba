"""``python -m benchmarks.ledger run|compare …`` (see README.md)."""

import sys

from .cli import main

sys.exit(main())
