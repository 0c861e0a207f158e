"""``python -m repro.persistence`` — store verification and stats."""

from __future__ import annotations

import sys

from repro.persistence.cli import main

if __name__ == "__main__":
    sys.exit(main())
