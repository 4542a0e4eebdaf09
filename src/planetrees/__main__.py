"""Entry point for ``python -m planetrees``."""

import sys

from .cli import main

sys.exit(main())
