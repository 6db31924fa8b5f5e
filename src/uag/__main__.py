"""Entry point for `python -m uag`."""

import sys

from .cli import main

sys.exit(main())
