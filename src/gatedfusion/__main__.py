"""``python -m gatedfusion <command>``: the ``gatedfusion`` command, runnable
from a checkout with ``src`` on ``PYTHONPATH``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
