"""``python -m delayed_hedge``: the same command line as ``delayed-hedge``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
