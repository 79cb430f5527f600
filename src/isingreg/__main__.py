"""``python -m isingreg``: the same command line as the ``isingreg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
