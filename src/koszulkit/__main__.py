"""``python -m koszulkit``: the ``koszulkit`` command, also from an uninstalled checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
