"""``python3 -m nydmap``: the command line interface without installing."""

import sys

from .runner import main

if __name__ == "__main__":
    sys.exit(main())
