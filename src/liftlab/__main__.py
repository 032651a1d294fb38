"""`python -m liftlab ...`: the command-line front end, without the installed
`liftlab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
