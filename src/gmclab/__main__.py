"""``python -m gmclab <experiment> ...``: the experiment command line."""

import sys

from .expcli import main

sys.exit(main())
