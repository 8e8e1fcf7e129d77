"""`python -m homdens <command>`: the same front end as `homdens`."""

import sys

from .cli import main

sys.exit(main())
