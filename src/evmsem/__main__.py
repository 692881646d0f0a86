"""`python -m evmsem run|check|asm|disasm|ingest ...`: the same front end as
the installed `evmsem` script."""

import sys

from .cli import main

sys.exit(main())
