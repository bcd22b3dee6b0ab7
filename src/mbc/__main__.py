"""``python -m mbc``: the ``mbc`` command line."""

import sys

from .cli import main

sys.exit(main())
