#!/usr/bin/env python3
"""Extract and merge policies for the whole toy-handler corpus.

Shorthand for `python3 scripts/run_corpus.py toys [RUNDIR]`.

    python3 scripts/run_toys.py [RUNDIR]
"""

from __future__ import annotations

import sys

from run_corpus import run_in

if __name__ == "__main__":
    sys.exit(run_in("toys", sys.argv[1:2]))
