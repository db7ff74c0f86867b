#!/usr/bin/env python3
"""End-to-end extraction on the grade-sheet example.

Shorthand for `python3 scripts/run_corpus.py grade_sheet [RUNDIR]`.

    python3 scripts/run_grade_sheet.py [RUNDIR]
"""

from __future__ import annotations

import sys

from run_corpus import run_in

if __name__ == "__main__":
    sys.exit(run_in("grade_sheet", sys.argv[1:2]))
