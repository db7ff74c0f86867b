#!/usr/bin/env python3
"""End-to-end extraction on one bundled corpus.

Copies `corpus/CORPUS` into a run directory, generates constraints,
explores and generates a policy for every handler its `handlers/*.hdl`
files declare, merges and prunes the policies, and prints the result.

    python3 scripts/run_corpus.py grade_sheet [RUNDIR]   # the worked example
    python3 scripts/run_corpus.py toys [RUNDIR]          # seven toy handlers
    python3 scripts/run_corpus.py replies [RUNDIR]       # a nullable self-referencing foreign key
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from polex.cli import main
from polex.dsl import parse_handlers

ROOT = Path(__file__).resolve().parent.parent


def run(corpus: str, rundir: Path) -> int:
    source = ROOT / "corpus" / corpus
    rundir.mkdir(parents=True, exist_ok=True)
    shutil.copy(source / "schema.txt", rundir / "schema.txt")
    shutil.copytree(source / "handlers", rundir / "handlers", dirs_exist_ok=True)
    handlers = [p.name for path in sorted((source / "handlers").glob("*.hdl"))
                for p in parse_handlers(path.read_text(encoding="utf-8"))]
    steps = [["constraints-gen", str(rundir / "schema.txt"), "-o", str(rundir / "constraints.txt")]]
    for h in handlers:
        steps += [["explore", str(rundir), h], ["policy-gen", str(rundir), h]]
    steps.append(["policy-merge-prune", str(rundir)] + handlers)
    for step in steps:
        code = main(step)
        if code != 0:
            return code
    print("\n=== merged policy ===")
    print((rundir / "policies" / "final.sql").read_text())
    return 0


def run_in(corpus: str, args: list[str]) -> int:
    """Run `corpus` in the run directory `args` names, or in a fresh temporary one."""
    target = Path(args[0]) if args else Path(tempfile.mkdtemp(prefix=f"polex-{corpus}-"))
    print(f"run directory: {target}")
    return run(corpus, target)


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(run_in(sys.argv[1], sys.argv[2:]))
