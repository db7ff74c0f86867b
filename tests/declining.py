"""Reference for `fdsolver`'s accepted completion: searches that always decline it.

`fdsolver._Cdcl.solve` returns the completion, the propagated trail with
every unset variable false, when it satisfies every formula, and decides
only otherwise.  It must return the model deciding would give.  These
searches decide every sat check, so tests can compare models against
them.
"""

from __future__ import annotations

from polex.fdsolver import _NO_BASE, CdclBackend, Compiler, VarPool, _Cdcl


class DecliningSearch(_Cdcl):
    def complete(self, read):
        return None


class RecordingSearch(_Cdcl):
    """Declines every completion, and keeps what accepting it would have
    returned in its last check, or None."""

    def solve(self, *args):
        self.completion = None
        return super().solve(*args)

    def complete(self, read):
        self.completion = super().complete(read)
        return None


class DecliningBackend(CdclBackend):
    """`CdclBackend` over a `RecordingSearch`."""

    def __init__(self, pool: VarPool, formulas: list[tuple] = ()):
        self.comp = Compiler(pool)
        self.search = RecordingSearch((pool.base or _NO_BASE).search)
        self.comp.add(list(formulas))
        self.search.attach(self.comp)
