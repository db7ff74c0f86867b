"""Exhaustive two-instance determinacy oracle.

This is the independent reference for `pruner.is_allowed`: enumerate every
constraint-satisfying instance within the bound over a small value domain,
and for each session-parameter assignment group instances by their tuple
of view results; a query is NOT allowed exactly when some group contains
two instances with different query results.  It never touches the symbolic
encoding.
"""

from __future__ import annotations

import itertools

from polex.constraints import validate_instance
from polex.evaluate import ScalarEnv, eval_nf
from polex.instance import ConcreteInput
from polex.terms import SessionParam, iter_terms


def table_row_space(schema, table, domain):
    spaces = []
    for col in schema.table(table).columns:
        values = (0, 1) if col.type == "bool" else tuple(domain)
        if col.nullable:
            values = values + (None,)
        spaces.append(values)
    return [tuple(r) for r in itertools.product(*spaces)]


def enumerate_instances(schema, constraints, bound, domain):
    """All constraint-satisfying instances with at most `bound` rows per
    table (as row sets, so order never matters)."""
    per_table = []
    for t in schema.tables:
        rows = table_row_space(schema, t.name, domain)
        sets = []
        for n in range(bound + 1):
            sets.extend(itertools.combinations(rows, n))
        per_table.append((t.name, sets))
    out = []
    names = [name for name, _ in per_table]
    for combo in itertools.product(*[sets for _, sets in per_table]):
        ci = ConcreteInput("oracle", "", dict(zip(names, combo)), {"MyUserId": 0, "Now": 0}, {})
        ok, _ = validate_instance(ci, constraints, schema)
        if ok:
            out.append(ci)
    return out


def _uses_now(queries) -> bool:
    for q in queries:
        for t in iter_terms(q.filter):
            if isinstance(t, SessionParam) and t.name == "Now":
                return True
    return False


class BruteForceDeterminacy:
    """Reusable oracle over one (schema, constraints, bound, domain) setting."""

    def __init__(self, schema, constraints, bound, domain):
        self.schema = schema
        self.constraints = constraints
        self.domain = tuple(domain)
        self.instances = enumerate_instances(schema, constraints, bound, domain)
        self._memo: dict = {}

    def _evaluator(self, nf):
        """Evaluates `nf` on (instance index, session), memoized per query:
        hashing a query costs more than most evaluations."""
        memo = self._memo.setdefault(nf, {})

        def evaluate(idx, session):
            key = (idx, session)
            if key not in memo:
                env = ScalarEnv(session=dict(zip(("MyUserId", "Now"), session)))
                memo[key] = eval_nf(nf, self.instances[idx], self.schema, env)
            return memo[key]

        return evaluate

    def is_allowed(self, q, views):
        """Returns (allowed: bool, counterexample or None)."""
        now_values = self.domain if _uses_now([q] + list(views)) else (0,)
        view_evals = [self._evaluator(v) for v in views]
        q_eval = self._evaluator(q)
        for my_user in self.domain:
            for now in now_values:
                session = (my_user, now)
                groups: dict = {}
                for idx in range(len(self.instances)):
                    fp = tuple(ev(idx, session) for ev in view_evals)
                    bucket = groups.setdefault(fp, {})
                    qres = q_eval(idx, session)
                    if qres not in bucket:
                        bucket[qres] = idx
                    if len(bucket) > 1:
                        a, b = sorted(bucket.values())[:2]
                        return False, (self.instances[a], self.instances[b], dict(zip(("MyUserId", "Now"), session)))
        return True, None
