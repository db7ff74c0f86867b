"""Seeded generator of the `synth-front` corpus.

The corpus is a chain of tables linked by foreign keys and a set of
handlers that walk that chain.  polex only ever sees the generated
`schema.txt` and `handlers/*.hdl` files.

The seed chooses names (tables, flag columns, handlers, request
parameters), which link of the chain each handler starts from, and the
order of the handlers.  It never changes the shape of the work: every
table has the same columns, every handler walks the same number of links,
and the handlers are drawn from a fixed multiset of templates.  So any two
seeds give corpora that cost polex the same work up to renaming, and a
run-to-run spread reflects timing noise, not a different corpus.

Generator parameters and why they were chosen:

- TABLES = 8: more tables grow every solver call (the whole bounded
  instance is encoded in each check), so CNF compilation leads.
- DEPTH = 4 lookups per handler: deep enough for prefixes with several
  branch points, so the explorer's prefix tree, its infeasible prefixes
  and the simplifier's entailment checks all get real work.
- COPIES = 4 of each of the 5 templates (20 handlers): a job made of many
  small, independent explorations, so no single solver call dominates it,
  and still short (about 5 s) so a run holds several jobs.
- Every handler branches on `owner_id = MyUserId`, on a bool flag and on
  `nonempty()`, and fetches a parent through its foreign key.  The empty
  outcome of such a fetch is infeasible, which drives unsat cores; the
  templates repeat that fetch on both sides of a branch so the explorer's
  conflict cache answers the second one.
- The request parameter is used once, as `id = ?` in the first query.
  Reusing it elsewhere (say `x.val = P`) makes policy generation refuse
  the view (`RequestParamRemovalError`), which this workload must avoid.
"""

from __future__ import annotations

import random
from typing import NamedTuple

TABLES = 8
DEPTH = 4
COPIES = 4

_TABLE_WORDS = (
    "accounts", "albums", "boards", "carts", "channels", "clinics", "courses",
    "decks", "depots", "farms", "fleets", "folders", "forums", "groups",
    "hives", "leagues", "ledgers", "orders", "orgs", "parcels", "projects",
    "shelves", "sites", "teams", "tickets", "trips", "vaults", "wards",
)
_FLAG_WORDS = ("active", "archived", "hidden", "locked", "public", "shared", "starred", "verified")
_PARAM_WORDS = ("Key", "Ref", "Target", "Id", "Pick", "Sel")


def _gate(name, param, t):
    """Owner/flag gate on the first row, then a guarded walk up three links."""
    a, b, c, d = t
    return f"""handler {name}({param}: int) {{
  let a = query("SELECT * FROM {a.name} WHERE id = ?", {param});
  abort_if_empty(a, 404);
  if (!a.owner_id = MyUserId) {{
    if (!a.{a.flag}) {{
      abort(403);
    }}
  }}
  let b = query("SELECT * FROM {b.name} WHERE id = ?", a.parent_id);
  abort_if_empty(b, 404);
  if (b.{b.flag}) {{
    let c = query("SELECT * FROM {c.name} WHERE id = ?", b.parent_id);
    abort_if_empty(c, 404);
    let d = query("SELECT * FROM {d.name} WHERE id = ?", c.parent_id);
    if (nonempty(d)) {{
      render(a, b, c, d);
    }}
    render(a, b, c);
  }}
  render(a, b);
}}
"""


def _refetch(name, param, t):
    """The parent is fetched on both sides of the owner branch (same query
    index and arguments), so its infeasible empty outcome is found once and
    then answered from the conflict cache."""
    a, b, c, d = t
    return f"""handler {name}({param}: int) {{
  let a = query("SELECT * FROM {a.name} WHERE id = ?", {param});
  abort_if_empty(a, 404);
  if (a.owner_id = MyUserId) {{
    let b = query("SELECT * FROM {b.name} WHERE id = ?", a.parent_id);
    abort_if_empty(b, 404);
    if (b.{b.flag}) {{
      let c = query("SELECT * FROM {c.name} WHERE id = ?", b.parent_id);
      abort_if_empty(c, 404);
      let d = query("SELECT * FROM {d.name} WHERE id = ?", c.parent_id);
      abort_if_empty(d, 404);
      render(a, b, c, d);
    }}
    render(a, b);
  }} else {{
    let b2 = query("SELECT * FROM {b.name} WHERE id = ?", a.parent_id);
    if (nonempty(b2)) {{
      if (b2.owner_id = MyUserId) {{
        render(a, b2);
      }}
      abort(403);
    }}
    abort(500);
  }}
}}
"""


def _exists(name, param, t):
    """An existence probe on the parent, then the owner and flag checks on
    the grandparent chain."""
    a, b, c, d = t
    return f"""handler {name}({param}: int) {{
  let a = query("SELECT * FROM {a.name} WHERE id = ?", {param});
  abort_if_empty(a, 404);
  let e = query("SELECT 1 FROM {b.name} WHERE id = ? LIMIT 1", a.parent_id);
  if (nonempty(e)) {{
    let b = query("SELECT * FROM {b.name} WHERE id = ?", a.parent_id);
    abort_if_empty(b, 404);
    let c = query("SELECT * FROM {c.name} WHERE id = ?", b.parent_id);
    abort_if_empty(c, 404);
    if (c.owner_id = MyUserId) {{
      let d = query("SELECT * FROM {d.name} WHERE id = ?", c.parent_id);
      abort_if_empty(d, 404);
      if (d.{d.flag}) {{
        render(a, c, d);
      }}
      render(a, c);
    }}
    render(a);
  }}
  abort(500);
}}
"""


def _redundant(name, param, t):
    """Branches the constraints or earlier filters already decide: the
    simplifier's entailment checks remove them."""
    a, b, c, d = t
    return f"""handler {name}({param}: int) {{
  let a = query("SELECT * FROM {a.name} WHERE id = ?", {param});
  abort_if_empty(a, 404);
  let b = query("SELECT * FROM {b.name} WHERE id = ?", a.parent_id);
  abort_if_empty(b, 404);
  if (b.id = a.parent_id) {{
    if (a.{a.flag}) {{
      let c = query("SELECT * FROM {c.name} WHERE id = ?", b.parent_id);
      abort_if_empty(c, 404);
      if (c.owner_id = MyUserId) {{
        let d = query("SELECT * FROM {d.name} WHERE id = ?", c.parent_id);
        abort_if_empty(d, 404);
        render(a, b, c, d);
      }}
      render(a, b);
    }}
    render(a);
  }}
  abort(500);
}}
"""


def _owner_chain(name, param, t):
    """Owner checks at two depths with the same query issued on both sides
    of a flag branch, which the simplifier merges."""
    a, b, c, d = t
    return f"""handler {name}({param}: int) {{
  let a = query("SELECT * FROM {a.name} WHERE id = ?", {param});
  abort_if_empty(a, 404);
  let b = query("SELECT * FROM {b.name} WHERE id = ?", a.parent_id);
  abort_if_empty(b, 404);
  if (b.owner_id = MyUserId) {{
    let c = query("SELECT * FROM {c.name} WHERE id = ?", b.parent_id);
    abort_if_empty(c, 404);
    if (c.{c.flag}) {{
      let d = query("SELECT * FROM {d.name} WHERE id = ?", c.parent_id);
      render(a, b, d);
    }} else {{
      let d2 = query("SELECT * FROM {d.name} WHERE id = ?", c.parent_id);
      render(a, b, d2);
    }}
  }}
  render(a);
}}
"""


# Each template with its number of feasible paths, counted by hand from
# the template text (the foreign keys make every parent fetch non-empty):
# gate: a empty | 403 | owner or flag, then b flag off | b flag on, with
#   owner and non-owner each passing => 1 + 1 + 2 * 2 = 6;
# refetch: a empty | owner: b flag off | b flag on | non-owner: b2 owned |
#   b2 not owned => 5;
# exists: a empty | c not owned | c owned, d flag on | off => 4;
# redundant: a empty | a flag off | c owned | c not owned => 4;
# owner_chain: a empty | b not owned | c flag on | c flag off => 4.
TEMPLATES = {
    "gate": (_gate, 6),
    "refetch": (_refetch, 5),
    "exists": (_exists, 4),
    "redundant": (_redundant, 4),
    "owner_chain": (_owner_chain, 4),
}


class _Table(NamedTuple):
    name: str
    flag: str  # the table's bool column


def generate(seed: int) -> tuple[str, dict[str, str], dict[str, int]]:
    """Returns (schema text, {file name: handler text}, {handler: paths})."""
    rng = random.Random(seed)
    tables = [_Table(n, rng.choice(_FLAG_WORDS)) for n in rng.sample(_TABLE_WORDS, TABLES)]
    blocks = []
    for k, t in enumerate(tables):
        # Every table has the same columns, so a walk costs the same from
        # any starting link; the root's parent_id references nothing.
        fk = f" fk {tables[k - 1].name}.id" if k else ""
        blocks.append(
            f"table {t.name} {{\n  id int unique\n  owner_id int\n"
            f"  {t.flag} bool\n  parent_id int{fk}\n}}\n"
        )
    schema_text = "\n".join(blocks)

    kinds = [kind for kind in TEMPLATES for _ in range(COPIES)]
    rng.shuffle(kinds)
    handlers: dict[str, str] = {}
    paths: dict[str, int] = {}
    for i, kind in enumerate(kinds):
        start = rng.randrange(DEPTH - 1, TABLES)
        walk = [tables[start - j] for j in range(DEPTH)]
        name = f"h{i:02d}_{walk[0].name}"
        template, paths[name] = TEMPLATES[kind]
        handlers[f"{name}.hdl"] = template(name, rng.choice(_PARAM_WORDS), walk)
    return schema_text, handlers, paths
