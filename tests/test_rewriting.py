"""The pruner's rewriting: unit shapes, soundness, agreement.

`pruner.is_allowed` decides by rewriting alone, and an Allowed verdict
claims determinacy at every bound.  It is cross-checked three ways: on
the query shapes the bundled corpora produce, against the exhaustive
oracle on random join cases, and against the solver on every check the
corpora's prune passes make.
"""

from __future__ import annotations

import functools
import gc
import random
from pathlib import Path

import pytest

from polex import fdsolver, pruner, solver
from polex.constraints import expand_all, generate_constraints, parse_constraint_line, render_constraint
from polex.dsl import parse_handlers
from polex.explorer import ExplorationConfig, explore
from polex.interpreter import QueryCatalog, validate_program
from polex.normal import NormalFormQuery, to_normal_form
from polex.policygen import simplify, to_conditioned_queries, views_from_cqs
from polex.pruner import ALLOWED, DETERMINED, NO_REWRITING, NOT_ALLOWED, Policy
from polex.rundir import load_policy_file
from polex.schema import Interner, parse_schema
from polex.sqlparser import parse_sql
from polex.terms import (
    BoolCol,
    Cmp,
    Col,
    IntLit,
    IsNull,
    Not,
    SessionParam,
    conjoin,
    conjuncts,
    iter_terms,
    map_terms,
)

import full_bound
from conftest import decide, determinacy
from oracle import BruteForceDeterminacy

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def nf(sql, schema):
    return to_normal_form(parse_sql(sql), schema)


def verdict(q, views, schema, constraints):
    """The `is-allowed` command's verdict at bound 2 and range 0:3."""
    return decide(nf(q, schema), [nf(v, schema) for v in views], determinacy(schema, constraints, 2, (0, 3)))


# ---------------------------------------------------------------------------
# The shapes the bundled corpora produce

DETAILS_ITEMS = "SELECT * FROM details, items WHERE items.id = details.item_id"


def test_selection_with_not_and_session_parameter(toys_schema, toys_constraints):
    v = verdict(
        "SELECT * FROM items, details WHERE NOT items.public"
        " AND items.owner_id = MyUserId AND details.item_id = items.id",
        [DETAILS_ITEMS], toys_schema, toys_constraints,
    )
    assert v.status == ALLOWED


def test_projection_of_join_with_reordered_sources(toys_schema, toys_constraints):
    v = verdict(
        "SELECT items.id, items.owner_id, details.body FROM items, details"
        " WHERE details.item_id = items.id",
        [DETAILS_ITEMS], toys_schema, toys_constraints,
    )
    assert v.status == ALLOWED


def test_join_of_two_single_table_views(toys_schema, toys_constraints):
    v = verdict(
        "SELECT * FROM users, items WHERE users.id = MyUserId AND items.owner_id = MyUserId",
        ["SELECT * FROM users", "SELECT * FROM items"], toys_schema, toys_constraints,
    )
    assert v.status == ALLOWED


def test_self_join_of_one_view(toys_schema, toys_constraints):
    v = verdict(
        "SELECT * FROM details, details d2 WHERE d2.item_id = details.item_id",
        ["SELECT * FROM details"], toys_schema, toys_constraints,
    )
    assert v.status == ALLOWED


def test_foreign_key_lossless_join_is_rewritten(toys_schema, toys_constraints):
    # Every details row joins exactly one item: the fk line and items' key say so.
    v = verdict("SELECT * FROM details", [DETAILS_ITEMS], toys_schema, toys_constraints)
    assert v.status == ALLOWED


def test_lossless_hop_chain_drops_from_the_view(toys_schema, toys_constraints):
    v = verdict(
        "SELECT * FROM details",
        ["SELECT * FROM details, items, users WHERE items.id = details.item_id AND users.id = items.owner_id"],
        toys_schema, toys_constraints,
    )
    assert v.status == ALLOWED


def test_lossless_hop_drops_from_the_query():
    # broaden's narrow view 3 against broader view 1: the query's people
    # source adds no filter, and the query projects none of its columns.
    schema = parse_schema((CORPUS / "broaden" / "schema.txt").read_text())
    constraints = expand_all(generate_constraints(schema), schema)
    narrow = load_policy_file(CORPUS / "broaden" / "narrow.sql", schema)
    broader = load_policy_file(CORPUS / "broaden" / "broader.sql", schema)
    v = pruner.is_allowed(narrow[2].nf, [broader[0].nf], schema, constraints)
    assert v.status == ALLOWED


def test_lossless_hop_at_bound_5_within_the_default_timeout(toys_schema, toys_constraints):
    # By SAT this check takes seconds at bound 5 and can run out of time.
    v = decide(nf("SELECT * FROM details", toys_schema), [nf(DETAILS_ITEMS, toys_schema)],
               determinacy(toys_schema, toys_constraints, bound=5))
    assert v.status == ALLOWED


def test_flipped_comparison_matches(toys_schema, toys_constraints):
    v = verdict("SELECT id FROM items WHERE category > 1 AND MyUserId = owner_id",
                ["SELECT id, owner_id FROM items WHERE 1 < category"], toys_schema, toys_constraints)
    assert v.status == ALLOWED


@pytest.mark.parametrize("q, views", [
    # a selection on a column no view projects
    ("SELECT id FROM items WHERE public", ["SELECT id, owner_id FROM items"]),
    # NOT and IS NULL match only exactly
    ("SELECT id FROM items WHERE NOT public", ["SELECT id, public FROM items WHERE public"]),
    ("SELECT body FROM details WHERE extra IS NULL", ["SELECT * FROM details WHERE extra IS NOT NULL"]),
    # > flips together with its operands
    ("SELECT id FROM items WHERE category > 1", ["SELECT * FROM items WHERE category < 1"]),
    # uses may not overlap: only the join view links details to items
    ("SELECT items.*, details.body FROM items, details WHERE details.item_id = items.id",
     ["SELECT * FROM items", "SELECT details.body FROM items, details WHERE details.item_id = items.id"]),
])
def test_near_misses_fall_back_to_solver(toys_schema, toys_constraints, q, views):
    v = verdict(q, views, toys_schema, toys_constraints)
    assert v.status == NOT_ALLOWED
    assert pruner.is_allowed(nf(q, toys_schema), [nf(w, toys_schema) for w in views], toys_schema,
                             toys_constraints).status == NO_REWRITING


# The toys tables the hop joins, cut down so that the oracle runs fast.
HOP_SCHEMA = "table items { id int unique  public bool }\ntable details { item_id int fk items.id  body int }"


@functools.lru_cache(maxsize=None)
def _hop_setting(edit):
    """The schema, constraints and oracle of HOP_SCHEMA with one `edit` (or none) applied."""
    schema = parse_schema(HOP_SCHEMA.replace("int fk", "int nullable fk") if edit == "nullable fk" else HOP_SCHEMA)
    constraints = expand_all(generate_constraints(schema), schema)
    deleted = {"fk deleted": "fk details.item_id -> items.id", "unique deleted": "unique items(id)",
               "fk filtered": "fk details.item_id -> items.id"}.get(edit)
    if deleted is not None:
        kept = [c for c in constraints if render_constraint(c) != deleted]
        assert len(kept) == len(constraints) - 1
        constraints = kept
    if edit == "fk filtered":
        line = "contain SELECT item_id FROM details WHERE body = 1 in SELECT id FROM items"
        constraints.append(parse_constraint_line(line, schema, Interner()))
    return schema, constraints, BruteForceDeterminacy(schema, constraints, 2, (0, 1))


@pytest.mark.parametrize("edit, q, view, rewrites", [
    (None, "SELECT * FROM details", DETAILS_ITEMS + " AND items.public", False),
    # items.id equals details.item_id, which the view shows
    (None, "SELECT details.*, items.id FROM details, items WHERE items.id = details.item_id",
     "SELECT * FROM details", True),
    ("fk deleted", "SELECT * FROM details", DETAILS_ITEMS, False),
    # under set semantics the foreign key alone makes the join lossless
    ("unique deleted", "SELECT * FROM details", DETAILS_ITEMS, True),
    ("nullable fk", "SELECT * FROM details", DETAILS_ITEMS, False),
    # only the details rows with body 1 have an item
    ("fk filtered", "SELECT * FROM details", DETAILS_ITEMS, False),
], ids=["extra hop conjunct", "projected hop column", "fk deleted", "unique deleted", "nullable fk", "fk filtered"])
def test_lossless_hop_near_misses_fall_back_to_solver(edit, q, view, rewrites):
    schema, constraints, oracle = _hop_setting(edit)
    want, _ = oracle.is_allowed(nf(q, schema), [nf(view, schema)])
    v = verdict(q, [view], schema, constraints)
    assert v.status == (ALLOWED if rewrites else DETERMINED if want else NOT_ALLOWED)
    assert want or not rewrites


# ---------------------------------------------------------------------------
# Soundness against the exhaustive oracle on random join cases

JOIN_SCHEMAS = (
    "table owners { id int unique  flag bool }\n"
    "table things { owner int fk owners.id  v int nullable }",
    "table users { id int unique }\n"
    "table items { id int unique  owner int fk users.id  pub bool }\n"
    "table notes { item int fk items.id  body int nullable }",
)
# A foreign key on a nullable column: a row may join nothing.
NULLABLE_FK_SCHEMA = (
    "table owners { id int unique  flag bool }\n"
    "table things { owner int nullable fk owners.id  v int }"
)


def _offsets(schema, sources):
    out, off = [], 0
    for t in sources:
        out.append(off)
        off += schema.table(t).arity
    return out


def _atom_pool(rng, schema, sources):
    """(join atoms, local atoms) over the product of `sources`."""
    offs = _offsets(schema, sources)
    joins, local = [], []
    for i, t in enumerate(sources):
        for c, col in enumerate(schema.table(t).columns):
            x = Col(offs[i] + c)
            if col.type == "bool":
                local += [BoolCol(x), Not(BoolCol(x))]
            else:
                k = IntLit(rng.randint(0, 1))
                local += [Cmp("=", x, SessionParam("MyUserId")), Cmp("=", x, k), Cmp("<>", x, k),
                          _reorient(rng, Cmp(rng.choice(["<", "<=", ">", ">="]), x, k))]
            if col.nullable:
                local += [IsNull(x), Not(IsNull(x))]
            for j, u in enumerate(sources):
                if j == i:
                    continue
                for d, other in enumerate(schema.table(u).columns):
                    y = Col(offs[j] + d)
                    if col.foreign_key == (u, other.name) or (t == u and c == d and i < j and col.type == "int"):
                        joins.append(Cmp("=", x, y))
    return joins, local


_CONVERSE = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_OPPOSITE = {"=": "<>", "<>": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _reorient(rng, a):
    """The same atom written another way: operands swapped, < as >."""
    if isinstance(a, Cmp) and rng.random() < 0.5:
        return Cmp(_CONVERSE[a.op], a.right, a.left)
    return a


def _perturb(a):
    """A different atom that looks like `a`: `<` made `>` (`=` made `<>`)
    without swapping operands, or the test negated."""
    if isinstance(a, Cmp):
        return Cmp(_OPPOSITE[a.op], a.left, a.right)
    return a.inner if isinstance(a, Not) else Not(a)


def _projection(rng, arity):
    if rng.random() < 0.4:
        return tuple(range(arity))  # SELECT *
    return tuple(sorted(rng.sample(range(arity), rng.randint(1, arity))))


def _random_query(rng, schema, n_sources):
    sources = tuple(rng.choice(schema.tables).name for _ in range(n_sources))
    joins, local = _atom_pool(rng, schema, sources)
    atoms = [a for a in joins if rng.random() < 0.75]
    atoms += rng.sample(local, min(len(local), rng.choice([0, 1, 2, 2])))
    arity = sum(schema.table(t).arity for t in sources)
    return NormalFormQuery(_projection(rng, arity), conjoin(atoms), sources)


def _cols(a):
    return {t.index for t in iter_terms(a) if isinstance(t, Col)}


def _block_view(rng, schema, q, positions, spoil=None, hide_from=None):
    """A view over `q`'s sources at `positions`, listed in shuffled order.

    It gives some of `q`'s conjuncts that lie inside those sources, each
    written another way, and projects every column the rewriting needs
    from them: the ones it re-applies a conjunct to, and `q`'s projection.
    `spoil` makes the view differ from that in one way: "perturb" one given
    conjunct, add an "extra" one that `q` does not have, or "hide" one
    needed column (one of the `q` ordinals in `hide_from`, if given).
    """
    positions = list(positions)
    rng.shuffle(positions)
    sources = tuple(q.sources[p] for p in positions)
    q_offs, v_offs = _offsets(schema, q.sources), _offsets(schema, sources)
    to_view = {}
    for k, p in enumerate(positions):
        for c in range(schema.table(q.sources[p]).arity):
            to_view[q_offs[p] + c] = v_offs[k] + c
    given, needed = [], {c for c in q.projection if c in to_view}
    selected = set()  # columns of re-applied single-column conjuncts
    for a in conjuncts(q.filter):
        if _cols(a) <= to_view.keys() and rng.random() < 0.7:
            given.append(map_terms(a, lambda t: Col(to_view[t.index]) if isinstance(t, Col) else t))
        else:
            inside = _cols(a) & to_view.keys()
            needed |= inside
            if len(_cols(a)) == 1:
                selected |= inside
    if spoil == "perturb" and given:
        k = rng.randrange(len(given))
        given[k] = _perturb(given[k])
    if spoil == "extra":
        given.append(rng.choice(_atom_pool(rng, schema, sources)[1]))
    hidden = set()
    if spoil == "hide":
        # A hidden join column is often harmless (the foreign key makes the
        # join lossless), so a selected column is hidden when there is one.
        hideable = sorted(needed & (to_view.keys() if hide_from is None else hide_from))
        hideable = sorted(selected & set(hideable)) or hideable
        hidden = {to_view[rng.choice(hideable)]} if hideable else set()
    wanted = {to_view[c] for c in needed}
    arity = sum(schema.table(t).arity for t in sources)
    extra = rng.choice([0.0, 0.3, 1.0])  # 1.0: SELECT *
    projection = tuple(
        c for c in range(arity) if c not in hidden and (c in wanted or rng.random() < extra)
    )
    return NormalFormQuery(projection, conjoin([_reorient(rng, a) for a in given]), sources)


def _plant_hop(rng, schema, nf, show, trap=None):
    """`nf` with one more source S, placed anywhere, joined by a declared
    foreign key `R.a = S.k` off one of its sources and by nothing else.

    `show` projects some of S's columns.  A trap stops the hop from being
    lossless or droppable: an "extra" conjunct on S, or a "project"ed S
    column.
    """
    hops = [
        (i, c, col.foreign_key)
        for i, t in enumerate(nf.sources)
        for c, col in enumerate(schema.table(t).columns)
        if col.foreign_key is not None
    ]
    if not hops:
        return nf
    i, c, (target, key) = rng.choice(hops)
    p = rng.randint(0, len(nf.sources))
    sources = nf.sources[:p] + (target,) + nf.sources[p:]
    start, width = _offsets(schema, sources)[p], schema.table(target).arity

    def moved(t):
        return Col(t.index + width) if isinstance(t, Col) and t.index >= start else t

    atoms = [map_terms(a, moved) for a in conjuncts(nf.filter)]
    a = moved(Col(_offsets(schema, nf.sources)[i] + c))
    atoms.append(_reorient(rng, Cmp("=", a, Col(start + schema.table(target).column_index(key)))))
    s_cols = range(start, start + width)
    if trap == "extra":
        local = _atom_pool(rng, schema, (target,))[1]
        atoms.append(map_terms(rng.choice(local), lambda t: Col(t.index + start) if isinstance(t, Col) else t))
    projection = tuple(moved(Col(o)).index for o in nf.projection)
    projection += tuple(o for o in s_cols if show and rng.random() < 0.5)
    if trap == "project":
        projection += (rng.choice(s_cols),)
    rng.shuffle(atoms)
    return NormalFormQuery(projection, conjoin(atoms), sources)


def random_join_case(rng, schema):
    """A query and 1-5 views.

    The views start as a rewriting of the query: one view per block of a
    random split of its sources.  In four cases of seven one is spoiled so
    that no rewriting is left, though a fast path with a bug would still
    find one: a conjunct is perturbed or added, a needed column is hidden,
    or two views overlap so that only their union would cover the query.
    Sometimes an unrelated random view joins them.
    """
    q = _random_query(rng, schema, rng.choice([1, 2, 2, 3]))
    n = len(q.sources)
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    blocks = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    q_offs = _offsets(schema, q.sources)

    def block_cols(block):
        return {q_offs[p] + c for p in block for c in range(schema.table(q.sources[p]).arity)}

    trap = rng.choice([None, None, None, "perturb", "extra", "hide", "overlap"])
    if trap == "overlap" and len(blocks) < 2:
        trap = "hide"
    victim = rng.randrange(len(blocks))
    views = []
    for k, block in enumerate(blocks):
        if k != victim or trap is None:
            views.append(_block_view(rng, schema, q, block))
        elif trap != "overlap":
            views.append(_block_view(rng, schema, q, block, spoil=trap))
        else:
            # The victim hides a column; a view over the victim's block and
            # a neighbour's shows it but hides one of the neighbour's.
            other = blocks[k - 1]
            views.append(_block_view(rng, schema, q, block, "hide"))
            views.append(_block_view(rng, schema, q, block + other, "hide", block_cols(other)))
    if rng.random() < 0.3:
        views.append(_random_query(rng, schema, rng.choice([1, 2])))
    # Lossless hops, chained at times: on the query they project nothing
    # (but for the "project" trap); on a view anything.
    for _ in range(rng.choice([0, 1, 1, 2])):
        if rng.random() < 0.5:
            q = _plant_hop(rng, schema, q, False, rng.choice([None, None, None, "extra", "project"]))
        else:
            k = rng.randrange(len(views))
            views[k] = _plant_hop(rng, schema, views[k], True, rng.choice([None, None, "extra"]))
    rng.shuffle(views)
    return q, views


def _join_settings():
    """(schema, constraints, whether lossless hops may fire) per setting:
    the join schemas, then two where no hop is lossless: a nullable
    foreign key, and the fk lines' containments deleted."""
    settings = []
    for text in JOIN_SCHEMAS + (NULLABLE_FK_SCHEMA,):
        schema = parse_schema(text)
        settings.append((schema, expand_all(generate_constraints(schema), schema), text != NULLABLE_FK_SCHEMA))
    schema, constraints, _ = settings[1]
    settings.append((schema, [c for c in constraints if not render_constraint(c).startswith("fk ")], False))
    return settings


def test_rewriting_never_fires_where_the_oracle_disallows():
    settings = [(s, c, hops, BruteForceDeterminacy(s, c, 2, (0, 1))) for s, c, hops in _join_settings()]
    rng = random.Random(20241118)
    fired = fired_joins = 0
    hop_fired = {True: 0, False: 0}  # by whether hops may fire
    for case in range(500):
        schema, constraints, hops, oracle = rng.choice(settings)
        q, views = random_join_case(rng, schema)
        if not pruner._has_rewriting(q, views, constraints, schema):
            continue
        fired += 1
        fired_joins += len(q.sources) > 1
        hop_fired[hops] += not pruner._has_rewriting(q, views, [], schema)
        allowed, _ = oracle.is_allowed(q, views)
        assert allowed, f"case {case}: rewriting fired but the oracle says not allowed"
    assert fired >= 40 and fired_joins >= 20, (fired, fired_joins)
    # Where no hop is lossless the chase may still use an equated nullable
    # foreign key or a `unique` line; the oracle check above covers those.
    assert hop_fired[True] >= 30, hop_fired


# A self-referencing foreign key (nullable, so a post may have no parent),
# a key-foreign key hop to another table, and a nullable `unique` column:
# rows whose key is NULL never collide, so no egd may merge them.
SELF_FK_SCHEMA = (
    "table users { id int unique }\n"
    "table posts { id int unique  parent int nullable fk posts.id  author int fk users.id }"
)
NULLABLE_KEY_SCHEMA = "table tags { code int nullable unique  a int  b int }"


def test_rewriting_under_a_self_fk_and_nullable_keys_agrees_with_the_oracle():
    settings = []
    for text in (SELF_FK_SCHEMA, NULLABLE_KEY_SCHEMA):
        schema = parse_schema(text)
        constraints = expand_all(generate_constraints(schema), schema)
        settings.append((schema, constraints, BruteForceDeterminacy(schema, constraints, 2, (0, 1))))
    rng = random.Random(20261019)
    fired = [0, 0]  # per setting
    for case in range(300):
        k = rng.randrange(2)
        schema, constraints, oracle = settings[k]
        q, views = random_join_case(rng, schema)
        if pruner._has_rewriting(q, views, constraints, schema):
            fired[k] += 1
            allowed, _ = oracle.is_allowed(q, views)
            assert allowed, f"case {case}: rewriting fired but the oracle says not allowed"
    assert min(fired) >= 60, fired


@pytest.mark.parametrize("text, q, views, want", [
    # Two rows whose nullable key is NULL both show in each view, so the
    # views cannot pair their `a` with their `b`.
    (NULLABLE_KEY_SCHEMA, "SELECT a, b FROM tags", ["SELECT code, a FROM tags", "SELECT code, b FROM tags"],
     False),
    (NULLABLE_KEY_SCHEMA.replace("nullable ", ""), "SELECT a, b FROM tags",
     ["SELECT code, a FROM tags", "SELECT code, b FROM tags"], True),
    # The query's `=` makes the key non-null, so the views join on it.
    (NULLABLE_KEY_SCHEMA, "SELECT t.a, u.b FROM tags t, tags u WHERE t.code = u.code",
     ["SELECT code, a FROM tags", "SELECT code, b FROM tags"], True),
    # A post with no parent joins nothing in the view.
    (SELF_FK_SCHEMA, "SELECT * FROM posts", ["SELECT * FROM posts p, posts q WHERE q.id = p.parent"], False),
    (SELF_FK_SCHEMA, "SELECT * FROM posts WHERE parent IS NOT NULL",
     ["SELECT p.* FROM posts p, posts q WHERE q.id = p.parent"], True),
    # The author is read off the post, and the foreign key gives the user.
    (SELF_FK_SCHEMA, "SELECT posts.*, users.id FROM posts, users WHERE users.id = posts.author",
     ["SELECT * FROM posts"], True),
    # The parent's row, which the self-FK adds, must not use up the chase's
    # room for the author's user.
    (SELF_FK_SCHEMA, "SELECT parent, author FROM posts WHERE parent <> 0",
     ["SELECT posts.* FROM users, posts WHERE posts.parent <> 0 AND users.id = posts.author"], True),
], ids=["nullable key", "key", "equated nullable key", "nullable self-fk", "filtered self-fk", "fk target column",
        "hop beside the self-fk"])
def test_nulls_keys_and_self_fks_by_the_oracle(text, q, views, want):
    schema = parse_schema(text)
    constraints = expand_all(generate_constraints(schema), schema)
    q, views = nf(q, schema), [nf(v, schema) for v in views]
    assert BruteForceDeterminacy(schema, constraints, 2, (0, 1)).is_allowed(q, views)[0] == want
    assert pruner._has_rewriting(q, views, constraints, schema) == want


@pytest.fixture(scope="module")
def replies():
    """(schema, constraints, views) of the replies corpus at bound 2."""
    schema, constraints, (views,) = _corpus("replies", 2)
    return schema, constraints, [v.nf for v in views]


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_replies_view_4_is_pruned_by_rewriting(replies, bound):
    # View 4 joins a post, its parent, its grandparent and the grandparent's
    # author; view 1 is every post.  By SAT the pair takes seconds at bound 2
    # and is not decided at bound 3, so a one-second deadline ends the search.
    schema, constraints, views = replies
    assert len(views) == 4 and len(views[3].sources) == 4
    question = determinacy(schema, constraints, bound, RANGE, 5.0 if bound == 2 else 1.0)
    v = decide(views[3], views[:3], question)
    assert v.status == ALLOWED


# ---------------------------------------------------------------------------
# Agreement with the solver on the corpora, bound 2

BOUND, RANGE = 2, (0, 7)


def _record_verdicts(monkeypatch):
    """Route `pruner.is_allowed` through a recorder; returns the record."""
    calls = []
    original = pruner.is_allowed

    def recorded(q, views, schema, constraints):
        v = original(q, views, schema, constraints)
        calls.append((q, list(views), v))
        return v

    monkeypatch.setattr(pruner, "is_allowed", recorded)
    return calls


def _assert_rewritten_checks_solver_allowed(calls, constraints, schema, bound=BOUND) -> int:
    """Re-checks every rewriting verdict by SAT at `bound`; returns how
    many there were."""
    rewritten = [c for c in calls if c[-1].status == ALLOWED]
    with pytest.MonkeyPatch.context() as mp:
        full_bound.only(mp)
        for q, views, _ in rewritten:
            v = pruner.counterexample(q, views, determinacy(schema, constraints, bound, RANGE, None))
            assert v.status == DETERMINED
    return len(rewritten)


def _by_solver(monkeypatch, schema, constraints, bound=BOUND, rewrites=False):
    """Route `pruner.is_allowed` through one full-bound search per check at
    `bound` (after a rewriting, if `rewrites`): a pair the search finds
    determined is Allowed."""
    def decided(q, views, *_):
        if rewrites and pruner._has_rewriting(q, views, constraints, schema):
            return pruner.ContainmentVerdict(ALLOWED)
        with pytest.MonkeyPatch.context() as mp:
            full_bound.only(mp)
            v = pruner.counterexample(q, views, determinacy(schema, constraints, bound, RANGE, None))
        return pruner.ContainmentVerdict(ALLOWED) if v.status == DETERMINED else v

    monkeypatch.setattr(pruner, "is_allowed", decided)


def _corpus(corpus, bound):
    """(schema, constraints, per-handler views) of a corpus at `bound`."""
    schema = parse_schema((CORPUS / corpus / "schema.txt").read_text())
    constraints = expand_all(generate_constraints(schema), schema)
    handler_views = []
    for path in sorted((CORPUS / corpus / "handlers").glob("*.hdl")):
        for program in parse_handlers(path.read_text()):
            config = ExplorationConfig(table_bound=bound, value_range=RANGE, solver_timeout=None)
            res = explore(program, schema, constraints, config)
            cqs = simplify(
                to_conditioned_queries(res.transcripts, schema), schema, constraints,
                dict(program.request_params), table_bound=bound, value_range=RANGE, timeout_s=None,
            )
            handler_views.append(views_from_cqs(cqs, schema))
    return schema, constraints, handler_views


# Whether the corpus's prune makes any check the rewriting path decides:
# every check of grade_sheet needs the solver.
@pytest.fixture(scope="module", params=[("toys", True), ("grade_sheet", False)], ids=lambda p: p[0])
def corpus_views(request):
    """(schema, constraints, per-handler views, rewrites) of a corpus at bound 2."""
    corpus, rewrites = request.param
    return (*_corpus(corpus, BOUND), rewrites)


def _merged(handler_views, schema, constraints, bound=BOUND):
    per_handler = [
        pruner.prune(Policy(views, bound, RANGE), constraints, schema)[0]
        for views in handler_views
    ]
    return pruner.merge_and_prune(per_handler, constraints, schema)[0]


def _broaden_corpus():
    schema = parse_schema((CORPUS / "broaden" / "schema.txt").read_text())
    constraints = expand_all(generate_constraints(schema), schema)
    return schema, constraints


def _broadened(bound=BOUND):
    """broaden's narrow policy broadened at `bound`: (views, blame)."""
    schema, constraints = _broaden_corpus()
    narrow = load_policy_file(CORPUS / "broaden" / "narrow.sql", schema)
    broader = load_policy_file(CORPUS / "broaden" / "broader.sql", schema)
    policy, report = pruner.broaden(Policy(list(narrow), bound, RANGE), broader, constraints, schema)
    return [v.nf for v in policy.views], [(v.nf, blame) for v, blame in report.removed]


def test_merged_policy_agrees_with_solver_only_run(corpus_views, monkeypatch):
    schema, constraints, handler_views, rewrites = corpus_views
    calls = _record_verdicts(monkeypatch)
    merged = _merged(handler_views, schema, constraints)
    assert bool(_assert_rewritten_checks_solver_allowed(calls, constraints, schema)) == rewrites
    _by_solver(monkeypatch, schema, constraints)
    solver_only = _merged(handler_views, schema, constraints)
    assert [v.nf for v in merged.views] == [v.nf for v in solver_only.views]


def test_broadened_policy_and_blame_agree_with_solver_only_run(monkeypatch):
    schema, constraints = _broaden_corpus()
    calls = _record_verdicts(monkeypatch)
    got = _broadened()
    assert _assert_rewritten_checks_solver_allowed(calls, constraints, schema)
    _by_solver(monkeypatch, schema, constraints)
    assert got == _broadened()


# Bound 3.  A SAT-only toys run takes about 28 s here, nearly all in its
# rewritten "allowed" checks, so the toys reference keeps the rewriting
# (checked at bound 2 below) and decides every other check by one solver
# call at bound 3; broaden's reference is SAT-only, at bound 3 alone too.


def test_merged_toys_policy_at_bound_3_agrees_with_one_full_bound_check(monkeypatch):
    schema, constraints, handler_views = _corpus("toys", 3)
    calls = _record_verdicts(monkeypatch)
    merged = _merged(handler_views, schema, constraints, bound=3)
    assert any(v.status == NO_REWRITING for *_, v in calls)
    _by_solver(monkeypatch, schema, constraints, 3, rewrites=True)
    reference = _merged(handler_views, schema, constraints, bound=3)
    assert [v.nf for v in merged.views] == [v.nf for v in reference.views]


def test_broadened_policy_and_blame_at_bound_3_agree_with_solver_only_run(monkeypatch):
    calls = _record_verdicts(monkeypatch)
    got = _broadened(3)
    assert any(v.status == NO_REWRITING for *_, v in calls)
    _by_solver(monkeypatch, *_broaden_corpus(), 3)
    assert got == _broadened(3)


@pytest.mark.parametrize("corpus", ["toys", "broaden"])
def test_every_allowed_check_at_bound_3_is_rewritten(corpus, monkeypatch):
    # toys: each handler's prune and the merge-prune; broaden: the prune
    # and its blame re-checks.  A check with no rewriting is not allowed
    # at bound 3 either: no view of theirs is determined without one.
    if corpus == "toys":
        schema, constraints, handler_views = _corpus("toys", 3)
        calls = _record_verdicts(monkeypatch)
        _merged(handler_views, schema, constraints, bound=3)
    else:
        schema, constraints = _broaden_corpus()
        calls = _record_verdicts(monkeypatch)
        _broadened(3)
    allowed = [v for *_, v in calls if v.status == ALLOWED]
    assert allowed and len(allowed) < len(calls)
    question = determinacy(schema, constraints, 3, RANGE, None)
    for q, views, v in calls:
        if v.status == NO_REWRITING:
            assert pruner.counterexample(q, views, question).status == NOT_ALLOWED
    # A rewriting holds at every bound; by SAT at bound 3 the merge-prune's
    # checks over up to 10 views take about 25 s, at bound 2 under 1 s.
    assert _assert_rewritten_checks_solver_allowed(calls, constraints, schema) == len(allowed)


def _record_searches(monkeypatch):
    """Record each `solver.Question` made, each question it is asked with
    its instance count and, for each search made over a pool with a base
    (one per rung a question reaches), the `Question` asking and the base."""
    record = {"questions": [], "asked": [], "searches": []}
    asking = []
    init, ask, search_init = solver.Question.__init__, solver.Question.ask, fdsolver.CdclBackend.__init__

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record["questions"].append(self)

    def recorded_ask(self, encode, copies, steps=None):
        record["asked"].append((self, copies))
        asking.append(self)
        try:
            return ask(self, encode, copies, steps)
        finally:
            asking.pop()

    def recorded_search(self, pool, *args):
        search_init(self, pool, *args)
        if pool.base is not None:
            record["searches"].append((asking[-1], pool.base))

    monkeypatch.setattr(solver.Question, "__init__", recorded_init)
    monkeypatch.setattr(solver.Question, "ask", recorded_ask)
    monkeypatch.setattr(fdsolver.CdclBackend, "__init__", recorded_search)
    return record


@pytest.mark.parametrize("corpus", ["toys", "broaden"])
def test_a_prune_pass_makes_no_search_and_counterexample_one_per_rung(corpus, monkeypatch):
    # toys: the merge-prune, one pass; broaden: its prune pass and its
    # blame loop.  Neither makes a `Question`.  The pairs they find no
    # rewriting for, asked of `counterexample` on one `Question`, go to
    # one search per rung.
    if corpus == "toys":
        schema, constraints, handler_views = _corpus("toys", 3)
        per_handler = [pruner.prune(Policy(views, 3, RANGE), constraints, schema)[0] for views in handler_views]
        record, calls = _record_searches(monkeypatch), _record_verdicts(monkeypatch)
        pruner.merge_and_prune(per_handler, constraints, schema)
    else:
        schema, constraints = _broaden_corpus()
        record, calls = _record_searches(monkeypatch), _record_verdicts(monkeypatch)
        _broadened(3)
    assert record == {"questions": [], "asked": [], "searches": []}
    question = determinacy(schema, constraints, 3, RANGE, None)
    for q, views, v in calls:
        if v.status == NO_REWRITING:
            pruner.counterexample(q, views, question)
    assert record["questions"] == [question]
    assert all(copies == 2 for _, copies in record["asked"])
    rungs = [(id(q), id(base)) for q, base in record["searches"]]
    assert len(rungs) == len(set(rungs)) <= 2
    assert len(record["asked"]) > len(rungs)


def test_request_parameters_block_the_rewriting(toys_schema):
    # Only constants and session parameters are known to be shared.
    q = nf("SELECT * FROM items WHERE owner_id = OwnerId", toys_schema)
    assert not pruner._has_rewriting(q, [q], [], toys_schema)


def test_validation_and_rewriting_leave_no_reference_cycles(toys_schema, toys_constraints):
    # Only the cyclic collector frees a reference cycle, so cyclic garbage
    # lives on until it runs.  The first pass fills the caches.
    programs = [p for path in sorted((CORPUS / "toys" / "handlers").glob("*.hdl"))
                for p in parse_handlers(path.read_text())]
    q, views = nf("SELECT * FROM details", toys_schema), [nf(DETAILS_ITEMS, toys_schema)]
    for _ in range(2):
        gc.collect()
        gc.disable()
        try:
            for program in programs:
                validate_program(program, QueryCatalog(toys_schema))
            assert pruner._has_rewriting(q, views, toys_constraints, toys_schema)
            left = gc.collect()
        finally:
            gc.enable()
    assert left == 0
