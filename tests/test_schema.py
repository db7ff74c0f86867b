from __future__ import annotations

from pathlib import Path

import pytest

from polex.constraints import (
    Containment,
    ConstraintError,
    DomainConstraint,
    FixedValue,
    ForeignKey,
    LiteralRelation,
    NonNull,
    Unique,
    expand_all,
    expand_shorthand,
    generate_constraints,
    parse_constraint_file,
    render_constraint,
    render_constraint_file,
    validate_instance,
)
from polex.instance import ConcreteInput
from polex.schema import Interner, Schema, SchemaError, parse_schema

SCHEMA = parse_schema(
    """
table courses { id int unique }
table roles {
  user_id int
  course_id int fk courses.id
  is_instructor bool
  note int nullable
  unique (user_id, course_id)
}
"""
)


def make_input(**tables):
    base = {t.name: () for t in SCHEMA.tables}
    base.update(tables)
    return ConcreteInput("i", "h", base, {"MyUserId": 0, "Now": 0}, {})


def test_parse_schema_attributes():
    roles = SCHEMA.table("roles")
    assert roles.column("note").nullable
    assert SCHEMA.table("courses").column("id").unique
    assert roles.column("course_id").foreign_key == ("courses", "id")
    assert roles.composite_uniques == (("user_id", "course_id"),)


def test_fk_target_must_be_unique():
    with pytest.raises(SchemaError):
        parse_schema("table a { x int }\ntable b { y int fk a.x }")


def test_duplicate_column_rejected():
    with pytest.raises(SchemaError):
        parse_schema("table a { x int x int }")


# ---------------------------------------------------------------------------
# Shorthand expansion


def test_nonnull_on_non_nullable_is_noop():
    assert expand_shorthand(NonNull("roles", "user_id"), SCHEMA) == []


def test_nonnull_on_nullable_expands():
    (c,) = expand_shorthand(NonNull("roles", "note"), SCHEMA)
    assert isinstance(c, Containment)
    assert c.left.projection == ()
    assert c.right == LiteralRelation(0, ())
    ok, _ = validate_instance(make_input(roles=((0, 0, 1, None),)), [c], SCHEMA)
    assert not ok
    ok, _ = validate_instance(make_input(roles=((0, 0, 1, 5),)), [c], SCHEMA)
    assert ok


def test_foreign_key_expansion_validates():
    (c,) = expand_shorthand(ForeignKey("roles", "course_id", "courses", "id"), SCHEMA)
    good = make_input(courses=((1,),), roles=((0, 1, 0, None),))
    bad = make_input(courses=((1,),), roles=((0, 2, 0, None),))
    assert validate_instance(good, [c], SCHEMA)[0]
    ok, why = validate_instance(bad, [c], SCHEMA)
    assert not ok and "fk roles.course_id" in why


def test_domain_expansion_with_interned_string():
    interner = Interner()
    value = interner.intern("en")
    (c,) = expand_shorthand(DomainConstraint("roles", "note", (value,)), SCHEMA)
    assert isinstance(c.right, LiteralRelation)
    assert c.right.rows == ((0,),)


def test_fixed_is_single_value_domain():
    (c,) = expand_shorthand(FixedValue("courses", "id", 3), SCHEMA)
    assert c.label == "fixed courses.id = 3"  # the line as written, for error messages
    ok, _ = validate_instance(make_input(courses=((3,),)), [c], SCHEMA)
    assert ok
    ok, _ = validate_instance(make_input(courses=((1,),)), [c], SCHEMA)
    assert not ok


def test_expansion_idempotent_in_effect():
    items = generate_constraints(SCHEMA)
    once = expand_all(items, SCHEMA)
    twice = expand_all(once, SCHEMA)
    assert once == twice


def test_unknown_column_raises():
    with pytest.raises(ConstraintError):
        expand_shorthand(NonNull("roles", "nosuch"), SCHEMA)


# ---------------------------------------------------------------------------
# Generation


def test_generate_constraints_for_grade_schema(grade_schema):
    items = generate_constraints(grade_schema)
    uniques = [i for i in items if isinstance(i, Unique)]
    fks = [i for i in items if isinstance(i, ForeignKey)]
    nonnulls = [i for i in items if isinstance(i, NonNull)]
    # Fixed by the example schema shipped in the repo: courses.id unique,
    # the (user_id, course_id) pair unique, both course_id foreign keys,
    # and one non-null per column (all columns are non-nullable).
    assert [render_constraint(u) for u in uniques] == [
        "unique courses(id)",
        "unique roles(user_id, course_id)",
    ]
    assert [render_constraint(f) for f in fks] == [
        "fk roles.course_id -> courses.id",
        "fk grades.course_id -> courses.id",
    ]
    assert len(nonnulls) == 7
    assert len(items) == 11


def test_generate_empty_schema():
    assert generate_constraints(Schema(())) == []


def test_generate_no_declarations_yields_nonnulls_only():
    schema = parse_schema("table plain { x int  y int nullable }")
    items = generate_constraints(schema)
    assert items == [NonNull("plain", "x")]


# ---------------------------------------------------------------------------
# Validation


def test_unique_violation():
    u = Unique("roles", ("user_id", "course_id"))
    dup = make_input(roles=((1, 2, 0, None), (1, 2, 1, 5)))
    ok, why = validate_instance(dup, [u], SCHEMA)
    assert not ok and "unique" in why


def test_unique_ignores_null_keys():
    u = Unique("roles", ("note",))
    ok, _ = validate_instance(make_input(roles=((1, 2, 0, None), (3, 4, 1, None))), [u], SCHEMA)
    assert ok


def test_empty_instance_satisfies_empty_right_sides():
    constraints = expand_all(generate_constraints(SCHEMA), SCHEMA)
    ok, _ = validate_instance(make_input(), constraints, SCHEMA)
    assert ok


# ---------------------------------------------------------------------------
# Config file round trip


def test_constraint_file_round_trip():
    items = generate_constraints(SCHEMA)
    text = render_constraint_file(items)
    parsed = parse_constraint_file(text, SCHEMA, Interner())
    assert [render_constraint(i) for i in parsed] == [render_constraint(i) for i in items]


def test_parse_constraint_lines():
    interner = Interner()
    text = """
# comment
unique roles(user_id, course_id)
fk roles.course_id -> courses.id
nonnull roles.note
domain roles.note in {'en', 'fr'}
fixed courses.id = 2
contain SELECT course_id FROM roles in SELECT id FROM courses
"""
    items = parse_constraint_file(text, SCHEMA, interner)
    assert len(items) == 6
    assert interner.mapping == {"en": 0, "fr": 1}
    contain = items[-1]
    assert isinstance(contain, Containment)
    assert len(contain.left.projection) == 1


def test_constraint_file_lexes_each_line_once(monkeypatch):
    from polex import constraints

    lexed = []
    tokenize = constraints.tokenize
    monkeypatch.setattr(constraints, "tokenize", lambda line: lexed.append(line) or tokenize(line))
    text = ("# comment\n\nunique roles(user_id, course_id)\n"
            "  contain SELECT course_id FROM roles IN SELECT id FROM courses  # note\n")
    unique, contain = parse_constraint_file(text, SCHEMA, Interner())
    assert lexed == text.splitlines()[2:]  # a line of only a comment or blanks is not lexed
    assert unique == Unique("roles", ("user_id", "course_id"))
    assert contain.label == "contain SELECT course_id FROM roles in SELECT id FROM courses  # note"


def test_hash_inside_a_quoted_value_is_not_a_comment():
    toys = parse_schema((Path(__file__).resolve().parent.parent / "corpus" / "toys" / "schema.txt").read_text())
    interner = Interner()
    text = "domain items.category in {'#ff0000', 'blue'}\nfixed items.category = 'a#b'  # note\n"
    domain, fixed = parse_constraint_file(text, toys, interner)
    assert domain == DomainConstraint("items", "category", (0, 1))
    assert fixed == FixedValue("items", "category", interner.intern("a#b"))
    assert interner.mapping == {"#ff0000": 0, "blue": 1, "a#b": 2}


def test_contain_arity_mismatch():
    with pytest.raises(ConstraintError):
        parse_constraint_file(
            "contain SELECT user_id, course_id FROM roles in SELECT id FROM courses",
            SCHEMA,
            Interner(),
        )


def test_interner_stable(tmp_path):
    interner = Interner()
    assert interner.intern("a") == 0
    assert interner.intern("b") == 1
    assert interner.intern("a") == 0
    path = tmp_path / "intern.json"
    interner.save(path)
    again = Interner.load(path)
    assert again.intern("b") == 1
    assert again.intern("c") == 2


def test_table_keys_are_non_nullable_uniques_in_schema_order():
    schema = parse_schema(
        """
table t {
  a int nullable unique
  b int
  c int unique
  d int nullable
  e int unique
  unique (b, d)
  unique (b, c)
}
"""
    )
    assert schema.table("t").keys() == ((2,), (4,), (1, 2))
    assert SCHEMA.table("courses").keys() == ((0,),)
    assert SCHEMA.table("roles").keys() == ((0, 1),)


def test_contain_constraint_takes_an_inner_join():
    (item,) = parse_constraint_file(
        "contain SELECT roles.course_id FROM roles INNER JOIN courses ON roles.course_id = courses.id"
        " in SELECT id FROM courses",
        SCHEMA,
        Interner(),
    )
    assert isinstance(item, Containment)


def test_a_schema_and_its_constraints_keep_their_value_hash():
    # A solver context is looked up by (schema, constraints), so each is
    # hashed once and equal ones, parsed apart, still hash alike.
    text = "table courses { id int unique }\ntable roles { course_id int fk courses.id  note int nullable }"
    a, b = parse_schema(text), parse_schema(text)
    cons_a, cons_b = expand_all(generate_constraints(a), a), expand_all(generate_constraints(b), b)
    assert (a, cons_a) == (b, cons_b) and a is not b
    assert hash((a, tuple(cons_a))) == hash((b, tuple(cons_b)))
    assert all(x.__dict__["_hash"] == hash(x) for x in (a, *cons_a))
