"""The CLI's JSON renderer against json.dumps(indent=2, sort_keys=True)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from flagheight.cli import _dumps, _Table, _textval


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plain(doc):
    """doc with every _Table replaced by its list of dicts, built from the
    weights and values here and not by _Table.records."""
    if isinstance(doc, _Table):
        return [{"weight": list(mu), doc.name: c}
                for mu, c in zip(doc.weights, doc.values)]
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(v) for v in doc]
    return doc


ints = st.integers() | st.integers(-10**40, 10**40)
keys = st.text(max_size=6) | st.text(alphabet='ab%"\\é☃', max_size=4)
scalars = ints | st.booleans() | st.none() | st.text(max_size=8)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(keys, children, max_size=5),
    max_leaves=30)


@st.composite
def shapes(draw):
    """Column names, each with None (an int column) or a tuple width."""
    return draw(st.dictionaries(keys, st.none() | st.integers(0, 3),
                                min_size=1, max_size=4))


@st.composite
def tables(draw):
    """A weight table of 0 to 6 weights of one width 0 to 3, under any
    value name but "weight", in either order."""
    width = draw(st.integers(0, 3))
    table = draw(st.dictionaries(st.tuples(*[ints] * width), ints,
                                 max_size=6))
    name = draw(keys.filter(lambda k: k != "weight"))
    return _Table(table, name, reverse=draw(st.booleans()))


documents_with_tables = st.recursive(
    scalars | tables(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(keys, children, max_size=5),
    max_leaves=30)


@st.composite
def records(draw, min_size=1):
    """A list of flat records as dicts: the same keys in every record, each
    value an int or an int list of one length per key."""
    shape = draw(shapes())
    return [{k: draw(ints) if n is None
             else draw(st.lists(ints, min_size=n, max_size=n))
             for k, n in shape.items()}
            for _ in range(draw(st.integers(min_size, 6)))]


@st.composite
def near_misses(draw):
    """A record list with one record broken so that no template fits it;
    with two records or more, a broken key set or length shows."""
    rows = draw(records(min_size=2))
    row = draw(st.sampled_from(rows))
    key = draw(st.sampled_from(sorted(row)))
    kind = draw(st.sampled_from(["bool", "none", "missing", "extra",
                                 "length", "text"]))
    value = row[key]
    if kind in ("bool", "none", "text"):
        odd = {"bool": draw(st.booleans()), "none": None,
               "text": draw(st.text(max_size=3))}[kind]
        if isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = odd
        else:
            row[key] = odd
    elif kind == "missing":
        del row[key]
    elif kind == "extra":
        row[key + "+"] = 0
    elif isinstance(value, list):
        row[key] = value + [0]
    else:
        row[key] = [value]
    return rows


@settings(max_examples=200, deadline=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert _dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(tables(), records(), documents)
def test_record_lists_take_the_template(table, rows, other):
    doc = {"table": table, "rows": rows, "other": other,
           "nested": [{"table": table}]}
    assert _dumps(doc) == reference(plain(doc))


@settings(max_examples=200, deadline=None)
@given(documents_with_tables)
def test_tables_anywhere_in_a_document(doc):
    """_dumps, and the json.dumps of the text and csv outputs through
    _Table.records, print a table as the list of dicts it stands for."""
    expected = plain(doc)
    assert _dumps(doc) == reference(expected)
    assert json.dumps(doc, sort_keys=True, default=_Table.records) == \
        json.dumps(expected, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(tables())
def test_textval_of_a_table_is_its_records(table):
    assert _textval(table) == _textval(plain(table))
    assert _textval({"2": table}) == _textval({"2": plain(table)})


@settings(max_examples=200, deadline=None)
@given(near_misses())
def test_near_misses_take_the_recursive_path(rows):
    assert _dumps({"rows": rows}) == reference({"rows": rows})


@pytest.mark.parametrize("columns", [
    {(1,): 1, (2,): True},
    {(1, 2): 1, (True, 0): 2},
    {(1, 2): 1, (3,): 2},
    {(1, 2): 1, (3, 4, 5): 2},
    {(1, 2): 1, (3, 4.0): 2},
    {(1, 2): 1, (3, 4): 2.0},
    {(1,): 1, (2,): None},
])
def test_tables_of_bools_or_ragged_tuples_raise(columns):
    """A bool would print as %d of True, i.e. 1, and 4.0 as 4; nothing is
    formatted, whether the value's name sorts before "weight" or after."""
    for name in ("mult", "zz"):
        with pytest.raises(TypeError):
            _dumps({"weights": _Table(columns, name)})


def test_edge_cases():
    for doc in ({}, [], {"a": {}}, {"a": []}, [[]], [{}], [{}, {}],
                [{"a": []}, {"a": []}], [True, 1], [1, None], [0, False],
                {"%d": [{"%s": 1}]}, {"é\n": "☃\"\\"},
                [{"w": [1, 2], "m": 3}, {"w": [4, 5], "m": True}],
                [{"w": [1, 2]}, {"w": (3, 4)}], 7, "x", None,
                _Table({}, "mult"), [_Table({}, "b"), _Table({}, "x")],
                _Table({(): -2}, "%d"), _Table({(): 3}, "zz"),
                {"t": _Table({(1, 2, 3): 10**40, (0, 0, 0): 1}, "%s")},
                # text that spells the NaN a table leaves in json.dumps
                {"NaN": "NaN", '": NaN,': ' ": NaN,', "NaN\n": " NaN\n",
                 "t": _Table({(1,): 2}, "NaN")},
                [" NaN", "NaN,\n", _Table({(0,): 1}, "c"), "NaN"],
                _Table({(1,): 2, (3,): -4}, "mult"),
                [_Table({(1,): 2}, "m"), _Table({(0, 1): 3, (2, 2): 0}, "m")],
                [_Table({}, "c"), _Table({(1,): 1}, "c"), _Table({}, "c")],
                {"a": _Table({}, "c"), "b": _Table({(2,): 5}, "c")},
                {"x": {"a": 1, "z": _Table({(1, 2): 3}, "coeff")}, "y": 2},
                [{"b": [_Table({(1,): 1}, "m")]}],
                _Table({(7,): 1}, '%d"%%'), _Table({(7,): 1}, 'a"b\n')):
        assert _dumps(doc) == reference(plain(doc)), doc
