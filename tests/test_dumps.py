"""The CLI's JSON renderer against json.dumps(indent=2, sort_keys=True)."""

import json

from hypothesis import given, settings, strategies as st

from flagheight.cli import _dumps, _render_records


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


ints = st.integers() | st.integers(-10**40, 10**40)
keys = st.text(max_size=6) | st.text(alphabet='ab%"\\é☃', max_size=4)
scalars = ints | st.booleans() | st.none() | st.text(max_size=8)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(keys, children, max_size=5),
    max_leaves=30)


@st.composite
def records(draw, min_size=1):
    """A list of flat records: the same keys in every record, each value
    an int or an int list of one length per key."""
    shape = draw(st.dictionaries(keys, st.none() | st.integers(0, 3),
                                 min_size=1, max_size=4))
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
@given(records(), documents)
def test_record_lists_take_the_template(rows, other):
    assert _render_records(rows, "\n  ") is not None
    doc = {"rows": rows, "other": other, "nested": [{"rows": rows}]}
    assert _dumps(doc) == reference(doc)


@settings(max_examples=200, deadline=None)
@given(near_misses())
def test_near_misses_take_the_recursive_path(rows):
    assert _render_records(rows, "\n  ") is None
    assert _dumps({"rows": rows}) == reference({"rows": rows})


def test_edge_cases():
    for doc in ({}, [], {"a": {}}, {"a": []}, [[]], [{}], [{}, {}],
                [{"a": []}, {"a": []}], [True, 1], [1, None], [0, False],
                {"%d": [{"%s": 1}]}, {"é\n": "☃\"\\"},
                [{"w": [1, 2], "m": 3}, {"w": [4, 5], "m": True}],
                [{"w": [1, 2]}, {"w": (3, 4)}], 7, "x", None):
        assert _dumps(doc) == reference(doc), doc
