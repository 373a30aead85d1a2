"""Property tests for the attribute branch of the compiled trie walk.

Attributes reach the engines as ``@name`` element events, and the structural walk
sends them down their own branch: a child start named ``@x`` probes the ``@x`` edges
and the ``@*`` wildcard of the parent's fired trie nodes (never ``*``), and looks up
live descendant steps in the ``@x`` bucket and the ``@*`` map.  On random documents
with attributes and random banks mixing attribute steps with element steps, the
statistics engine, the match-only engine and the sharded bank must all agree with
the DOM reference evaluator :func:`~repro.semantics.evaluator.bool_eval`.

Every bank also carries fixed queries that pin the walk's corner cases:

* a trie node with concrete, ``*`` and ``@*`` child edges at once (``/a/b``,
  ``/a/*``, ``/a/@*``, ``/a/@x``);
* two fired nodes expecting the same child name (``/a/b`` and ``//a/b``: both the
  ``/a`` and the ``//a`` node fire at a top-level ``a``);
* a nested ``//x`` scope registered twice and popped (``//a//b``: the ``//a`` node
  fires at each of two nested ``a`` elements, and its ``//b`` scope must stay live
  until the outer one ends).

The query language only has child-axis attribute steps, so descendant attribute
steps (``//@*``, ``/a//@x``) are built as query trees; the sharded bank ships
queries to its workers as text and takes only the parseable ones.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompiledFilterBank, FilterBank, ShardedFilterBank
from repro.semantics.evaluator import bool_eval
from repro.xmlstream import XMLDocument, XMLNode
from repro.xpath import Query, QueryNode, parse_query
from repro.xpath.query import CHILD, DESCENDANT

from ..strategies import documents, random_supported_query

CORNER_QUERIES = (
    "/a/b", "/a/*", "/a/@*", "/a/@x", "//a/b", "//a//b", "//a[@y > 2]//b",
    "//*/@y", "/a[@x and b]", "//b[@* = 7]",
)


def _chain(*steps):
    """A query tree from ``(axis, node test)`` steps (for unparseable shapes)."""
    root = QueryNode.root()
    current = root
    for axis, ntest in steps:
        node = QueryNode(axis, ntest)
        current.add_child(node, successor=True)
        current = node
    return Query(root)


def _descendant_attribute_queries():
    return {
        "d_any": _chain((DESCENDANT, "@*")),
        "d_x": _chain((DESCENDANT, "@x")),
        "a_d_y": _chain((CHILD, "a"), (DESCENDANT, "@y")),
        "any_d_any": _chain((DESCENDANT, "*"), (DESCENDANT, "@*")),
    }


def _random_bank(seed, count):
    rng = random.Random(seed)
    queries = {f"c{index}": parse_query(text) for index, text in enumerate(CORNER_QUERIES)}
    for index in range(count):
        queries[f"r{index}"] = random_supported_query(
            rng, max_steps=3, allow_wildcard=True, allow_attributes=True)
    return queries


def _render(node):
    """XML text with real attributes, so the tokenizer's attribute path runs too."""
    attrs = [child for child in node.children if child.name and child.name[0] == "@"]
    rest = [child for child in node.children if child not in attrs]
    head = "".join(f' {attr.name[1:]}="{attr.string_value()}"' for attr in attrs)
    body = "".join(child.text_content or "" if child.name is None else _render(child)
                   for child in rest)
    return f"<{node.name}{head}>{body}</{node.name}>"


@pytest.fixture(scope="module")
def sharded():
    with ShardedFilterBank(2) as bank:
        yield bank


@settings(max_examples=120, deadline=None)
@given(document=documents(max_depth=3, attributes=True),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       count=st.integers(min_value=0, max_value=6))
def test_engines_agree_with_dom_reference(sharded, document, seed, count):
    queries = _random_bank(seed, count)
    extra = _descendant_attribute_queries()
    stats, fast = CompiledFilterBank(), CompiledFilterBank(stats=False)
    for bank in (stats, fast):
        for name, query in {**queries, **extra}.items():
            bank.register(name, query)
    for name in sharded.subscriptions():
        sharded.unregister(name)
    for name, query in queries.items():
        sharded.register(name, query)

    expected = [name for name, query in {**queries, **extra}.items()
                if bool_eval(query, document)]
    assert stats.filter_document(document).matched == expected
    assert fast.filter_document(document).matched == expected
    assert fast.filter_text(_render(document.top_element())).matched == expected
    assert sharded.filter_document(document).matched == \
        [name for name in expected if name in queries]


def test_corner_cases_on_a_fixed_document():
    # <a x="1" y="7"><a><b z="0"/></a><c y="3"/></a>: nested a's, two fired nodes
    # expecting b, and @-named children beside concrete and wildcard edges
    inner_b = XMLNode.element("b")
    inner_b.append_child(XMLNode.attribute("z", "0"))
    inner_a = XMLNode.element("a")
    inner_a.append_child(inner_b)
    c = XMLNode.element("c")
    c.append_child(XMLNode.attribute("y", "3"))
    top = XMLNode.element("a")
    top.append_child(XMLNode.attribute("x", "1"))
    top.append_child(XMLNode.attribute("y", "7"))
    top.append_child(inner_a)
    top.append_child(c)
    document = XMLDocument.from_top_element(top)
    queries = {**{text: parse_query(text) for text in CORNER_QUERIES},
               **_descendant_attribute_queries()}
    expected = [name for name, query in queries.items() if bool_eval(query, document)]
    assert "//a//b" in expected and "/a/@*" in expected and "d_x" in expected
    assert "/a/b" not in expected  # b is a grandchild of the top-level a
    for stats in (True, False):
        bank = CompiledFilterBank(stats=stats)
        for name, query in queries.items():
            bank.register(name, query)
        assert bank.filter_document(document).matched == expected


def test_literal_wildcard_names_match_wildcard_edges_once():
    # the lenient tokenizer accepts <*> and <a @*="..."> style names; such an element
    # must fire the parent's wildcard edge once, not once more as a concrete name
    star = XMLNode.element("*")
    star.append_child(XMLNode.attribute("*", "5"))
    star.append_child(XMLNode.element("b"))
    top = XMLNode.element("a")
    top.append_child(star)
    document = XMLDocument.from_top_element(top)
    texts = ["/a/*", "/a/*/@*", "/a/*[@* > 2]", "//*//b", "/a/*/b", "/a/b"]
    reference, stats, fast = FilterBank(), CompiledFilterBank(), CompiledFilterBank(stats=False)
    for text in texts:
        for bank in (reference, stats, fast):
            bank.register(text, parse_query(text))
    expected = [text for text in texts if bool_eval(parse_query(text), document)]
    assert expected == ["/a/*", "/a/*/@*", "/a/*[@* > 2]", "//*//b", "/a/*/b"]
    assert fast.filter_document(document).matched == expected
    result = stats.filter_document(document)
    assert result.matched == expected
    assert result.per_query_stats == reference.filter_document(document).per_query_stats
