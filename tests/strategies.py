"""Shared hypothesis strategies and random generators for the test suite.

The strategies generate small documents and queries over a fixed label alphabet so
that cross-checking the streaming filter against the reference evaluator stays fast
while still exploring recursion, descendant axes, wildcards and value predicates.
Attributes (``@x``-named children, as the parser produces them) and attribute steps
are opt-in, so the draws of the attribute-free strategies stay as they were.
"""

from __future__ import annotations

import random
from typing import List, Optional

from hypothesis import strategies as st

from repro.xmlstream import XMLDocument, XMLNode
from repro.xpath import Query, parse_query

LABELS = ("a", "b", "c", "d", "e")
VALUES = ("", "1", "3", "4", "6", "7", "10", "hello")
ATTRIBUTES = ("@x", "@y")
#: attribute node tests a query step may carry (concrete names and the ``@*`` wildcard)
ATTRIBUTE_TESTS = ("@x", "@y", "@*")


# --------------------------------------------------------------------------- documents
@st.composite
def document_nodes(draw, depth: int = 0, max_depth: int = 4,
                   attributes: bool = False) -> XMLNode:
    """A random element node with random children (and attributes, if asked)."""
    node = XMLNode.element(draw(st.sampled_from(LABELS)))
    if attributes:
        for name in draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2, unique=True)):
            node.append_child(XMLNode.attribute(name, draw(st.sampled_from(VALUES))))
    if draw(st.booleans()):
        node.append_child(XMLNode.text(draw(st.sampled_from(VALUES))))
    if depth < max_depth:
        child_count = draw(st.integers(min_value=0, max_value=3))
        for _ in range(child_count):
            node.append_child(draw(document_nodes(depth=depth + 1, max_depth=max_depth,
                                                  attributes=attributes)))
    return node


@st.composite
def documents(draw, max_depth: int = 4, attributes: bool = False) -> XMLDocument:
    """A random small document over the fixed label set."""
    return XMLDocument.from_top_element(
        draw(document_nodes(max_depth=max_depth, attributes=attributes)))


# --------------------------------------------------------------------------- queries
def _random_name(rng: random.Random, allow_wildcard: bool) -> str:
    if allow_wildcard and rng.random() < 0.2:
        return "*"
    return rng.choice(LABELS)


def _random_step(rng: random.Random, depth: int, max_depth: int,
                 allow_wildcard: bool, allow_attributes: bool = False,
                 last: bool = False) -> str:
    if allow_attributes and last and rng.random() < 0.25:
        # the query language has child-axis attribute steps only, and they are leaves
        return "/" + rng.choice(ATTRIBUTE_TESTS)
    name = _random_name(rng, allow_wildcard)
    axis = rng.choice(("/", "//"))
    predicates: List[str] = []
    if depth < max_depth and rng.random() < 0.6:
        count = rng.randint(1, 2)
        for _ in range(count):
            predicates.append(_random_relative(rng, depth + 1, max_depth,
                                               allow_wildcard, allow_attributes))
    predicate_text = f"[{' and '.join(predicates)}]" if predicates else ""
    return f"{axis}{name}{predicate_text}"


def _random_relative(rng: random.Random, depth: int, max_depth: int,
                     allow_wildcard: bool = False, allow_attributes: bool = False) -> str:
    if allow_attributes and rng.random() < 0.3:
        test = rng.choice(ATTRIBUTE_TESTS)
        if rng.random() < 0.5:
            operator = rng.choice((">", "<", "=", "!="))
            return f"{test} {operator} {rng.choice((2, 5, 7))}"
        return test
    name = _random_name(rng, allow_wildcard)
    prefix = rng.choice(("", ".//"))
    choice = rng.random()
    if choice < 0.35:
        operator = rng.choice((">", "<", "=", ">=", "<=", "!="))
        constant = rng.choice((2, 5, 7))
        return f"{prefix}{name} {operator} {constant}"
    if choice < 0.55 and depth < max_depth:
        inner = _random_relative(rng, depth + 1, max_depth, allow_wildcard,
                                 allow_attributes)
        return f"{prefix}{name}[{inner}]"
    if choice < 0.7:
        follow = _random_name(rng, allow_wildcard)
        axis = rng.choice(("/", "//"))
        return f"{prefix}{name}{axis}{follow}"
    return f"{prefix}{name}"


def random_supported_query(rng: random.Random, *, max_steps: int = 2,
                           max_depth: int = 2,
                           allow_wildcard: bool = False,
                           allow_attributes: bool = False) -> Query:
    """A random univariate conjunctive leaf-only-value-restricted query.

    The generator only emits shapes the streaming filter supports: child/descendant
    axes, conjunctions, and single-variable comparisons against constants on leaves.
    With ``allow_wildcard`` some node tests become ``*`` (still supported); with
    ``allow_attributes`` some leaves become ``@x``/``@y``/``@*`` attribute steps.
    """
    steps = rng.randint(1, max_steps)
    text = "".join(_random_step(rng, 1, max_depth, allow_wildcard=allow_wildcard,
                                allow_attributes=allow_attributes,
                                last=index == steps - 1)
                   for index in range(steps))
    return parse_query(text)


@st.composite
def supported_queries(draw, allow_wildcard: bool = False) -> Query:
    """Hypothesis wrapper over :func:`random_supported_query`."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_supported_query(random.Random(seed), allow_wildcard=allow_wildcard)
