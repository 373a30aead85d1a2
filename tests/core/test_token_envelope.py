"""Malformed token envelopes: both compiled kernels reject them and stay usable.

A token stream handed to :meth:`~repro.core.CompiledFilterBank.filter_tokens` must
be exactly one document: ``startDocument``, balanced element tokens, ``endDocument``
and nothing after it.  Pre-tokenized publishes reach the kernel unvalidated, so the
kernel itself checks the envelope (O(1) work at envelope and end tokens) and raises
``ValueError`` instead of silently returning a partial or empty matched set.  The
statistics and match-only modes must agree on that, and a rejected stream must not
leak state into the next document.
"""

import pytest

from repro.core import CompiledFilterBank
from repro.xmlstream.parse import (
    TOK_END,
    TOK_END_DOC,
    TOK_START,
    TOK_START_DOC,
    TOK_TEXT,
    document_tokens,
)
from repro.xpath import parse_query

SD, ED = (TOK_START_DOC,), (TOK_END_DOC,)


def start(name):
    return (TOK_START, name)


def end(name):
    return (TOK_END, name)


def text(value):
    return (TOK_TEXT, value, 0, len(value))


MALFORMED = {
    "empty stream": [],
    "no startDocument": [start("a"), end("a"), ED],
    "two documents": [SD, start("a"), end("a"), ED, SD, start("c"), end("c"), ED],
    "token after endDocument": [SD, start("c"), end("c"), ED, start("a")],
    "endDocument with an open element": [SD, start("a"), ED],
    "end tag with no open element": [SD, end("a"), ED],
    "extra end tag": [SD, start("a"), end("a"), end("a"), ED],
    "nested startDocument": [SD, start("a"), SD, end("a"), ED],
    "truncated": [SD, start("a")],
    "truncated inside a value": [SD, start("a"), start("b"), text("3")],
}

QUERIES = {"a": "/a", "ab": "/a[b > 2]", "deep": "//b", "branch": "/a[b and c]"}
GOOD = "<a><b>3</b><c/></a>"


def _bank(stats):
    bank = CompiledFilterBank(stats=stats)
    for name, xpath in QUERIES.items():
        bank.register(name, parse_query(xpath))
    return bank


@pytest.mark.parametrize("stats", [True, False])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_envelope_raises_and_bank_recovers(stats, case):
    bank = _bank(stats)
    bank.filter_tokens(document_tokens("<a><b>1</b></a>"))  # warm the trie
    with pytest.raises(ValueError):
        bank.filter_tokens(MALFORMED[case])
    result = bank.filter_tokens(document_tokens(GOOD))
    assert result.matched == ["a", "ab", "deep", "branch"]
    assert result.per_query_stats == _bank(stats).filter_text(GOOD).per_query_stats
    assert bank.filter_tokens(document_tokens("<c/>")).matched == []


def test_open_element_at_end_document_is_rejected_in_both_modes():
    # once, match-only mode reported ['q'] here while stats mode reported []
    for stats in (True, False):
        bank = CompiledFilterBank(stats=stats)
        bank.register("q", parse_query("/a"))
        with pytest.raises(ValueError, match="still open"):
            bank.filter_tokens([SD, start("a"), ED])


def test_second_document_is_not_silently_dropped():
    for stats in (True, False):
        bank = CompiledFilterBank(stats=stats)
        bank.register("q", parse_query("/a"))
        with pytest.raises(ValueError, match="after its endDocument"):
            bank.filter_tokens([SD, start("a"), end("a"), ED, SD, start("b"), end("b"), ED])
        assert bank.filter_tokens([SD, start("a"), end("a"), ED]).matched == ["q"]
