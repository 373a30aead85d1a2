"""Parsing of XML text into event streams and document trees.

Three front ends are provided:

* :func:`tokenize` / :func:`parse_events` -- a small hand-written parser for the compact
  angle-bracket notation used throughout the paper (``<a><b>6</b></a>``).  It understands
  start tags, end tags, empty-element tags (``<b/>``), attributes (turned into attribute
  nodes), and character data.  It skips XML declarations (``<!DOCTYPE ...>``), comments
  (``<!-- -->``) and processing instructions (``<? ?>``), which never occur in the
  paper's constructions but do occur in real documents.

* :class:`StreamingParser` -- an incremental (push) version of the same tokenizer: feed
  byte or text chunks with :meth:`~StreamingParser.feed` and receive events as soon as
  they complete, so documents larger than memory can be filtered end-to-end.  Tag,
  comment and text constructs may be split across chunk boundaries arbitrarily.

* :func:`parse_with_sax` -- an adapter that runs Python's ``xml.sax`` parser and converts
  its callbacks into our event model.  Used to check the hand-written parser against the
  standard library on well-formed inputs, and available to users who prefer strict XML.

Zero-copy token layer
---------------------

Internally the tokenizer produces flat *tokens* (plain tuples) rather than event
objects, and the :class:`~repro.xmlstream.events.Event` front ends are thin converters
on top.  Tokens exist so that hot consumers — the compiled filter bank — can process a
document without materializing per-event objects or copying character data:

* ``(TOK_START, name)`` / ``(TOK_END, name)`` for ``startElement`` / ``endElement``;
* ``(TOK_TEXT, buf, start, end)`` for character data: the text value is
  ``buf[start:end]`` and is *already unescaped* (runs containing entity references are
  the only ones materialized eagerly; the common no-``&`` run stays a view into the
  input buffer and is never copied unless a consumer actually slices it);
* ``(TOK_START_DOC,)`` / ``(TOK_END_DOC,)`` for the document envelope
  (:meth:`StreamingParser.parse_tokens` only).

The scanner itself recognizes start and end tags with a single compiled regex
alternation (:data:`_TOKEN_RE`) applied at each ``<``; comments, processing
instructions and declarations keep their dedicated (cold-path) handling so the lenient
recovery behavior — a ``<`` that never becomes markup is literal character data — is
preserved exactly.
"""

from __future__ import annotations

import codecs
import re
import xml.sax
import xml.sax.handler
from io import StringIO
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from .events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)

#: token kinds of the zero-copy token layer (first element of every token tuple)
TOK_START = 0
TOK_END = 1
TOK_TEXT = 2
TOK_START_DOC = 3
TOK_END_DOC = 4

#: a token: ``(TOK_START, name)``, ``(TOK_END, name)``, ``(TOK_TEXT, buf, start, end)``,
#: ``(TOK_START_DOC,)`` or ``(TOK_END_DOC,)``
Token = Tuple

#: single alternation for both tag forms, tried at each ``<`` of the input.  End tags
#: tolerate trailing junk after the name (``</a junk>``), matching the historic
#: ``_TAG_RE`` behavior; attribute text cannot contain ``<`` or ``>``, so a match always
#: ends at the first ``>`` after the ``<`` — exactly the span the old scanner passed to
#: ``fullmatch``.
_TOKEN_RE = re.compile(
    r"<(?:/(?P<close>[^\s<>/]+)[^<>]*"
    r"|(?P<name>[^\s<>/!?][^\s<>/]*)(?P<attrs>[^<>]*?)(?P<selfclose>/)?)>"
)
_ATTR_RE = re.compile(r"""(?P<name>[^\s=]+)\s*=\s*(?P<quote>["'])(?P<value>.*?)(?P=quote)""")

#: matches one non-whitespace character; ``search(buf, s, e)`` is the allocation-free
#: equivalent of ``buf[s:e].strip()`` used to drop whitespace-only character runs
_NON_WS_RE = re.compile(r"\S")


class XMLParseError(ValueError):
    """Raised when XML text cannot be parsed."""


def _text_token(buf: str, start: int, end: int) -> Token:
    """Build a text token whose value is already unescaped.

    The common case — no entity reference in the run — keeps (buf, start, end) as a
    lazy view; a consumer that never reads the value never pays for a copy.
    """
    if buf.find("&", start, end) < 0:
        return (TOK_TEXT, buf, start, end)
    value = _unescape(buf[start:end])
    return (TOK_TEXT, value, 0, len(value))


def token_text(token: Token) -> str:
    """Materialize the character data of a ``TOK_TEXT`` token."""
    return token[1][token[2]:token[3]]


class _IncrementalTokenizer:
    """Chunk-friendly tokenizer producing the same events as :func:`tokenize`.

    The tokenizer holds the smallest possible amount of unconsumed input: the current
    character-data run (a run only ends when the next markup construct completes, so it
    cannot be emitted earlier without changing event boundaries) plus any construct whose
    terminator has not arrived yet.  Comments, processing instructions and declarations
    are consumed and skipped; a ``<`` that never turns into valid markup is treated as
    literal character data, mirroring the lenient one-shot tokenizer the paper's
    examples were written against.
    """

    def __init__(self) -> None:
        self._buf = ""

    def feed(self, chunk: str) -> List[Event]:
        """Consume a text chunk, returning every event that completed."""
        return [_token_to_event(t) for t in self.feed_tokens(chunk)]

    def finish(self) -> List[Event]:
        """Flush the tokenizer, returning the trailing events (end of input)."""
        return [_token_to_event(t) for t in self.finish_tokens()]

    def feed_tokens(self, chunk: str) -> List[Token]:
        """Consume a text chunk, returning every token that completed."""
        self._buf += chunk
        return self._scan(final=False)

    def finish_tokens(self) -> List[Token]:
        """Flush the tokenizer, returning the trailing tokens (end of input)."""
        return self._scan(final=True)

    # ------------------------------------------------------------------ scanning
    def _scan(self, final: bool) -> List[Token]:
        tokens: List[Token] = []
        buf = self._buf
        n = len(buf)
        pos = 0  # start of the current (unflushed) character-data run
        scan = 0  # where to look for the next '<'
        find = buf.find
        append = tokens.append
        match_at = _TOKEN_RE.match
        non_ws = _NON_WS_RE.search
        while True:
            lt = find("<", scan)
            if lt < 0:
                if final:
                    self._flush_text(tokens, buf, pos, n)
                    pos = n
                break
            if not final and n - lt < 4 and "<!--".startswith(buf[lt:]):
                # "<", "<!", "<!-": cannot classify the construct yet
                break
            # hot path: a start or end tag, recognized by one compiled alternation;
            # the pending text run is flushed inline (same rule as _flush_text)
            match = match_at(buf, lt)
            if match is not None:
                if pos < lt and non_ws(buf, pos, lt) is not None:
                    append(_text_token(buf, pos, lt))
                close, name, attrs, selfclose = match.groups()
                if close is not None:
                    append((TOK_END, close))
                else:
                    append((TOK_START, name))
                    if attrs:
                        self._emit_attrs(tokens, buf, match)
                    if selfclose is not None:
                        append((TOK_END, name))
                pos = scan = match.end()
                continue
            # cold path: comment / processing instruction / declaration / stray '<'
            if buf.startswith("<!--", lt):
                end = find("-->", lt + 4)
                if end < 0:
                    if final:  # unterminated comment: keep it as character data
                        self._flush_text(tokens, buf, pos, n)
                        pos = n
                    break
                self._flush_text(tokens, buf, pos, lt)
                pos = scan = end + 3
                continue
            if buf.startswith("<?", lt):
                end = find("?>", lt + 2)
                if end < 0:
                    if final:
                        self._flush_text(tokens, buf, pos, n)
                        pos = n
                    break
                self._flush_text(tokens, buf, pos, lt)
                pos = scan = end + 2
                continue
            if buf.startswith("<!", lt):
                end = self._declaration_end(buf, lt)
                if end < 0:
                    if final:
                        self._flush_text(tokens, buf, pos, n)
                        pos = n
                    break
                self._flush_text(tokens, buf, pos, lt)
                pos = scan = end
                continue
            gt = find(">", lt + 1)
            next_lt = find("<", lt + 1)
            if gt < 0 and next_lt < 0:
                if final:
                    self._flush_text(tokens, buf, pos, n)
                    pos = n
                break  # the tag may complete in the next chunk
            if next_lt >= 0 and (gt < 0 or next_lt < gt):
                # another '<' before any '>': this '<' cannot open a tag
                scan = next_lt
            else:
                scan = lt + 1  # literal '<' inside character data
        self._buf = buf[pos:]
        return tokens

    @staticmethod
    def _declaration_end(buf: str, lt: int) -> int:
        """Position after the ``>`` closing a ``<!...>`` declaration, or -1.

        Tracks ``[...]`` nesting so a DOCTYPE internal subset does not end the
        declaration early.
        """
        depth = 0
        for index in range(lt, len(buf)):
            char = buf[index]
            if char == "[":
                depth += 1
            elif char == "]":
                depth = max(depth - 1, 0)
            elif char == ">" and depth == 0:
                return index + 1
        return -1

    @staticmethod
    def _flush_text(tokens: List[Token], buf: str, start: int, end: int) -> None:
        if start >= end or _NON_WS_RE.search(buf, start, end) is None:
            return  # whitespace-only runs are dropped (paper convention)
        tokens.append(_text_token(buf, start, end))

    @staticmethod
    def _emit_attrs(tokens: List[Token], buf: str, match: "re.Match[str]") -> None:
        """Emit a start tag's attributes as ``@name`` element tokens (value as text)."""
        a_start, a_end = match.span("attrs")
        for attr in _ATTR_RE.finditer(buf, a_start, a_end):
            attr_name = "@" + attr.group("name")
            tokens.append((TOK_START, attr_name))
            v_start, v_end = attr.span("value")
            if v_end > v_start:
                tokens.append(_text_token(buf, v_start, v_end))
            tokens.append((TOK_END, attr_name))


def _token_to_event(token: Token) -> Event:
    kind = token[0]
    if kind == TOK_START:
        return StartElement(token[1])
    if kind == TOK_END:
        return EndElement(token[1])
    if kind == TOK_TEXT:
        return Text(token[1][token[2]:token[3]])
    if kind == TOK_START_DOC:
        return StartDocument()
    if kind == TOK_END_DOC:
        return EndDocument()
    raise TypeError(f"unknown token {token!r}")  # pragma: no cover - defensive


def tokenize(text: str) -> List[Event]:
    """Tokenize XML text into element/text events (no document envelope).

    Whitespace-only character data between tags is dropped, matching the convention used
    in all of the paper's examples.  Character data adjacent to non-whitespace is kept
    verbatim (with entity references for ``&lt; &gt; &amp;`` decoded).  Comments,
    processing instructions and ``<!...>`` declarations are skipped.
    """
    return [_token_to_event(t) for t in tokenize_tokens(text)]


def tokenize_tokens(text: str) -> List[Token]:
    """One-shot tokenization into the zero-copy token representation."""
    tokenizer = _IncrementalTokenizer()
    tokens = tokenizer.feed_tokens(text)
    tokens.extend(tokenizer.finish_tokens())
    return tokens


def parse_events(text: str) -> List[Event]:
    """Parse XML text into a full document event stream (with the ``<$>`` envelope)."""
    return [_token_to_event(token) for token in document_tokens(text)]


def document_tokens(text: str) -> List[Token]:
    """Parse XML text into a full document *token* stream (with the envelope).

    Token-level equivalent of :func:`parse_events`: nesting is validated, and
    :class:`XMLParseError` is raised for mismatched or unclosed tags.
    """
    tokens = tokenize_tokens(text)
    _check_token_nesting(tokens)
    return [(TOK_START_DOC,), *tokens, (TOK_END_DOC,)]


def parse_document(text: str):
    """Parse XML text into an :class:`~repro.xmlstream.document.XMLDocument`."""
    from .build import build_document

    return build_document(parse_events(text))


#: chunk types accepted by :meth:`StreamingParser.feed`
Chunk = Union[str, bytes, bytearray, memoryview]


class StreamingParser:
    """Incremental (push) parser over byte or text chunks.

    Feed arbitrary chunks with :meth:`feed` and receive the events that completed; call
    :meth:`close` at end of input to validate nesting and obtain the closing events.
    The full event stream carries the same ``<$> ... </$>`` document envelope as
    :func:`parse_events`: ``StartDocument`` is emitted by the first :meth:`feed` (or by
    :meth:`close` for an empty input) and ``EndDocument`` by :meth:`close`.

    Byte chunks are decoded incrementally (UTF-8 by default), so multi-byte characters
    split across chunk boundaries are handled correctly.  Nesting is validated online:
    a mismatched closing tag raises :class:`XMLParseError` at the chunk that contains
    it, not at the end of the stream.

    The ``*_tokens`` variants expose the zero-copy token layer; the event methods are
    converters on top of them, so the two views of a stream can never disagree.
    """

    def __init__(self, *, encoding: str = "utf-8") -> None:
        self._tokenizer = _IncrementalTokenizer()
        self._decoder = codecs.getincrementaldecoder(encoding)(errors="strict")
        self._stack: List[str] = []
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ push API
    def feed(self, chunk: Chunk) -> List[Event]:
        """Consume one chunk and return the events that completed within it."""
        return [_token_to_event(t) for t in self.feed_tokens(chunk)]

    def close(self) -> List[Event]:
        """Flush the parser, validate nesting, and return the final events."""
        return [_token_to_event(t) for t in self.close_tokens()]

    def parse(self, chunks: Iterable[Chunk]) -> Iterator[Event]:
        """Lazily parse an iterable of chunks into a full document event stream."""
        for chunk in chunks:
            yield from self.feed(chunk)
        yield from self.close()

    # ------------------------------------------------------------------ token API
    def feed_tokens(self, chunk: Chunk) -> List[Token]:
        """Consume one chunk and return the tokens that completed within it."""
        if self._closed:
            raise XMLParseError("feed() called after close()")
        if isinstance(chunk, str):
            text = chunk
        else:
            text = self._decoder.decode(bytes(chunk))
        tokens: List[Token] = []
        if not self._started:
            self._started = True
            tokens.append((TOK_START_DOC,))
        for token in self._tokenizer.feed_tokens(text):
            self._track(token)
            tokens.append(token)
        return tokens

    def close_tokens(self) -> List[Token]:
        """Flush the parser, validate nesting, and return the final tokens."""
        if self._closed:
            raise XMLParseError("close() called twice")
        self._closed = True
        tokens: List[Token] = []
        if not self._started:
            self._started = True
            tokens.append((TOK_START_DOC,))
        tail = self._decoder.decode(b"", True)
        for token in self._tokenizer.feed_tokens(tail) + self._tokenizer.finish_tokens():
            self._track(token)
            tokens.append(token)
        if self._stack:
            raise XMLParseError(f"unclosed tags: {self._stack}")
        tokens.append((TOK_END_DOC,))
        return tokens

    def parse_tokens(self, chunks: Iterable[Chunk]) -> Iterator[Token]:
        """Lazily parse an iterable of chunks into a full document token stream."""
        for chunk in chunks:
            yield from self.feed_tokens(chunk)
        yield from self.close_tokens()

    # ------------------------------------------------------------------ helpers
    def _track(self, token: Token) -> None:
        kind = token[0]
        if kind == TOK_START:
            self._stack.append(token[1])
        elif kind == TOK_END:
            if not self._stack:
                raise XMLParseError(f"unmatched closing tag </{token[1]}>")
            expected = self._stack.pop()
            if expected != token[1]:
                raise XMLParseError(
                    f"mismatched closing tag: expected </{expected}>, got </{token[1]}>"
                )


class DocumentFramer:
    """Frames a long-lived chunk stream into consecutive complete documents.

    A network connection to a pub/sub service carries *many* documents back to back
    over one byte stream; :class:`StreamingParser` is one-shot (one document envelope
    per parser).  The framer keeps an incremental tokenizer alive across documents
    and tracks element nesting: every time the depth returns to zero, the tokens
    accumulated since the previous boundary are emitted as one complete document
    token stream, wrapped in the usual ``startDocument``/``endDocument`` envelope and
    ready for any ``filter_tokens`` engine.

    Framing is by nesting, so each document must be single-rooted (the normal wire
    format; the paper's compact multi-root fragments need explicit framing by the
    transport instead).  Nesting is validated online — a mismatched closing tag
    raises :class:`XMLParseError` at the chunk that contains it — and non-whitespace
    character data *between* documents is rejected, since it belongs to no document.
    Byte chunks are decoded incrementally (UTF-8 by default), exactly as in
    :class:`StreamingParser`.
    """

    def __init__(self, *, encoding: str = "utf-8") -> None:
        self._tokenizer = _IncrementalTokenizer()
        self._decoder = codecs.getincrementaldecoder(encoding)(errors="strict")
        self._stack: List[str] = []
        self._current: List[Token] = []
        self._ready: List[List[Token]] = []  # completed, not yet handed out
        self._closed = False
        self._failed = False  # poisoned by a framing error; see feed()

    def feed(self, chunk: Chunk) -> List[List[Token]]:
        """Consume one chunk, returning every document that completed within it.

        If the chunk contains a protocol error *after* complete documents (e.g.
        ``"<a></a><b></c>"`` in one chunk), the error is raised but the completed
        documents are retained — :meth:`take_completed` salvages them, so whether
        a valid document is delivered never depends on how the transport chunked
        the bytes around a later error.

        A framing error *poisons* the framer: the nesting state is no longer
        trustworthy (the offending construct was partially consumed), so every
        later ``feed``/``close`` fails fast instead of mis-framing a malformed
        stream into "complete" documents.  Resynchronizing after a protocol
        error means starting a fresh framer on a fresh connection.
        """
        if self._closed:
            raise XMLParseError("feed() called after close()")
        if self._failed:
            raise XMLParseError(
                "the framer is unusable after a framing error; "
                "start a fresh DocumentFramer")
        if isinstance(chunk, str):
            text = chunk
        else:
            text = self._decoder.decode(bytes(chunk))
        try:
            self._collect(self._tokenizer.feed_tokens(text))
        except XMLParseError:
            self._failed = True
            raise
        ready, self._ready = self._ready, []
        return ready

    def take_completed(self) -> List[List[Token]]:
        """Documents that completed before a :meth:`feed` error was raised."""
        ready, self._ready = self._ready, []
        return ready

    def close(self) -> None:
        """Flush the framer and verify no document was left incomplete."""
        if self._closed:
            raise XMLParseError("close() called twice")
        if self._failed:
            raise XMLParseError(
                "the framer is unusable after a framing error; "
                "start a fresh DocumentFramer")
        self._closed = True
        tail = self._decoder.decode(b"", True)
        self._collect(
            self._tokenizer.feed_tokens(tail) + self._tokenizer.finish_tokens())
        if self._ready:  # pragma: no cover - a doc can only complete at a '>'
            raise XMLParseError("document completed during close()")
        if self._stack or self._current:
            raise XMLParseError(
                f"stream ended mid-document (open tags: {self._stack})")

    @property
    def mid_document(self) -> bool:
        """Whether the stream currently sits inside an incomplete document.

        True when elements are open, and also when a partial construct is still
        buffered — an unterminated tag held by the tokenizer or an undecoded
        multi-byte tail in the incremental decoder — so a transport checking
        this at connection EOF correctly classifies ``"<a"`` as truncation, not
        a clean boundary.  A pending whitespace-only character run does not
        count: it would be dropped, not lost.
        """
        if self._current or self._stack:
            return True
        if self._decoder.getstate()[0]:  # undecoded byte tail
            return True
        pending = self._tokenizer._buf
        return bool(pending) and _NON_WS_RE.search(pending) is not None

    def frame(self, chunks: Iterable[Chunk]) -> Iterator[List[Token]]:
        """Lazily frame an iterable of chunks into document token streams.

        A protocol error still surfaces as :class:`XMLParseError`, but every
        document completed before it is yielded first.
        """
        for chunk in chunks:
            try:
                documents = self.feed(chunk)
            except XMLParseError:
                yield from self.take_completed()
                raise
            yield from documents
        self.close()

    def _collect(self, tokens: Iterable[Token]) -> None:
        """Track nesting, stashing each completed document onto ``_ready``.

        Stashing (rather than returning) means documents completed earlier in a
        chunk survive a parse error raised later in the same chunk.
        """
        current = self._current
        stack = self._stack
        for token in tokens:
            kind = token[0]
            if kind == TOK_START:
                stack.append(token[1])
                current.append(token)
            elif kind == TOK_END:
                if not stack:
                    raise XMLParseError(f"unmatched closing tag </{token[1]}>")
                expected = stack.pop()
                if expected != token[1]:
                    raise XMLParseError(
                        f"mismatched closing tag: expected </{expected}>, "
                        f"got </{token[1]}>")
                current.append(token)
                if not stack:  # depth returned to zero: one document completed
                    self._ready.append(
                        [(TOK_START_DOC,), *current, (TOK_END_DOC,)])
                    current = self._current = []
            else:  # TOK_TEXT (whitespace-only runs were already dropped)
                if not stack:
                    raise XMLParseError(
                        "character data between documents: "
                        f"{token_text(token)[:40]!r}")
                current.append(token)


def _check_token_nesting(tokens: Sequence[Token]) -> None:
    stack: List[str] = []
    for token in tokens:
        kind = token[0]
        if kind == TOK_START:
            stack.append(token[1])
        elif kind == TOK_END:
            if not stack:
                raise XMLParseError(f"unmatched closing tag </{token[1]}>")
            expected = stack.pop()
            if expected != token[1]:
                raise XMLParseError(
                    f"mismatched closing tag: expected </{expected}>, got </{token[1]}>"
                )
    if stack:
        raise XMLParseError(f"unclosed tags: {stack}")


def _unescape(raw: str) -> str:
    if "&" not in raw:  # fast path: nothing to decode, no rebuild
        return raw
    return (
        raw.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&apos;", "'")
        .replace("&amp;", "&")
    )


def _escape(raw: str) -> str:
    if "&" not in raw and "<" not in raw and ">" not in raw:
        return raw  # fast path: nothing to encode, no rebuild
    return (
        raw.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


class _SaxCollector(xml.sax.handler.ContentHandler):
    """``xml.sax`` content handler that records our event objects."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Event] = []

    def startDocument(self) -> None:  # noqa: N802 (xml.sax API)
        self.events.append(StartDocument())

    def endDocument(self) -> None:  # noqa: N802
        self.events.append(EndDocument())

    def startElement(self, name, attrs) -> None:  # noqa: N802
        self.events.append(StartElement(name))
        for attr_name in attrs.getNames():
            self.events.append(StartElement("@" + attr_name))
            value = attrs.getValue(attr_name)
            if value:
                self.events.append(Text(value))
            self.events.append(EndElement("@" + attr_name))

    def endElement(self, name) -> None:  # noqa: N802
        self.events.append(EndElement(name))

    def characters(self, content) -> None:
        if content.strip():
            self.events.append(Text(content))


def parse_with_sax(text: str) -> List[Event]:
    """Parse XML text with the standard library's ``xml.sax`` into our event model.

    The input must be a single rooted XML element (regular XML, not the paper's compact
    multi-root fragments).  Whitespace-only character data is dropped for consistency
    with :func:`tokenize`.
    """
    collector = _SaxCollector()
    try:
        xml.sax.parse(StringIO(text), collector)
    except xml.sax.SAXParseException as exc:  # pragma: no cover - passthrough
        raise XMLParseError(str(exc)) from exc
    return collector.events
