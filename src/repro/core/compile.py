"""Query compilation and the shared prefix-trie filter bank.

The Section 8 filter (``filter.py``) interprets one query tree per event: frontier
records are dataclass instances, node tests are compared with function calls, and every
subscription re-does the name/axis work of every other subscription.  This module is
the compiled counterpart, in two layers:

**Compiled plans** (:class:`CompiledQuery`).  Each query is lowered into a flat,
slot-addressed form: query nodes become integer slots (0 = the query root, pre-order),
axes become integer codes (:data:`AX_CHILD`/:data:`AX_DESC`/:data:`AX_ATTR`), node
tests carry ids interned in a bank-wide name table (compact slot-addressed metadata —
the trie's dispatch dictionaries key on the test *strings*, since event names arrive
as strings), children/parents become tuples of slot ids, and the
leaf value tests become precompiled predicate closures (a comparison against a constant
compiles to one :func:`~repro.xpath.values.compare_atomic` call; anything else falls
back to the symbolic truth-set evaluator, so semantics are untouched).

**The shared prefix trie** (:class:`CompiledFilterBank`).  All registered subscriptions
are merged into one trie keyed by ``(axis class, node test)``: two steps of different
queries share a trie node exactly when they have the same axis class (level-checked
``child``/``attribute`` vs ``descendant``) and the same node test, and their parents
already share.  A common prefix like ``/catalog/product`` is therefore matched against
the document *once* for any number of subscriptions, and work fans out to individual
queries only at the divergence points.  The runtime of the trie is purely structural —
it computes, per element event, the set of trie nodes whose step path matches the
element (a superset of the per-query candidate matches, which additionally depend on
per-query ``matched`` pruning) — and it needs no level arithmetic at all:

* an element's stack frame is the list of trie nodes that fired at it; a child start
  probes exactly those nodes' level-checked edges (``child_map`` by name, plus the
  ``*`` or ``@*`` edge), so a level-checked step can only fire for direct children;
* a *descendant* step is made live in a global name-keyed map when its parent node
  fires, and removed when that element ends, so it fires anywhere in the subtree.

No per-element dispatch table is built and nothing survives the document: the trie is
the only structure shared between documents, and it depends on subscriptions only.

Per-query state is touched only when a trie node fires for one of the query's slots
(or when text must be buffered, or children resolved at an end event — both of which
are only possible after a fire).  That state is a faithful, flat re-implementation of
the interpreted filter's frontier dynamics — records are small lists, indexes replace
scans — and it reproduces :class:`~repro.core.filter.FilterStatistics` byte-for-byte,
using the same lazy high-water accounting as the PR-1 indexed bank (the Theorem 8.8
bit cost is nondecreasing in the document level, so observing a skipped window at its
maximum level reproduces the per-event peak exactly).  The interpreted filter stays as
the semantics reference; a hypothesis property test asserts that the compiled engine,
the indexed bank and the naive bank agree on matched sets and full per-query
statistics.

Three throughput layers sit on top of the trie (PR 3):

**Plan deduplication.**  Plans are interned by the canonical form of the query (its
deterministic XPath serialization): ``N`` subscriptions with equal queries share one
:class:`_Runtime` and fan out only at result-assembly time, so the per-event cost
scales with *distinct* plans.  Two equal queries evaluate identically by construction,
so the shared per-runtime :class:`~repro.core.filter.FilterStatistics` object is the
statistics either would have produced on its own.

**Incremental trie maintenance.**  ``register``/``unregister`` splice a plan's steps
into/out of the live trie (updating the precomputed edge lists in place and pruning
trie nodes that lose their last step bottom-up) instead of discarding it, making
subscription churn O(query size) rather than O(total registered steps).
:meth:`CompiledFilterBank.rebuild_trie` forces the old from-scratch rebuild — the
churn benchmark's baseline and the equivalence oracle of the property tests.

**The match-only fast path.**  ``CompiledFilterBank(stats=False)`` runs a reduced
per-query state machine that tracks only the ``matched`` bits the Boolean outcome
depends on: no ``FilterStatistics``, no peak-frontier/peak-bits/high-water
bookkeeping, no frontier-scan-order replay, and per-document runtime state is
initialized lazily at a runtime's first fire point, so untouched subscriptions cost
nothing per document.  Because a ``matched`` flag only
accumulates with OR, a decided outcome is final and the fast path always retires a
runtime mid-document once its outcome is known.  The stats-accurate path is untouched
and stays byte-identical to the interpreted engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..instrument.memory import bits_for
from ..xmlstream.document import XMLDocument
from ..xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from ..xmlstream.parse import (
    TOK_END,
    TOK_END_DOC,
    TOK_START,
    TOK_START_DOC,
    TOK_TEXT,
    Chunk,
    StreamingParser,
    Token,
    document_tokens,
)
from ..xpath.ast import Comparison, Constant, NodeRef
from ..xpath.query import ATTRIBUTE, CHILD, DESCENDANT, Query
from ..xpath.truthset import AtomicPredicateTruthSet, truth_set
from ..xpath.values import compare_atomic
from .filter import FilterStatistics, StreamingFilter
from .filterbank import BankResult, _LevelHighWater

#: integer axis codes of the compiled plan
AX_CHILD = 0  # child axis (or an axis-less node): level-checked, removed while open
AX_DESC = 1  # descendant axis: fires at any level inside its scope, never removed
AX_ATTR = 2  # attribute axis: level-checked like child but never removed (filter.py)

_AXIS_CODE = {CHILD: AX_CHILD, None: AX_CHILD, DESCENDANT: AX_DESC, ATTRIBUTE: AX_ATTR}

#: memoized :func:`~repro.instrument.memory.bits_for` — the Theorem 8.8 accounting
#: calls it three times per observation, and a dict probe is ~10x cheaper than the
#: ``math.log2`` round trip while remaining exactly equal by construction.  The cache
#: is size-capped: buffer sizes are unbounded inputs, and a long-lived pub/sub process
#: must not leak one entry per distinct buffer size it ever observes.
_BITS_CACHE: Dict[int, int] = {}
_BITS_CACHE_LIMIT = 65536


def _bits(count: int) -> int:
    cached = _BITS_CACHE.get(count)
    if cached is None:
        cached = bits_for(count)
        if len(_BITS_CACHE) < _BITS_CACHE_LIMIT:
            _BITS_CACHE[count] = cached
    return cached


@dataclass
class BankMemoryReport:
    """One bank's modeled-bits memory report (the resource governor's input).

    ``standing_bits`` is the structural cost of the registered state itself —
    the interned name table, the shared trie (one axis-class + node-test pair
    per node) and each distinct plan's slot-addressed arrays — which exists
    whether or not documents flow.  ``peak_document_bits`` is the largest
    Theorem 8.8 per-subscription high-water mark any plan has observed over the
    bank's lifetime (stats mode), or the modeled cost of the largest value
    buffer ever held (match-only mode, where frontier records are deliberately
    not counted — see :meth:`CompiledFilterBank.memory_report`).
    ``modeled_bits`` is the governor's number: standing state plus the sum of
    per-plan lifetime peaks, an upper bound on the modeled bits live at any
    instant so far.  ``worker_rss_bytes`` is filled by the sharded bank only.
    """

    subscriptions: int
    distinct_plans: int
    trie_nodes: int
    standing_bits: int
    peak_document_bits: int
    peak_frontier_records: int
    peak_buffer_chars: int
    modeled_bits: int
    stats_mode: bool
    worker_rss_bytes: Tuple[int, ...] = field(default=())

    @property
    def modeled_bytes(self) -> int:
        """``modeled_bits`` rounded up to whole bytes."""
        return (self.modeled_bits + 7) // 8


def _plan_standing_bits(slot_count: int, qnode_bits: int, name_bits: int) -> int:
    """Structural bits of one compiled plan's slot-addressed arrays.

    Per slot: a 2-bit axis code, an interned node-test id, a parent slot
    reference and the leaf flag — the compiled counterpart of the query tree
    the paper's algorithm keeps resident.
    """
    return slot_count * (2 + name_bits + qnode_bits + 1)


# --------------------------------------------------------------------------- plans
def _compile_truth(node) -> Optional[Callable[[str], bool]]:
    """Compile the leaf's truth-set membership test into the cheapest exact form.

    ``None`` means the truth set is universal: the record is marked matched without
    materializing the buffered string value at all (the statistics still count the
    evaluation, as the interpreted filter does).  A single comparison of the variable
    against a constant compiles to one ``compare_atomic`` call; everything else falls
    back to the symbolic evaluator, which is semantically authoritative.
    """
    ts = truth_set(node)
    if not isinstance(ts, AtomicPredicateTruthSet):
        return None  # universal: every value belongs
    predicate = ts.predicate
    if isinstance(predicate, Comparison):
        left, right = predicate.left, predicate.right
        op = predicate.op
        if isinstance(left, NodeRef) and isinstance(right, Constant):
            constant = right.value
            return lambda value: compare_atomic(op, value, constant)
        if isinstance(right, NodeRef) and isinstance(left, Constant):
            constant = left.value
            return lambda value: compare_atomic(op, constant, value)
    return ts.contains


class CompiledQuery:
    """A query lowered to flat, slot-addressed arrays (slot 0 is the query root)."""

    __slots__ = (
        "query",
        "slot_count",
        "axis",
        "ntests",
        "ntest_ids",
        "parent",
        "children",
        "is_leaf",
        "truth",
        "root_children",
        "qnode_bits",
        "is_path",
    )

    def __init__(self, query: Query, names: Dict[str, int]) -> None:
        StreamingFilter._check_supported(query)
        nodes = query.nodes()  # pre-order, root first
        index = {id(node): slot for slot, node in enumerate(nodes)}
        self.query = query
        self.slot_count = len(nodes)
        self.axis = [AX_CHILD if node.is_root() else _AXIS_CODE[node.axis]
                     for node in nodes]
        self.ntests = [node.ntest for node in nodes]
        self.ntest_ids = [
            -1 if node.ntest is None else names.setdefault(node.ntest, len(names))
            for node in nodes
        ]
        self.parent = [0 if node.parent is None else index[id(node.parent)]
                       for node in nodes]
        self.children = [tuple(index[id(child)] for child in node.children)
                         for node in nodes]
        self.is_leaf = [node.is_leaf() for node in nodes]
        self.truth = [_compile_truth(node) if node.is_leaf() else None
                      for node in nodes]
        self.root_children = self.children[0]
        # FrontierMemoryModel(query_size=max(|Q|, 1)): log(|Q|+1) bits per node ref
        self.qnode_bits = bits_for(max(query.size(), 1) + 1)
        # a *path plan* is a pure chain (every node has at most one child): its only
        # leaf is the last pre-order slot, and a structural trie fire of that leaf is
        # already an exact candidate match — the match-only fast path exploits this
        # by keeping no frontier records at all for such plans
        self.is_path = all(len(children) <= 1 for children in self.children)


def compile_query(query: Query, names: Optional[Dict[str, int]] = None) -> CompiledQuery:
    """Lower one query into its compiled plan (standalone helper for tests/tools)."""
    return CompiledQuery(query, {} if names is None else names)


# --------------------------------------------------------------------------- the trie
class _TrieNode:
    """One shared step of the prefix trie.

    ``child_map`` holds the level-checked steps (``child`` and ``attribute`` axes
    merge: their structural fire condition is identical) and ``desc_map`` the
    descendant steps, both keyed by node test.  ``child_wild``/``child_attr_wild``
    cache the ``*``/``@*`` entries of ``child_map`` (the runtime walk probes them at
    every child) and ``desc_edges`` lists the descendant edges as ``(kind, ntest,
    node)``.  ``subs`` lists the ``(runtime, slot)`` pairs mapped onto this trie node.
    """

    __slots__ = ("child_map", "desc_map", "subs",
                 "child_wild", "child_attr_wild", "desc_edges")

    def __init__(self) -> None:
        self.child_map: Dict[str, _TrieNode] = {}
        self.desc_map: Dict[str, _TrieNode] = {}
        self.subs: List[tuple] = []
        self.child_wild: Optional[_TrieNode] = None
        self.child_attr_wild: Optional[_TrieNode] = None
        self.desc_edges: List[tuple] = []

    def get_or_add(self, level_checked: bool, ntest: str) -> "_TrieNode":
        step_map = self.child_map if level_checked else self.desc_map
        node = step_map.get(ntest)
        if node is None:
            node = step_map[ntest] = _TrieNode()
        return node

    def finalize(self) -> None:
        """Precompute the wildcard slots and descendant edges the runtime walk reads."""
        self.child_wild = self.child_map.get("*")
        self.child_attr_wild = self.child_map.get("@*")
        # (kind, ntest, node): kind 0 = concrete name bucket, 1 = ``*``, 2 = ``@*``
        self.desc_edges = [
            (1 if ntest == "*" else 2 if ntest == "@*" else 0, ntest, node)
            for ntest, node in self.desc_map.items()
        ]
        for node in self.child_map.values():
            node.finalize()
        for node in self.desc_map.values():
            node.finalize()


# --------------------------------------------------------------------------- runtimes
# record layout: [level, matched, alive, opens, seq]; ``opens`` is the per-record
# stack of (level, buffer offset) pairs for leaf slots and None for internal slots.
# ``seq`` is the frontier insertion sequence number: the interpreted filter scans its
# frontier *list* at each start event, and that scan order is observable — the order
# children are inserted decides which parent group folds first at resolution, which
# can decide a reinserted child-axis record's matched flag.  Processing fires in seq
# order reproduces the scan exactly.
class _Runtime:
    """Per-plan mutable state (the compiled analogue of a StreamingFilter).

    With plan interning one runtime serves every subscription whose query has the same
    canonical form; ``names`` lists those subscriptions in registration order and
    ``keyform`` is the interning key.  ``trie_nodes`` is the slot-indexed list of trie
    nodes this runtime's steps were spliced onto (``None`` until the trie is built),
    kept so ``unregister`` can splice them out again without a rebuild.  ``doc_gen``,
    ``decided`` and ``outcome`` belong to the match-only fast path, which initializes
    per-document state lazily at the runtime's first fire point.
    """

    __slots__ = ("name", "plan", "stats", "recs", "frontier_size", "buf_parts",
                 "buf_size", "ref_count", "recs_by_level", "leaf_opens", "last_ts",
                 "root_rec", "next_seq", "names", "keyform", "trie_nodes", "doc_gen",
                 "decided", "outcome", "lifetime_peak_bits", "lifetime_peak_records")

    def __init__(self, name: str, plan: CompiledQuery, keyform: str = "") -> None:
        self.name = name
        self.plan = plan
        self.keyform = keyform
        self.names = [name]
        self.trie_nodes: Optional[List[_TrieNode]] = None
        self.stats = FilterStatistics()
        self.last_ts = 0
        self.root_rec: Optional[list] = None
        self.doc_gen = 0
        self.decided = False
        self.outcome = False
        # lifetime (cross-document) high-water marks for the resource governor:
        # ``stats`` is replaced at each startDocument, so per-document peaks are
        # folded into these at endDocument (stats-accurate path only)
        self.lifetime_peak_bits = 0
        self.lifetime_peak_records = 0
        self.reset()

    def reset(self) -> None:
        """Discard in-flight document state, keeping statistics (filter.reset())."""
        self.recs: List[list] = [[] for _ in range(self.plan.slot_count)]
        self.frontier_size = 0
        self.buf_parts: List[Token] = []
        self.buf_size = 0
        self.ref_count = 0
        self.recs_by_level: Dict[int, list] = {}
        self.leaf_opens: Dict[int, list] = {}
        self.next_seq = 0


def _slice_parts(parts: List[Token], start: int) -> str:
    """The buffered string value from character offset ``start`` (Fig. 20's data)."""
    pieces: List[str] = []
    offset = 0
    for part in parts:
        begin, end = part[2], part[3]
        length = end - begin
        if offset + length > start:
            if start > offset:
                pieces.append(part[1][begin + (start - offset):end])
            else:
                pieces.append(part[1][begin:end])
        offset += length
    return "".join(pieces)


def _slice_from(runtime: _Runtime, start: int) -> str:
    """The runtime's buffered string value from character offset ``start``."""
    return _slice_parts(runtime.buf_parts, start)


def _open_scopes(node: _TrieNode, desc_by_name: Dict[str, dict], desc_wild: dict,
                 desc_attr_wild: dict, added: List[tuple]) -> None:
    """Make the descendant edges of a fired trie node live.

    Shared by both hot loops: each edge's target joins its live map (a concrete
    name bucket, ``*`` or ``@*``), and the ``(bucket, node)`` pair is logged in
    ``added`` so closing the element that fired ``node`` removes it again.  A
    target that is already live is skipped without logging: an enclosing element
    registered it, and elements close innermost first, so that registration
    outlives this element anyway.
    """
    for kind, ntest, child in node.desc_edges:
        if kind == 0:
            bucket = desc_by_name.get(ntest)
            if bucket is None:
                bucket = desc_by_name[ntest] = {}
        elif kind == 1:
            bucket = desc_wild
        else:
            bucket = desc_attr_wild
        if child not in bucket:
            bucket[child] = None
            added.append((bucket, child))


def event_tokens(events: Iterable[Event]) -> Iterator[Token]:
    """Adapt an event stream to the token representation the compiled engine runs on."""
    for event in events:
        etype = type(event)
        if etype is StartElement:
            yield (TOK_START, event.name)
        elif etype is EndElement:
            yield (TOK_END, event.name)
        elif etype is Text:
            content = event.content
            yield (TOK_TEXT, content, 0, len(content))
        elif etype is StartDocument:
            yield (TOK_START_DOC,)
        elif etype is EndDocument:
            yield (TOK_END_DOC,)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown event {event!r}")


#: anything :meth:`CompiledFilterBank.filter_many` accepts as one document
DocumentLike = Union[XMLDocument, Iterable[Event]]


class CompiledFilterBank:
    """A multi-subscription filter bank running on compiled shared prefix-trie plans.

    API-compatible with :class:`~repro.core.filterbank.FilterBank` (register /
    unregister / filter_events / filter_document / filter_stream / filter_many), plus
    :meth:`filter_text` which runs the zero-copy token pipeline straight off XML text.
    With ``stats=True`` (the default) matched sets and per-query
    :class:`~repro.core.filter.FilterStatistics` are byte-identical to the interpreted
    engines; ``stats=False`` selects the match-only fast path, which reports the same
    matched sets with an empty ``per_query_stats`` at a fraction of the per-event cost.

    Plans are interned by canonical query form (subscriptions with equal queries share
    one runtime) and ``register``/``unregister`` maintain the shared trie
    incrementally once it has been built.
    """

    def __init__(self, *, stats: bool = True) -> None:
        self._stats = stats
        self._subs: Dict[str, _Runtime] = {}  # name -> shared runtime (reg. order)
        self._runtimes: Dict[str, _Runtime] = {}  # canonical form -> runtime
        self._names: Dict[str, int] = {}  # interned node-test name ids (plan-wide)
        self._trie_root: Optional[_TrieNode] = None
        self._generation = 0  # fast-path document generation counter
        self._peak_value_chars = 0  # lifetime high-water of any value buffer

    # ------------------------------------------------------------------ registration
    def register(self, name: str, query: Query) -> None:
        """Register a subscription under a unique name.

        Raises ``ValueError`` for duplicate names and
        :class:`~repro.core.errors.UnsupportedQueryError` for unsupported queries.
        A query equal (by canonical form) to an already-registered one shares that
        query's compiled plan and runtime; a new plan is spliced into the live trie
        in O(query size) instead of forcing a rebuild.
        """
        if name in self._subs:
            raise ValueError(f"a subscription named {name!r} is already registered")
        StreamingFilter._check_supported(query)
        keyform = query.to_xpath()
        runtime = self._runtimes.get(keyform)
        if runtime is None:
            plan = CompiledQuery(query, self._names)
            runtime = _Runtime(name, plan, keyform)
            self._runtimes[keyform] = runtime
            if self._trie_root is not None:
                self._splice_in(runtime)
        else:
            runtime.names.append(name)
        self._subs[name] = runtime

    def unregister(self, name: str) -> None:
        """Remove a subscription; unknown names raise ``KeyError``.

        The last subscription of a plan splices the plan's steps out of the live trie
        (pruning trie nodes that lose their last step) instead of forcing a rebuild.
        """
        runtime = self._subs.pop(name)
        runtime.names.remove(name)
        if not runtime.names:
            del self._runtimes[runtime.keyform]
            if self._trie_root is not None:
                self._splice_out(runtime)

    def subscriptions(self) -> List[str]:
        """The registered subscription names, in registration order."""
        return list(self._subs)

    def subscription_queries(self) -> Dict[str, str]:
        """name -> canonical XPath text, in registration order.

        The canonical form is the plan-interning key, so two banks registered from
        the same pairs intern identically; it is also the serialization the
        snapshot/restore layer (:mod:`repro.service.snapshot`) persists, chosen over
        pickling compiled plans because plans hold closures and a canonical string
        round-trips through ``parse_query`` into an equal plan by construction.
        """
        return {name: runtime.keyform for name, runtime in self._subs.items()}

    def __len__(self) -> int:
        return len(self._subs)

    @property
    def stats_mode(self) -> bool:
        """Whether this bank runs the statistics-accurate engine (``stats=True``)."""
        return self._stats

    def distinct_plan_count(self) -> int:
        """Number of distinct interned plans (= runtimes) serving the subscriptions."""
        return len(self._runtimes)

    def query(self, name: str) -> Query:
        """The query registered under ``name``."""
        return self._subs[name].plan.query

    def plan(self, name: str) -> CompiledQuery:
        """The compiled plan registered under ``name``."""
        return self._subs[name].plan

    # ------------------------------------------------------------------ trie building
    def _sub_slots(self, plan: CompiledQuery) -> Tuple[int, ...]:
        """The slots of a plan that carry per-subscription entries on trie nodes.

        In the stats-accurate mode every step needs per-query record work at its fire
        points.  In match-only mode a *path plan* (a pure chain) needs none: the
        structural fire of its leaf is an exact candidate match, so only the leaf
        slot is registered and the inner steps exist purely as shared trie structure.
        """
        if not self._stats and plan.is_path:
            # slot_count == 1 is the bare-root query, which never matches anything
            return (plan.slot_count - 1,) if plan.slot_count > 1 else ()
        return tuple(range(1, plan.slot_count))

    def _trie(self) -> _TrieNode:
        if self._trie_root is None:
            root = _TrieNode()
            for runtime in self._runtimes.values():
                plan = runtime.plan
                sub_slots = set(self._sub_slots(plan))
                nodes: List[_TrieNode] = [root] * plan.slot_count
                for slot in range(1, plan.slot_count):
                    parent_trie = nodes[plan.parent[slot]]
                    level_checked = plan.axis[slot] != AX_DESC
                    node = parent_trie.get_or_add(level_checked, plan.ntests[slot])
                    nodes[slot] = node
                    if slot in sub_slots:
                        node.subs.append((runtime, slot))
                runtime.trie_nodes = nodes
            root.finalize()
            self._trie_root = root
        return self._trie_root

    def rebuild_trie(self) -> None:
        """Discard the shared trie and rebuild it from scratch.

        This is the pre-incremental maintenance behavior, kept public as the churn
        benchmark's baseline and as the equivalence oracle of the incremental-splice
        property tests (an incrementally maintained trie must be indistinguishable
        from a rebuilt one).
        """
        self._trie_root = None
        self._trie()

    def _splice_in(self, runtime: _Runtime) -> None:
        """Add one plan's steps to the live trie, keeping edge lists finalized."""
        root = self._trie_root
        plan = runtime.plan
        sub_slots = set(self._sub_slots(plan))
        nodes: List[_TrieNode] = [root] * plan.slot_count
        for slot in range(1, plan.slot_count):
            parent_trie = nodes[plan.parent[slot]]
            level_checked = plan.axis[slot] != AX_DESC
            ntest = plan.ntests[slot]
            step_map = parent_trie.child_map if level_checked else parent_trie.desc_map
            node = step_map.get(ntest)
            if node is None:
                node = step_map[ntest] = _TrieNode()
                # a fresh node is born finalized (empty maps and edge lists); only the
                # parent's precomputed edge lists need the new edge
                if level_checked:
                    if ntest == "*":
                        parent_trie.child_wild = node
                    elif ntest == "@*":
                        parent_trie.child_attr_wild = node
                else:
                    kind = 1 if ntest == "*" else 2 if ntest == "@*" else 0
                    parent_trie.desc_edges.append((kind, ntest, node))
            nodes[slot] = node
            if slot in sub_slots:
                node.subs.append((runtime, slot))
        runtime.trie_nodes = nodes

    def _splice_out(self, runtime: _Runtime) -> None:
        """Remove one plan's steps from the live trie, pruning emptied nodes.

        Slots are visited deepest-first (reversed pre-order), so a trie node that
        loses its last step and has no children is unlinked from its parent before the
        parent itself is considered — emptied chains prune bottom-up along the plan's
        own path.  A node still carrying other plans' steps, or interior to another
        plan's path, is left in place.
        """
        plan = runtime.plan
        nodes = runtime.trie_nodes
        if nodes is None:  # registered after an unregister-forced teardown; no trie
            return
        sub_slots = set(self._sub_slots(plan))
        for slot in range(plan.slot_count - 1, 0, -1):
            node = nodes[slot]
            if slot in sub_slots:
                node.subs.remove((runtime, slot))
            if node.subs or node.child_map or node.desc_map:
                continue
            parent_trie = nodes[plan.parent[slot]]
            level_checked = plan.axis[slot] != AX_DESC
            ntest = plan.ntests[slot]
            if level_checked:
                if parent_trie.child_map.get(ntest) is node:
                    del parent_trie.child_map[ntest]
                    if ntest == "*":
                        parent_trie.child_wild = None
                    elif ntest == "@*":
                        parent_trie.child_attr_wild = None
            else:
                if parent_trie.desc_map.get(ntest) is node:
                    del parent_trie.desc_map[ntest]
                    kind = 1 if ntest == "*" else 2 if ntest == "@*" else 0
                    parent_trie.desc_edges.remove((kind, ntest, node))
        runtime.trie_nodes = None

    def trie_size(self) -> int:
        """Number of shared trie nodes (excluding the root).

        With heavy prefix sharing this is far below the total number of query steps:
        ``sum(plan.slot_count - 1 for plan in plans)`` is the unshared upper bound.
        """
        count = 0
        stack = [self._trie()]
        while stack:
            node = stack.pop()
            for step_map in (node.child_map, node.desc_map):
                count += len(step_map)
                stack.extend(step_map.values())
        return count

    def memory_report(self) -> BankMemoryReport:
        """Live modeled-bits accounting for the whole bank.

        Standing bits cover the interned name table (8 bits per character plus
        an id per entry), the shared trie (axis class + node-test id per node)
        and every distinct plan's slot arrays; see
        :class:`BankMemoryReport` for what the peak fields mean per mode.  In
        match-only mode frontier records are *not* modeled — the fast path
        keeps no per-record accounting by design, and its per-document record
        count is bounded by the same structure the stats engine measures — so
        ``peak_document_bits`` covers only the value buffers there, and the
        process-RSS watermark is the backstop for the rest.
        """
        name_bits = _bits(len(self._names) + 2)
        trie_nodes = self.trie_size()
        standing = sum(len(name) * 8 + name_bits for name in self._names)
        standing += trie_nodes * (2 + name_bits)
        peak_doc = 0
        peak_records = 0
        peak_sum = 0
        for runtime in self._runtimes.values():
            plan = runtime.plan
            standing += _plan_standing_bits(plan.slot_count, plan.qnode_bits,
                                            name_bits)
            peak_sum += runtime.lifetime_peak_bits
            if runtime.lifetime_peak_bits > peak_doc:
                peak_doc = runtime.lifetime_peak_bits
            if runtime.lifetime_peak_records > peak_records:
                peak_records = runtime.lifetime_peak_records
        buffer_bits = self._peak_value_chars * 8
        if not self._stats:
            peak_doc = max(peak_doc, buffer_bits)
            peak_sum = max(peak_sum, buffer_bits)
        return BankMemoryReport(
            subscriptions=len(self._subs),
            distinct_plans=len(self._runtimes),
            trie_nodes=trie_nodes,
            standing_bits=standing,
            peak_document_bits=peak_doc,
            peak_frontier_records=peak_records,
            peak_buffer_chars=self._peak_value_chars,
            modeled_bits=standing + peak_sum,
            stats_mode=self._stats,
        )

    def per_subscription_peak_bits(self) -> Dict[str, int]:
        """name -> lifetime Theorem 8.8 peak bits of its plan (stats mode only).

        The soak harness compares these against the static cost-model bound of
        :func:`repro.analysis.costmodel.analyze_query`.  In match-only mode the
        engine keeps no per-plan bit accounting and every peak reads 0.
        """
        return {name: runtime.lifetime_peak_bits
                for name, runtime in self._subs.items()}

    def analyze(self, *, max_depth: int = 32, max_text_chars: int = 256,
                subsumption: bool = True,
                pair_limit: Optional[int] = None):
        """Static-analysis report over the registered subscriptions.

        Per-plan cost facts (``FS(Q)``, fast-path eligibility, the predicted
        Theorem 8.8 memory bound at the stated depth/text assumptions),
        trie-sharing aggregates, and subsumption/duplicate findings.  Returns
        a :class:`repro.analysis.bank.BankAnalysis`; the bank is not mutated.
        """
        from ..analysis.bank import analyze_bank  # late: analysis sits above core

        return analyze_bank(
            self,
            max_depth=max_depth,
            max_text_chars=max_text_chars,
            subsumption=subsumption,
            pair_limit=pair_limit,
        )

    def index_fanout(self, name: str) -> int:
        """How many (query, step) pairs sit on trie nodes reachable by label ``name``.

        Diagnostic counterpart of ``FilterBank.index_fanout``: counts the subscriptions
        of every trie node whose edge label is ``name`` (or a matching wildcard).
        """
        total = 0
        stack = [self._trie()]
        is_attr = name.startswith("@")
        while stack:
            node = stack.pop()
            for step_map in (node.child_map, node.desc_map):
                for ntest, child in step_map.items():
                    if (ntest == name or (ntest == "*" and not is_attr)
                            or (ntest == "@*" and is_attr)):
                        total += len(child.subs)
                    stack.append(child)
        return total

    # ------------------------------------------------------------------ filtering
    def filter_events(self, events: Iterable[Event]) -> BankResult:
        """Feed one document event stream to every subscription (single pass)."""
        return self._filter(event_tokens(events), early_unregister=False)

    def filter_document(self, document: XMLDocument) -> BankResult:
        """Convenience wrapper over :meth:`filter_events`."""
        return self.filter_events(document.events())

    def filter_text(self, text: str) -> BankResult:
        """Filter one document given as XML text, on the zero-copy token pipeline."""
        return self._filter(iter(document_tokens(text)), early_unregister=False)

    def filter_stream(self, chunks: Iterable[Chunk], *,
                      encoding: str = "utf-8") -> BankResult:
        """Filter one document arriving as byte/text chunks, never materializing it."""
        parser = StreamingParser(encoding=encoding)
        return self._filter(parser.parse_tokens(chunks), early_unregister=False)

    def filter_tokens(self, tokens: Iterable[Token], *,
                      early_unregister: bool = False) -> BankResult:
        """Filter one document given as a raw token stream (the lowest-level entry)."""
        return self._filter(iter(tokens), early_unregister=early_unregister)

    def filter_many(self, documents: Iterable[DocumentLike]) -> List[BankResult]:
        """Batch mode with early decision, as in ``FilterBank.filter_many``."""
        results = []
        for document in documents:
            if isinstance(document, XMLDocument):
                tokens = event_tokens(document.events())
            else:
                tokens = event_tokens(document)
            results.append(self._filter(tokens, early_unregister=True))
        return results

    def _filter(self, tokens: Iterator[Token], *, early_unregister: bool) -> BankResult:
        if self._stats:
            return self._run(tokens, early_unregister=early_unregister)
        # the match-only fast path always retires decided runtimes mid-document:
        # there are no statistics whose coverage the early exit could change
        return self._run_fast(tokens)

    # ------------------------------------------------------------------ the hot loop
    def _run(self, tokens: Iterator[Token], *, early_unregister: bool) -> BankResult:
        trie_root = self._trie()
        runtimes = list(self._runtimes.values())
        outcomes: Dict[_Runtime, Optional[bool]] = {rt: None for rt in runtimes}
        decided: set = set()  # runtimes early-unregistered for the current document
        level = 0  # shared document-level counter (pre-event value, as in FilterBank)
        max_level = 0
        events_seen = 0
        high_water = _LevelHighWater()
        completed = False

        text_open: Dict[_Runtime, bool] = {}  # runtimes with an open value buffer
        resolvers: Dict[int, set] = {}  # post-event level -> runtimes to resolve there

        # structural trie state, one entry per open element plus the document frame.
        # ``frames`` holds the trie nodes that fired at the element (None if none):
        # a child start probes exactly those nodes' level-checked edges.  ``scopes``
        # holds the (bucket, node) descendant registrations the element's fires
        # added (None if none), removed again when the element ends.
        frames: List[Optional[List[_TrieNode]]] = []
        scopes: List[Optional[List[tuple]]] = []
        desc_by_name: Dict[str, dict] = {}  # ntest -> live descendant trie nodes
        desc_wild: dict = {}  # live descendant ``*`` nodes
        desc_attr_wild: dict = {}  # live descendant ``@*`` nodes

        def observe_bits(runtime: _Runtime, observed_level: int) -> None:
            # the Theorem 8.8 bit cost of the runtime's live state at the given level
            # (FrontierMemoryModel.bits, with bits_for memoized) — shared by the
            # per-event observation and the skipped-window high-water observation so
            # the two accounting paths cannot diverge
            stats = runtime.stats
            records = runtime.frontier_size
            chars = runtime.buf_size
            level_bits = _bits(observed_level + 2)
            bits = (records * (runtime.plan.qnode_bits + level_bits
                               + _bits(chars + 2) + 1)
                    + chars * 8 + level_bits)
            if bits > stats.peak_memory_bits:
                stats.peak_memory_bits = bits

        def observe(runtime: _Runtime, observed_level: int) -> None:
            # the filter's per-event _observe, at the post-event level
            stats = runtime.stats
            records = runtime.frontier_size
            if records > stats.peak_frontier_records:
                stats.peak_frontier_records = records
            chars = runtime.buf_size
            if chars > stats.peak_buffer_chars:
                stats.peak_buffer_chars = chars
            observe_bits(runtime, observed_level)

        def touch(runtime: _Runtime) -> None:
            # account for the levels traversed while no event touched this runtime
            # (filter.observe_idle at the skipped window's maximum level)
            if runtime.last_ts < events_seen - 1:
                observe_bits(runtime, high_water.max_since(runtime.last_ts + 1))
            runtime.last_ts = events_seen

        def start_document(runtime: _Runtime) -> None:
            plan = runtime.plan
            runtime.stats = FilterStatistics(events=1)
            runtime.reset()
            root_rec = [0, False, True, None, 0]
            runtime.root_rec = root_rec
            runtime.recs[0].append(root_rec)
            seq = 1
            pending = []
            for child in plan.root_children:
                rec = [1, False, True, [] if plan.is_leaf[child] else None, seq]
                seq += 1
                runtime.recs[child].append(rec)
                pending.append((child, rec))
            if pending:
                runtime.recs_by_level[1] = pending
            runtime.next_seq = seq
            runtime.frontier_size = 1 + len(pending)
            runtime.last_ts = events_seen
            observe(runtime, 1)

        def process_start(runtime: _Runtime, slots: List[int]) -> None:
            plan = runtime.plan
            recs = runtime.recs
            axis = plan.axis
            # phase 1: collect eligible records across all fired slots (the filter
            # scans the whole frontier before inserting, so records born this event
            # never fire in it)
            fires = None
            for slot in slots:
                live = recs[slot]
                if not live:
                    continue
                if axis[slot] == AX_DESC:
                    eligible = [(r[4], slot, r) for r in live if not r[1]]
                else:
                    eligible = [(r[4], slot, r)
                                for r in live if not r[1] and r[0] == level]
                if eligible:
                    fires = eligible if fires is None else fires + eligible
            if fires is None:
                return
            if len(fires) > 1:
                # phase 2 must replay the filter's frontier-list scan order: the order
                # children are inserted decides which parent group resolves first at
                # the matching end event, which is observable through matched flags
                fires.sort()
            touch(runtime)
            stats = runtime.stats
            is_leaf = plan.is_leaf
            insert_level = level + 1
            pending = None
            seq = runtime.next_seq
            inserted = 0
            for _seq, slot, rec in fires:
                stats.candidate_matches += 1
                if is_leaf[slot]:
                    if runtime.ref_count == 0:
                        text_open[runtime] = True
                    runtime.ref_count += 1
                    rec[3].append((level, runtime.buf_size))
                    opens = runtime.leaf_opens.get(level)
                    if opens is None:
                        opens = runtime.leaf_opens[level] = []
                    opens.append((rec, plan.truth[slot]))
                else:
                    if axis[slot] == AX_CHILD:
                        rec[2] = False  # the line 10-11 removal optimization
                        recs[slot].remove(rec)
                        runtime.frontier_size -= 1
                    if pending is None:
                        pending = runtime.recs_by_level.get(insert_level)
                        if pending is None:
                            pending = runtime.recs_by_level[insert_level] = []
                    for child in plan.children[slot]:
                        new_rec = [insert_level, False, True,
                                   [] if is_leaf[child] else None, seq]
                        seq += 1
                        recs[child].append(new_rec)
                        pending.append((child, new_rec))
                        inserted += 1
            runtime.next_seq = seq
            runtime.frontier_size += inserted
            waiting = resolvers.get(level)
            if waiting is None:
                waiting = resolvers[level] = set()
            waiting.add(runtime)
            observe(runtime, insert_level)

        def resolve_children(runtime: _Runtime, post_level: int) -> None:
            # lines 11-29 of endElement: fold finished child records into parents
            entries = runtime.recs_by_level.pop(post_level + 1, None)
            if not entries:
                return
            recs = runtime.recs
            parent_of = runtime.plan.parent
            axis = runtime.plan.axis
            if len(entries) == 1:
                # fast path: one finished record (linear-path queries live here)
                slot, rec = entries[0]
                if not rec[2]:
                    return
                parent = parent_of[slot]
                all_matched = rec[1]
                rec[2] = False
                recs[slot].remove(rec)
                runtime.frontier_size -= 1
                if parent == 0 or axis[parent] == AX_DESC:
                    if all_matched:
                        for parent_rec in recs[parent]:
                            parent_rec[1] = True
                else:
                    fresh = [post_level, all_matched, True, None, runtime.next_seq]
                    runtime.next_seq += 1
                    recs[parent].append(fresh)
                    pending = runtime.recs_by_level.get(post_level)
                    if pending is None:
                        pending = runtime.recs_by_level[post_level] = []
                    pending.append((parent, fresh))
                    runtime.frontier_size += 1
                return
            by_parent: Optional[dict] = None
            for slot, rec in entries:
                if not rec[2]:
                    continue  # removed while its candidate's subtree was open
                parent = parent_of[slot]
                if by_parent is None:
                    by_parent = {}
                group = by_parent.get(parent)
                if group is None:
                    by_parent[parent] = [(slot, rec)]
                else:
                    group.append((slot, rec))
            if by_parent is None:
                return
            for parent, group in by_parent.items():
                all_matched = all(rec[1] for _slot, rec in group)
                for slot, rec in group:
                    rec[2] = False
                    recs[slot].remove(rec)
                runtime.frontier_size -= len(group)
                if parent == 0 or axis[parent] == AX_DESC:
                    if all_matched:
                        for parent_rec in recs[parent]:
                            parent_rec[1] = True
                else:
                    fresh = [post_level, all_matched, True, None, runtime.next_seq]
                    runtime.next_seq += 1
                    recs[parent].append(fresh)
                    pending = runtime.recs_by_level.get(post_level)
                    if pending is None:
                        pending = runtime.recs_by_level[post_level] = []
                    pending.append((parent, fresh))
                    runtime.frontier_size += 1

        def process_end(runtime: _Runtime, post_level: int) -> None:
            touch(runtime)
            stats = runtime.stats
            opens = runtime.leaf_opens.pop(post_level, None)
            if opens:
                for rec, truth in opens:
                    _open_level, start = rec[3].pop()
                    if not rec[1]:
                        stats.real_match_evaluations += 1
                        if truth is None:
                            rec[1] = True
                        else:
                            rec[1] = bool(truth(_slice_from(runtime, start)))
                    runtime.ref_count -= 1
                    if runtime.ref_count <= 0:
                        runtime.ref_count = 0
                        runtime.buf_parts = []
                        runtime.buf_size = 0
                        text_open.pop(runtime, None)
            resolve_children(runtime, post_level)
            observe(runtime, post_level)

        def outcome_known(runtime: _Runtime) -> bool:
            # filter.outcome_so_far: True once every root child has live records and
            # all of them are matched (a matched flag never reverts)
            root_children = runtime.plan.root_children
            if not root_children:
                return False
            recs = runtime.recs
            for child in root_children:
                live = recs[child]
                if not live:
                    return False
                for rec in live:
                    if not rec[1]:
                        return False
            return True

        try:
            first = next(tokens, None)
            if first is None or first[0] != TOK_START_DOC:
                raise ValueError("event stream did not start with a startDocument event")
            events_seen = 1
            # the document frame is never popped: its registrations need no log
            _open_scopes(trie_root, desc_by_name, desc_wild, desc_attr_wild, [])
            frames.append([trie_root])
            scopes.append(None)
            for runtime in runtimes:
                start_document(runtime)
            level = 1
            high_water.push(events_seen, level)
            for token in tokens:
                events_seen += 1
                kind = token[0]
                if kind == TOK_START:
                    name = token[1]
                    # --- structural fire detection (shared across all queries): probe
                    # the nodes that fired at the parent, then the live descendant
                    # scopes; an element literally named "*" (or "@*") matches only
                    # wildcard edges
                    fired = []
                    parents = frames[-1]
                    if name[:1] != "@":
                        if parents is not None:
                            key = name if name != "*" else ""  # no node test is empty
                            for node in parents:
                                child = node.child_map.get(key)
                                if child is not None:
                                    fired.append(child)
                                if node.child_wild is not None:
                                    fired.append(node.child_wild)
                        if desc_wild:
                            fired.extend(desc_wild)
                    else:
                        if parents is not None:
                            key = name if name != "@*" else ""
                            for node in parents:
                                child = node.child_map.get(key)
                                if child is not None:
                                    fired.append(child)
                                if node.child_attr_wild is not None:
                                    fired.append(node.child_attr_wild)
                        if desc_attr_wild:
                            fired.extend(desc_attr_wild)
                    bucket = desc_by_name.get(name)
                    if bucket:
                        fired.extend(bucket)
                    if fired:
                        # --- per-query fan-out and the element's frame, one pass
                        touched: Dict[_Runtime, List[int]] = {}
                        added = None
                        for node in fired:
                            if node.subs:
                                for runtime, slot in node.subs:
                                    slots = touched.get(runtime)
                                    if slots is None:
                                        touched[runtime] = [slot]
                                    else:
                                        slots.append(slot)
                            if node.desc_edges:
                                if added is None:
                                    added = []
                                _open_scopes(node, desc_by_name, desc_wild,
                                             desc_attr_wild, added)
                        for runtime, slots in touched.items():
                            if runtime not in decided:
                                process_start(runtime, slots)
                        frames.append(fired)
                        scopes.append(added)
                    else:
                        frames.append(None)
                        scopes.append(None)
                    level += 1
                    if level > max_level:
                        max_level = level
                elif kind == TOK_END:
                    if len(frames) == 1:
                        raise ValueError(f"end tag </{token[1]}> with no open element")
                    post_level = level - 1
                    waiting = resolvers.pop(post_level, None)
                    if waiting:
                        for runtime in waiting:
                            if runtime in decided:
                                continue
                            process_end(runtime, post_level)
                            if early_unregister and outcome_known(runtime):
                                decided.add(runtime)
                                outcomes[runtime] = True
                    frames.pop()
                    added = scopes.pop()
                    if added is not None:
                        for bucket, node in added:
                            del bucket[node]
                    level = post_level
                elif kind == TOK_TEXT:
                    if text_open:
                        length = token[3] - token[2]
                        for runtime in list(text_open):
                            if runtime in decided:
                                continue
                            touch(runtime)
                            runtime.buf_parts.append(token)
                            runtime.buf_size += length
                            observe(runtime, level)
                elif kind == TOK_END_DOC:
                    if len(frames) != 1:
                        raise ValueError("endDocument event with elements still open")
                    post_level = level - 1
                    for runtime in runtimes:
                        if runtime in decided:
                            runtime.reset()  # mid-document by design; make it clean
                            continue
                        touch(runtime)
                        resolve_children(runtime, post_level)
                        root_rec = runtime.root_rec
                        outcomes[runtime] = (root_rec[1] if root_rec is not None
                                             else False)
                        observe(runtime, post_level)
                    break
                elif kind == TOK_START_DOC:
                    raise ValueError("a second startDocument event in one document")
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown token {token!r}")
                high_water.push(events_seen, level)
            else:
                raise ValueError("event stream did not contain an endDocument event")
            for _token in tokens:
                raise ValueError("event stream continued after its endDocument event")
            completed = True
        finally:
            if not completed:
                # never leave runtimes mid-document: a truncated or malformed stream
                # must not corrupt the next filtering call
                for runtime in runtimes:
                    runtime.reset()

        for runtime in runtimes:
            # per-runtime counters only saw fire points; the shared counters saw all
            runtime.stats.events = events_seen
            runtime.stats.max_level = max_level
            # fold the per-document peaks into the lifetime high-water marks the
            # resource governor reads (``stats`` is replaced at each startDocument)
            rt_stats = runtime.stats
            if rt_stats.peak_memory_bits > runtime.lifetime_peak_bits:
                runtime.lifetime_peak_bits = rt_stats.peak_memory_bits
            if rt_stats.peak_frontier_records > runtime.lifetime_peak_records:
                runtime.lifetime_peak_records = rt_stats.peak_frontier_records
            if rt_stats.peak_buffer_chars > self._peak_value_chars:
                self._peak_value_chars = rt_stats.peak_buffer_chars
        # fan one outcome/statistics object per interned plan out to every name
        # registered under it, in subscription registration order
        matched: List[str] = []
        stats: Dict[str, FilterStatistics] = {}
        for name, runtime in self._subs.items():
            stats[name] = runtime.stats
            if outcomes[runtime]:
                matched.append(name)
        return BankResult(matched=matched, per_query_stats=stats)

    # ------------------------------------------------------------------ the fast path
    def _run_fast(self, tokens: Iterator[Token]) -> BankResult:
        """The match-only hot loop: ``matched`` bits only, no statistics.

        The structural walk is identical to :meth:`_run` (a frame is the list of trie
        nodes that fired at the element; children probe those nodes' edges, and live
        descendant steps sit in name-keyed maps); the per-runtime state machine is
        reduced to what the Boolean outcome depends on, in two tiers:

        * **Path plans** (pure chains — the overwhelmingly common pub/sub shape) keep
          *no frontier records at all*.  Only the chain leaf carries subscription
          entries on the trie (see :meth:`_sub_slots`), because a structural fire of
          the leaf is an exact candidate match of the whole chain.  A universal leaf
          truth decides the outcome at the fire itself; a value test pushes the
          subscription onto a *shared* value-buffer context that is evaluated once
          per closing element — one buffered string for any number of subscriptions
          watching that element.  Per-event per-subscription cost therefore drops to
          O(matched leaf fires).

        * **Branching plans** run the general record machinery.  Records are
          ``[level, matched, alive, opens]`` — no insertion sequence numbers and no
          frontier-scan-order replay (the outcome is order-independent: ``matched``
          accumulates with OR and resolution groups are keyed by parent slot).

        There is no ``FilterStatistics``, no frontier-size or peak accounting, no
        high-water stack.  Per-document runtime state is initialized lazily at the
        runtime's first fire point (a runtime can only be affected at a fire point,
        and the trie guarantees the first relevant one touches it), and a runtime
        whose outcome becomes known mid-document is retired immediately.
        """
        trie_root = self._trie()
        completed = False
        gen = self._generation  # bumped at the startDocument below

        touched: List[_Runtime] = []  # record-plan runtimes initialized this document
        text_open: set = set()  # record-plan runtimes with an open value buffer
        resolvers: Dict[int, set] = {}  # post-event level -> runtimes to resolve

        # the shared value buffer of the path-plan tier: one token list serves every
        # open leaf context; a context remembers its start offset and the
        # subscriptions to evaluate when its element closes
        val_parts: List[Token] = []
        val_size = 0
        val_open = 0  # number of open contexts (gates text buffering)
        val_contexts: Dict[int, list] = {}  # close level -> [(start, entries)]

        # structural trie state, exactly as in _run
        frames: List[Optional[List[_TrieNode]]] = []
        scopes: List[Optional[List[tuple]]] = []
        desc_by_name: Dict[str, dict] = {}
        desc_wild: dict = {}
        desc_attr_wild: dict = {}

        def fast_start(runtime: _Runtime) -> None:
            # lazy per-document initialization, run at the runtime's first fire point
            plan = runtime.plan
            runtime.doc_gen = gen
            runtime.decided = False
            runtime.outcome = False
            runtime.recs = [[] for _ in range(plan.slot_count)]
            root_rec = [0, False, True, None]
            runtime.root_rec = root_rec
            runtime.recs[0].append(root_rec)
            pending = []
            is_leaf = plan.is_leaf
            for child in plan.root_children:
                rec = [1, False, True, [] if is_leaf[child] else None]
                runtime.recs[child].append(rec)
                pending.append((child, rec))
            runtime.recs_by_level = {1: pending} if pending else {}
            runtime.leaf_opens = {}
            runtime.buf_parts = []
            runtime.buf_size = 0
            runtime.ref_count = 0
            touched.append(runtime)

        def process_start(runtime: _Runtime, slots: List[int]) -> None:
            plan = runtime.plan
            recs = runtime.recs
            axis = plan.axis
            fires = None
            for slot in slots:
                live = recs[slot]
                if not live:
                    continue
                if axis[slot] == AX_DESC:
                    eligible = [(slot, r) for r in live if not r[1]]
                else:
                    eligible = [(slot, r) for r in live if not r[1] and r[0] == level]
                if eligible:
                    fires = eligible if fires is None else fires + eligible
            if fires is None:
                return
            is_leaf = plan.is_leaf
            insert_level = level + 1
            pending = None
            for slot, rec in fires:
                if is_leaf[slot]:
                    if runtime.ref_count == 0:
                        text_open.add(runtime)
                    runtime.ref_count += 1
                    rec[3].append((level, runtime.buf_size))
                    opens = runtime.leaf_opens.get(level)
                    if opens is None:
                        opens = runtime.leaf_opens[level] = []
                    opens.append((rec, plan.truth[slot]))
                else:
                    if axis[slot] == AX_CHILD:
                        rec[2] = False  # the line 10-11 removal optimization
                        recs[slot].remove(rec)
                    if pending is None:
                        pending = runtime.recs_by_level.get(insert_level)
                        if pending is None:
                            pending = runtime.recs_by_level[insert_level] = []
                    for child in plan.children[slot]:
                        new_rec = [insert_level, False, True,
                                   [] if is_leaf[child] else None]
                        recs[child].append(new_rec)
                        pending.append((child, new_rec))
            waiting = resolvers.get(level)
            if waiting is None:
                waiting = resolvers[level] = set()
            waiting.add(runtime)

        def resolve_children(runtime: _Runtime, post_level: int) -> None:
            entries = runtime.recs_by_level.pop(post_level + 1, None)
            if not entries:
                return
            recs = runtime.recs
            parent_of = runtime.plan.parent
            axis = runtime.plan.axis
            if len(entries) == 1:
                slot, rec = entries[0]
                if not rec[2]:
                    return
                parent = parent_of[slot]
                all_matched = rec[1]
                rec[2] = False
                recs[slot].remove(rec)
                if parent == 0 or axis[parent] == AX_DESC:
                    if all_matched:
                        for parent_rec in recs[parent]:
                            parent_rec[1] = True
                else:
                    fresh = [post_level, all_matched, True, None]
                    recs[parent].append(fresh)
                    pending = runtime.recs_by_level.get(post_level)
                    if pending is None:
                        pending = runtime.recs_by_level[post_level] = []
                    pending.append((parent, fresh))
                return
            by_parent: Optional[dict] = None
            for slot, rec in entries:
                if not rec[2]:
                    continue
                parent = parent_of[slot]
                if by_parent is None:
                    by_parent = {}
                group = by_parent.get(parent)
                if group is None:
                    by_parent[parent] = [(slot, rec)]
                else:
                    group.append((slot, rec))
            if by_parent is None:
                return
            for parent, group in by_parent.items():
                all_matched = all(rec[1] for _slot, rec in group)
                for slot, rec in group:
                    rec[2] = False
                    recs[slot].remove(rec)
                if parent == 0 or axis[parent] == AX_DESC:
                    if all_matched:
                        for parent_rec in recs[parent]:
                            parent_rec[1] = True
                else:
                    fresh = [post_level, all_matched, True, None]
                    recs[parent].append(fresh)
                    pending = runtime.recs_by_level.get(post_level)
                    if pending is None:
                        pending = runtime.recs_by_level[post_level] = []
                    pending.append((parent, fresh))

        def process_end(runtime: _Runtime, post_level: int) -> None:
            opens = runtime.leaf_opens.pop(post_level, None)
            if opens:
                for rec, truth in opens:
                    _open_level, start = rec[3].pop()
                    if not rec[1]:
                        if truth is None:
                            rec[1] = True
                        else:
                            rec[1] = bool(truth(_slice_from(runtime, start)))
                    runtime.ref_count -= 1
                    if runtime.ref_count <= 0:
                        runtime.ref_count = 0
                        if runtime.buf_size > self._peak_value_chars:
                            self._peak_value_chars = runtime.buf_size
                        runtime.buf_parts = []
                        runtime.buf_size = 0
                        text_open.discard(runtime)
            resolve_children(runtime, post_level)

        def outcome_known(runtime: _Runtime) -> bool:
            root_children = runtime.plan.root_children
            if not root_children:
                return False
            recs = runtime.recs
            for child in root_children:
                live = recs[child]
                if not live:
                    return False
                for rec in live:
                    if not rec[1]:
                        return False
            return True

        def retire(runtime: _Runtime) -> None:
            # a True outcome is final (matched flags only accumulate with OR); drop
            # the buffers eagerly, everything else is reclaimed at the next lazy init
            runtime.decided = True
            runtime.outcome = True
            if runtime.buf_size > self._peak_value_chars:
                self._peak_value_chars = runtime.buf_size
            runtime.buf_parts = []
            runtime.buf_size = 0
            runtime.ref_count = 0
            text_open.discard(runtime)

        try:
            first = next(tokens, None)
            if first is None or first[0] != TOK_START_DOC:
                raise ValueError("event stream did not start with a startDocument event")
            self._generation += 1
            gen = self._generation
            # the document frame is never popped: its registrations need no log
            _open_scopes(trie_root, desc_by_name, desc_wild, desc_attr_wild, [])
            frames.append([trie_root])
            scopes.append(None)
            level = 1
            for token in tokens:
                kind = token[0]
                if kind == TOK_START:
                    name = token[1]
                    fired = []
                    parents = frames[-1]
                    if name[:1] != "@":
                        if parents is not None:
                            key = name if name != "*" else ""  # no node test is empty
                            for node in parents:
                                child = node.child_map.get(key)
                                if child is not None:
                                    fired.append(child)
                                if node.child_wild is not None:
                                    fired.append(node.child_wild)
                        if desc_wild:
                            fired.extend(desc_wild)
                    else:
                        if parents is not None:
                            key = name if name != "@*" else ""
                            for node in parents:
                                child = node.child_map.get(key)
                                if child is not None:
                                    fired.append(child)
                                if node.child_attr_wild is not None:
                                    fired.append(node.child_attr_wild)
                        if desc_attr_wild:
                            fired.extend(desc_attr_wild)
                    bucket = desc_by_name.get(name)
                    if bucket:
                        fired.extend(bucket)
                    if fired:
                        fan_out: Optional[Dict[_Runtime, List[int]]] = None
                        leaf_entries = None  # path-plan value tests opened here
                        added = None
                        for node in fired:
                            if node.subs:
                                for runtime, slot in node.subs:
                                    if runtime.doc_gen != gen:
                                        if runtime.plan.is_path:
                                            runtime.doc_gen = gen
                                            runtime.decided = False
                                            runtime.outcome = False
                                        else:
                                            fast_start(runtime)
                                    elif runtime.decided:
                                        continue
                                    plan = runtime.plan
                                    if plan.is_path:
                                        # an exact candidate match of the whole chain
                                        truth = plan.truth[slot]
                                        if truth is None:
                                            runtime.decided = True
                                            runtime.outcome = True
                                        elif leaf_entries is None:
                                            leaf_entries = [(runtime, truth)]
                                        else:
                                            leaf_entries.append((runtime, truth))
                                        continue
                                    if fan_out is None:
                                        fan_out = {runtime: [slot]}
                                        continue
                                    slots = fan_out.get(runtime)
                                    if slots is None:
                                        fan_out[runtime] = [slot]
                                    else:
                                        slots.append(slot)
                            if node.desc_edges:
                                if added is None:
                                    added = []
                                _open_scopes(node, desc_by_name, desc_wild,
                                             desc_attr_wild, added)
                        if fan_out is not None:
                            for runtime, slots in fan_out.items():
                                process_start(runtime, slots)
                        if leaf_entries is not None:
                            contexts = val_contexts.get(level)
                            if contexts is None:
                                contexts = val_contexts[level] = []
                            contexts.append((val_size, leaf_entries))
                            val_open += 1
                        frames.append(fired)
                        scopes.append(added)
                    else:
                        frames.append(None)
                        scopes.append(None)
                    level += 1
                elif kind == TOK_END:
                    if len(frames) == 1:
                        raise ValueError(f"end tag </{token[1]}> with no open element")
                    post_level = level - 1
                    contexts = val_contexts.pop(post_level, None)
                    if contexts:
                        for start, entries in contexts:
                            value = None
                            for runtime, truth in entries:
                                if runtime.decided:
                                    continue
                                if value is None:
                                    value = _slice_parts(val_parts, start)
                                if truth(value):
                                    runtime.decided = True
                                    runtime.outcome = True
                        val_open -= len(contexts)
                        if val_open == 0 and val_parts:
                            # buffer-release point: the only place the shared value
                            # buffer shrinks, so its size here is a running maximum
                            if val_size > self._peak_value_chars:
                                self._peak_value_chars = val_size
                            val_parts = []
                            val_size = 0
                    waiting = resolvers.pop(post_level, None)
                    if waiting:
                        for runtime in waiting:
                            if runtime.decided:
                                continue
                            process_end(runtime, post_level)
                            if outcome_known(runtime):
                                retire(runtime)
                    frames.pop()
                    added = scopes.pop()
                    if added is not None:
                        for bucket, node in added:
                            del bucket[node]
                    level = post_level
                elif kind == TOK_TEXT:
                    if val_open:
                        val_parts.append(token)
                        val_size += token[3] - token[2]
                    if text_open:
                        length = token[3] - token[2]
                        for runtime in text_open:
                            runtime.buf_parts.append(token)
                            runtime.buf_size += length
                elif kind == TOK_END_DOC:
                    if len(frames) != 1:
                        raise ValueError("endDocument event with elements still open")
                    post_level = level - 1
                    for runtime in touched:
                        if runtime.decided:
                            continue
                        resolve_children(runtime, post_level)
                        root_rec = runtime.root_rec
                        runtime.outcome = (root_rec[1] if root_rec is not None
                                           else False)
                    break
                elif kind == TOK_START_DOC:
                    raise ValueError("a second startDocument event in one document")
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown token {token!r}")
            else:
                raise ValueError("event stream did not contain an endDocument event")
            for _token in tokens:
                raise ValueError("event stream continued after its endDocument event")
            completed = True
        finally:
            if not completed:
                # never leave runtimes mid-document: a truncated or malformed stream
                # must not corrupt the next filtering call
                for runtime in touched:
                    runtime.reset()
                    runtime.doc_gen = 0
                    runtime.decided = False
                    runtime.outcome = False

        matched = [name for name, runtime in self._subs.items()
                   if runtime.doc_gen == gen and runtime.outcome]
        return BankResult(matched=matched, per_query_stats={})

