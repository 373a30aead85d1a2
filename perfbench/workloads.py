"""The three wire-benchmark workloads, generated from a seed, and their oracle.

Each workload is a fixed set of inputs: per-connection initial subscriptions, a
pool of documents the connections cycle through, and (for ``durable_churn``) a
pool of replacement queries.  Everything is derived from ``(name, seed)`` with
string-seeded :class:`random.Random` instances, so the same seed gives
byte-identical inputs on every machine and Python build.  The server receives
only these generated inputs.

A document *pool* (cycled) rather than a fresh document per publish keeps the
DOM oracle affordable: the oracle evaluates every pool document against every
query the workload can ever register, once per seed, before any timed phase.
The system under test keeps no per-document cache, so repeating a document
costs it the same as a fresh one.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

CONNECTIONS = 2
NAMES = ("notify", "fanin", "durable_churn")


@dataclass(frozen=True)
class Workload:
    """One workload's generated inputs and its load/service settings."""

    name: str
    seed: int
    #: per connection: the initial ``(local name, xpath)`` subscriptions
    subscriptions: Tuple[Tuple[Tuple[str, str], ...], ...]
    #: the XML documents the connections publish, cycled in order
    documents: Tuple[str, ...]
    #: publishes kept in flight per connection in the throughput phase
    window: int
    #: per connection: xpaths that churn subscribes, cycled (empty: no churn)
    replacements: Tuple[Tuple[str, ...], ...] = ((), ())
    #: a connection replaces one subscription every this many publishes (0: never)
    churn_every: int = 0
    #: consume matches with auto-ack (cursor frames; WAL cursor records)
    auto_ack: bool = False
    #: server-side service settings, passed to the server process as JSON
    service: Dict[str, object] = field(default_factory=dict)

    def queries(self) -> List[str]:
        """Every distinct xpath this workload can register, in first-use order."""
        seen: Dict[str, None] = {}
        for subs in self.subscriptions:
            for _name, xpath in subs:
                seen.setdefault(xpath)
        for pool in self.replacements:
            for xpath in pool:
                seen.setdefault(xpath)
        return list(seen)

    def fingerprint(self) -> str:
        """SHA-256 over every generated input and setting (identity check)."""
        blob = json.dumps({
            "name": self.name, "subscriptions": self.subscriptions,
            "documents": self.documents, "window": self.window,
            "replacements": self.replacements,
            "churn_every": self.churn_every, "auto_ack": self.auto_ack,
            "service": self.service,
        }, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _topic_queries(rng: random.Random, count: int, topics: int) -> List[str]:
    """``count`` subscriptions of the service-traffic shape.

    Per-subscriber score thresholds, so a busy topic notifies several
    subscribers at once.  Every seed deals the same topics (each as evenly as
    ``count`` allows) and the same thresholds (evenly over 30-90), paired and
    ordered by the seed: documents pick topics and scores uniformly, so the
    expected matches per document are the same for every seed, and the seed
    moves the work only through which subscriber holds which query.  Drawn
    independently, the notifications per `notify` document varied by about
    +-14% across ten seeds.
    """
    chosen = [index % topics for index in range(count)]
    thresholds = [30 + 60 * index // max(1, count - 1) for index in range(count)]
    rng.shuffle(chosen)
    rng.shuffle(thresholds)
    return [f"/feed/topic{topic}[score{topic} > {threshold}]"
            for topic, threshold in zip(chosen, thresholds)]


def _split(queries: Sequence[str]) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
    per = len(queries) // CONNECTIONS
    return tuple(
        tuple((f"s{i}", xpath)
              for i, xpath in enumerate(queries[c * per:(c + 1) * per]))
        for c in range(CONNECTIONS))


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    """Generate workload ``name`` for ``seed``; ``tiny`` shrinks every size."""
    from repro.workloads import (
        service_document,
        shared_prefix_feed,
        shared_prefix_subscriptions,
    )
    from repro.xmlstream.serialize import serialize_document

    rng = random.Random(f"{name}:{seed}")
    if name == "notify":
        topics = 40
        queries = _topic_queries(rng, 16 if tiny else 128, topics)
        documents = tuple(service_document(rng, topics=topics, entries=1)
                          for _ in range(32 if tiny else 2048))
        return Workload(name, seed, _split(queries), documents, window=8)
    if name == "fanin":
        queries = shared_prefix_subscriptions(
            40 if tiny else 1000, branching=8, suffix_depth=4,
            descendant_fraction=0.15, seed=rng.randrange(1 << 31))
        documents = tuple(
            serialize_document(shared_prefix_feed(
                6 if tiny else 60, branching=8, suffix_depth=4, recursion=2,
                seed=rng.randrange(1 << 31)))
            for _ in range(4 if tiny else 12))
        return Workload(name, seed, _split(queries), documents, window=4)
    if name == "durable_churn":
        topics = 40
        queries = _topic_queries(rng, 16 if tiny else 128, topics)
        documents = tuple(service_document(rng, topics=topics, entries=3)
                          for _ in range(32 if tiny else 1024))
        replacements = tuple(
            tuple(_topic_queries(rng, 16 if tiny else 256, topics))
            for _ in range(CONNECTIONS))
        return Workload(
            name, seed, _split(queries), documents, window=16,
            replacements=replacements, churn_every=10, auto_ack=True,
            service={"durable": True, "governed": True,
                     # low enough that auto-ack cursor appends trigger several
                     # compactions inside every timed phase
                     "compact_threshold": (8 if tiny else 256) * 1024})
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def oracle(workload: Workload) -> List[FrozenSet[str]]:
    """Per pool document, the set of workload xpaths the DOM evaluator matches.

    Uses :func:`repro.semantics.evaluator.bool_eval`, the paper's reference
    semantics over a materialized document tree, which shares no code with the
    streaming engines the server runs.
    """
    from repro.semantics.evaluator import bool_eval
    from repro.xmlstream.parse import parse_document
    from repro.xpath.parser import parse_query

    parsed = [(xpath, parse_query(xpath)) for xpath in workload.queries()]
    answers = []
    for text in workload.documents:
        document = parse_document(text)
        answers.append(frozenset(
            xpath for xpath, query in parsed if bool_eval(query, document)))
    return answers
