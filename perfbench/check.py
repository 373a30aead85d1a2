"""Output checks: every ack against the DOM oracle, every match delivered once.

The generator records, on one event clock (a counter it advances at every
send and every observed reply), when each subscription was sent, acked and
withdrawn and when each publish was submitted and acked.  The checks only use
orderings that the service's single ingest queue makes meaningful:

* a subscription is *surely live* for a document when its subscribe ack was
  seen before the document was submitted and its unsubscribe was not sent
  before the document's ack was seen: the document must match it exactly as
  the oracle says;
* it is *possibly live* when its subscribe was sent before the document's ack
  was seen and its unsubscribe ack was not seen before the document was
  submitted: the document may report it, and only if the oracle agrees.

Names are never reused, so a global id names one query for the whole run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Sub:
    """One subscription's life on the event clock."""

    conn: int
    name: str
    xpath: str
    global_id: str
    sent: int
    acked: Optional[int] = None
    unsub_sent: Optional[int] = None
    unsub_acked: Optional[int] = None


@dataclass
class Pub:
    """One publish: which pool document, when, and what came back."""

    conn: int
    doc: int
    t_submit: int
    submitted: int
    t_ack: int = 0
    acked: int = 0
    doc_id: Optional[int] = None
    matched: Tuple[str, ...] = ()
    error: Optional[str] = None


@dataclass
class Match:
    """One received match frame."""

    conn: int
    doc_id: int
    names: Tuple[str, ...]
    duplicate: bool
    t_recv: int


@dataclass
class Verdict:
    """Failed operations by cause (each failed operation counted once)."""

    publish_errors: int = 0
    wrong_matches: int = 0
    lost_notifications: int = 0
    examples: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.publish_errors + self.wrong_matches + self.lost_notifications

    def note(self, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(text)


def check_acks(pubs: Iterable[Pub], subs: Sequence[Sub],
               answers: Sequence[FrozenSet[str]], verdict: Verdict) -> None:
    """Compare each acked match set with the oracle, churn-aware."""
    by_id: Dict[str, Sub] = {sub.global_id: sub for sub in subs}
    by_query: Dict[str, List[Sub]] = {}
    for sub in subs:
        if sub.acked is not None:
            by_query.setdefault(sub.xpath, []).append(sub)
    for pub in pubs:
        if pub.error is not None:
            verdict.publish_errors += 1
            verdict.note(f"publish failed: {pub.error}")
            continue
        answer = answers[pub.doc]
        reported = set(pub.matched)
        wrong = [gid for gid in reported
                 if gid not in by_id or not _possibly_live(by_id[gid], pub)
                 or by_id[gid].xpath not in answer]
        missing = [sub.global_id for xpath in answer
                   for sub in by_query.get(xpath, ())
                   if _surely_live(sub, pub) and sub.global_id not in reported]
        if wrong or missing or len(reported) != len(pub.matched):
            verdict.wrong_matches += 1
            verdict.note(f"document {pub.doc_id}: unexpected {sorted(wrong)}, "
                         f"missing {sorted(missing)}")


def _surely_live(sub: Sub, pub: Pub) -> bool:
    return (sub.acked is not None and sub.acked < pub.submitted
            and (sub.unsub_sent is None or sub.unsub_sent > pub.acked))


def _possibly_live(sub: Sub, pub: Pub) -> bool:
    return (sub.sent < pub.acked
            and (sub.unsub_acked is None or sub.unsub_acked > pub.submitted))


def check_notifications(pubs: Iterable[Pub], matches: Iterable[Match],
                        conn_of: Dict[str, int], verdict: Verdict) -> None:
    """Every acked match reaches its subscriber's connection exactly once."""
    received: Counter = Counter()
    for match in matches:
        for name in match.names:
            received[(match.conn, match.doc_id, name, match.duplicate)] += 1
    for pub in pubs:
        if pub.error is not None:
            continue
        bad = []
        for gid in pub.matched:
            client, _, name = gid.partition(":")
            key = (conn_of.get(client, -1), pub.doc_id, name, False)
            if received.pop(key, 0) != 1:
                bad.append(gid)
        if bad:
            verdict.lost_notifications += 1
            verdict.note(f"document {pub.doc_id}: not delivered exactly once "
                         f"to {sorted(bad)}")
    if received:
        # deliveries nobody's ack reported: spurious or duplicate matches
        verdict.lost_notifications += len(received)
        verdict.note(f"unexpected match frames: {sorted(received)[:3]}")


def expected_notifications(pubs: Iterable[Pub]) -> int:
    """How many (subscriber, document) match names the acks promise."""
    return sum(len(pub.matched) for pub in pubs if pub.error is None)
