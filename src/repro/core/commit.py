"""Committed answers and out-of-sync client recovery (paper Section 3.3).

A committed answer is one "it is guaranteed that the client has
received".  The server keeps, per query, the last committed answer
alongside the live answer; when an out-of-sync client wakes up, the
server "compares the latest answer for the query with the committed
answer, and sends the difference of the answer in the form of positive
and negative updates" — typically far cheaper than retransmitting the
whole answer.

Commit triggers follow the paper: any uplink message from a *moving*
query implicitly commits its latest delivered answer (the message proves
the client is alive and connected), while *stationary* queries commit
only via an explicit commit message, sent "at the convenient times of
the clients".
"""

from __future__ import annotations

from repro.core.updates import UpdateBatch, diff_answers


class CommittedAnswerStore:
    """The repository of committed query answers."""

    def __init__(self) -> None:
        self._committed: dict[int, frozenset[int]] = {}

    def committed_answer(self, qid: int) -> frozenset[int]:
        """The last committed answer (empty before any commit)."""
        return self._committed.get(qid, frozenset())

    def commit(self, qid: int, answer: frozenset[int]) -> None:
        """Mark ``answer`` as guaranteed-received for ``qid``."""
        self._committed[qid] = answer

    def forget(self, qid: int) -> None:
        """Drop state for an unregistered query."""
        self._committed.pop(qid, None)

    def recovery_updates(
        self, qid: int, current_answer: frozenset[int]
    ) -> UpdateBatch:
        """The +/- delta bringing a reconnecting client up to date.

        The client's stored answer equals the committed answer (every
        delivered-and-acknowledged update is folded into a commit), so
        the difference against the server's current answer is exactly
        what the client is missing.
        """
        return diff_answers(
            qid, set(self.committed_answer(qid)), set(current_answer)
        )

    def tracked_queries(self) -> set[int]:
        return set(self._committed)
