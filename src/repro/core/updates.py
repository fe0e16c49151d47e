"""Positive and negative updates — the engine's only output language.

"A positive update of the form (Q, +A) indicates that object A needs to
be added to the answer set of query Q.  Similarly, a negative update of
the form (Q, -A) indicates that object A is no longer part of the answer
set of query Q."

Two representations carry that language:

* :class:`Update` — one materialised ``(qid, oid, sign)`` triple, the
  element type every consumer ultimately sees.
* :class:`UpdateBatch` — the same stream as three parallel columns
  (struct of arrays).  This is what ``evaluate()`` returns: the hot
  emission paths append plain integers (or whole column slices) and
  never allocate an :class:`Update` per change; iteration materialises
  elements lazily, so code written against ``list[Update]`` — golden
  tests, the oracle, examples — keeps working unchanged, in the same
  order, with the same values.
"""

from __future__ import annotations


class Update:
    """One incremental answer change for query ``qid``.

    ``sign`` is ``+1`` (object entered the answer) or ``-1`` (object
    left it).  A client that applies a batch of updates *in order* to its
    stored answer set ends with the server's answer set.

    Value semantics: two updates are equal (and hash equal) iff their
    ``(qid, oid, sign)`` triples match.  Instances are immutable by
    convention — this is a hand-rolled slots class rather than a frozen
    dataclass because consumers may materialise one per emitted change
    (hundreds of thousands per bulk round), and the frozen-dataclass
    ``object.__setattr__`` path more than triples construction cost on
    the hottest line of every pipeline.
    """

    __slots__ = ("qid", "oid", "sign")

    def __init__(self, qid: int, oid: int, sign: int) -> None:
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self.qid = qid
        self.oid = oid
        self.sign = sign

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Update:
            return (
                self.qid == other.qid
                and self.oid == other.oid
                and self.sign == other.sign
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.qid, self.oid, self.sign))

    def __repr__(self) -> str:
        return f"Update(qid={self.qid}, oid={self.oid}, sign={self.sign})"

    @property
    def is_positive(self) -> bool:
        return self.sign == 1

    @classmethod
    def positive(cls, qid: int, oid: int) -> "Update":
        return cls(qid, oid, 1)

    @classmethod
    def negative(cls, qid: int, oid: int) -> "Update":
        return cls(qid, oid, -1)

    def __str__(self) -> str:  # matches the paper's (Q, +A) notation
        sign = "+" if self.sign == 1 else "-"
        return f"(Q{self.qid}, {sign}p{self.oid})"


class UpdateBatch:
    """An update stream as three parallel columns (struct of arrays).

    The emission contract every pipeline writes through:

    * ``push(qid, oid, sign)`` — append one change, integers only;
    * ``extend_columns(qids, oids, signs)`` — append whole column
      slices (the columnar emitter splices classification output in
      C-speed ``list.extend`` calls);
    * ``append(update)`` / ``extend(updates)`` — legacy element-wise
      entry points, decomposed into the columns.

    Reading is sequence-shaped and **lazily materialised**: iteration
    and indexing build :class:`Update` objects on demand, ``==``
    compares element-wise against any list/tuple of updates (so
    ``evaluate(now) == []`` style assertions keep working), and
    :meth:`tuples` exposes the raw triples without materialising
    anything.  FIFO order is the column order — round-tripping through
    :meth:`to_list` and :meth:`from_updates` is the identity (tested
    property).

    Columns are plain Python int lists: appends and slice-extends stay
    in C, and the numpy consumers (server downlink group-by, bulk set
    maintenance) lift them with one ``np.asarray`` when needed.
    """

    __slots__ = ("qids", "oids", "signs")

    def __init__(self, qids=None, oids=None, signs=None) -> None:
        self.qids: list[int] = [] if qids is None else list(qids)
        self.oids: list[int] = [] if oids is None else list(oids)
        self.signs: list[int] = [] if signs is None else list(signs)
        if not (len(self.qids) == len(self.oids) == len(self.signs)):
            raise ValueError(
                "column lengths differ: "
                f"{len(self.qids)}/{len(self.oids)}/{len(self.signs)}"
            )

    @classmethod
    def from_updates(cls, updates) -> "UpdateBatch":
        """Rebuild a batch from any iterable of updates (order kept)."""
        batch = cls()
        batch.extend(updates)
        return batch

    # ------------------------------------------------------------------
    # Emission API
    # ------------------------------------------------------------------

    def push(self, qid: int, oid: int, sign: int) -> None:
        """Append one change without materialising an :class:`Update`."""
        self.qids.append(qid)
        self.oids.append(oid)
        self.signs.append(sign)

    def extend_columns(self, qids, oids, signs) -> None:
        """Append aligned column slices (lists or any int sequences)."""
        self.qids.extend(qids)
        self.oids.extend(oids)
        self.signs.extend(signs)

    def append(self, update: Update) -> None:
        self.qids.append(update.qid)
        self.oids.append(update.oid)
        self.signs.append(update.sign)

    def extend(self, updates) -> None:
        if isinstance(updates, UpdateBatch):
            self.extend_columns(updates.qids, updates.oids, updates.signs)
            return
        for update in updates:
            self.qids.append(update.qid)
            self.oids.append(update.oid)
            self.signs.append(update.sign)

    # ------------------------------------------------------------------
    # Sequence surface (lazy materialisation)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.qids)

    def __iter__(self):
        return map(Update, self.qids, self.oids, self.signs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UpdateBatch(
                self.qids[index], self.oids[index], self.signs[index]
            )
        return Update(self.qids[index], self.oids[index], self.signs[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UpdateBatch):
            return (
                self.qids == other.qids
                and self.oids == other.oids
                and self.signs == other.signs
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self.qids):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def tuples(self):
        """Iterate the raw ``(qid, oid, sign)`` triples, allocation-free."""
        return zip(self.qids, self.oids, self.signs)

    def to_list(self) -> list[Update]:
        """Materialise the whole stream as ``list[Update]``."""
        return list(map(Update, self.qids, self.oids, self.signs))


def diff_answers(
    qid: int, old: set[int], new: set[int], into: UpdateBatch | None = None
) -> "list[Update] | UpdateBatch":
    """The update stream turning answer ``old`` into answer ``new``.

    Negative updates come first (deterministically sorted), then
    positives — the order the out-of-sync recovery path sends them in.
    Pass ``into`` to append the delta onto an existing
    :class:`UpdateBatch` (returned) instead of materialising a list.
    """
    if into is not None:
        for oid in sorted(old - new):
            into.push(qid, oid, -1)
        for oid in sorted(new - old):
            into.push(qid, oid, 1)
        return into
    negatives = [Update.negative(qid, oid) for oid in sorted(old - new)]
    positives = [Update.positive(qid, oid) for oid in sorted(new - old)]
    return negatives + positives


def apply_updates(answer: set[int], updates) -> set[int]:
    """Apply a batch of updates (any queries mixed) to one answer set.

    The caller filters to a single query's updates; this helper is the
    client-side application rule and the test oracle for consistency.
    Accepts a ``list[Update]`` or an :class:`UpdateBatch` (applied
    column-wise, no element materialisation).
    """
    result = set(answer)
    if isinstance(updates, UpdateBatch):
        for oid, sign in zip(updates.oids, updates.signs):
            if sign == 1:
                result.add(oid)
            else:
                result.discard(oid)
        return result
    for update in updates:
        if update.is_positive:
            result.add(update.oid)
        else:
            result.discard(update.oid)
    return result
