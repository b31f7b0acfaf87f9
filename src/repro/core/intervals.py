"""Execution intervals and t-intervals — the paper's core abstractions.

An **execution interval** (EI) ``I = [T_s, T_f]`` on resource ``r`` is the
period during which the proxy must probe ``r`` at least once for the client
to be synchronized with the state of ``r`` (Section 3.1 of the paper).

A **t-interval** ``eta = {I_1, ..., I_k}`` is a set of EIs, possibly on
different resources; it is *captured* by a schedule when ``need`` of its EIs
(by default all of them; §6's "subset of execution intervals" otherwise) are
probed inside their windows. The number of EIs in a t-interval is the
complexity measure from which profile rank is derived.

Both classes are immutable value objects; identity fields (``ei_id`` /
``tinterval_id``) give the online simulator stable keys without relying on
object identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.errors import ModelError
from repro.core.timeline import Chronon

__all__ = ["ExecutionInterval", "TInterval"]


@dataclass(frozen=True, slots=True)
class ExecutionInterval:
    """A single execution interval ``[start, finish]`` on one resource.

    Parameters
    ----------
    resource_id:
        Id of the resource this EI refers to.
    start:
        First chronon ``T_s`` at which a probe is useful (inclusive).
    finish:
        Last chronon ``T_f`` at which a probe is useful (inclusive).
        ``start <= finish`` is required; ``start == finish`` yields a
        unit-width EI (the ``P^[1]`` building block of Section 4.1.2).
    ei_id:
        Optional stable identity, assigned when the EI is attached to a
        t-interval; ``-1`` means unassigned.
    """

    resource_id: int
    start: Chronon
    finish: Chronon
    ei_id: int = -1

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError(f"EI start must be >= 1, got {self.start}")
        if self.finish < self.start:
            raise ValueError(
                f"EI finish {self.finish} precedes start {self.start}"
            )
        if self.resource_id < 0:
            raise ValueError(
                f"EI resource_id must be >= 0, got {self.resource_id}"
            )

    @property
    def width(self) -> int:
        """Number of chronons in the EI (``finish - start + 1``)."""
        return self.finish - self.start + 1

    @property
    def is_unit(self) -> bool:
        """True when the EI spans exactly one chronon."""
        return self.start == self.finish

    def active_at(self, chronon: Chronon) -> bool:
        """True if ``chronon`` falls inside ``[start, finish]``."""
        return self.start <= chronon <= self.finish

    def expired_at(self, chronon: Chronon) -> bool:
        """True if the EI can no longer be captured at ``chronon``."""
        return chronon > self.finish

    def overlaps(self, other: "ExecutionInterval") -> bool:
        """True if the two EIs share at least one chronon (any resources)."""
        return self.start <= other.finish and other.start <= self.finish

    def chronons(self) -> range:
        """Iterate the chronons covered by this EI."""
        return range(self.start, self.finish + 1)

    def with_id(self, ei_id: int) -> "ExecutionInterval":
        """Return a copy of this EI carrying the given identity.

        Returns ``self`` when the identity already matches: EIs are
        immutable value objects, so the copy would be indistinguishable,
        and attach pipelines re-stamp the same ids many times over.
        """
        if self.ei_id == ei_id:
            return self
        return ExecutionInterval(self.resource_id, self.start, self.finish,
                                 ei_id=ei_id)

    def shifted(self, delta: int) -> "ExecutionInterval":
        """Return a copy shifted by ``delta`` chronons (id preserved)."""
        return ExecutionInterval(self.resource_id, self.start + delta,
                                 self.finish + delta, ei_id=self.ei_id)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"EI(r{self.resource_id}:[{self.start},{self.finish}])"


class TInterval:
    """A t-interval: a set of execution intervals to be jointly captured.

    The t-interval is the unit of gained completeness: it contributes to GC
    once ``need`` of its EIs are captured — all of them by default, the
    paper's semantics. EIs inside a t-interval are *siblings* of each
    other (Section 3.1).

    Parameters
    ----------
    eis:
        The execution intervals composing the t-interval; at least one.
        Each EI gets a local ``ei_id`` equal to its position.
    tinterval_id:
        Optional stable identity, assigned by the owning profile/profile set;
        ``-1`` means unassigned.
    profile_id:
        Id of the owning profile (``-1`` until attached).
    need:
        How many of the EIs must be captured, ``1 <= need <= size``;
        ``None`` (default) is ``size``, every one of them.
    """

    __slots__ = ("eis", "tinterval_id", "profile_id", "need")

    def __init__(self, eis: Iterable[ExecutionInterval],
                 tinterval_id: int = -1, profile_id: int = -1,
                 need: int | None = None) -> None:
        materialized = tuple(
            ei.with_id(index) for index, ei in enumerate(eis)
        )
        if not materialized:
            raise ValueError("a t-interval must contain at least one EI")
        if need is not None and not 1 <= need <= len(materialized):
            raise ValueError(
                f"a t-interval of {len(materialized)} EIs needs 1.."
                f"{len(materialized)} of them, got need={need}")
        self.eis: tuple[ExecutionInterval, ...] = materialized
        self.tinterval_id = tinterval_id
        self.profile_id = profile_id
        self.need = len(materialized) if need is None else need

    def __len__(self) -> int:
        return len(self.eis)

    def __iter__(self) -> Iterator[ExecutionInterval]:
        return iter(self.eis)

    def __getitem__(self, index: int) -> ExecutionInterval:
        return self.eis[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TInterval):
            return NotImplemented
        return (self.eis == other.eis
                and self.tinterval_id == other.tinterval_id
                and self.profile_id == other.profile_id
                and self.need == other.need)

    def __hash__(self) -> int:
        return hash((self.eis, self.tinterval_id, self.profile_id,
                     self.need))

    @property
    def size(self) -> int:
        """Number of EIs — the t-interval's contribution to profile rank."""
        return len(self.eis)

    @property
    def earliest_start(self) -> Chronon:
        """Earliest ``T_s`` over the EIs — the online arrival chronon."""
        return min(ei.start for ei in self.eis)

    @property
    def latest_finish(self) -> Chronon:
        """Latest ``T_f`` over the EIs."""
        return max(ei.finish for ei in self.eis)

    @property
    def resource_ids(self) -> frozenset[int]:
        """Set of resources referenced by this t-interval."""
        return frozenset(ei.resource_id for ei in self.eis)

    @property
    def is_unit_width(self) -> bool:
        """True when every EI spans exactly one chronon (``P^[1]`` shape)."""
        return all(ei.is_unit for ei in self.eis)

    def siblings_of(self, ei: ExecutionInterval) -> tuple[ExecutionInterval, ...]:
        """All EIs of this t-interval except ``ei`` (matched by ``ei_id``)."""
        return tuple(other for other in self.eis if other.ei_id != ei.ei_id)

    def has_intra_resource_overlap(self) -> bool:
        """True if two sibling EIs on the *same* resource share a chronon."""
        by_resource: dict[int, list[ExecutionInterval]] = {}
        for ei in self.eis:
            by_resource.setdefault(ei.resource_id, []).append(ei)
        for group in by_resource.values():
            group.sort(key=lambda e: (e.start, e.finish))
            for left, right in zip(group, group[1:]):
                if right.start <= left.finish:
                    return True
        return False

    def attached(self, tinterval_id: int, profile_id: int) -> "TInterval":
        """Return a copy carrying identities assigned by the owner profile.

        Returns ``self`` when both identities already match (the copy
        would compare equal anyway). The copy shares ``self.eis``: every
        constructor leaves ``eis[i].ei_id == i``, so re-stamping them
        could not change anything.
        """
        if self.tinterval_id == tinterval_id and self.profile_id == profile_id:
            return self
        return TInterval.from_stamped(self.eis, tinterval_id, profile_id,
                                      self.need)

    @classmethod
    def from_stamped(cls, eis: tuple["ExecutionInterval", ...],
                     tinterval_id: int, profile_id: int,
                     need: int | None = None) -> "TInterval":
        """Construct from EIs whose ``ei_id`` already equals their position.

        Skips the per-EI re-stamping pass of ``__init__`` — the caller
        guarantees ``eis[i].ei_id == i``, non-emptiness and ``need``'s
        range (the columns→objects build stamps members as it assembles
        them).
        """
        interval = cls.__new__(cls)
        interval.eis = eis
        interval.tinterval_id = tinterval_id
        interval.profile_id = profile_id
        interval.need = len(eis) if need is None else need
        return interval

    def record(self) -> list | dict:
        """As JSON: its ``[resource, start, finish]`` triples, wrapped as
        ``{"eis": triples, "need": need}`` only when it needs fewer."""
        eis = [[ei.resource_id, ei.start, ei.finish] for ei in self.eis]
        if self.need == len(eis):
            return eis
        return {"eis": eis, "need": self.need}

    @classmethod
    def from_record(cls, record, where: str) -> "TInterval":
        """Inverse of :meth:`record`: a record that holds no list of
        triples, a resource, start or finish that is not an ``int``
        (``bool`` is not), EIs the constructors refuse, or a ``need``
        that is not an integer in ``1..size``, is a :class:`ModelError`
        naming ``where``."""
        need = None
        if isinstance(record, dict):
            record, need = record.get("eis"), record.get("need")
        if not isinstance(record, (list, tuple)) or not all(
                isinstance(triple, (list, tuple)) and len(triple) == 3
                for triple in record):
            raise ModelError(f"{where} is not a list of [resource, start, "
                             f"finish] triples: {record!r}")
        for triple in record:
            if not all(type(value) is int for value in triple):
                raise ModelError(f"{where} holds {list(triple)!r}: a "
                                 "resource, start and finish are integers")
        if need is not None and (type(need) is not int
                                 or not 1 <= need <= len(record)):
            raise ModelError(
                f"{where} has {len(record)} EIs and needs 1..{len(record)} "
                f"of them, not {need!r}")
        try:
            return cls([ExecutionInterval(*triple) for triple in record],
                       need=need)
        except ValueError as why:
            raise ModelError(f"{where} is refused: {why}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(str(ei) for ei in self.eis)
        return (f"TInterval(id={self.tinterval_id}, "
                f"profile={self.profile_id}, [{parts}])")
