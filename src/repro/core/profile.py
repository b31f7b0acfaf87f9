"""Client profiles and profile sets.

A *profile* ``p = {eta_1, ..., eta_|p|}`` is a collection of t-intervals that
together model one client's data needs (Section 3.1). The *rank* of a
profile is the maximal number of EIs in any of its t-intervals; the rank of
a profile set is the maximum over its profiles. Rank is the complexity
measure that the MRSF policy and the approximation bounds are stated in.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.timeline import Chronon

__all__ = ["Profile", "ProfileColumns", "ProfileSet"]


class Profile:
    """A client profile — a set of t-intervals over shared resources.

    Parameters
    ----------
    tintervals:
        The t-intervals composing the profile. Each receives a local
        ``tinterval_id`` (position in the profile) and this profile's id.
    profile_id:
        Stable identity within a :class:`ProfileSet` (``-1`` = unattached).
    name:
        Human-readable label (e.g. ``"AuctionWatch(3)#12"``).
    """

    __slots__ = ("tintervals", "profile_id", "name")

    def __init__(self, tintervals: Iterable[TInterval],
                 profile_id: int = -1, name: str = "") -> None:
        self.profile_id = profile_id
        self.name = name or (f"p{profile_id}" if profile_id >= 0 else "p?")
        self.tintervals: tuple[TInterval, ...] = tuple(
            eta.attached(tinterval_id=index, profile_id=profile_id)
            for index, eta in enumerate(tintervals)
        )

    @classmethod
    def from_stamped(cls, tintervals: tuple[TInterval, ...],
                     profile_id: int, name: str) -> "Profile":
        """Construct from t-intervals already carrying their identities.

        Skips the attach pass of ``__init__`` — the caller guarantees
        ``tintervals[i].tinterval_id == i`` and
        ``tintervals[i].profile_id == profile_id`` (the columns→objects
        build stamps them during assembly).
        """
        profile = cls.__new__(cls)
        profile.profile_id = profile_id
        profile.name = name or (f"p{profile_id}" if profile_id >= 0
                                else "p?")
        profile.tintervals = tintervals
        return profile

    def __len__(self) -> int:
        """Number of t-intervals ``|p|`` (the GC denominator term)."""
        return len(self.tintervals)

    def __iter__(self) -> Iterator[TInterval]:
        return iter(self.tintervals)

    def __getitem__(self, index: int) -> TInterval:
        return self.tintervals[index]

    @property
    def rank(self) -> int:
        """``rank(p) = max_eta |eta|`` — 0 for an empty profile."""
        if not self.tintervals:
            return 0
        return max(len(eta.eis) for eta in self.tintervals)

    @property
    def resource_ids(self) -> frozenset[int]:
        """All resources referenced by the profile's t-intervals."""
        ids: set[int] = set()
        for eta in self.tintervals:
            ids.update(eta.resource_ids)
        return frozenset(ids)

    @property
    def is_unit_width(self) -> bool:
        """True when every EI in the profile has width one (``P^[1]``)."""
        return all(eta.is_unit_width for eta in self.tintervals)

    def has_intra_resource_overlap(self) -> bool:
        """True if any two EIs on the same resource overlap.

        Checks overlaps both inside a t-interval and *across* t-intervals of
        this profile — the paper's theoretical bounds (Proposition 4) assume
        the overlap-free case.
        """
        by_resource: dict[int, list[ExecutionInterval]] = {}
        for eta in self.tintervals:
            for ei in eta:
                by_resource.setdefault(ei.resource_id, []).append(ei)
        return _any_overlap(by_resource)

    def execution_intervals(self) -> Iterator[tuple[TInterval, ExecutionInterval]]:
        """Iterate ``(t-interval, EI)`` pairs across the whole profile."""
        for eta in self.tintervals:
            for ei in eta:
                yield eta, ei

    def attached(self, profile_id: int) -> "Profile":
        """Return a copy of this profile with ids assigned.

        Returns ``self`` when the id already matches (construction
        attaches the t-intervals consistently, so the copy would be
        equal). Otherwise the t-intervals are re-attached directly —
        :meth:`TInterval.attached` overwrites both identity fields, so
        no intermediate bare copy is needed.
        """
        if self.profile_id == profile_id:
            return self
        stamp = TInterval.from_stamped
        return Profile.from_stamped(
            tuple([stamp(eta.eis, index, profile_id, eta.need)
                   for index, eta in enumerate(self.tintervals)]),
            profile_id, self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Profile(id={self.profile_id}, name={self.name!r}, "
                f"|p|={len(self)}, rank={self.rank})")


class ProfileColumns(NamedTuple):
    """A profile set as parallel ``int32`` columns, one row per EI.

    Rows are in (profile, t-interval, slot) order: a t-interval is one
    contiguous run of rows and an EI's ``ei_id`` is its position in the
    run. ``names`` has one entry per profile; a profile without
    t-intervals owns no row and is visible only there. ``ei_need`` is
    each row's t-interval's ``need`` (its size when it needs every EI).
    Every producer — the generator, :meth:`of`, :meth:`concat`,
    :meth:`take`, :meth:`checked` and with it the instance cache's load
    — yields ``int32`` without building a wider copy first, so a set
    whose ids or chronons pass ``int32`` has no columns: its producer
    raises :class:`ValueError` naming the column. The columnar lowering
    keeps these widths (docs/ALGORITHMS.md §13) and refuses such a set
    as unsupported; the reference simulator, which reads objects, still
    runs it.
    """

    names: tuple[str, ...]
    ei_profile: np.ndarray
    ei_tinterval: np.ndarray
    ei_resource: np.ndarray
    ei_start: np.ndarray
    ei_finish: np.ndarray
    ei_need: np.ndarray

    @classmethod
    def of(cls, profiles: Sequence[Profile]) -> "ProfileColumns":
        """The columns of profile objects — one walk, profiles ->
        t-intervals -> EIs, flattened in creation order, one ``fromiter``
        per attribute. A profile's id is its position in ``profiles``
        (what :class:`ProfileSet` stamps on its members), so unattached
        profiles lower without being copied first."""
        etas = list(chain.from_iterable(profiles))
        members = list(map(attrgetter("eis"), etas))
        eis = list(chain.from_iterable(members))

        def column(name: str, attr: str, objects: list) -> np.ndarray:
            try:
                return np.fromiter(map(attrgetter(attr), objects),
                                   np.int32, len(objects))
            except OverflowError:
                raise _past_int32(name) from None

        size = np.fromiter(map(len, members), np.int64, len(etas))
        owner = np.repeat(
            np.arange(len(profiles), dtype=np.int32),
            np.fromiter(map(len, profiles), np.int64, len(profiles)))
        return cls(
            tuple(map(attrgetter("name"), profiles)),
            np.repeat(owner, size),
            np.repeat(column("ei_tinterval", "tinterval_id", etas), size),
            column("ei_resource", "resource_id", eis),
            column("ei_start", "start", eis),
            column("ei_finish", "finish", eis),
            np.repeat(column("ei_need", "need", etas), size))

    @classmethod
    def concat(cls, blocks: Sequence["ProfileColumns"]) -> "ProfileColumns":
        """``blocks`` one after another (none: no profile): each
        block's profiles are numbered on from those before it."""
        sizes = [len(block.names) for block in blocks]
        shift = np.cumsum(sizes) - sizes
        none = [np.zeros(0, dtype=np.int32)]
        return cls(
            tuple(chain.from_iterable(block.names for block in blocks)),
            np.concatenate(none + [block.ei_profile + by for block, by
                                   in zip(blocks, shift.tolist())]),
            *(np.concatenate(none + [block[at] for block in blocks])
              for at in range(2, len(cls._fields))))

    def take(self, profiles: np.ndarray) -> "ProfileColumns":
        """The given profiles in the given order, renumbered by position."""
        lo = np.searchsorted(self.ei_profile, profiles, side="left")
        count = np.searchsorted(self.ei_profile, profiles,
                                side="right") - lo
        rows = (np.repeat(lo - (np.cumsum(count) - count), count)
                + np.arange(int(count.sum()), dtype=np.int64))
        return ProfileColumns(
            tuple(self.names[index] for index in profiles.tolist()),
            np.repeat(np.arange(profiles.size, dtype=np.int32), count),
            *(column[rows] for column in self[2:]))

    def tinterval_heads(self) -> np.ndarray:
        """Row of each t-interval's first EI, ascending."""
        head = np.ones(self.ei_profile.size, dtype=bool)
        np.not_equal(self.ei_profile[1:], self.ei_profile[:-1],
                     out=head[1:])
        head[1:] |= self.ei_tinterval[1:] != self.ei_tinterval[:-1]
        return np.flatnonzero(head)

    def checked(self) -> "ProfileColumns":
        """These columns as ``int32`` vectors, or :class:`ValueError`.

        Any integer dtype is taken; a value outside ``int32`` is refused
        by the name of its column. Then the array form of what the
        object constructors enforce: EI bounds and resource ids
        (:class:`ExecutionInterval`), non-empty contiguous t-intervals
        numbered ``0..n-1`` inside each profile (:class:`Profile`),
        profile ids that are positions in ``names`` (:class:`ProfileSet`),
        one ``need`` in ``1..size`` per t-interval (:class:`TInterval`).
        Columns read from outside the process pass through here before
        anything is served from them.
        """
        arrays = [np.asarray(column) for column in self[1:]]
        if any(array.ndim != 1 or array.dtype.kind not in "iu"
               or array.size != arrays[0].size for array in arrays):
            raise ValueError("EI columns must be integer vectors of one "
                             "length")
        profile, tinterval, resource, start, finish, need = map(
            narrowed, self._fields[1:], arrays)
        checked = ProfileColumns(tuple(self.names), profile, tinterval,
                                 resource, start, finish, need)
        names = checked.names
        if profile.size:
            same = profile[1:] == profile[:-1]
            step = np.diff(tinterval)
            if (profile[0] < 0 or profile[-1] >= len(names)
                    or (profile[1:] < profile[:-1]).any()):
                raise ValueError("ei_profile must ascend inside "
                                 f"[0, {len(names)})")
            if (tinterval[0] != 0 or tinterval[1:][~same].any()
                    or ((step < 0) | (step > 1))[same].any()):
                raise ValueError("t-interval ids must run 0..n-1 in "
                                 "contiguous rows inside each profile")
            if ((start < 1).any() or (finish < start).any()
                    or (resource < 0).any()):
                raise ValueError("every EI needs 1 <= start <= finish "
                                 "and a resource id >= 0")
            heads = checked.tinterval_heads()
            count = np.diff(np.append(heads, profile.size))
            size = np.repeat(count, count)
            bad = np.flatnonzero((need < 1) | (need > size) | (
                need != np.repeat(need[heads], count)))
            if bad.size:
                at = int(bad[0])
                raise ValueError(
                    f"t-interval ({profile[at]}, {tinterval[at]}) of "
                    f"{size[at]} EIs needs 1..{size[at]} of them, one need "
                    f"per t-interval, got {need[at]}")
        return checked


class ProfileSet:
    """The proxy's registered profiles ``P = {p_1, ..., p_m}``.

    The profile set is the main input of both the offline solvers and the
    online simulator. It owns identity assignment: profiles get dense ids
    ``0..m-1`` and t-intervals keep ``(profile_id, tinterval_id)`` keys.

    A set is built from :class:`Profile` objects or, by
    :meth:`from_columns`, from :class:`ProfileColumns`. A column-born set
    answers ``len`` and :meth:`columns` from the arrays and builds its
    objects on the first access that reads one (``profiles``, ``iter``,
    indexing, every derived property), so a caller that only lowers it
    (:class:`~repro.simulation.columnar.ColumnarInstance`) never pays
    for them.
    """

    __slots__ = ("_profiles", "_columns")

    def __init__(self, profiles: Iterable[Profile] = ()) -> None:
        self._profiles: tuple[Profile, ...] | None = tuple(
            profile.attached(profile_id=index)
            for index, profile in enumerate(profiles)
        )
        self._columns: ProfileColumns | None = None

    @classmethod
    def from_columns(cls, columns: ProfileColumns) -> "ProfileSet":
        """The set these columns describe (``ValueError`` if they do
        not pass :meth:`ProfileColumns.checked`)."""
        born = cls.__new__(cls)
        born._profiles = None
        born._columns = columns.checked()
        return born

    @property
    def profiles(self) -> tuple[Profile, ...]:
        """The profiles, in id order."""
        if self._profiles is None:
            self._profiles = _profiles_from_columns(self._columns)
        return self._profiles

    def columns(self) -> ProfileColumns:
        """The set as EI-row columns: the ones a column-born set holds,
        else one walk over the objects, kept (the set never changes)."""
        if self._columns is None:
            self._columns = ProfileColumns.of(self._profiles)
        return self._columns

    def __len__(self) -> int:
        if self._profiles is None:
            return len(self._columns.names)
        return len(self._profiles)

    def __iter__(self) -> Iterator[Profile]:
        return iter(self.profiles)

    def __getitem__(self, index: int) -> Profile:
        return self.profiles[index]

    @property
    def rank(self) -> int:
        """``rank(P) = max_p rank(p)`` — 0 for an empty set."""
        if not self.profiles:
            return 0
        return max(profile.rank for profile in self.profiles)

    @property
    def total_tintervals(self) -> int:
        """``sum_p |p|`` — the GC denominator."""
        return sum(len(profile) for profile in self.profiles)

    @property
    def resource_ids(self) -> frozenset[int]:
        """All resources referenced anywhere in the profile set."""
        ids: set[int] = set()
        for profile in self.profiles:
            ids.update(profile.resource_ids)
        return frozenset(ids)

    @property
    def is_unit_width(self) -> bool:
        """True when the whole set is ``P^[1]`` (all EIs of width one)."""
        return all(profile.is_unit_width for profile in self.profiles)

    def has_intra_resource_overlap(self) -> bool:
        """True if any two EIs on the same resource overlap, set-wide."""
        by_resource: dict[int, list[ExecutionInterval]] = {}
        for profile in self.profiles:
            for eta in profile:
                for ei in eta:
                    by_resource.setdefault(ei.resource_id, []).append(ei)
        return _any_overlap(by_resource)

    def tintervals(self) -> Iterator[TInterval]:
        """Iterate every t-interval of every profile."""
        for profile in self.profiles:
            yield from profile.tintervals

    def tinterval(self, profile_id: int, tinterval_id: int) -> TInterval:
        """Look a t-interval up by its ``(profile_id, tinterval_id)`` key."""
        return self.profiles[profile_id][tinterval_id]

    def horizon(self) -> Chronon:
        """Latest finish chronon over all EIs (1 for an empty set)."""
        latest = 1
        for eta in self.tintervals():
            latest = max(latest, eta.latest_finish)
        return latest

    def rank_of(self, eta: TInterval) -> int:
        """``rank(p)`` of the profile owning ``eta``.

        The MRSF score (Section 4.2.2) is defined against the *profile*
        rank, not the t-interval size.
        """
        return self.profiles[eta.profile_id].rank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProfileSet(m={len(self)}, rank={self.rank}, "
                f"tintervals={self.total_tintervals})")


_INT32 = np.iinfo(np.int32)


def narrowed(name: str, values: np.ndarray) -> np.ndarray:
    """Integer ``values`` as ``int32`` (themselves when they already
    are), or the :class:`ValueError` naming column ``name`` that a value
    outside ``int32`` gets."""
    if values.dtype == np.int32:
        return values
    if values.size and (values.min() < _INT32.min
                        or values.max() > _INT32.max):
        raise _past_int32(name)
    return values.astype(np.int32)


def _past_int32(name: str) -> ValueError:
    return ValueError(f"{name} holds a value outside int32: a set whose "
                      "ids or chronons pass int32 has no columns")


def _profiles_from_columns(columns: ProfileColumns) -> tuple[Profile, ...]:
    """The objects of checked columns, ids stamped during assembly.

    Row positions ARE the ids (an EI's id is its offset in its
    t-interval's run of rows), so nothing is re-attached afterwards.
    """
    heads = columns.tinterval_heads()
    stops = np.append(heads[1:], columns.ei_profile.size)
    slots = (np.arange(columns.ei_profile.size)
             - np.repeat(heads, stops - heads))
    eis = list(map(ExecutionInterval, columns.ei_resource.tolist(),
                   columns.ei_start.tolist(), columns.ei_finish.tolist(),
                   slots.tolist()))
    owner = columns.ei_profile[heads]
    stamp = TInterval.from_stamped
    etas = [stamp(tuple(eis[lo:hi]), tinterval_id, profile_id, need)
            for lo, hi, tinterval_id, profile_id, need
            in zip(heads.tolist(), stops.tolist(),
                   columns.ei_tinterval[heads].tolist(), owner.tolist(),
                   columns.ei_need[heads].tolist())]
    ends = np.searchsorted(owner, np.arange(len(columns.names)),
                           side="right").tolist()
    return tuple(
        Profile.from_stamped(tuple(etas[lo:hi]), profile_id, name)
        for profile_id, (lo, hi, name)
        in enumerate(zip([0] + ends, ends, columns.names)))


def _any_overlap(by_resource: dict[int, list[ExecutionInterval]]) -> bool:
    """True if any same-resource EI list contains an overlapping pair."""
    for group in by_resource.values():
        group.sort(key=lambda e: (e.start, e.finish))
        for left, right in zip(group, group[1:]):
            if right.start <= left.finish:
                return True
    return False
