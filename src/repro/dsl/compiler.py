"""Compiling parsed profile specifications into model objects.

The compiler resolves resource references (numeric ids directly, names
through a :class:`~repro.core.resource.ResourceCatalog`), instantiates the
matching templates per statement, and materializes concrete profiles
against an update trace — producing a :class:`ProfileSet` whose
t-intervals carry the ``need`` a ``quota`` clause sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.intervals import TInterval
from repro.core.profile import Profile, ProfileSet
from repro.core.resource import ResourceCatalog
from repro.core.timeline import Epoch
from repro.dsl.ast import Document, ProfileSpec, ResourceRef, Statement
from repro.dsl.errors import DslSemanticError
from repro.dsl.parser import parse
from repro.traces.events import UpdateTrace
from repro.workloads.restrictions import (
    OverwriteRestriction,
    WindowRestriction,
)
from repro.workloads.templates import (
    AuctionWatchTemplate,
    PeriodicWatchTemplate,
    SingleResourceTemplate,
)

__all__ = ["CompiledProfiles", "compile_text", "compile_document"]


@dataclass(frozen=True, slots=True)
class CompiledProfiles:
    """The result of compiling a specification against a trace.

    Attributes
    ----------
    profiles:
        The materialized profile set (profile order follows the document);
        a statement's ``quota`` is the ``need`` of its t-intervals.
    names:
        ``profile_id -> document profile name``.
    """

    profiles: ProfileSet
    names: dict[int, str]


def compile_text(text: str, trace: UpdateTrace, epoch: Epoch,
                 catalog: ResourceCatalog | None = None
                 ) -> CompiledProfiles:
    """Parse and compile a specification document in one call."""
    return compile_document(parse(text), trace, epoch, catalog=catalog)


def compile_document(document: Document, trace: UpdateTrace, epoch: Epoch,
                     catalog: ResourceCatalog | None = None
                     ) -> CompiledProfiles:
    """Compile a parsed document against a trace.

    Raises
    ------
    DslSemanticError
        On duplicate profile names, unresolvable resources, duplicate
        resources within a statement, or quotas exceeding statement arity.
    """
    seen_names: set[str] = set()
    for spec in document.profiles:
        if spec.name in seen_names:
            raise DslSemanticError(
                f"duplicate profile name {spec.name!r} "
                f"(line {spec.line})")
        seen_names.add(spec.name)

    profiles = ProfileSet(_compile_profile(spec, trace, epoch, catalog)
                          for spec in document.profiles)
    names = {profile.profile_id: spec.name
             for profile, spec in zip(profiles, document.profiles)}
    return CompiledProfiles(profiles=profiles, names=names)


def _compile_profile(spec: ProfileSpec, trace: UpdateTrace, epoch: Epoch,
                     catalog: ResourceCatalog | None) -> Profile:
    tintervals = []
    for statement in spec.statements:
        resource_ids = _resolve_resources(statement, catalog)
        template = _template_for(statement)
        piece = template.build_profile(resource_ids, trace, epoch,
                                       name=spec.name)
        quota = statement.quota
        if quota is None:
            tintervals.extend(piece)
            continue
        if quota > len(resource_ids):
            raise DslSemanticError(
                f"quota {quota} exceeds the {len(resource_ids)} watched "
                f"resources (line {statement.line})")
        # A t-interval with fewer EIs than watched resources needs them all.
        tintervals.extend(TInterval(eta.eis, need=min(quota, eta.size))
                          for eta in piece)
    return Profile(tintervals, name=spec.name)


def _template_for(statement: Statement):
    if statement.period is not None:
        # Temporal trigger: rounds every `period` chronons, each open
        # for the statement's window width.
        return PeriodicWatchTemplate(statement.period,
                                     width=statement.window or 0)
    if statement.restriction == "window":
        restriction = WindowRestriction(statement.window or 0)
    else:
        restriction = OverwriteRestriction()
    if statement.kind == "watch":
        return AuctionWatchTemplate(restriction,
                                    grouping=statement.grouping)
    return SingleResourceTemplate(restriction)


def _resolve_resources(statement: Statement,
                       catalog: ResourceCatalog | None) -> list[int]:
    resolved: list[int] = []
    for ref in statement.resources:
        resolved.append(_resolve_one(ref, catalog))
    if len(set(resolved)) != len(resolved):
        raise DslSemanticError(
            f"duplicate resources in statement (line {statement.line})")
    return resolved


def _resolve_one(ref: ResourceRef, catalog: ResourceCatalog | None) -> int:
    if ref.is_numeric:
        resource_id = int(ref.text)
        if catalog is not None and resource_id not in catalog:
            raise DslSemanticError(
                f"resource id {resource_id} not in catalog "
                f"(line {ref.line})")
        return resource_id
    if catalog is None:
        raise DslSemanticError(
            f"named resource {ref.text!r} needs a catalog "
            f"(line {ref.line})")
    try:
        return catalog.by_name(ref.text).resource_id
    except KeyError:
        raise DslSemanticError(
            f"unknown resource {ref.text!r} (line {ref.line})"
        ) from None
