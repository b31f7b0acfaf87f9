"""Content-addressed instance cache for the experiment harness.

The paper's evaluation (Section 5.1) is sweep-shaped: every figure runs
many policies over the *same* generated problem instances, and repeated
benchmark invocations regenerate those instances from scratch. This
module makes instance generation a cached, content-addressed lookup:

* :func:`generation_key` — a stable SHA-256 hash over every
  ``ExperimentConfig`` field that feeds generation plus the repetition
  index and trace source. Two cells share a key iff they would generate
  the same instance, whatever their budgets.
* :class:`InstanceCache` — an in-process LRU keyed on that hash, with an
  optional on-disk store (``<key>.npz`` columns + ``<key>.json``
  manifest) so warm instances survive across processes and benchmark
  invocations. An entry also keeps the instance's columnar lowering
  once something asks for it (:meth:`InstanceCache.lowering`).
  Hit/miss/error counters are exposed for tests and reporting; any
  unreadable or inconsistent disk entry is regenerated and rewritten,
  never silently served.
* module-level configuration (:func:`configure_instances`): one
  process-wide cache, which the harness's forked pool workers inherit
  with everything it holds.

Generation has one path; ``tests/workloads/oracle.py`` holds the
event-at-a-time specification it is property-tested to equal, seed for
seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.profile import ProfileColumns, ProfileSet
from repro.experiments.config import ExperimentConfig
from repro.simulation.columnar import ColumnarInstance
from repro.traces.auctions import AuctionTraceSynthesizer
from repro.traces.events import UpdateTrace
from repro.traces.models import PoissonUpdateModel
from repro.workloads.generator import GeneratorConfig, ProfileGenerator

__all__ = [
    "InstanceCache",
    "generation_key",
    "generate_instance",
    "configure_instances",
    "active_cache",
]

#: Config fields that do not influence instance generation: the budget
#: only constrains the *simulation* and ``repetitions`` only says how
#: many instances a setting draws (each identified by its own repetition
#: index). Cells differing solely in these share generated instances.
_NON_GENERATIVE_FIELDS = ("budget", "repetitions")

#: Bump when the serialized layout, the key or the generation seeding
#: changes — stale on-disk entries from older layouts then miss instead
#: of deserializing garbage. Version 4 stores the EI columns as int32.
FORMAT_VERSION = 4


def _generative_fields(config: ExperimentConfig) -> dict:
    """Every ``ExperimentConfig`` field that feeds generation (via
    ``dataclasses.asdict``, so newly added fields are picked up)."""
    fields = asdict(config)
    for name in _NON_GENERATIVE_FIELDS:
        fields.pop(name, None)
    return fields


def generation_key(config: ExperimentConfig, repetition: int,
                   source: str) -> str:
    """Content hash of the *generated instance* a cell runs on.

    Covers the config fields that feed generation (not budget or
    repetitions), the repetition index, the trace source and the
    serialization format version: two sweep cells that differ only in
    budget map to the same key and therefore the same (trace, profiles)
    object. It is the batching key — the harness runs the cells sharing
    it as the lanes of one columnar block — and the one key of the
    instance cache, in memory and on disk.
    """
    payload = {
        "version": FORMAT_VERSION,
        "source": source,
        "repetition": repetition,
        "config": _generative_fields(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def generate_instance(config: ExperimentConfig, repetition: int,
                      source: str = "poisson",
                      ) -> tuple[UpdateTrace, ProfileSet]:
    """Generate one (trace, profiles) instance — the uncached path.

    Seeding folds the repetition index into the config seed, so
    instances differ across repetitions but are fully reproducible.
    """
    seed = config.seed + 1013 * repetition
    epoch = config.epoch
    resource_ids = list(range(config.num_resources))
    if source == "poisson":
        model = PoissonUpdateModel(config.intensity, seed=seed)
        trace = model.generate(resource_ids, epoch)
    elif source == "auction":
        synthesizer = AuctionTraceSynthesizer(
            config.num_resources, epoch,
            mean_bids=max(1.0, config.intensity), seed=seed)
        trace = synthesizer.generate()
    else:
        raise ValueError(f"unknown trace source {source!r}")
    generator = ProfileGenerator(GeneratorConfig(
        num_profiles=config.num_profiles,
        max_rank=config.max_rank,
        alpha=config.alpha,
        beta=config.beta,
        window=config.window,
        grouping=config.grouping,
        seed=seed + 1,
    ))
    profiles = generator.generate(trace, epoch,
                                  resource_ids=resource_ids)
    return trace, profiles


class InstanceCache:
    """LRU instance cache with an optional on-disk store.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity: the paper's repetition count (§5.1), so
        one setting's instances — and their lowerings — stay warm from
        one sweep to the next.
    cache_dir:
        Optional directory for the persistent store. Created on first
        write. Each entry is a ``<key>.npz`` (trace and EI columns) plus
        a ``<key>.json`` manifest; writes go through a temp file and
        ``os.replace`` so readers never observe a partial entry.

    Attributes
    ----------
    memory_hits / disk_hits / misses / stores / disk_errors:
        Monotonic counters; ``disk_errors`` counts corrupted or
        unreadable entries that were regenerated instead of served.
    """

    def __init__(self, max_entries: int = 10,
                 cache_dir: str | os.PathLike | None = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        # key -> [trace, profiles, lowering or None]
        self._entries: OrderedDict[str, list] = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_errors = 0

    def get_or_generate(self, config: ExperimentConfig, repetition: int,
                        source: str = "poisson",
                        ) -> tuple[UpdateTrace, ProfileSet]:
        """The instance for a cell — from memory, disk, or generation.

        Memory and disk are both keyed on :func:`generation_key`, so
        cells that differ only in non-generative fields (budget,
        repetitions) share one entry.
        """
        key = generation_key(config, repetition, source)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.memory_hits += 1
            return entry[0], entry[1]
        instance = self._load(key, config) \
            if self.cache_dir is not None else None
        if instance is not None:
            self.disk_hits += 1
        else:
            self.misses += 1
            instance = generate_instance(config, repetition, source)
            if self.cache_dir is not None:
                self._store(key, config, repetition, source, instance)
        self._entries[key] = [*instance, None]
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return instance

    def lowering(self, config: ExperimentConfig, repetition: int,
                 source: str = "poisson") -> ColumnarInstance:
        """The cell's instance as columns, built on first ask and kept
        in its entry. A lowering is a pure function of the instance (the
        key pins the epoch too) and ``run_block`` never mutates it, so a
        later sweep over the instance reuses the build and the fault
        draws made on it. Not a lookup of its own: it counts only when
        the instance itself has to be fetched."""
        key = generation_key(config, repetition, source)
        if key not in self._entries:
            self.get_or_generate(config, repetition, source)
        entry = self._entries[key]
        if entry[2] is None:
            entry[2] = ColumnarInstance.build(entry[1], config.epoch)
        return entry[2]

    def stats(self) -> dict[str, int]:
        """Counter snapshot (for tests and benchmark reports)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_errors": self.disk_errors,
        }

    def clear(self) -> None:
        """Drop the in-memory entries (the disk store is untouched)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Disk store
    # ------------------------------------------------------------------

    def _paths(self, key: str) -> tuple[Path, Path]:
        return (self.cache_dir / f"{key}.npz",
                self.cache_dir / f"{key}.json")

    def _store(self, key: str, config: ExperimentConfig, repetition: int,
               source: str,
               instance: tuple[UpdateTrace, ProfileSet]) -> None:
        """Serialize one instance; failures are counted, not raised."""
        trace, profiles = instance
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            columns_path, manifest_path = self._paths(key)
            resource_ids, chronons = trace.as_arrays()
            payloads = [event.payload for event in trace] \
                if _has_payloads(trace) else None
            columns = profiles.columns()
            manifest = {
                "version": FORMAT_VERSION,
                "key": key,
                "source": source,
                "repetition": repetition,
                "config": _generative_fields(config),
                "profile_names": list(columns.names),
                "payloads": payloads,
            }
            with tempfile.NamedTemporaryFile(
                    dir=self.cache_dir, suffix=".npz.tmp",
                    delete=False) as handle:
                np.savez(handle,
                         trace_resource_ids=resource_ids,
                         trace_chronons=chronons,
                         **dict(zip(_EI_COLUMNS, columns[1:])))
                tmp_columns = handle.name
            os.replace(tmp_columns, columns_path)
            with tempfile.NamedTemporaryFile(
                    mode="w", dir=self.cache_dir, suffix=".json.tmp",
                    delete=False) as handle:
                json.dump(manifest, handle)
                tmp_manifest = handle.name
            # The manifest lands last: its presence marks a complete entry.
            os.replace(tmp_manifest, manifest_path)
            self.stores += 1
        except OSError:
            self.disk_errors += 1

    def _load(self, key: str,
              config: ExperimentConfig
              ) -> tuple[UpdateTrace, ProfileSet] | None:
        """Deserialize one instance; any inconsistency yields ``None``.

        Every failure mode — missing columns file, truncated npz,
        malformed JSON, version skew, key mismatch, out-of-range
        chronons (``UpdateTrace.from_columns`` re-validates), EI columns
        no profile set could have produced (``ProfileSet.from_columns``
        checks them) — is treated as a miss so the instance is
        regenerated and rewritten.
        """
        columns_path, manifest_path = self._paths(key)
        if not manifest_path.exists():
            return None
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            if (manifest.get("version") != FORMAT_VERSION
                    or manifest.get("key") != key):
                raise ValueError("manifest version/key mismatch")
            with np.load(columns_path) as columns:
                trace = UpdateTrace.from_columns(
                    columns["trace_chronons"],
                    columns["trace_resource_ids"],
                    config.epoch,
                    payloads=manifest.get("payloads"))
                profiles = ProfileSet.from_columns(ProfileColumns(
                    manifest["profile_names"],
                    *(columns[name] for name in _EI_COLUMNS)))
            return trace, profiles
        except Exception:
            self.disk_errors += 1
            return None


def _has_payloads(trace: UpdateTrace) -> bool:
    """True when any event of the trace carries a payload."""
    return any(event.payload is not None for event in trace)


#: npz names of the EI-row columns (``ProfileColumns`` minus ``names``,
#: which travel in the manifest).
_EI_COLUMNS = ProfileColumns._fields[1:]


# ----------------------------------------------------------------------
# Module-level configuration (shared by harness, CLI and pool workers)
# ----------------------------------------------------------------------

_ACTIVE_CACHE = InstanceCache()


def configure_instances(cache_dir: str | os.PathLike | None = None,
                        max_entries: int | None = None) -> InstanceCache:
    """(Re)configure the process-wide instance cache.

    Called by the CLI (``--cache-dir``); returns the new active cache. ``cache_dir=None`` disables the disk
    store, matching the flag's absence; an omitted ``max_entries`` keeps
    its current value.
    """
    global _ACTIVE_CACHE
    entries = max_entries if max_entries is not None \
        else _ACTIVE_CACHE.max_entries
    _ACTIVE_CACHE = InstanceCache(max_entries=entries, cache_dir=cache_dir)
    return _ACTIVE_CACHE


def active_cache() -> InstanceCache:
    """The process-wide cache consulted by ``make_instance``."""
    return _ACTIVE_CACHE
