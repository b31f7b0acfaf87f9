"""Instance cache: key sensitivity, disk round-trips, corruption handling.

The cache key must cover *every* field that influences generation —
every generative ``ExperimentConfig`` field, the repetition index and
the trace source — so no two distinct instances can ever collide. The
disk store must never serve a corrupted or partial entry: every damage
mode is detected, counted in ``disk_errors`` and answered by
regeneration.
"""

import dataclasses
import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import make_instance
from repro.experiments.instances import (
    FORMAT_VERSION,
    InstanceCache,
    configure_instances,
    generate_instance,
    generation_key,
)

BASE = ExperimentConfig(epoch_length=30, num_resources=6, num_profiles=8,
                        intensity=4.0, window=5, repetitions=1,
                        grouping="overlap", seed=42)


def perturb(config: ExperimentConfig, field: dataclasses.Field):
    """A value for ``field`` differing from ``config``'s current one."""
    value = getattr(config, field.name)
    if field.name == "grouping":
        return "indexed" if value == "overlap" else "overlap"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    raise AssertionError(
        f"add a perturbation rule for new config field {field.name!r}")


def profiles_equal(left, right) -> bool:
    ls, rs = list(left), list(right)
    if len(ls) != len(rs):
        return False
    return all(a.profile_id == b.profile_id and a.name == b.name
               and tuple(a) == tuple(b) for a, b in zip(ls, rs))


class TestInstanceKey:
    def test_stable(self):
        assert generation_key(BASE, 0, "poisson") \
            == generation_key(BASE, 0, "poisson")

    @pytest.mark.parametrize(
        "field", [field for field in dataclasses.fields(ExperimentConfig)
                  if field.name not in ("budget", "repetitions")],
        ids=lambda field: field.name)
    def test_every_config_field_perturbs_the_key(self, field):
        changed = BASE.with_(**{field.name: perturb(BASE, field)})
        assert generation_key(changed, 0, "poisson") \
            != generation_key(BASE, 0, "poisson")

    def test_repetition_perturbs_the_key(self):
        assert generation_key(BASE, 0, "poisson") \
            != generation_key(BASE, 1, "poisson")

    def test_source_perturbs_the_key(self):
        assert generation_key(BASE, 0, "poisson") \
            != generation_key(BASE, 0, "auction")


class TestMemoryCache:
    def test_hit_returns_same_objects(self):
        cache = InstanceCache(max_entries=2)
        first = cache.get_or_generate(BASE, 0)
        second = cache.get_or_generate(BASE, 0)
        assert first[0] is second[0] and first[1] is second[1]
        assert cache.stats() == {"memory_hits": 1, "disk_hits": 0,
                                 "misses": 1, "stores": 0,
                                 "disk_errors": 0}

    def test_lru_evicts_oldest(self):
        cache = InstanceCache(max_entries=2)
        cache.get_or_generate(BASE, 0)
        cache.get_or_generate(BASE, 1)
        cache.get_or_generate(BASE, 2)  # evicts repetition 0
        cache.get_or_generate(BASE, 0)
        assert cache.misses == 4

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            InstanceCache(max_entries=0)


class TestDiskStore:
    def test_round_trip_identical(self, tmp_path):
        writer = InstanceCache(cache_dir=tmp_path)
        trace, profiles = writer.get_or_generate(BASE, 0)
        assert writer.stores == 1
        reader = InstanceCache(cache_dir=tmp_path)
        disk_trace, disk_profiles = reader.get_or_generate(BASE, 0)
        assert reader.disk_hits == 1 and reader.misses == 0
        assert list(disk_trace) == list(trace)
        assert profiles_equal(disk_profiles, profiles)

    def test_auction_payloads_survive(self, tmp_path):
        writer = InstanceCache(cache_dir=tmp_path)
        trace, _ = writer.get_or_generate(BASE, 0, "auction")
        reader = InstanceCache(cache_dir=tmp_path)
        disk_trace, _ = reader.get_or_generate(BASE, 0, "auction")
        assert reader.disk_hits == 1
        assert [event.payload for event in disk_trace] \
            == [event.payload for event in trace]

    def _entry_paths(self, tmp_path):
        key = generation_key(BASE, 0, "poisson")
        return tmp_path / f"{key}.npz", tmp_path / f"{key}.json"

    def _assert_regenerated(self, tmp_path, expect_error=True):
        """A fresh cache must regenerate (not serve) the damaged entry."""
        fresh_trace, fresh_profiles = generate_instance(BASE, 0)
        cache = InstanceCache(cache_dir=tmp_path)
        trace, profiles = cache.get_or_generate(BASE, 0)
        assert cache.disk_hits == 0 and cache.misses == 1
        assert cache.disk_errors == (1 if expect_error else 0)
        assert list(trace) == list(fresh_trace)
        assert profiles_equal(profiles, fresh_profiles)
        # The miss rewrites the entry; the store is healthy again.
        healed = InstanceCache(cache_dir=tmp_path)
        healed.get_or_generate(BASE, 0)
        assert healed.disk_hits == 1 and healed.disk_errors == 0

    def test_truncated_npz_regenerated(self, tmp_path):
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        columns_path, _ = self._entry_paths(tmp_path)
        columns_path.write_bytes(columns_path.read_bytes()[:40])
        self._assert_regenerated(tmp_path)

    def test_malformed_manifest_regenerated(self, tmp_path):
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        _, manifest_path = self._entry_paths(tmp_path)
        manifest_path.write_text("{not json", encoding="utf-8")
        self._assert_regenerated(tmp_path)

    def test_version_skew_regenerated(self, tmp_path):
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        _, manifest_path = self._entry_paths(tmp_path)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        self._assert_regenerated(tmp_path)

    def test_missing_columns_file_regenerated(self, tmp_path):
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        columns_path, _ = self._entry_paths(tmp_path)
        columns_path.unlink()
        self._assert_regenerated(tmp_path)

    def test_partial_entry_without_manifest_is_plain_miss(self, tmp_path):
        """npz written but no manifest (interrupted store) = clean miss."""
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        _, manifest_path = self._entry_paths(tmp_path)
        manifest_path.unlink()
        self._assert_regenerated(tmp_path, expect_error=False)

    def test_out_of_range_chronons_regenerated(self, tmp_path):
        """Damaged column values fail trace re-validation, not serve."""
        import numpy as np
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        columns_path, _ = self._entry_paths(tmp_path)
        with np.load(columns_path) as columns:
            data = {name: columns[name] for name in columns.files}
        data["trace_chronons"] = data["trace_chronons"] + 10_000
        np.savez(columns_path, **data)
        self._assert_regenerated(tmp_path)

    @pytest.mark.parametrize("damage", [
        lambda data: data.update(ei_finish=data["ei_finish"][:-1]),
        lambda data: data.update(
            ei_start=data["ei_start"].astype(float)),
        lambda data: data.update(
            ei_resource=data["ei_resource"].reshape(1, -1)),
        lambda data: data["ei_profile"].__setitem__(0, 1),
        lambda data: data["ei_profile"].__setitem__(-1, BASE.num_profiles),
        lambda data: data["ei_profile"].__setitem__(
            slice(None), data["ei_profile"] - 1),
        lambda data: data["ei_tinterval"].__setitem__(0, 1),
        lambda data: data["ei_tinterval"].__setitem__(
            slice(None), data["ei_tinterval"] * 2),
        lambda data: data["ei_tinterval"].__setitem__(
            slice(None), data["ei_tinterval"][::-1].copy()),
        lambda data: data["ei_start"].__setitem__(3, 0),
        lambda data: data["ei_finish"].__setitem__(
            3, data["ei_start"][3] - 1),
        lambda data: data["ei_resource"].__setitem__(3, -1),
    ], ids=["short-column", "float-column", "2d-column",
            "profile-descends", "profile-past-names", "profile-negative",
            "tinterval-starts-at-1", "tinterval-gaps",
            "tinterval-descends", "start-below-1", "finish-before-start",
            "negative-resource"])
    def test_impossible_ei_columns_regenerated(self, tmp_path, damage):
        """EI columns no profile set could have produced are a miss."""
        import numpy as np
        _trace, profiles = InstanceCache(
            cache_dir=tmp_path).get_or_generate(BASE, 0)
        assert max(len(profile) for profile in profiles) > 1
        columns_path, _ = self._entry_paths(tmp_path)
        with np.load(columns_path) as columns:
            data = {name: columns[name] for name in columns.files}
        damage(data)
        np.savez(columns_path, **data)
        self._assert_regenerated(tmp_path)

    def test_the_ei_columns_round_trip_as_int32(self, tmp_path):
        import numpy as np
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        columns_path, _ = self._entry_paths(tmp_path)
        with np.load(columns_path) as columns:
            assert {columns[name].dtype for name in columns.files
                    if name.startswith("ei_")} == {np.dtype(np.int32)}
        _trace, profiles = InstanceCache(
            cache_dir=tmp_path).get_or_generate(BASE, 0)
        assert {column.dtype for column in profiles.columns()[1:]} == \
            {np.dtype(np.int32)}

    @staticmethod
    def _widen(columns_path) -> None:
        """Rewrite an entry's EI columns as int64, as version 3 had them."""
        import numpy as np
        with np.load(columns_path) as columns:
            data = {name: columns[name] for name in columns.files}
        np.savez(columns_path, **{
            name: column.astype(np.int64) if name.startswith("ei_")
            else column for name, column in data.items()})

    def test_a_version_3_int64_entry_misses_and_is_rewritten(
            self, tmp_path, monkeypatch):
        """Written at version 3 it sits under another key: a plain miss,
        and the entry written in its place is version 4 and int32. The
        same bytes under this version's key fail its manifest check."""
        import numpy as np
        from repro.experiments import instances
        assert FORMAT_VERSION == 4
        with monkeypatch.context() as patched:
            patched.setattr(instances, "FORMAT_VERSION", 3)
            InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
            old_key = generation_key(BASE, 0, "poisson")
        old_columns = tmp_path / f"{old_key}.npz"
        self._widen(old_columns)
        columns_path, manifest_path = self._entry_paths(tmp_path)
        assert old_key != columns_path.stem
        self._assert_regenerated(tmp_path, expect_error=False)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["version"] == 4
        with np.load(columns_path) as columns:
            assert columns["ei_start"].dtype == np.int32

        old_manifest = tmp_path / f"{old_key}.json"
        columns_path.write_bytes(old_columns.read_bytes())
        manifest_path.write_text(old_manifest.read_text(encoding="utf-8")
                                 .replace(old_key, columns_path.stem),
                                 encoding="utf-8")
        self._assert_regenerated(tmp_path)
        with np.load(columns_path) as columns:
            assert columns["ei_start"].dtype == np.int32

    def test_an_int64_entry_past_int32_regenerated(self, tmp_path):
        """Columns of any integer width load if their values fit int32;
        one that does not is a miss, not a wrapped set."""
        import numpy as np
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        columns_path, _ = self._entry_paths(tmp_path)
        self._widen(columns_path)
        widened = InstanceCache(cache_dir=tmp_path)
        _trace, profiles = widened.get_or_generate(BASE, 0)
        assert widened.disk_hits == 1
        assert profiles.columns().ei_start.dtype == np.int32
        with np.load(columns_path) as columns:
            data = {name: columns[name] for name in columns.files}
        data["ei_finish"][0] = 2 ** 31
        np.savez(columns_path, **data)
        self._assert_regenerated(tmp_path)

    def test_missing_profile_names_regenerated(self, tmp_path):
        InstanceCache(cache_dir=tmp_path).get_or_generate(BASE, 0)
        _, manifest_path = self._entry_paths(tmp_path)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["profile_names"] = manifest["profile_names"][:1]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        self._assert_regenerated(tmp_path)


class TestProcessWideConfiguration:
    def test_make_instance_uses_configured_cache(self, tmp_path):
        try:
            cache = configure_instances(cache_dir=tmp_path)
            make_instance(BASE, 0)
            assert cache.misses == 1 and cache.stores == 1
            make_instance(BASE, 0)
            assert cache.memory_hits == 1
        finally:
            configure_instances(cache_dir=None)
