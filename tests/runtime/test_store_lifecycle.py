"""Lifecycle APIs of the results store: artifacts() / stats() / gc()."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.runtime.store import ResultsStore, SCHEMA_VERSION
from repro.runtime.trials import TrialResult


def _results(n=3):
    return [TrialResult(index=i, value=100.0 + i, true_size=100.0) for i in range(n)]


def _fill(store, count=3, tag="tagged"):
    configs = []
    for i in range(count):
        config = {"experiment": "lifecycle", "point": i}
        store.save(config, _results(), meta={"trials": 3, "tag": tag})
        configs.append(config)
    return configs


class TestArtifacts:
    def test_empty_store(self, tmp_path):
        store = ResultsStore(tmp_path / "nope")
        assert store.artifacts() == []
        assert store.stats().artifacts == 0

    def test_enumeration_metadata(self, tmp_path):
        store = ResultsStore(tmp_path)
        configs = _fill(store, count=3, tag="abl")
        infos = store.artifacts()
        assert len(infos) == 3
        keys = {store.key_for(c) for c in configs}
        assert {i.key for i in infos} == keys
        for info in infos:
            assert info.tag == "abl"
            assert info.trials == 3
            assert info.schema == SCHEMA_VERSION
            assert info.size_bytes == info.path.stat().st_size
            assert info.size_bytes > 0

    def test_oldest_first_ordering(self, tmp_path):
        store = ResultsStore(tmp_path)
        _fill(store, count=2)
        infos = store.artifacts()
        assert infos[0].created <= infos[1].created

    def test_unreadable_artifact_skipped(self, tmp_path):
        store = ResultsStore(tmp_path)
        _fill(store, count=1)
        bad = tmp_path / "zz"
        bad.mkdir()
        (bad / "broken.json").write_text("{not json")
        assert len(store.artifacts()) == 1

    def test_header_read_on_large_artifact(self, tmp_path):
        """Artifacts bigger than the probe window still enumerate fully."""
        store = ResultsStore(tmp_path)
        big = [
            TrialResult(
                index=i,
                value=1.0,
                true_size=1.0,
                extra={"curve": list(range(400))},
            )
            for i in range(200)
        ]
        store.save({"big": 1}, big, meta={"trials": 200, "tag": "huge"})
        info = store.artifacts()[0]
        assert info.size_bytes > ResultsStore._HEADER_PROBE_BYTES
        assert info.tag == "huge"
        assert info.trials == 200
        assert info.schema == SCHEMA_VERSION

    def test_header_read_falls_back_on_legacy_key_order(self, tmp_path):
        """Pre-reorder artifacts (config before meta) still enumerate."""
        store = ResultsStore(tmp_path)
        config = {"legacy": 1, "payload": ["x" * 1000] * 100}
        legacy = {
            "schema": SCHEMA_VERSION,
            "config": config,
            "meta": {"trials": 1, "tag": "old"},
            "results": [{"index": 0, "value": 1.0, "true_size": 1.0}],
        }
        path = store.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(legacy))
        info = store.artifacts()[0]
        assert info.tag == "old"
        assert info.trials == 1

    def test_enumeration_does_not_fake_hits(self, tmp_path):
        store = ResultsStore(tmp_path)
        _fill(store, count=1)
        for _ in range(3):
            infos = store.artifacts()
        assert not infos[0].hit


class TestHitTracking:
    def test_load_marks_hit(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = {"experiment": "hits"}
        store.save(config, _results())
        info = store.artifacts()[0]
        assert not info.hit
        # ensure the atime bump lands strictly after the mtime
        time.sleep(0.01)
        assert store.load(config) is not None
        info = store.artifacts()[0]
        assert info.hit
        assert info.last_access > info.created

    def test_hit_does_not_touch_mtime(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = {"experiment": "hits"}
        path = store.save(config, _results())
        mtime = path.stat().st_mtime_ns
        store.load(config)
        assert path.stat().st_mtime_ns == mtime

    def test_stats_counts_hits(self, tmp_path):
        store = ResultsStore(tmp_path)
        configs = _fill(store, count=3)
        store.load(configs[0])
        assert store.stats().hit_artifacts == 1


class TestStats:
    def test_totals_and_tags(self, tmp_path):
        store = ResultsStore(tmp_path)
        _fill(store, count=2, tag="a")
        store.save({"other": 1}, _results(5), meta={"trials": 5, "tag": "b"})
        store.save({"untagged": 1}, _results(1))
        st = store.stats()
        assert st.artifacts == 4
        assert st.trials == 3 + 3 + 5 + 0  # untagged save has no trials meta
        assert st.total_bytes == sum(i.size_bytes for i in store.artifacts())
        assert st.by_tag["a"]["artifacts"] == 2
        assert st.by_tag["b"]["trials"] == 5
        assert "(untagged)" in st.by_tag

    def test_stale_schema_counted(self, tmp_path):
        store = ResultsStore(tmp_path)
        _fill(store, count=1)
        path = store.artifacts()[0].path
        artifact = json.loads(path.read_text())
        artifact["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(artifact))
        assert store.stats().stale_schema == 1


class TestGC:
    def test_needs_valid_thresholds(self, tmp_path):
        store = ResultsStore(tmp_path)
        with pytest.raises(ValueError):
            store.gc(max_age_seconds=-1)
        with pytest.raises(ValueError):
            store.gc(max_total_bytes=-1)

    def test_age_eviction(self, tmp_path):
        store = ResultsStore(tmp_path)
        configs = _fill(store, count=2)
        old = store.path_for(configs[0])
        past = time.time() - 3600
        os.utime(old, (past, past))
        report = store.gc(max_age_seconds=60)
        assert [i.path for i in report.evicted] == [old]
        assert report.kept == 1
        assert not old.exists()
        assert store.contains(configs[1])

    def test_size_eviction_oldest_first(self, tmp_path):
        store = ResultsStore(tmp_path)
        configs = _fill(store, count=3)
        # age them oldest -> newest in config order
        for i, config in enumerate(configs):
            t = time.time() - (100 - i)
            os.utime(store.path_for(config), (t, t))
        sizes = [i.size_bytes for i in store.artifacts()]
        budget = sum(sizes) - 1  # must evict exactly the oldest
        report = store.gc(max_total_bytes=budget)
        assert len(report.evicted) == 1
        assert report.evicted[0].path == store.path_for(configs[0])
        assert report.kept == 2
        assert report.kept_bytes <= budget

    def test_zero_budget_clears_store(self, tmp_path):
        store = ResultsStore(tmp_path)
        _fill(store, count=3)
        report = store.gc(max_total_bytes=0)
        assert len(report.evicted) == 3
        assert len(store) == 0
        # fan-out dirs pruned
        assert [p for p in store.root.iterdir() if p.is_dir()] == []

    def test_dry_run_leaves_artifacts_intact(self, tmp_path):
        store = ResultsStore(tmp_path)
        configs = _fill(store, count=3)
        before = {p: p.stat().st_mtime_ns for p in (store.path_for(c) for c in configs)}
        report = store.gc(max_total_bytes=0, dry_run=True)
        assert report.dry_run
        assert len(report.evicted) == 3
        assert report.evicted_bytes > 0
        for path, mtime in before.items():
            assert path.exists()
            assert path.stat().st_mtime_ns == mtime
        # loads still succeed afterwards
        assert all(store.load(c) is not None for c in configs)

    def test_no_policy_is_noop(self, tmp_path):
        store = ResultsStore(tmp_path)
        _fill(store, count=2)
        report = store.gc()
        assert report.evicted == []
        assert report.kept == 2

    def test_age_then_size_composition(self, tmp_path):
        store = ResultsStore(tmp_path)
        configs = _fill(store, count=3)
        old = store.path_for(configs[0])
        past = time.time() - 3600
        os.utime(old, (past, past))
        report = store.gc(max_age_seconds=60, max_total_bytes=0)
        assert len(report.evicted) == 3
        assert report.kept == 0


def test_header_fallback_skips_oversize_artifact(tmp_path, monkeypatch):
    """The full-parse fallback of the header read is bounded too."""
    store = ResultsStore(tmp_path)
    config = {"legacy": 1, "payload": ["x" * 1000] * 100}
    legacy = {"schema": SCHEMA_VERSION, "config": config, "meta": {"tag": "old"}}
    path = store.path_for(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(legacy))
    assert [info.tag for info in store.artifacts()] == ["old"]
    monkeypatch.setattr(ResultsStore, "MAX_ARTIFACT_BYTES", path.stat().st_size - 1)
    assert store.artifacts() == []
