"""Tests for the content-addressed results store."""

from __future__ import annotations

import json
import math

import pytest

from repro.runtime.store import (
    SCHEMA_VERSION,
    ResultsStore,
    canonical_json,
    content_key,
)
from repro.runtime.trials import TrialResult


class TestCanonicalJson:
    def test_key_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_tuples_and_lists_equal(self):
        assert canonical_json({"x": (1, 2)}) == canonical_json({"x": [1, 2]})

    def test_nested_sorting(self):
        a = {"outer": {"z": 1, "a": {"k": [1, 2]}}}
        b = {"outer": {"a": {"k": [1, 2]}, "z": 1}}
        assert content_key(a) == content_key(b)

    def test_value_changes_key(self):
        assert content_key({"l": 200}) != content_key({"l": 10})

    def test_rejects_non_jsonable(self):
        with pytest.raises(TypeError):
            canonical_json({"fn": lambda: None})


class TestStoreRoundTrip:
    def _results(self):
        return [
            TrialResult(index=1, value=412.5, true_size=400.0),
            TrialResult(index=2, value=float("nan"), true_size=399.0),
            TrialResult(index=3, value=388.0, true_size=398.0, stream=2),
            TrialResult(
                index=0,
                value=95.0,
                true_size=100.0,
                extra={"quality": [10.0, 50.0, 95.0]},
            ),
        ]

    def test_save_load(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = {"kind": "static_probe", "hub_seed": 7, "indices": [1, 2, 3]}
        store.save(config, self._results())
        loaded = store.load(config)
        assert loaded is not None
        assert len(loaded) == 4
        assert loaded[0].value == 412.5
        assert math.isnan(loaded[1].value)
        assert loaded[2].stream == 2
        assert loaded[3].extra == {"quality": [10.0, 50.0, 95.0]}

    def test_artifact_is_strict_json(self, tmp_path):
        """NaN results must not leak bare ``NaN`` literals into the file:
        artifacts are consumed by non-Python tooling too."""
        store = ResultsStore(tmp_path)
        config = {"kind": "x"}
        path = store.save(config, self._results())
        json.loads(
            path.read_text(),
            parse_constant=lambda token: pytest.fail(
                f"non-standard JSON literal {token!r} in artifact"
            ),
        )
        loaded = store.load(config)
        assert math.isnan(loaded[1].value)

    def test_miss_returns_none(self, tmp_path):
        assert ResultsStore(tmp_path).load({"kind": "nope"}) is None

    def test_different_config_different_artifact(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.save({"l": 200}, self._results())
        assert store.load({"l": 10}) is None
        assert len(store) == 1

    def test_invalidate(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = {"kind": "x"}
        store.save(config, self._results())
        assert store.contains(config)
        assert store.invalidate(config) is True
        assert store.load(config) is None
        assert store.invalidate(config) is False

    def test_clear(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.save({"a": 1}, self._results())
        store.save({"a": 2}, self._results())
        assert store.clear() == 2
        assert len(store) == 0

    def test_schema_mismatch_is_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = {"kind": "x"}
        path = store.save(config, self._results())
        artifact = json.loads(path.read_text())
        artifact["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(artifact))
        assert store.load(config) is None

    def test_corrupt_artifact_is_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = {"kind": "x"}
        path = store.save(config, self._results())
        path.write_text("{not json")
        assert store.load(config) is None

    def test_oversize_artifact_is_miss(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        config = {"kind": "x"}
        snapshot_config = {"snapshot": 1, "index": 3}
        paths = [
            store.save(config, self._results()),
            store.save_snapshot(snapshot_config, {"nodes": list(range(50))}),
        ]
        assert store.load(config) is not None
        assert store.load_snapshot(snapshot_config) is not None
        # The bound is checked on the file size, before anything parses.
        limit = min(path.stat().st_size for path in paths) - 1
        monkeypatch.setattr(ResultsStore, "MAX_ARTIFACT_BYTES", limit)
        monkeypatch.setattr(json, "load", None)
        assert store.load(config) is None
        assert store.load_snapshot(snapshot_config) is None
