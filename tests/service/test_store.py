"""Tests for the content-addressed stores (repro.service.store):
roundtrips, corruption detection/eviction, and the recompute path."""

import os

import pytest

from repro.service.store import ContentStore, GilStore


KEY = "a" * 64


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.put(KEY, {"compiled": [1, 2, 3]})
        assert store.get(KEY) == {"compiled": [1, 2, 3]}
        assert store.contains(KEY)
        assert store.keys() == [KEY]

    def test_miss_returns_none(self, tmp_path):
        assert ContentStore(str(tmp_path)).get(KEY) is None

    def test_overwrite(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.put(KEY, 1)
        store.put(KEY, 2)
        assert store.get(KEY) == 2

    def test_delete(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.put(KEY, 1)
        store.delete(KEY)
        assert store.get(KEY) is None
        store.delete(KEY)  # idempotent

    def test_invalid_keys_rejected(self, tmp_path):
        store = ContentStore(str(tmp_path))
        for bad in ("", "../escape", "a/b", "dot.dot"):
            with pytest.raises(ValueError):
                store.put(bad, 1)


class TestCorruption:
    def _entry_path(self, tmp_path):
        return os.path.join(str(tmp_path), KEY + ".bin")

    def test_bit_flip_evicted_and_reported(self, tmp_path):
        seen = []
        store = ContentStore(str(tmp_path), on_corrupt=lambda k, r: seen.append((k, r)))
        store.put(KEY, {"payload": "precious"})
        path = self._entry_path(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x01
        open(path, "wb").write(bytes(blob))

        assert store.get(KEY) is None          # never served
        assert not os.path.exists(path)        # evicted
        assert len(seen) == 1 and seen[0][0] == KEY

    def test_truncation_evicted_and_reported(self, tmp_path):
        seen = []
        store = ContentStore(str(tmp_path), on_corrupt=lambda k, r: seen.append(k))
        store.put(KEY, list(range(1000)))
        path = self._entry_path(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 3])

        assert store.get(KEY) is None
        assert not os.path.exists(path)
        assert seen == [KEY]

    def test_recompute_after_eviction(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.put(KEY, "v1")
        path = self._entry_path(tmp_path)
        open(path, "wb").write(b"garbage, not even a frame")
        assert store.get(KEY) is None
        # The caller's recompute-and-reput path restores service.
        store.put(KEY, "v2")
        assert store.get(KEY) == "v2"


class TestGilStore:
    def test_caches_compiled_programs(self, tmp_path):
        from repro.service.jobs import JobSpec
        from repro.service.runner import language_for

        spec = JobSpec(language="while", source="proc main() { return 41; }")
        store = GilStore(str(tmp_path))
        prog = language_for("while").compile(spec.source)
        store.put(spec.source_key(), prog)
        back = store.get(spec.source_key())
        assert back is not None
        # The cached program still runs.
        from repro.service.runner import JobRunner

        outcome = JobRunner(gil_store=store).run(spec)
        assert outcome.compile_cache_hit
        assert outcome.result.stats.paths_finished == 1


def while_prog(result):
    from repro.targets import language_for

    return language_for("while").compile(f"proc main() {{ return {result}; }}")


@pytest.fixture
def unpickles(monkeypatch):
    """Count every ``pickle.loads`` call made while the test runs."""
    import pickle

    calls = []
    real = pickle.loads

    def counting(data, *args, **kwargs):
        calls.append(data)
        return real(data, *args, **kwargs)

    monkeypatch.setattr(pickle, "loads", counting)
    return calls


class TestGilStoreDecodeSlot:
    def test_unchanged_entry_unpickled_once(self, tmp_path, unpickles):
        GilStore(str(tmp_path)).put(KEY, while_prog(1))
        store = GilStore(str(tmp_path))  # a new instance starts cold
        first = store.get(KEY)
        second = store.get(KEY)
        assert first is second
        assert len(unpickles) == 1
        assert repr(first) == repr(while_prog(1))

    def test_changed_bytes_unpickle_a_new_object(self, tmp_path, unpickles):
        store = GilStore(str(tmp_path))
        old = while_prog(1)
        store.put(KEY, old)
        # Another writer (a second incarnation) replaces the entry.
        GilStore(str(tmp_path)).put(KEY, while_prog(2))
        new = store.get(KEY)
        assert new is not old
        assert repr(new) == repr(while_prog(2))
        assert len(unpickles) == 1
        # A put of this instance refreshes the slot in turn.
        third = while_prog(3)
        store.put(KEY, third)
        assert store.get(KEY) is third
        assert len(unpickles) == 1

    @pytest.mark.parametrize("damage", ["bit flip", "truncation"])
    def test_damaged_entry_never_served_from_slot(self, tmp_path, damage):
        seen = []
        GilStore(str(tmp_path)).put(KEY, while_prog(1))
        store = GilStore(str(tmp_path), on_corrupt=lambda k, r: seen.append(k))
        assert store.get(KEY) is not None  # fills the slot
        path = os.path.join(str(tmp_path), KEY + ".bin")
        blob = bytearray(open(path, "rb").read())
        if damage == "bit flip":
            blob[-1] ^= 0x01
        else:
            del blob[len(blob) // 2 :]
        open(path, "wb").write(bytes(blob))

        assert store.get(KEY) is None
        assert not os.path.exists(path)
        assert seen == [KEY]
