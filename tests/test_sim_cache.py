"""Tests for the canonical-assignment-keyed EvaluationCache and for the
batched+cached search path's equivalence with the scalar path."""

import numpy as np
import pytest

from repro.core import OraclePredictor, RankMap, RankMapConfig
from repro.hw import orange_pi_5
from repro.mapping import Mapping, gpu_only_mapping, uniform_block_mapping
from repro.search import MCTSConfig
from repro.search.mcts import MCTS
from repro.sim import EvaluationCache, simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()


def wl(*names):
    return [get_model(n) for n in names]


def mappings_for(workload, n, seed=0):
    rng = np.random.default_rng(seed)
    return [uniform_block_mapping(workload, PLATFORM.num_components, rng)
            for _ in range(n)]


class TestEvaluationCache:
    def test_matches_simulator(self):
        workload = wl("alexnet", "squeezenet_v2")
        cache = EvaluationCache(PLATFORM)
        for mapping in mappings_for(workload, 4):
            got = cache.simulate_one(workload, mapping)
            want = simulate(workload, mapping, PLATFORM)
            np.testing.assert_allclose(got.rates, want.rates)

    def test_hits_and_misses_counted(self):
        workload = wl("alexnet", "mobilenet")
        maps = mappings_for(workload, 3)
        cache = EvaluationCache(PLATFORM)
        cache.simulate(workload, maps)
        assert (cache.hits, cache.misses) == (0, 3)
        cache.simulate(workload, maps[:2])
        assert (cache.hits, cache.misses) == (2, 3)
        assert cache.hit_rate == pytest.approx(2 / 5)

    def test_key_canonical_across_instances(self):
        """Two Mapping objects with equal assignments share one entry."""
        workload = wl("alexnet", "mobilenet")
        mapping = gpu_only_mapping(workload)
        clone = Mapping(tuple(tuple(list(a)) for a in mapping.assignments))
        assert clone is not mapping
        cache = EvaluationCache(PLATFORM)
        first = cache.simulate_one(workload, mapping)
        second = cache.simulate_one(workload, clone)
        assert second is first
        assert len(cache) == 1 and cache.hits == 1

    def test_workload_order_significant(self):
        a, b = wl("alexnet", "mobilenet")
        key_fwd = EvaluationCache.key([a, b], gpu_only_mapping([a, b]))
        key_rev = EvaluationCache.key([b, a], gpu_only_mapping([b, a]))
        assert key_fwd != key_rev

    def test_duplicates_in_one_call_solved_once(self):
        workload = wl("alexnet", "mobilenet")
        mapping = gpu_only_mapping(workload)
        cache = EvaluationCache(PLATFORM)
        results = cache.simulate(workload, [mapping, mapping, mapping])
        assert len(cache) == 1
        assert results[0] is results[1] is results[2]

    def test_lru_eviction(self):
        workload = wl("alexnet", "mobilenet")
        m1, m2, m3 = mappings_for(workload, 3)
        cache = EvaluationCache(PLATFORM, maxsize=2)
        cache.simulate(workload, [m1, m2])
        cache.simulate_one(workload, m1)      # refresh m1; m2 now oldest
        cache.simulate_one(workload, m3)      # evicts m2
        assert len(cache) == 2
        hits = cache.hits
        cache.simulate_one(workload, m2)      # miss: was evicted
        assert cache.hits == hits and cache.misses == 4

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            EvaluationCache(PLATFORM, maxsize=0)

    def test_key_is_model_names_and_assignments(self):
        workload = wl("alexnet", "mobilenet")
        mapping = gpu_only_mapping(workload)
        assert EvaluationCache.key(workload, mapping) \
            == (("alexnet", "mobilenet"), mapping.assignments)

    def test_clear(self):
        workload = wl("alexnet",)
        cache = EvaluationCache(PLATFORM)
        cache.simulate_one(workload, gpu_only_mapping(workload))
        cache.clear()
        assert len(cache) == 0


class TestCachePersistence:
    def _primed_cache(self, workload, n=4):
        cache = EvaluationCache(PLATFORM)
        cache.simulate(workload, mappings_for(workload, n))
        return cache

    def test_save_load_round_trip(self, tmp_path):
        workload = wl("alexnet", "mobilenet")
        maps = mappings_for(workload, 4)
        cache = EvaluationCache(PLATFORM)
        originals = cache.simulate(workload, maps)
        path = tmp_path / "cache.pkl"
        assert cache.save(path) == 4

        loaded = EvaluationCache.load(path, PLATFORM)
        assert len(loaded) == 4
        results = loaded.simulate(workload, maps)
        assert loaded.misses == 0 and loaded.hits == 4
        for got, want in zip(results, originals):
            np.testing.assert_array_equal(got.rates, want.rates)

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        """A save whose pickling fails raises and removes its temp file,
        leaving the previous cache file as it was."""
        import pickle

        workload = wl("alexnet", "mobilenet")
        cache = self._primed_cache(workload)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        before = path.read_bytes()
        cache._store[("unpicklable",)] = lambda: None
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.save(path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == before

    def test_load_refuses_foreign_platform(self, tmp_path):
        from repro.hw import jetson_class

        workload = wl("alexnet",)
        cache = self._primed_cache(workload)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        with pytest.raises(ValueError, match="refusing to load"):
            EvaluationCache.load(path, jetson_class())

    def test_load_refuses_unknown_version(self, tmp_path):
        import pickle

        workload = wl("alexnet",)
        cache = self._primed_cache(workload)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 999
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            EvaluationCache.load(path, PLATFORM)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_load_refuses_pre_backend_v1_files(self, tmp_path, version):
        """Files older than format v4 refuse to load (the runner then
        downgrades to a cold start); v2 keys carry a solver tag that no
        later lookup can match, and v3 solutions carry per-stage arrays
        the solver no longer returns."""
        import pickle

        workload = wl("alexnet",)
        cache = self._primed_cache(workload)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = version
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            EvaluationCache.load(path, PLATFORM)

    @pytest.mark.parametrize("damage", ["missing_module", "truncated",
                                        "garbage"])
    def test_load_wraps_unpickling_errors(self, tmp_path, damage):
        """Whatever unpickling raises (``ModuleNotFoundError``,
        ``EOFError``, ``UnpicklingError``, ...) reaches the caller as one
        ``ValueError`` with the cause chained."""
        path = tmp_path / "cache.pkl"
        self._primed_cache(wl("alexnet",)).save(path)
        data = {"missing_module": b"cno_such_module_anywhere\nEntry\n.",
                "truncated": path.read_bytes()[:40],
                "garbage": b"not a pickle at all"}[damage]
        path.write_bytes(data)
        with pytest.raises(ValueError, match="corrupt cache file") as info:
            EvaluationCache.load(path, PLATFORM)
        assert info.value.__cause__ is not None

    @pytest.mark.parametrize("shape", ["list", "no_entries", "bad_entries"])
    def test_load_refuses_malformed_payload(self, tmp_path, shape):
        import pickle

        from repro.sim import platform_fingerprint
        from repro.sim.cache import _CACHE_FORMAT_VERSION

        header = {"version": _CACHE_FORMAT_VERSION,
                  "fingerprint": platform_fingerprint(PLATFORM)}
        payload = {"list": ["not", "a", "dict"],
                   "no_entries": header,
                   "bad_entries": {**header, "entries": [1]}}[shape]
        path = tmp_path / "cache.pkl"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError):
            EvaluationCache.load(path, PLATFORM)

    def test_load_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EvaluationCache.load(tmp_path / "absent.pkl", PLATFORM)

    def test_load_respects_maxsize(self, tmp_path):
        workload = wl("alexnet", "mobilenet")
        cache = self._primed_cache(workload, n=6)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        loaded = EvaluationCache.load(path, PLATFORM, maxsize=3)
        assert len(loaded) == 3

    def test_fingerprint_stable_across_rebuilds(self):
        from repro.sim import platform_fingerprint

        assert platform_fingerprint(orange_pi_5()) \
            == platform_fingerprint(orange_pi_5())

    def test_fingerprint_values_are_pinned(self):
        """Cache files and estimator artifacts saved by earlier builds
        carry these digests, so they must not move."""
        from repro.hw import jetson_class
        from repro.sim import platform_fingerprint

        assert platform_fingerprint(orange_pi_5()) == "2f089cda4676eefa"
        assert platform_fingerprint(jetson_class()) == "b05177e5f9639dca"

    def test_fingerprint_tracks_parameters(self):
        import dataclasses

        from repro.sim import platform_fingerprint

        tweaked = dataclasses.replace(
            PLATFORM,
            link=dataclasses.replace(PLATFORM.link, latency_s=12.5))
        assert platform_fingerprint(tweaked) \
            != platform_fingerprint(PLATFORM)

    def test_reloaded_cache_warms_first_repeated_plan(self, tmp_path):
        """Acceptance: a persisted cache answers the first repeated plan
        with hit_rate > 0 in a fresh cache instance."""
        workload = wl("alexnet", "squeezenet_v2")
        cache = EvaluationCache(PLATFORM)
        manager = RankMap(
            PLATFORM, OraclePredictor(PLATFORM, cache=cache),
            RankMapConfig(mode="dynamic",
                          mcts=MCTSConfig(iterations=10,
                                          rollouts_per_leaf=2)))
        first = manager.plan(workload)
        path = tmp_path / "cache.pkl"
        cache.save(path)

        fresh = EvaluationCache.load(path, PLATFORM)
        manager2 = RankMap(
            PLATFORM, OraclePredictor(PLATFORM, cache=fresh),
            RankMapConfig(mode="dynamic",
                          mcts=MCTSConfig(iterations=10,
                                          rollouts_per_leaf=2)))
        second = manager2.plan(workload)
        assert fresh.hit_rate > 0
        assert second.mapping == first.mapping


class TestBatchedCachedSearchEquivalence:
    """Acceptance: the batched+cached MCTS plan produces identical
    best_reward (same seed) to the scalar simulate path."""

    def _run_search(self, workload, evaluator, seed=3):
        cfg = MCTSConfig(iterations=30, rollouts_per_leaf=3, seed=seed)
        search = MCTS(workload, PLATFORM.num_components, evaluator, cfg)
        return search.search()

    def test_best_reward_identical_to_scalar_path(self):
        workload = wl("alexnet", "squeezenet_v2", "resnet50")
        priorities = np.full(len(workload), 1 / len(workload))

        def scalar_evaluator(mappings):
            return np.array([
                simulate(workload, m, PLATFORM).rates @ priorities
                for m in mappings
            ])

        oracle = OraclePredictor(PLATFORM)  # batched + cached

        def cached_evaluator(mappings):
            return oracle.predict_batch(workload, mappings) @ priorities

        best_scalar, stats_scalar = self._run_search(workload,
                                                     scalar_evaluator)
        best_cached, stats_cached = self._run_search(workload,
                                                     cached_evaluator)
        assert stats_cached.best_reward == stats_scalar.best_reward
        assert best_cached == best_scalar
        assert stats_cached.evaluations == stats_scalar.evaluations

    def test_repeated_plan_hits_cache_and_is_deterministic(self):
        """Acceptance: cache hit-rate > 0 across repeated plans."""
        workload = wl("alexnet", "squeezenet_v2", "resnet50")
        cache = EvaluationCache(PLATFORM)
        manager = RankMap(
            PLATFORM, OraclePredictor(PLATFORM, cache=cache),
            RankMapConfig(mode="dynamic",
                          mcts=MCTSConfig(iterations=20,
                                          rollouts_per_leaf=3)),
        )
        first = manager.plan(workload)
        first_reward = manager.last_stats.best_reward
        assert cache.hits == 0 or cache.hit_rate < 1.0
        second = manager.plan(workload)
        assert cache.hits > 0
        assert cache.hit_rate > 0
        assert second.mapping == first.mapping
        assert manager.last_stats.best_reward == first_reward

    def test_predictor_rejects_foreign_cache(self):
        from repro.hw import jetson_class

        with pytest.raises(ValueError):
            OraclePredictor(PLATFORM, cache=EvaluationCache(jetson_class()))
