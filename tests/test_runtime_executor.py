"""Unit tests for repro.runtime.executor — scheduling, fault tolerance,
cache integration, and metrics recording."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quadtree import CensusAccumulator, DepthCensus
from repro.runtime import (
    ChunkAutotuner,
    ExperimentSpec,
    PoolRunStats,
    ResultCache,
    RuntimeConfig,
    TrialResult,
    active_config,
    build_trials,
    execute,
    live_block_count,
    plan_chunks,
    runtime_session,
)
from repro.runtime import executor as executor_module

SPEC = ExperimentSpec(capacity=2, n_points=60, trials=5, seed=3)


# ----------------------------------------------------------------------
# fault-injection helpers (module level so they pickle to fork children)
# ----------------------------------------------------------------------

_real_run_chunk = executor_module._run_chunk


def _flaky_chunk(spec, start, count, engine="object", traced=False, shm=None):
    """A chunk runner that fails once (for chunk 0) then recovers.

    Module-level (and parameterized via the environment) so it pickles
    to pool workers by reference like the real ``_run_chunk``.
    """
    marker = os.path.join(
        os.environ["REPRO_TEST_FLAKY_DIR"], f"{start}.failed"
    )
    if start == 0 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("injected chunk failure")
    return _real_run_chunk(spec, start, count, engine, traced, shm)


def _always_failing(spec, start, count, engine="object", traced=False,
                    shm=None):
    raise RuntimeError("injected permanent failure")


def _crashing(spec, start, count, engine="object", traced=False, shm=None):
    if start == 0:
        os._exit(13)  # simulate a worker segfault / OOM kill
    return _real_run_chunk(spec, start, count, engine, traced, shm)


# ----------------------------------------------------------------------
# chunk planning
# ----------------------------------------------------------------------


class TestPlanChunks:
    def test_covers_every_trial_exactly_once(self):
        for trials in (1, 2, 7, 10, 33):
            for workers in (1, 2, 4):
                chunks = plan_chunks(trials, workers)
                covered = [
                    t for start, count in chunks
                    for t in range(start, start + count)
                ]
                assert covered == list(range(trials))

    def test_explicit_chunk_size(self):
        assert plan_chunks(10, 2, chunk_size=4) == [(0, 4), (4, 4), (8, 2)]

    def test_single_worker_single_chunk_for_small_runs(self):
        assert plan_chunks(3, 1) == [(0, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_chunks(0, 1)
        with pytest.raises(ValueError):
            plan_chunks(5, 0)
        with pytest.raises(ValueError):
            plan_chunks(5, 1, chunk_size=0)

    def test_runt_tail_merges_into_previous_chunk(self):
        # tail of 1 < 4/2: merged, last chunk grows to 5
        assert plan_chunks(9, 2, chunk_size=4) == [(0, 4), (4, 5)]
        # tail of exactly half stays its own chunk
        assert plan_chunks(10, 2, chunk_size=4) == [(0, 4), (4, 4), (8, 2)]
        # a single runt chunk (trials < chunk_size) has nothing to
        # merge into and survives
        assert plan_chunks(1, 2, chunk_size=4) == [(0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(
        trials=st.integers(min_value=1, max_value=500),
        workers=st.integers(min_value=1, max_value=16),
        chunk_size=st.one_of(
            st.none(), st.integers(min_value=1, max_value=64)
        ),
    )
    def test_plans_cover_exactly_in_order(self, trials, workers, chunk_size):
        chunks = plan_chunks(trials, workers, chunk_size)
        # contiguous, in order, no overlap, exact coverage
        expected_start = 0
        for start, count in chunks:
            assert start == expected_start
            assert count >= 1
            expected_start = start + count
        assert expected_start == trials
        # no runt tail: the last chunk is either the only one or at
        # least half the nominal size
        if chunk_size is not None and len(chunks) >= 2:
            assert chunks[-1][1] * 2 >= chunk_size


# ----------------------------------------------------------------------
# the work itself
# ----------------------------------------------------------------------


class TestBuildTrials:
    def test_split_ranges_merge_to_full_range(self):
        full = build_trials(SPEC, 0, SPEC.trials)
        first = build_trials(SPEC, 0, 2)
        rest = build_trials(SPEC, 2, 3)
        first.merge(rest)
        assert first.trials == full.trials
        assert (
            first.accumulator.count_sums == full.accumulator.count_sums
        )

    def test_collections_respect_flags(self):
        spec = ExperimentSpec(
            capacity=1, n_points=40, trials=2, seed=0,
            collect_depth=True, collect_area=True,
        )
        result = build_trials(spec, 0, 2)
        assert len(result.depth_censuses) == 2
        assert result.area_occupancy
        plain = build_trials(SPEC, 0, 2)
        assert plain.depth_censuses == [] and plain.area_occupancy == []


class TestTrialResult:
    def test_payload_roundtrip_is_exact(self):
        spec = ExperimentSpec(
            capacity=2, n_points=50, trials=3, seed=1,
            collect_depth=True, collect_area=True,
        )
        result = build_trials(spec, 0, 3)
        back = TrialResult.from_payload(spec, result.to_payload())
        assert back.accumulator.count_sums == result.accumulator.count_sums
        assert back.trials == result.trials
        assert back.depth_censuses == result.depth_censuses
        assert back.area_occupancy == result.area_occupancy

    def test_json_roundtrip_is_exact(self):
        import json

        spec = ExperimentSpec(
            capacity=2, n_points=50, trials=3, seed=1, collect_area=True
        )
        result = build_trials(spec, 0, 3)
        payload = json.loads(json.dumps(result.to_payload()))
        back = TrialResult.from_payload(spec, payload)
        assert back.area_occupancy == result.area_occupancy
        assert back.accumulator.count_sums == result.accumulator.count_sums

    def test_merge_capacity_mismatch(self):
        with pytest.raises(ValueError):
            TrialResult.empty(2).merge(TrialResult.empty(3))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("count_sums"),
            lambda p: p.__setitem__("count_sums", [1.0]),
            lambda p: p.__setitem__("trials", 99),
            lambda p: p.__setitem__(
                "depth_censuses", [{"capacity": 7, "by_depth": {}}]
            ),
            lambda p: p.__setitem__(
                "depth_censuses",
                [{"capacity": 2, "by_depth": {"0": [1]}}],
            ),
        ],
    )
    def test_from_payload_rejects_malformed(self, mutate):
        result = build_trials(SPEC, 0, SPEC.trials)
        payload = result.to_payload()
        mutate(payload)
        with pytest.raises((KeyError, TypeError, ValueError)):
            TrialResult.from_payload(SPEC, payload)

    def test_depth_censuses_roundtrip_keys_are_ints(self):
        spec = ExperimentSpec(
            capacity=1, n_points=30, trials=1, seed=0, collect_depth=True
        )
        result = build_trials(spec, 0, 1)
        back = TrialResult.from_payload(spec, result.to_payload())
        census = back.depth_censuses[0]
        assert isinstance(census, DepthCensus)
        assert all(isinstance(d, int) for d in census.by_depth)


# ----------------------------------------------------------------------
# execute(): serial, parallel, cached
# ----------------------------------------------------------------------


class TestExecuteSerial:
    def test_matches_build_trials(self):
        config = RuntimeConfig(workers=1)
        result = execute(SPEC, config)
        direct = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == direct.accumulator.count_sums
        report = config.report()
        assert report.trees_built == SPEC.trials
        assert report.cache_misses == 1
        assert all(c.mode == "serial" for c in report.chunks)

    def test_default_config_when_none_active(self):
        assert active_config() is None
        result = execute(SPEC)
        assert result.trials == SPEC.trials


class TestExecuteParallel:
    def test_pool_runs_and_matches_serial(self):
        config = RuntimeConfig(workers=2, chunk_size=2)
        result = execute(SPEC, config)
        serial = execute(SPEC, RuntimeConfig(workers=1))
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        report = config.report()
        assert report.workers == 2
        assert sum(c.trials for c in report.chunks) == SPEC.trials
        assert all(c.mode == "pool" for c in report.chunks)

    def test_failed_chunk_retries_once_then_succeeds(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        monkeypatch.setattr(executor_module, "_run_chunk", _flaky_chunk)
        config = RuntimeConfig(workers=2, chunk_size=2)
        result = execute(SPEC, config)
        serial = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        report = config.report()
        assert report.retries == 1
        assert all(c.mode == "pool" for c in report.chunks)

    def test_permanent_chunk_failure_degrades_in_process(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_run_chunk", _always_failing)
        config = RuntimeConfig(workers=2, chunk_size=2)
        result = execute(SPEC, config)
        serial = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        report = config.report()
        assert report.retries == len(report.chunks)
        assert all(c.mode == "degraded" for c in report.chunks)

    def test_worker_crash_degrades_gracefully(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
        config = RuntimeConfig(workers=2, chunk_size=2)
        result = execute(SPEC, config)
        serial = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        assert any(c.mode == "degraded" for c in config.report().chunks)

    def test_pool_unavailable_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", no_pool
        )
        config = RuntimeConfig(workers=4, chunk_size=2)
        result = execute(SPEC, config)
        serial = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        assert all(c.mode == "degraded" for c in config.report().chunks)


class TestBrokenPoolShortCircuit:
    """A dead pool must not see resubmissions: the crashed chunk and
    every surviving future go straight to in-process rescue, and the
    retry counter stays honest (regression for the old behavior of one
    futile in-pool retry per surviving chunk)."""

    def test_crash_counts_zero_retries(self, monkeypatch):
        from repro.obs import Tracer

        monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
        tracer = Tracer()
        config = RuntimeConfig(workers=2, chunk_size=2, tracer=tracer)
        result = execute(SPEC, config)
        serial = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        report = config.report()
        # the crash breaks the pool: no in-pool retries are attempted
        assert report.retries == 0
        assert tracer.counters.get("runtime.retry", 0) == 0
        assert tracer.counters.get("runtime.pool_broken", 0) >= 1
        assert all(c.mode == "degraded" for c in report.chunks)

    def test_ordinary_failures_still_retry_in_pool(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_run_chunk", _always_failing)
        config = RuntimeConfig(workers=2, chunk_size=2)
        execute(SPEC, config)
        report = config.report()
        # picklable exceptions do not break the pool: one retry each
        assert report.retries == len(report.chunks)

    def test_session_pool_recreated_after_break(self, monkeypatch):
        with runtime_session(workers=2, chunk_size=2) as config:
            monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
            execute(SPEC)
            assert not config.persistent_pool().is_live
            monkeypatch.setattr(
                executor_module, "_run_chunk", _real_run_chunk
            )
            result = execute(SPEC)
            assert config.persistent_pool().is_live
        serial = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums


class TestPersistentPool:
    def test_session_reuses_one_pool_across_executes(self):
        with runtime_session(workers=2, chunk_size=2) as config:
            execute(SPEC)
            first = config.persistent_pool()._pool
            assert first is not None
            execute(SPEC)
            assert config.persistent_pool()._pool is first
        # session exit stops the workers
        assert config.persistent_pool()._pool is None

    def test_adhoc_execute_does_not_leave_workers(self):
        config = RuntimeConfig(workers=2, chunk_size=2)
        execute(SPEC, config)
        # a per-call pool was used; nothing persistent was created
        assert config._pool is None

    def test_width_change_recreates(self):
        from repro.runtime import PersistentPool

        holder = PersistentPool()
        pool2 = holder.acquire(2)
        assert holder.acquire(2) is pool2
        pool3 = holder.acquire(3)
        assert pool3 is not pool2
        holder.shutdown()
        assert holder._pool is None


class TestSharedMemoryLifecycle:
    def test_no_blocks_leak_on_normal_run(self):
        with runtime_session(workers=2, chunk_size=2, engine="vector"):
            execute(SPEC)
        assert live_block_count() == 0

    def test_no_blocks_leak_on_worker_crash(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
        execute(SPEC, RuntimeConfig(workers=2, chunk_size=2))
        assert live_block_count() == 0

    def test_no_blocks_leak_on_permanent_failure(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_run_chunk", _always_failing)
        execute(SPEC, RuntimeConfig(workers=2, chunk_size=2))
        assert live_block_count() == 0

    def test_pool_spin_up_waits_for_the_tracker(self):
        """Acquiring a pool boots the resource tracker and waits until
        it has read its pipe, so no run pays for the boot — also after
        the tracker was stopped between two pools."""
        import array
        import fcntl
        import termios
        from multiprocessing import resource_tracker

        from repro.runtime import PersistentPool

        tracker = resource_tracker._resource_tracker
        assert live_block_count() == 0
        for _ in range(2):
            tracker._stop()
            assert tracker._pid is None
            holder = PersistentPool()
            try:
                holder.acquire(2)
                pid = tracker._pid
                assert pid is not None
                assert os.waitpid(pid, os.WNOHANG) == (0, 0)
                unread = array.array("i", [1])
                fcntl.ioctl(tracker._fd, termios.FIONREAD, unread)
                assert unread[0] == 0
            finally:
                holder.shutdown()

    def test_shm_creation_failure_falls_back_to_regeneration(
        self, monkeypatch
    ):
        def no_shm(*args, **kwargs):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(
            executor_module.SharedPointBlock, "create", no_shm
        )
        config = RuntimeConfig(workers=2, chunk_size=2)
        result = execute(SPEC, config)
        serial = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        assert all(c.mode == "pool" for c in config.report().chunks)

    def test_no_resource_tracker_warnings(self):
        """The interpreter must exit without shared_memory leak
        warnings, both on clean pooled runs and crash rescues."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import os
            from repro.runtime import (
                ExperimentSpec, RuntimeConfig, execute, runtime_session,
            )
            from repro.runtime import executor as executor_module

            spec = ExperimentSpec(capacity=2, n_points=60, trials=5, seed=3)
            with runtime_session(workers=2, chunk_size=2, engine="vector"):
                execute(spec)

            def crashing(spec, start, count, engine="object", traced=False,
                         shm=None):
                os._exit(13)

            executor_module._run_chunk = crashing
            execute(spec, RuntimeConfig(workers=2, chunk_size=2))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestEngineFallbackSignal:
    SPEC_AREA = ExperimentSpec(
        capacity=2, n_points=40, trials=2, seed=1, collect_area=True
    )

    def test_counter_emitted_for_area_specs_on_vector(self):
        from repro.obs import Tracer

        tracer = Tracer()
        config = RuntimeConfig(engine="vector", tracer=tracer)
        execute(self.SPEC_AREA, config)
        assert tracer.counters.get("runtime.engine_fallback") == 1

    def test_no_counter_when_engine_applies(self):
        from repro.obs import Tracer

        tracer = Tracer()
        config = RuntimeConfig(engine="vector", tracer=tracer)
        execute(SPEC, config)
        assert "runtime.engine_fallback" not in tracer.counters

    def test_verbose_note_printed_once(self, capsys):
        config = RuntimeConfig(engine="vector", verbose=True)
        execute(self.SPEC_AREA, config)
        execute(self.SPEC_AREA, config)
        err = capsys.readouterr().err
        assert err.count("cannot collect leaf areas") == 1

    def test_quiet_without_verbose(self, capsys):
        execute(self.SPEC_AREA, RuntimeConfig(engine="vector"))
        assert "leaf areas" not in capsys.readouterr().err


class TestChunkAutotuner:
    @staticmethod
    def stats(**overrides):
        base = dict(
            workers=2, chunk_size=4, chunk_count=8, pool_elapsed=1.0,
            mean_busy_fraction=0.9, straggler_ratio=1.1,
            rescue_fraction=0.0,
        )
        base.update(overrides)
        return PoolRunStats(**base)

    def test_no_suggestion_before_first_observation(self):
        tuner = ChunkAutotuner()
        assert tuner.suggest(100, 2) is None

    def test_low_busy_doubles(self):
        tuner = ChunkAutotuner()
        tuner.observe(self.stats(mean_busy_fraction=0.3))
        assert tuner.suggest(100, 2) == 8

    def test_high_straggler_halves(self):
        tuner = ChunkAutotuner()
        tuner.observe(self.stats(straggler_ratio=2.0))
        assert tuner.suggest(100, 2) == 2

    def test_balanced_run_locks_in(self):
        tuner = ChunkAutotuner()
        tuner.observe(self.stats())
        assert tuner.suggest(100, 2) == 4

    def test_rescued_runs_are_ignored(self):
        tuner = ChunkAutotuner()
        tuner.observe(self.stats(
            mean_busy_fraction=0.1, rescue_fraction=0.5
        ))
        assert tuner.suggest(100, 2) is None

    def test_suggestion_clamps_to_run_shape(self):
        tuner = ChunkAutotuner()
        tuner.observe(self.stats(chunk_size=64, mean_busy_fraction=0.3))
        assert tuner.suggestion == 128
        # 10 trials / 2 workers: never fewer than one chunk per worker
        assert tuner.suggest(10, 2) == 5
        assert tuner.suggest(1000, 2) == 128

    def test_chunk_size_one_never_halves_to_zero(self):
        tuner = ChunkAutotuner()
        tuner.observe(self.stats(chunk_size=1, straggler_ratio=5.0))
        assert tuner.suggest(100, 2) == 1

    def test_pooled_session_feeds_the_autotuner(self):
        spec = ExperimentSpec(capacity=2, n_points=40, trials=12, seed=5)
        with runtime_session(workers=2) as config:
            execute(spec)
            assert config.autotuner().suggestion is not None

    def test_autotune_off_keeps_static_default(self):
        spec = ExperimentSpec(capacity=2, n_points=40, trials=12, seed=5)
        with runtime_session(workers=2, autotune=False) as config:
            execute(spec)
            assert config._autotuner is None


class TestExecuteCache:
    def _config(self, tmp_path, **kwargs):
        return RuntimeConfig(
            use_cache=True, cache_dir=str(tmp_path / "cache"), **kwargs
        )

    def test_second_run_builds_zero_trees(self, tmp_path):
        cold = self._config(tmp_path)
        execute(SPEC, cold)
        assert cold.report().cache_misses == 1
        warm = self._config(tmp_path)
        result = execute(SPEC, warm)
        report = warm.report()
        assert report.cache_hits == 1
        assert report.trees_built == 0
        assert report.chunks == []
        direct = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == direct.accumulator.count_sums

    def test_cached_result_is_bit_identical(self, tmp_path):
        spec = ExperimentSpec(
            capacity=3, n_points=80, trials=4, seed=9,
            collect_depth=True, collect_area=True,
        )
        cold = execute(spec, self._config(tmp_path))
        warm = execute(spec, self._config(tmp_path))
        assert warm.accumulator.count_sums == cold.accumulator.count_sums
        assert warm.depth_censuses == cold.depth_censuses
        assert warm.area_occupancy == cold.area_occupancy

    def test_malformed_cached_payload_reexecutes(self, tmp_path):
        config = self._config(tmp_path)
        execute(SPEC, config)
        # corrupt the *payload* while keeping the entry envelope valid
        cache = ResultCache(config.cache_dir)
        entry = cache.load(SPEC)
        entry["count_sums"] = [1.0]  # wrong arity for the capacity
        cache.store(SPEC, entry)
        rerun = self._config(tmp_path)
        result = execute(SPEC, rerun)
        assert rerun.report().cache_misses == 1
        assert result.trials == SPEC.trials

    def test_cache_disabled_never_touches_disk(self, tmp_path):
        config = RuntimeConfig(
            use_cache=False, cache_dir=str(tmp_path / "cache")
        )
        execute(SPEC, config)
        assert not (tmp_path / "cache").exists()

    def test_parallel_run_populates_cache_for_serial_reader(self, tmp_path):
        execute(SPEC, self._config(tmp_path, workers=2, chunk_size=2))
        warm = self._config(tmp_path)
        execute(SPEC, warm)
        assert warm.report().cache_hits == 1


class TestRuntimeSession:
    def test_session_is_ambient_and_restored(self):
        assert active_config() is None
        with runtime_session(workers=1) as config:
            assert active_config() is config
            result = execute(SPEC)
            assert result.trials == SPEC.trials
            assert config.report().cache_misses == 1
        assert active_config() is None

    def test_sessions_nest(self):
        with runtime_session(workers=1) as outer:
            with runtime_session(workers=2) as inner:
                assert active_config() is inner
            assert active_config() is outer

    def test_config_object_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            with runtime_session(RuntimeConfig(), workers=2):
                pass

    def test_session_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with runtime_session(workers=1):
                raise RuntimeError("boom")
        assert active_config() is None


class TestRuntimeConfig:
    def test_result_cache_is_lazy_and_reused(self, tmp_path):
        config = RuntimeConfig(cache_dir=str(tmp_path))
        assert config._cache is None
        cache = config.result_cache()
        assert cache is config.result_cache()
        assert cache.directory == tmp_path
