"""The obs layer threaded through the runtime, harness, and solvers:
spans land where the ISSUE says the time goes, counters expose the
quadtree's structural events, and ``RunReport`` renders the tree."""

import numpy as np
import pytest

from repro import obs
from repro.core.fixed_point import solve, solve_fixed_point_iteration
from repro.core.transform import transform_matrix
from repro.experiments.harness import run_trials
from repro.obs import Tracer, tracing
from repro.runtime import (
    ExperimentSpec,
    RuntimeConfig,
    execute,
    runtime_session,
)

SPEC = ExperimentSpec(capacity=4, n_points=120, trials=3, seed=5)


def _traced_config(**kwargs) -> RuntimeConfig:
    return RuntimeConfig(tracer=Tracer(), **kwargs)


class TestExecutorSpans:
    def test_execute_records_the_span_tree(self):
        config = _traced_config()
        execute(SPEC, config)
        t = config.tracer
        execute_node = t.roots["runtime.execute"]
        assert execute_node.count == 1
        build = execute_node.children["runtime.build"]
        chunk = build.children["chunk.serial"]
        assert chunk.children["trial.build"].count == SPEC.trials
        assert chunk.children["trial.census"].count == SPEC.trials

    def test_tree_counters_and_gauges(self):
        config = _traced_config()
        execute(SPEC, config)
        t = config.tracer
        assert t.counters["tree.built"] == SPEC.trials
        assert t.counters["tree.splits"] > 0
        assert t.counters["tree.replace_scans"] == 0
        assert t.gauges["tree.max_depth"].max >= 1

    def test_cache_hit_and_miss_counters(self, tmp_path):
        config = _traced_config(use_cache=True, cache_dir=tmp_path)
        execute(SPEC, config)
        execute(SPEC, config)
        t = config.tracer
        assert t.counters["cache.miss"] == 1
        assert t.counters["cache.hit"] == 1
        # the warm run built nothing
        assert t.counters["tree.built"] == SPEC.trials
        load = t.roots["runtime.execute"].children["cache.load"]
        assert load.count == 2
        store = t.roots["runtime.execute"].children["cache.store"]
        assert store.count == 1

    def test_runtime_session_installs_the_tracer(self):
        config = _traced_config()
        with runtime_session(config):
            assert obs.active_tracer() is config.tracer
            execute(SPEC)
        assert obs.active_tracer() is None
        assert config.tracer.counters["tree.built"] == SPEC.trials

    def test_untraced_run_records_nothing_ambient(self):
        execute(SPEC, RuntimeConfig())
        assert obs.active_tracer() is None


class TestHarnessSpans:
    def test_legacy_path_is_instrumented_too(self):
        def factory(seed):
            from repro.workloads import UniformPoints
            return UniformPoints(seed=seed)

        with tracing() as t:
            run_trials(4, n_points=60, trials=2, generator_factory=factory)
        assert t.roots["trial.build"].count == 2
        assert t.counters["tree.built"] == 2


class TestSolverInstrumentation:
    def test_fixed_point_gauges(self):
        matrix = transform_matrix(4)
        with tracing() as t:
            solve_fixed_point_iteration(matrix)
        assert t.roots["solver.fixed_point"].count == 1
        iters = t.gauges["solver.fixed_point.iterations"]
        assert iters.last >= 1
        assert t.gauges["solver.fixed_point.residual"].last < 1e-8

    @pytest.mark.parametrize("method", ["eigen", "newton"])
    def test_direct_solvers_record_spans_and_residuals(self, method):
        matrix = transform_matrix(3)
        with tracing() as t:
            solve(matrix, method=method)
        assert t.roots[f"solver.{method}"].count == 1
        assert t.gauges[f"solver.{method}.residual"].last < 1e-8

    def test_solvers_work_untraced(self):
        matrix = np.asarray(transform_matrix(2))
        state = solve_fixed_point_iteration(matrix)
        assert state.distribution.sum() == pytest.approx(1.0)


class TestRunReportTrace:
    def test_report_carries_the_tracer(self):
        config = _traced_config()
        execute(SPEC, config)
        report = config.report()
        assert report.trace is config.tracer
        summary = report.summary()
        assert "span tree:" in summary
        assert "runtime.execute" in summary
        assert "tree.splits" in summary

    def test_report_without_tracer_is_unchanged(self):
        config = RuntimeConfig()
        execute(SPEC, config)
        report = config.report()
        assert report.trace is None
        assert "span tree:" not in report.summary()

    def test_report_with_empty_tracer_omits_trace(self):
        config = _traced_config()
        assert config.report().trace is None


class TestWorkerTelemetry:
    """Pool workers run traced; their snapshots merge back as
    ``worker.N`` subtrees with utilization gauges."""

    POOL_SPEC = ExperimentSpec(capacity=4, n_points=100, trials=4, seed=7)

    def _pooled(self):
        config = _traced_config(workers=2, chunk_size=1)
        result = execute(self.POOL_SPEC, config)
        return config.tracer, result

    def test_worker_subtrees_mounted_under_build(self):
        t, _ = self._pooled()
        build = t.roots["runtime.execute"].children["runtime.build"]
        workers = sorted(n for n in build.children if n.startswith("worker."))
        assert workers and workers[0] == "worker.0"
        w0 = build.children["worker.0"]
        assert "trial.build" in w0.children
        assert "trial.census" in w0.children
        assert w0.children["trial.build"].count >= 1

    def test_worker_counters_fold_into_coordinator_totals(self):
        t, result = self._pooled()
        # pre-v2, pooled traced runs reported tree.built == 0 because
        # workers ran untraced; now the counts come home with the chunks
        assert t.counters["tree.built"] == self.POOL_SPEC.trials
        assert t.counters["tree.splits"] > 0
        assert result.trials == self.POOL_SPEC.trials

    def test_utilization_gauges(self):
        t, _ = self._pooled()
        busy = t.gauges["pool.worker.busy_fraction"]
        assert busy.count >= 1
        assert 0.0 < busy.max <= 1.5  # timer skew can nudge past 1.0
        straggler = t.gauges["pool.straggler_ratio"]
        assert straggler.last >= 1.0
        assert t.gauges["pool.workers_used"].last >= 1

    def test_chunk_transport_splits_into_dispatch_and_collect(self):
        t, _ = self._pooled()
        build = t.roots["runtime.execute"].children["runtime.build"]
        # workers draw their own points: the coordinator generates none
        assert "pool.generate" not in build.children
        chunks = build.children["chunk.pool"].count
        assert chunks == self.POOL_SPEC.trials
        assert build.children["pool.dispatch"].count == chunks
        assert build.children["pool.collect"].count <= chunks
        assert build.children["pool.collect"].count >= 1

    def test_pooled_trace_exports_to_chrome(self):
        import json

        from repro.obs import export_chrome_trace

        t, _ = self._pooled()
        doc = export_chrome_trace(t)
        json.dumps(doc, allow_nan=False)
        spans = [e for e in doc["traceEvents"] if e.get("cat") == "span"]
        assert all(
            e["ph"] == "X" and "ts" in e and "dur" in e for e in spans
        )
        worker_tids = {
            e["tid"] for e in spans if e["name"].startswith("worker.")
        }
        assert worker_tids and 0 not in worker_tids

    def test_untraced_pooled_run_ships_no_snapshots(self):
        from repro.runtime.executor import _run_chunk

        outcome = _run_chunk(self.POOL_SPEC, 0, 2)
        assert outcome.trace is None
        assert outcome.pid > 0

    def test_traced_chunk_carries_its_snapshot(self):
        from repro.runtime.executor import _run_chunk

        outcome = _run_chunk(self.POOL_SPEC, 0, 2, "object", True)
        assert outcome.trace is not None
        assert outcome.trace["spans"]["trial.build"]["count"] == 2
        assert outcome.trace["counters"]["tree.built"] == 2


class TestCacheHitRatio:
    def test_ratio_property_and_summary_line(self, tmp_path):
        config = _traced_config(use_cache=True, cache_dir=tmp_path)
        execute(SPEC, config)
        execute(SPEC, config)
        report = config.report()
        assert report.cache_hit_ratio == pytest.approx(0.5)
        assert "50% hit ratio" in report.summary()

    def test_run_end_gauge_recorded_on_traced_runs(self, tmp_path):
        config = _traced_config(use_cache=True, cache_dir=tmp_path)
        execute(SPEC, config)
        execute(SPEC, config)
        config.report()
        gauge = config.tracer.gauges["cache.hit_ratio"]
        assert gauge.last == pytest.approx(0.5)

    def test_no_runs_means_zero_ratio(self):
        from repro.runtime.metrics import RunReport

        assert RunReport().cache_hit_ratio == 0.0


class TestCliVerbose:
    def test_verbose_prints_span_tree(self, capsys, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1", "--trials", "1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "run report:" in out
        assert "span tree:" in out
        assert "trial.build" in out

    def test_quiet_run_prints_no_report(self, capsys, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "span tree:" not in out
