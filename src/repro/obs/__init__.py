"""repro.obs — unified observability: metrics hub, health probes, export.

The layer that turns a simulation into signals:

* :mod:`repro.obs.hub` — the :class:`MetricsHub` instrument registry
  (counters, gauges, EWMA gauges, :class:`QuantileSketch` histograms,
  time series) with sub-hub label fan-in and the zero-overhead
  :class:`NullHub`.  The sketch is also the fleet's convergence-time
  distribution: the repo has one log-bucket histogram.
* :mod:`repro.obs.probe` — pull-based per-SA :class:`HealthProbe` and
  the gateway's :class:`SharedStoreProbe` / :class:`EventCoreProbe`.
* :mod:`repro.obs.sampler` — the periodic :class:`Sampler` engine
  process snapshotting probes into time series.
* :mod:`repro.obs.health` — GREEN/YELLOW/RED multi-signal voting and
  the health summary table.
* :mod:`repro.obs.export` — metrics JSONL, run manifests, and Chrome
  trace-event rendering (open in https://ui.perfetto.dev).

v2 — the *streaming* plane (live campaigns, not just post-mortems):

* :mod:`repro.obs.stream` — schema-versioned progress events, the
  durable persist-before-fold ``progress.jsonl`` ledger, and the
  :class:`CampaignView` fold that replays it.
* :mod:`repro.obs.resource` — stdlib worker resource probes (CPU, RSS,
  tracemalloc) and the slow-task cProfile hook.
* :mod:`repro.obs.flightrec` — the per-worker crash flight recorder.
* :mod:`repro.obs.top` — the ``repro top`` / ``fleet --watch``
  dashboard rendered from any ledger, live or finished.

``python -m repro obs`` / ``top`` are the CLIs over all of it;
``repro.control`` (ROADMAP) is the next consumer.

v3 — the *cross-run* plane (know when any run got worse):

* :mod:`repro.obs.archive` — the append-only run warehouse: one
  content-addressed :class:`RunSnapshot` per observed run / fleet
  aggregate / bench report, indexed by a salvageable ``runs.jsonl``.
* :mod:`repro.obs.compare` — statistical run-to-run diffing:
  bootstrap CIs on exact series, sketch-error-aware quantile bounds
  (one rule for every histogram), per-metric GREEN/YELLOW/RED verdicts
  through the health quorum.
* :mod:`repro.obs.trend` — N-run signal trajectories with EWMA control
  bands and anomaly flags.
"""

from repro.obs.archive import (
    RUN_SCHEMA,
    RunArchive,
    RunSnapshot,
    snapshot_from_bench,
    snapshot_from_fleet_run,
    snapshot_from_obs_run,
    snapshot_target,
)
from repro.obs.compare import (
    DEFAULT_POLICIES,
    DiffRow,
    MetricPolicy,
    RunDiff,
    bootstrap_delta_ci,
    diff_runs,
    distribution_bounds,
    policy_for,
    render_diff_table,
)
from repro.obs.export import (
    CHROME_TRACE_FILE,
    MANIFEST_FILE,
    MANIFEST_SCHEMA,
    METRICS_FILE,
    METRICS_SCHEMA,
    TRACE_RECORDS_FILE,
    TRACE_RECORDS_SCHEMA,
    build_manifest,
    chrome_trace_events,
    export_run,
    metrics_lines,
    read_manifest,
    read_metrics_jsonl,
    read_metrics_lines,
    read_trace_records,
    render_run_trace,
    validate_flight_dump,
    validate_manifest,
    validate_metrics_lines,
    validate_progress_file,
    validate_progress_lines,
    validate_trace_events,
    write_chrome_trace,
    write_manifest,
    write_metrics_jsonl,
    write_trace_records,
)
from repro.obs.flightrec import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    flight_path,
    load_flight,
)
from repro.obs.health import (
    DEFAULT_THRESHOLDS,
    HealthState,
    HealthThresholds,
    classify,
    health_rows,
    render_health_table,
    signal_level,
    vote,
)
from repro.obs.hub import (
    DEFAULT_EWMA_ALPHA,
    NULL_HUB,
    EwmaGauge,
    Gauge,
    HubCounter,
    MetricsHub,
    NullHub,
    QuantileSketch,
    default_hub,
    merge_rollups,
    split_label,
    use_hub,
)
from repro.obs.probe import EventCoreProbe, HealthProbe, SharedStoreProbe
from repro.obs.resource import (
    ResourceProbe,
    TaskProfiler,
    publish_task_usage,
    resource_snapshot,
)
from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL, Sampler
from repro.obs.stream import (
    EVENT_KINDS,
    PROGRESS_SCHEMA,
    CampaignStream,
    CampaignView,
    LedgerTail,
    ProgressEvent,
    ProgressLedger,
    StreamConfig,
    WorkerStatus,
    read_ledger,
)
from repro.obs.top import render_dashboard, run_top, worker_health
from repro.obs.trend import (
    DEFAULT_HISTORY_SIGNALS,
    TrendPoint,
    compute_trend,
    render_history_table,
    signal_value,
)

__all__ = [
    "CHROME_TRACE_FILE",
    "CampaignStream",
    "CampaignView",
    "DEFAULT_EWMA_ALPHA",
    "DEFAULT_HISTORY_SIGNALS",
    "DEFAULT_POLICIES",
    "DEFAULT_SAMPLE_INTERVAL",
    "DEFAULT_THRESHOLDS",
    "DiffRow",
    "EVENT_KINDS",
    "EventCoreProbe",
    "EwmaGauge",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "Gauge",
    "HealthProbe",
    "HealthState",
    "HealthThresholds",
    "HubCounter",
    "LedgerTail",
    "MANIFEST_FILE",
    "MANIFEST_SCHEMA",
    "METRICS_FILE",
    "METRICS_SCHEMA",
    "MetricPolicy",
    "MetricsHub",
    "NULL_HUB",
    "NullHub",
    "PROGRESS_SCHEMA",
    "ProgressEvent",
    "ProgressLedger",
    "QuantileSketch",
    "RUN_SCHEMA",
    "ResourceProbe",
    "RunArchive",
    "RunDiff",
    "RunSnapshot",
    "Sampler",
    "SharedStoreProbe",
    "StreamConfig",
    "TRACE_RECORDS_FILE",
    "TRACE_RECORDS_SCHEMA",
    "TaskProfiler",
    "TrendPoint",
    "WorkerStatus",
    "bootstrap_delta_ci",
    "build_manifest",
    "chrome_trace_events",
    "classify",
    "compute_trend",
    "default_hub",
    "diff_runs",
    "distribution_bounds",
    "export_run",
    "flight_path",
    "health_rows",
    "load_flight",
    "merge_rollups",
    "metrics_lines",
    "policy_for",
    "publish_task_usage",
    "read_ledger",
    "read_manifest",
    "read_metrics_jsonl",
    "read_metrics_lines",
    "read_trace_records",
    "render_dashboard",
    "render_diff_table",
    "render_health_table",
    "render_history_table",
    "render_run_trace",
    "resource_snapshot",
    "run_top",
    "signal_level",
    "signal_value",
    "snapshot_from_bench",
    "snapshot_from_fleet_run",
    "snapshot_from_obs_run",
    "snapshot_target",
    "split_label",
    "use_hub",
    "validate_flight_dump",
    "validate_manifest",
    "validate_metrics_lines",
    "validate_progress_file",
    "validate_progress_lines",
    "validate_trace_events",
    "vote",
    "worker_health",
    "write_chrome_trace",
    "write_manifest",
    "write_metrics_jsonl",
    "write_trace_records",
]
