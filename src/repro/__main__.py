"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments [ids...]`` — run experiments (default: all) and print the
  paper-style tables (the ``EXPERIMENTS`` registry in
  ``repro.experiments.runall``).  ``--only eNN`` selects experiments
  (repeatable; equivalent to the positional ids), ``--jobs N`` runs each
  sweep through a fleet worker pool, and ``--resume`` persists per-task
  records under ``--out`` so an interrupted suite picks up where it
  stopped.
* ``check [--budget N]`` — model-check the protocol specs in the standard
  bounded configurations and print SAFE / COUNTEREXAMPLE per case.
* ``demo`` — the quickstart scenario, one screenful.
* ``spec {unprotected,savefetch,ceiling}`` — print the APN spec inventory
  in the paper's notation style.
* ``fleet <spec.json>`` — run a multi-session campaign (``--jobs N`` for
  a worker pool, ``--out DIR`` for the durable result store, ``--store
  jsonl|sharded`` to pick the store backend, ``--sample N`` to
  run a deterministic subsample of a huge campaign; re-running the same
  spec resumes, whatever the backend).  ``--stream`` appends live
  progress events to ``<out>/progress.jsonl`` (plus per-worker crash
  flight recorders); ``--watch`` implies it and renders the refreshing
  ``top`` dashboard instead of the line printer; ``--profile-slow``
  cProfile-dumps tasks slower than the running 95th percentile;
  ``--trace-malloc`` adds per-task allocation peaks to worker
  heartbeats.  ``fleet --sample`` with no spec prints an example spec.
* ``top <run-dir>`` — terminal dashboard over a campaign's progress
  ledger: throughput, ETA, per-worker GREEN/YELLOW/RED health, worst
  outliers.  Follows a live ledger until the campaign finishes
  (``--once`` renders a single frame; works identically on a finished
  run's ledger).
* ``gateway`` — the multi-SA gateway demo: one correlated crash against
  N SAs over a shared store, compared across write policies
  (``--sas N``, ``--side``, ``--policy`` to pin one).
* ``netpath`` — the time-varying-path demo: a NAT rebinding under each
  receiver policy, a flapping route, and a mobile handover, each with a
  recorded-history replay against the moved binding (``--messages N``
  to scale the streams).
* ``obs <run-dir>`` — summarize an observed run: the per-SA health
  table, headline metrics, and a rendered ``trace.json`` (open in
  https://ui.perfetto.dev).  ``--scenario NAME`` produces the run first
  (under a live metrics hub); ``--check`` schema-validates the run
  directory's files — metrics, manifest, trace, plus any
  ``progress.jsonl`` ledger and ``flight_*.json`` dumps it carries —
  and fails loudly; the CI obs smoke job runs it.
* ``obs snapshot|diff`` — cross-run checks (:mod:`repro.obs.archive`,
  :mod:`repro.obs.compare`): ``snapshot`` reduces an observed run or a
  fleet campaign to one content-addressed ``run.json`` (``--out PATH``
  writes it; how the committed reference is regenerated), and ``diff``
  statistically compares two runs into per-metric GREEN/YELLOW/RED
  verdicts (exit 1 on a gated RED — the CI regression gate).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from repro.fleet.results import STORE_KINDS


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runall import run_all

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    ids = list(args.ids) + list(args.only or [])
    resume_dir = args.out if args.resume else None
    obs_dir = Path(args.out) / "obs" if args.obs else None
    try:
        run_all(ids or None, jobs=args.jobs, resume_dir=resume_dir,
                obs_dir=obs_dir)
    except KeyboardInterrupt:
        if resume_dir is not None:
            print(f"\ninterrupted — finished sessions persisted under "
                  f"{resume_dir}/; re-run the same command to resume",
                  file=sys.stderr)
        else:
            print("\ninterrupted — re-run with --resume to make experiment "
                  "runs interrupt-safe", file=sys.stderr)
        return 130
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.apn.specs import SpecConfig, make_savefetch_system, make_unprotected_system
    from repro.apn.specs_ceiling import make_ceiling_system
    from repro.verify.explorer import StateExplorer

    base = SpecConfig(w=2, k=1, max_seq=4, chan_cap=2, max_replays=2)
    # (title, expected verdict, system): the verdicts
    # tests/verify/test_explorer.py asserts on its smaller instances.
    cases = [
        ("unprotected / p resets", "COUNTEREXAMPLE", make_unprotected_system(
            replace(base, max_resets_p=1, max_resets_q=0))),
        ("unprotected / q resets", "COUNTEREXAMPLE", make_unprotected_system(
            replace(base, max_resets_p=0, max_resets_q=1))),
        ("save-fetch / p resets", "SAFE", make_savefetch_system(
            replace(base, max_resets_p=1, max_resets_q=0))),
        ("save-fetch / q resets", "SAFE", make_savefetch_system(
            replace(base, max_resets_p=0, max_resets_q=1))),
        ("save-fetch / q resets + loss", "COUNTEREXAMPLE", make_savefetch_system(
            replace(base, max_resets_p=0, max_resets_q=1, with_loss=True))),
        ("save-fetch / staggered dual", "COUNTEREXAMPLE", make_savefetch_system(
            replace(base, max_resets_p=1, max_resets_q=1))),
        ("ceiling / q resets + loss", "SAFE", make_ceiling_system(
            replace(base, max_resets_p=0, max_resets_q=1, with_loss=True))),
        ("ceiling / staggered dual", "SAFE", make_ceiling_system(
            replace(base, max_resets_p=1, max_resets_q=1))),
    ]
    deviations = 0
    for title, expected, system in cases:
        result = StateExplorer(system, max_states=args.budget).explore()
        status = "SAFE" if result.ok else (
            "TRUNCATED" if result.truncated else "COUNTEREXAMPLE"
        )
        mark = "" if status == expected else "  DEVIATION"
        print(f"{title:<34} {status:>15}  expected {expected:<15}"
              f"({result.states_explored} states){mark}")
        for violation in result.violations[:1]:
            print(f"    {violation.error}")
            print(f"    via: {' -> '.join(violation.trace)}")
        deviations += status != expected
    if deviations:
        print(f"{deviations} of {len(cases)} cases deviate from their expected "
              "verdict (a TRUNCATED case needs a larger --budget)")
        return 1
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import build_protocol

    harness = build_protocol(protected=True, k_p=25, k_q=25)
    harness.sender.start_traffic(count=2000)
    harness.engine.call_at(0.002, harness.sender.reset, 0.001)
    harness.run(until=0.1)
    print(harness.score().summary())
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    from repro.apn.pretty import render_system
    from repro.apn.specs import make_savefetch_system, make_unprotected_system
    from repro.apn.specs_ceiling import make_ceiling_system

    factories = {
        "unprotected": make_unprotected_system,
        "savefetch": make_savefetch_system,
        "ceiling": make_ceiling_system,
    }
    print(render_system(factories[args.which](), name=args.which))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import (
        CampaignSpec,
        FleetRunner,
        SampledCampaign,
        detect_store_kind,
        example_spec,
        make_store,
    )
    from repro.fleet.aggregate import aggregate_store

    if args.spec is None:
        # Bare `--sample` (no spec, no count) keeps its original meaning:
        # print an example campaign spec and exit.
        if args.sample is not None and args.sample < 0:
            print(example_spec().to_json())
            return 0
        print("error: a campaign spec file is required (or use --sample "
              "to print an example spec)", file=sys.stderr)
        return 2
    if args.sample is not None and args.sample < 0:
        print("error: --sample needs a session count when running a spec, "
              "e.g. --sample 2000", file=sys.stderr)
        return 2
    if args.sample is not None and args.sample == 0:
        print("error: --sample must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        spec = CampaignSpec.load(args.spec)
        spec.validate_scenarios()
    except OSError as exc:
        print(f"error: cannot read spec file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid campaign spec {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path("fleet_runs") / spec.name
    # Resume reopens whatever backend the interrupted run was writing;
    # an explicit --store always wins (mismatches surface as two stores
    # in one directory, which the summary line below makes visible).
    store_kind = args.store or detect_store_kind(out_dir) or "jsonl"
    try:
        store = make_store(store_kind, out_dir, shard_bits=args.shard_bits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = spec if args.sample is None else SampledCampaign(spec, args.sample)
    obs_dir = out_dir / "obs" if args.obs else None
    total = plan.session_count()
    sampled = (f" (~{total} sampled of {plan.total})"
               if isinstance(plan, SampledCampaign) else "")
    extra = f", obs={obs_dir}" if obs_dir is not None else ""

    stream_config = None
    watch = bool(args.watch)
    if watch or args.stream or args.profile_slow or args.trace_malloc:
        from repro.fleet.results import progress_ledger_path
        from repro.obs.stream import StreamConfig

        ledger_path = (progress_ledger_path(store)
                       or out_dir / "progress.jsonl")
        profile_dir = None
        if args.profile_slow:
            profile_dir = obs_dir if obs_dir is not None else out_dir / "profiles"
        stream_config = StreamConfig(
            ledger_path=ledger_path,
            profile_dir=profile_dir,
            trace_malloc=args.trace_malloc,
        )
        extra += f", ledger={ledger_path}"
    print(f"campaign {spec.name!r}: {total} sessions{sampled}, "
          f"jobs={args.jobs}, store={store.path} [{store_kind}]{extra}")

    stride = max(1, total // 20)

    def progress(done: int, pending: int, record) -> None:
        if done % stride == 0 or done == pending or record.status != "ok":
            status = "" if record.status == "ok" else f"  [{record.status}: {record.error}]"
            print(f"  [{done}/{pending}] {record.task_id}{status}")

    runner = FleetRunner(
        plan, store, jobs=args.jobs, progress=progress, obs_dir=obs_dir,
        stream=stream_config,
    )
    if watch:
        import time as time_module

        from repro.obs.top import ANSI_CLEAR, render_dashboard

        last_frame = 0.0

        def progress(done: int, pending: int, record) -> None:  # noqa: F811
            nonlocal last_frame
            now = time_module.monotonic()
            if runner.view is None or (now - last_frame < 0.5
                                       and done != pending):
                return
            last_frame = now
            sys.stdout.write(ANSI_CLEAR + render_dashboard(runner.view) + "\n")
            sys.stdout.flush()

        runner.progress = progress
    try:
        outcome = runner.run()
    except KeyboardInterrupt:
        done = len(store.completed_ids())
        print(f"\ninterrupted — {done}/{total} sessions persisted to {store.path}; "
              "re-run the same command to resume", file=sys.stderr)
        return 130
    print(f"executed {len(outcome.executed)} sessions "
          f"({outcome.skipped} resumed from store) in {outcome.wall_time:.2f}s "
          f"({outcome.sessions_per_second:.1f} sessions/s)")
    print()
    aggregate = aggregate_store(store)
    summary = aggregate.summary()
    print(summary.render())
    aggregate_path = out_dir / "aggregate.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = summary.as_dict()
    if aggregate.sketch.count:
        # The serialized sketch rides along so cross-run diffing can
        # compare full convergence-time distributions, not just the
        # reported percentile points.
        payload["sketch"] = aggregate.sketch.as_dict()
    aggregate_path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"aggregate written to {aggregate_path}")
    if summary.errors:
        print(f"error: {summary.errors} session(s) errored; "
              "re-run the same command to retry them", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import find_ledger, run_top

    if args.refresh <= 0:
        print(f"error: --refresh must be > 0, got {args.refresh}",
              file=sys.stderr)
        return 2
    try:
        find_ledger(args.run_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_top(args.run_dir, follow=not args.once, refresh=args.refresh,
                once=args.once)
    except BrokenPipeError:
        # Piped into head/less and the reader went away: exit quietly.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro.gateway import STORE_POLICIES
    from repro.workloads.scenarios import run_gateway_crash_scenario

    if args.sas < 1:
        print(f"error: --sas must be >= 1, got {args.sas}", file=sys.stderr)
        return 2
    if args.crash_after < 1:
        print(f"error: --crash-after must be >= 1, got {args.crash_after}",
              file=sys.stderr)
        return 2
    if args.messages < 0:
        print(f"error: --messages must be >= 0, got {args.messages}",
              file=sys.stderr)
        return 2
    policies = [args.policy] if args.policy else list(STORE_POLICIES)
    print(f"gateway crash demo: {args.sas} SAs ({args.side} side), "
          f"crash after {args.crash_after} sends, "
          f"{args.messages} messages after recovery")
    header = (f"{'policy':<12} {'K':>5} {'converged':>9} {'replays':>7} "
              f"{'spread_us':>10} {'fetch_wait_us':>13} {'busy_ms':>8}")
    print(header)
    print("-" * len(header))
    worst = 0
    for policy in policies:
        metrics = run_gateway_crash_scenario(
            n_sas=args.sas,
            side=args.side,
            store_policy=policy,
            crash_after_sends=args.crash_after,
            messages_after_reset=args.messages,
        )
        spread = max(metrics["recovery_spreads"], default=0.0) * 1e6
        store = metrics["store"]
        verdict = "yes" if metrics["converged"] else "NO"
        if not metrics["converged"]:
            worst = 1
        print(f"{policy:<12} {metrics['k']:>5} "
              f"{verdict:>9} {metrics['replays_accepted']:>7} "
              f"{spread:>10.1f} {store['max_fetch_wait'] * 1e6:>13.1f} "
              f"{store['busy_time'] * 1e3:>8.3f}")
    print()
    print("spread = last SA resumed minus first (the post-crash FETCH-storm "
          "queueing); K follows the gateway sizing rule per policy")
    return worst


def _cmd_netpath(args: argparse.Namespace) -> int:
    from repro.netpath.nat import REBIND_POLICIES
    from repro.workloads.scenarios import (
        run_mobile_handover_scenario,
        run_nat_rebinding_scenario,
        run_path_flap_scenario,
    )

    if args.messages < 20:
        print(f"error: --messages must be >= 20, got {args.messages}",
              file=sys.stderr)
        return 2
    half = args.messages // 2
    print(f"netpath demo: {args.messages}-message streams, impairment at "
          f"message {half}, adversary replays the old-binding history")
    header = (f"{'story':<30} {'delivered':>9} {'replays':>7} {'rejected':>8} "
              f"{'rebinds':>7} {'blackholed':>10} {'lost':>6}")
    print(header)
    print("-" * len(header))

    def show(label: str, metrics: dict) -> None:
        nat = metrics.get("nat", {})
        print(f"{label:<30} {metrics['delivered_uids']:>9} "
              f"{metrics['replays_accepted']:>7} {nat.get('rejected', 0):>8} "
              f"{nat.get('rebinds', 0):>7} {metrics['blackholed']:>10} "
              f"{metrics['never_arrived']:>6}")

    for policy in REBIND_POLICIES:
        show(f"nat_rebinding/{policy}", run_nat_rebinding_scenario(
            rebind_after_sends=half, messages_after_rebind=half, policy=policy,
        ))
    show("path_flap", run_path_flap_scenario(
        messages=args.messages, flap_after_sends=half,
    ))
    show("mobile_handover", run_mobile_handover_scenario(
        handover_after_sends=half, messages_after_handover=half,
    ))
    print()
    print("replays stay 0 on every story: the anti-replay window, not the "
          "address binding, is the replay authority; 'strict' trades the "
          "tunnel's availability for address pinning (rejected = the whole "
          "post-rebinding stream)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        CHROME_TRACE_FILE,
        MANIFEST_FILE,
        METRICS_FILE,
        MetricsHub,
        export_run,
        health_rows,
        read_manifest,
        read_metrics_jsonl,
        read_metrics_lines,
        render_health_table,
        render_run_trace,
        use_hub,
        validate_flight_dump,
        validate_manifest,
        validate_metrics_lines,
        validate_progress_file,
        validate_trace_events,
    )

    run_dir = Path(args.run_dir)

    if args.scenario is not None:
        from repro.workloads.scenarios import get_scenario

        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as exc:
            print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        hub = MetricsHub(args.scenario)
        with use_hub(hub):
            metrics = scenario(seed=args.seed, **params)
        export_run(
            run_dir,
            hub,
            name=args.scenario,
            scenario=args.scenario,
            params=params,
            seed=args.seed,
            manifest_extra={"metrics": metrics},
        )
        print(f"observed run written to {run_dir}/")

    metrics_path = run_dir / METRICS_FILE
    if not metrics_path.exists():
        print(f"error: {metrics_path} not found — not an observed run "
              "directory (produce one with --scenario)", file=sys.stderr)
        return 2

    export = read_metrics_jsonl(metrics_path)
    manifest = None
    manifest_path = run_dir / MANIFEST_FILE
    if manifest_path.exists():
        manifest = read_manifest(manifest_path)
    trace_path = render_run_trace(run_dir)

    if args.check:
        failures: list[str] = []
        # Torn tails (a crash mid-append) are salvage notes, not schema
        # failures — the salvage-and-skip walk loses at most the torn
        # line, mirroring the result store's recovery discipline.
        salvage_notes: list[str] = []
        lines = read_metrics_lines(metrics_path, errors=salvage_notes)
        for note in salvage_notes:
            print(f"WARN  {note}", file=sys.stderr)
        failures += [f"{METRICS_FILE}: {e}" for e in validate_metrics_lines(lines)]
        if manifest is None:
            failures.append(f"{MANIFEST_FILE}: missing")
        else:
            failures += [f"{MANIFEST_FILE}: {e}" for e in validate_manifest(manifest)]
        if trace_path is None:
            failures.append(f"{CHROME_TRACE_FILE}: not renderable")
        else:
            document = json.loads(trace_path.read_text(encoding="utf-8"))
            failures += [
                f"{CHROME_TRACE_FILE}: {e}"
                for e in validate_trace_events(document)
            ]
        # Streaming artifacts, when the run dir carries them: the
        # progress ledger and the per-worker flight recorders validate
        # against their schemas too.  Torn-line salvage notes stay
        # warnings (damage, not invalidity) — the same split the
        # metrics check above applies.
        checked = [METRICS_FILE, MANIFEST_FILE, CHROME_TRACE_FILE]
        progress_path = run_dir / "progress.jsonl"
        if progress_path.exists():
            checked.append(progress_path.name)
            for error in validate_progress_file(progress_path):
                if "torn line" in error:
                    print(f"WARN  {error}", file=sys.stderr)
                else:
                    failures.append(f"{progress_path.name}: {error}")
        for flight in sorted(run_dir.glob("flight_*.json")):
            checked.append(flight.name)
            try:
                dump = json.loads(flight.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                failures.append(f"{flight.name}: not valid JSON ({exc})")
                continue
            failures += [
                f"{flight.name}: {e}" for e in validate_flight_dump(dump)
            ]
        if failures:
            for failure in failures:
                print(f"SCHEMA FAIL  {failure}", file=sys.stderr)
            return 1
        print(f"schema check OK: {', '.join(checked)}")

    if manifest is not None:
        scenario_name = manifest.get("scenario", manifest.get("name", "?"))
        seed = manifest.get("seed", "?")
        print(f"run: {scenario_name} (seed {seed})")
    counters = export.get("counters", {})
    total = sum(v for k, v in counters.items() if k.endswith("replay_discards"))
    resets = sum(v for k, v in counters.items() if k.endswith("resets"))
    print(f"instruments: {len(counters)} counters, "
          f"{len(export.get('series', {}))} series, "
          f"{len(export.get('histograms', {}))} histograms; "
          f"resets={resets} replay_discards={total}")
    print()
    print(render_health_table(health_rows(export)))
    if trace_path is not None:
        print()
        print(f"timeline: {trace_path} (load into https://ui.perfetto.dev)")
    return 0


def _cmd_obs_snapshot(args: argparse.Namespace) -> int:
    import json

    from repro.obs.archive import snapshot_target

    try:
        snapshot = snapshot_target(args.target)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot snapshot {args.target}: {exc}", file=sys.stderr)
        return 2
    document = json.dumps(snapshot.as_dict(), sort_keys=True, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(document)
        return 0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(document, encoding="utf-8")
    counts = ", ".join(
        f"{n} {table}" for table, n in snapshot.signal_count().items() if n
    ) or "no signals"
    print(f"snapshot written to {out}: {snapshot.kind} {snapshot.name!r} "
          f"[{snapshot.short_id}] — {counts}")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs.archive import snapshot_target
    from repro.obs.compare import diff_runs, render_diff_table

    try:
        baseline = snapshot_target(args.baseline)
        current = snapshot_target(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(baseline, current)
    if args.json:
        print(json.dumps(diff.as_dict(), sort_keys=True, indent=2))
    else:
        print(render_diff_table(diff, verbose=args.verbose))
    if diff.regressions:
        print(
            "REGRESSION: protocol metrics went RED vs the baseline.\n"
            "if the change is intentional, refresh the reference snapshot "
            "and commit it:\n"
            f"  python -m repro obs snapshot {args.current} "
            f"--out {args.baseline}",
            file=sys.stderr,
        )
        return 1
    return 0


def _obs_verbs_main(argv: list[str]) -> int:
    """The ``obs snapshot|diff`` verbs.

    Dispatched before the main parser so the long-standing
    ``obs <run-dir>`` summarize form keeps its exact argument surface.
    """
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="cross-run checks: snapshot a run, diff two runs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_snap = sub.add_parser(
        "snapshot", help="reduce a run to its content-addressed run.json",
        epilog="example: python -m repro obs snapshot obs_smoke_run "
               "--out benchmarks/baselines/obs_reference/run.json",
    )
    p_snap.add_argument("target",
                        help="an observed-run dir, a fleet campaign dir, "
                             "or a run.json snapshot")
    p_snap.add_argument("--out", default=None, metavar="PATH",
                        help="write the snapshot here (how the committed "
                             "reference snapshot is refreshed); default: "
                             "print it")
    p_snap.set_defaults(fn=_cmd_obs_snapshot)

    p_diff = sub.add_parser(
        "diff", help="statistical diff of two runs (exit 1 on gated RED)",
        epilog="example: python -m repro obs diff "
               "benchmarks/baselines/obs_reference/run.json obs_smoke_run",
    )
    p_diff.add_argument("baseline",
                        help="baseline run: an observed-run dir, a fleet "
                             "campaign dir, or a run.json snapshot")
    p_diff.add_argument("current", help="current run (same forms)")
    p_diff.add_argument("--verbose", action="store_true",
                        help="print clean GREEN rows too")
    p_diff.add_argument("--json", action="store_true",
                        help="print the diff as JSON")
    p_diff.set_defaults(fn=_cmd_obs_diff)

    args = parser.parse_args(argv)
    return args.fn(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # The snapshot and diff verbs nest under `obs` but parse separately,
    # so the original `obs <run-dir> [--check ...]` surface stays intact
    # (a run directory named like a verb is still reachable as ./snapshot).
    if argv[:1] == ["obs"] and argv[1:2] and argv[1] in ("snapshot", "diff"):
        return _obs_verbs_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Convergence of IPsec in Presence of Resets'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_exp = subparsers.add_parser(
        "experiments", help="run experiment tables",
        epilog="example: python -m repro experiments e01 e06 --jobs 4",
    )
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_exp.add_argument("--only", action="append", metavar="eNN",
                       help="run only this experiment (repeatable)")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes per sweep (default: 1, serial)")
    p_exp.add_argument("--resume", action="store_true",
                       help="persist per-task records under --out and skip "
                            "already-finished sessions on re-run")
    p_exp.add_argument("--out", default="experiment_runs",
                       help="result-store directory for --resume "
                            "(default: experiment_runs)")
    p_exp.add_argument("--obs", action="store_true",
                       help="observe every session: per-experiment campaign "
                            "rollups under <out>/obs/<id>/, plus a full "
                            "metrics file for each failing session")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_check = subparsers.add_parser(
        "check", help="model-check the specs",
        epilog="example: python -m repro check --budget 500000",
    )
    p_check.add_argument("--budget", type=int, default=2_000_000,
                         help="max states per configuration")
    p_check.set_defaults(fn=_cmd_check)

    p_demo = subparsers.add_parser(
        "demo", help="run the quickstart scenario",
        epilog="example: python -m repro demo",
    )
    p_demo.set_defaults(fn=_cmd_demo)

    p_spec = subparsers.add_parser(
        "spec", help="print an APN spec",
        epilog="example: python -m repro spec savefetch",
    )
    p_spec.add_argument("which", choices=["unprotected", "savefetch", "ceiling"])
    p_spec.set_defaults(fn=_cmd_spec)

    p_fleet = subparsers.add_parser(
        "fleet", help="run a multi-session campaign from a spec file",
        epilog="example: python -m repro fleet campaign.json --jobs 4 "
               "--obs  (first print a spec with: python -m repro fleet --sample)",
    )
    p_fleet.add_argument("spec", nargs="?", help="campaign spec JSON file")
    p_fleet.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default: 1, serial)")
    p_fleet.add_argument("--out", default=None,
                         help="output directory (default: fleet_runs/<name>)")
    p_fleet.add_argument("--sample", nargs="?", type=int, const=-1,
                         default=None, metavar="N",
                         help="with a spec: run a deterministic ~N-session "
                              "subsample of the campaign; without a spec: "
                              "print an example campaign spec and exit")
    p_fleet.add_argument("--store", choices=STORE_KINDS, default=None,
                         help="result-store backend (default: whatever the "
                              "output directory already holds, else jsonl); "
                              "sharded splits records across 2^bits JSONL "
                              "files by spawn-key prefix")
    p_fleet.add_argument("--shard-bits", type=int, default=None, metavar="B",
                         help="shard count exponent for --store sharded "
                              "(2^B shard files; default: the store's "
                              "existing layout, else 4)")
    p_fleet.add_argument("--obs", action="store_true",
                         help="observe every session: a campaign rollup "
                              "under <out>/obs/, plus a full metrics file "
                              "for each failing session (errored, not "
                              "converged, bound violated or replay accepted)")
    p_fleet.add_argument("--stream", action="store_true",
                         help="append live progress events to "
                              "<out>/progress.jsonl (durable ledger; feeds "
                              "`repro top` and crash flight recorders)")
    p_fleet.add_argument("--watch", action="store_true",
                         help="render the refreshing top dashboard while the "
                              "campaign runs (implies --stream)")
    p_fleet.add_argument("--profile-slow", action="store_true",
                         help="cProfile tasks slower than the running 95th "
                              "percentile; pstats dumps land under "
                              "<out>/obs/ (with --obs) or <out>/profiles/ "
                              "(implies --stream)")
    p_fleet.add_argument("--trace-malloc", action="store_true",
                         help="track per-task allocation peaks via "
                              "tracemalloc in worker heartbeats (implies "
                              "--stream)")
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_top = subparsers.add_parser(
        "top", help="terminal dashboard over a campaign's progress ledger",
        epilog="example: python -m repro top fleet_runs/smoke",
    )
    p_top.add_argument("run_dir",
                       help="campaign output directory (or the progress.jsonl "
                            "file itself); written by fleet --stream")
    p_top.add_argument("--refresh", type=float, default=1.0,
                       help="seconds between dashboard frames (default: 1.0)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame from the ledger and exit "
                            "(no follow loop)")
    p_top.set_defaults(fn=_cmd_top)

    p_gw = subparsers.add_parser(
        "gateway", help="multi-SA gateway crash demo over a shared store",
        epilog="example: python -m repro gateway --sas 16 --policy batched",
    )
    p_gw.add_argument("--sas", type=int, default=8,
                      help="number of SAs the gateway terminates (default: 8)")
    p_gw.add_argument("--side", choices=["sender", "receiver"],
                      default="sender",
                      help="which end of each SA lives on the gateway")
    p_gw.add_argument("--policy",
                      choices=["serial", "batched", "write_ahead"],
                      default=None,
                      help="pin one store policy (default: compare all three)")
    p_gw.add_argument("--crash-after", type=int, default=300,
                      help="crash after SA 0's Nth send (default: 300)")
    p_gw.add_argument("--messages", type=int, default=300,
                      help="per-SA messages after recovery (default: 300)")
    p_gw.set_defaults(fn=_cmd_gateway)

    p_np = subparsers.add_parser(
        "netpath", help="time-varying path demo: NAT rebinding, flaps, handover",
        epilog="example: python -m repro netpath --messages 2000",
    )
    p_np.add_argument("--messages", type=int, default=1000,
                      help="messages per demo stream (default: 1000)")
    p_np.set_defaults(fn=_cmd_netpath)

    p_obs = subparsers.add_parser(
        "obs", help="summarize an observed run: health table + Chrome trace",
        epilog="example: python -m repro obs runs/crash --scenario "
               "gateway_crash --params '{\"n_sas\": 8}' --check; "
               "cross-run verbs: obs snapshot TARGET [--out PATH], "
               "obs diff BASELINE CURRENT",
    )
    p_obs.add_argument("run_dir",
                       help="run directory (holds metrics.jsonl; created by "
                            "--scenario)")
    p_obs.add_argument("--scenario", default=None,
                       help="produce the run first: a registry scenario name "
                            "(see repro.workloads.scenarios)")
    p_obs.add_argument("--params", default=None, metavar="JSON",
                       help='scenario kwargs as JSON, e.g. \'{"n_sas": 8}\'')
    p_obs.add_argument("--seed", type=int, default=0,
                       help="scenario seed (default: 0)")
    p_obs.add_argument("--check", action="store_true",
                       help="schema-validate metrics/manifest/trace files "
                            "(exit 1 on any violation)")
    p_obs.set_defaults(fn=_cmd_obs)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
