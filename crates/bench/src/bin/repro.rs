//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [IDS...] [--full] [--out DIR] [--trace FILE.jsonl] [--profile]
//!       [--quiet] [--check-trace FILE] [--chrome-trace FILE.json]
//!       [--metrics FILE.prom] [--baseline FILE.json]
//!       [--write-baseline FILE.json] [--health]
//!       [--precision MODE] [--faults SPEC] [--fault-seed N]
//!       [--jobs N] [--engines K] [--threads T]
//!       [--timeline FILE.html] [--slo SPEC.toml]
//!       [--critpath FILE.json] [--explain BASE.jsonl]
//!
//!   IDS           experiment ids (table2 table3 table4 fig1..fig9
//!                 ablations batch serve chaos), or "all" (default)
//!   --full        larger numeric sizes (minutes instead of seconds)
//!   --out DIR     directory for CSV output (default: results)
//!   --trace FILE  stream every engine/solver trace event to FILE as JSONL
//!   --profile     print a per-phase modeled-time breakdown per experiment
//!   --quiet       suppress progress output (warnings still print)
//!   --check-trace FILE
//!                 parse a previously written JSONL trace, print its
//!                 rollup, and exit (fails on empty or unparseable input,
//!                 and on experiment spans missing finite wall_secs)
//!   --chrome-trace FILE
//!                 write the whole run as a Chrome Trace Event JSON file,
//!                 viewable in Perfetto (ui.perfetto.dev) or
//!                 chrome://tracing
//!   --metrics FILE
//!                 write the run's final metrics in Prometheus text
//!                 exposition format
//!   --baseline FILE
//!                 after running, diff this run's metrics against a
//!                 committed baseline; non-zero exit on regression
//!   --write-baseline FILE
//!                 record this run's metrics as a new baseline file
//!   --health      enable the numerical-health monitors (per-level
//!                 orthogonality sampling etc.)
//!   --precision MODE
//!                 override the precision of every engine the experiments
//!                 construct: `ec` (error-corrected tensor-core GEMM via
//!                 the Ootomo-Yokota hi/lo split), `bf16`, or `f32`
//!                 (TensorCore disabled). The override is installed
//!                 process-globally (RAII-disarmed on exit) so accuracy
//!                 experiments re-run as an extra series under the chosen
//!                 mode
//!   --faults SPEC arm a deterministic fault-injection campaign for the
//!                 whole run: every engine the experiments construct
//!                 inherits the plan. SPEC is `all` or a comma-separated
//!                 subset of bitflip, overflow, nan-column, dropped-tile,
//!                 optionally with `:every=N` / `:max=M` (e.g.
//!                 `bitflip,overflow:every=3:max=10`). The run prints a
//!                 campaign summary and fails if any injected fault
//!                 escaped detection
//!   --fault-seed N
//!                 seed for the campaign's deterministic schedule
//!                 (default 7; only meaningful with --faults)
//!   --jobs N      batch/chaos experiments: queue length (default from
//!                 scale)
//!   --engines K   batch/chaos experiments: pool size (default from scale)
//!   --threads T   batch/chaos experiments: scheduler worker threads for
//!                 the measured pass (default: one per available CPU for
//!                 batch, 8 for chaos). The outputs are bit-identical for
//!                 every T — both experiments assert this against a
//!                 1-worker reference
//!   --timeline FILE.html
//!                 batch experiment: write a self-contained HTML dashboard
//!                 (per-engine Gantt chart, queue-depth sparkline, SLO
//!                 status table; inline SVG, zero JS) reconstructed from
//!                 the post-hoc fleet narration. Byte-identical for any
//!                 --threads
//!   --slo SPEC.toml
//!                 batch experiment: evaluate the declarative service-level
//!                 objectives in SPEC over the reconstructed timeline,
//!                 narrate `slo.breach`/`slo.recovered`/`slo.objective`
//!                 trace events (which feed the metrics bridge and the
//!                 baseline gate), and exit non-zero if any objective ends
//!                 the run breached. See results/slo/quick.toml for the
//!                 format
//!   --critpath FILE.json
//!                 batch experiment: write the makespan-critical-path
//!                 analysis (bottleneck engine, critical chain, per-job
//!                 slack) as JSON (tcqr.critpath.v1). Byte-identical for
//!                 any --threads — CI compares the files directly
//!   --explain BASE.jsonl
//!                 after running, attribute every modeled-seconds / flops /
//!                 rounding / fault delta between the trace in BASE.jsonl
//!                 and this run to its span/phase/class/engine, and print
//!                 the ranked blame table plus the per-phase rounding-error
//!                 budget diff (same report as `bench-diff --explain`)
//! ```
//!
//! Progress, warnings (e.g. fp16 overflow during a solve), telemetry, and
//! profiles all flow through the `tcqr-trace` global sink: the binary
//! installs a fan-out of console + in-memory aggregation + a live
//! metrics bridge (+ JSONL / Chrome-trace files when requested), and the
//! engines created inside the experiment code pick it up automatically.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use tcqr_bench::baseline;
use tcqr_bench::experiments::batch::{self, BatchParams};
use tcqr_bench::experiments::chaos::{self, ChaosParams};
use tcqr_bench::{profile_table, run, FaultSummary, RunReport, Scale, ALL_IDS};
use tensor_engine::{FaultPlan, GlobalPlanGuard, GlobalPrecisionGuard, PrecisionOverride};
use tcqr_metrics::{ChromeTraceSink, TraceToMetrics};
use tcqr_trace::{
    install_global, stdout_color_enabled, ConsoleSink, FanoutSink, JsonlSink, MemSink, TraceSink,
    Tracer, Value,
};

fn usage() {
    println!(
        "usage: repro [IDS...] [--full] [--out DIR] [--trace FILE.jsonl] \
         [--profile] [--quiet] [--check-trace FILE] [--chrome-trace FILE] \
         [--metrics FILE] [--baseline FILE] [--write-baseline FILE] \
         [--health] [--precision ec|bf16|f32] [--faults SPEC] [--fault-seed N] \
         [--jobs N] [--engines K] [--threads T] \
         [--timeline FILE.html] [--slo SPEC.toml] \
         [--critpath FILE.json] [--explain BASE.jsonl]\n  ids: all {}",
        ALL_IDS.join(" ")
    );
}

/// `--check-trace`: parse a JSONL trace and summarize it; non-zero exit on
/// an empty or unparseable file, on a trace with no completed `experiment`
/// span, on an experiment span that closed without a finite `wall_secs`
/// (the CI telemetry + wall-time smoke check), on a fault campaign
/// whose injections were not all detected (the CI ABFT smoke check), or on
/// an `engine.segment` stream that is not monotone on the simulated clock
/// per engine (the fleet-timeline consistency check).
fn check_trace(path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-trace: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let report = match RunReport::from_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("check-trace: {} is not valid JSONL: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if report.events == 0 {
        eprintln!("check-trace: {} contains no events", path.display());
        return ExitCode::FAILURE;
    }
    if report.experiments.is_empty() {
        eprintln!(
            "check-trace: {} has no completed experiment span",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    let untimed: Vec<&str> = report
        .experiments
        .iter()
        .filter(|(_, wall)| wall.is_none())
        .map(|(id, _)| id.as_str())
        .collect();
    if !untimed.is_empty() {
        eprintln!(
            "check-trace: {}: experiment span(s) without a finite wall_secs: {}",
            path.display(),
            untimed.join(" ")
        );
        return ExitCode::FAILURE;
    }
    if report.fault.escaped() > 0 {
        eprintln!(
            "check-trace: {}: {} injected fault(s) escaped detection \
             ({} injected, {} detected)",
            path.display(),
            report.fault.escaped(),
            report.fault.injected,
            report.fault.detected,
        );
        return ExitCode::FAILURE;
    }
    let seg_violations = report.segment_monotonicity_violations();
    if !seg_violations.is_empty() {
        eprintln!(
            "check-trace: {}: engine segment stream is not monotone on the \
             simulated clock:",
            path.display()
        );
        for v in &seg_violations {
            eprintln!("check-trace:   {v}");
        }
        return ExitCode::FAILURE;
    }
    let wall: f64 = report.experiments.iter().filter_map(|(_, w)| *w).sum();
    println!(
        "{} ok: {} events, {:.3e} modeled s, {:.3}s wall over {} experiment(s), \
         {} gemm(s), {} panel call(s), {} solve(s), {} warning(s){}{}{}",
        path.display(),
        report.events,
        report.total_secs(),
        wall,
        report.experiments.len(),
        report.gemm_calls,
        report.panel_calls,
        report.solves.len(),
        report.warnings.len(),
        if report.fault.is_empty() {
            String::new()
        } else {
            format!(
                ", faults: {} injected / {} detected / {} corrected",
                report.fault.injected, report.fault.detected, report.fault.corrected
            )
        },
        if report.segments.is_empty() {
            String::new()
        } else {
            format!(
                ", {} engine segment(s) monotone per engine",
                report.segments.len()
            )
        },
        if report.skipped_lines > 0 {
            format!(", {} unknown line(s) skipped", report.skipped_lines)
        } else {
            String::new()
        },
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut out = PathBuf::from("results");
    let mut trace_path: Option<PathBuf> = None;
    let mut check_path: Option<PathBuf> = None;
    let mut chrome_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline_path: Option<PathBuf> = None;
    let mut profile = false;
    let mut quiet = false;
    let mut health = false;
    let mut precision: Option<PrecisionOverride> = None;
    let mut faults_spec: Option<String> = None;
    let mut fault_seed: u64 = 7;
    let mut batch_jobs: Option<usize> = None;
    let mut batch_engines: Option<usize> = None;
    let mut batch_threads: Option<usize> = None;
    let mut timeline_path: Option<PathBuf> = None;
    let mut slo_path: Option<PathBuf> = None;
    let mut critpath_path: Option<PathBuf> = None;
    let mut explain_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    let path_flag = |flag: &str, p: Option<String>| -> Result<PathBuf, ExitCode> {
        match p {
            Some(p) => Ok(PathBuf::from(p)),
            None => {
                eprintln!("{flag} requires a file path");
                Err(ExitCode::FAILURE)
            }
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--profile" => profile = true,
            "--quiet" => quiet = true,
            "--health" => health = true,
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match path_flag("--trace", args.next()) {
                Ok(p) => trace_path = Some(p),
                Err(c) => return c,
            },
            "--check-trace" => match path_flag("--check-trace", args.next()) {
                Ok(p) => check_path = Some(p),
                Err(c) => return c,
            },
            "--chrome-trace" => match path_flag("--chrome-trace", args.next()) {
                Ok(p) => chrome_path = Some(p),
                Err(c) => return c,
            },
            "--metrics" => match path_flag("--metrics", args.next()) {
                Ok(p) => metrics_path = Some(p),
                Err(c) => return c,
            },
            "--baseline" => match path_flag("--baseline", args.next()) {
                Ok(p) => baseline_path = Some(p),
                Err(c) => return c,
            },
            "--write-baseline" => match path_flag("--write-baseline", args.next()) {
                Ok(p) => write_baseline_path = Some(p),
                Err(c) => return c,
            },
            "--precision" => match args.next().as_deref() {
                Some("ec") => precision = Some(PrecisionOverride::ErrorCorrected),
                Some("bf16") => precision = Some(PrecisionOverride::Bf16),
                Some("f32") => precision = Some(PrecisionOverride::Fp32),
                other => {
                    eprintln!(
                        "--precision requires a mode: ec, bf16, or f32 (got {:?})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--faults" => match args.next() {
                Some(s) => faults_spec = Some(s),
                None => {
                    eprintln!(
                        "--faults requires a campaign spec (e.g. all or \
                         bitflip,overflow:every=3:max=10)"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--fault-seed" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => fault_seed = n,
                _ => {
                    eprintln!("--fault-seed requires a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => batch_jobs = Some(n),
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--engines" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => batch_engines = Some(n),
                _ => {
                    eprintln!("--engines requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => batch_threads = Some(n),
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--timeline" => match path_flag("--timeline", args.next()) {
                Ok(p) => timeline_path = Some(p),
                Err(c) => return c,
            },
            "--slo" => match path_flag("--slo", args.next()) {
                Ok(p) => slo_path = Some(p),
                Err(c) => return c,
            },
            "--critpath" => match path_flag("--critpath", args.next()) {
                Ok(p) => critpath_path = Some(p),
                Err(c) => return c,
            },
            "--explain" => match path_flag("--explain", args.next()) {
                Ok(p) => explain_path = Some(p),
                Err(c) => return c,
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if let Some(p) = &check_path {
        return check_trace(p);
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    // Fleet observability consumes the batch experiment's post-hoc
    // narration; fail fast on a spec typo or a flag that can never fire.
    if (timeline_path.is_some() || slo_path.is_some() || critpath_path.is_some())
        && !ids.iter().any(|i| i == "batch")
    {
        eprintln!(
            "--timeline/--slo/--critpath require the batch experiment \
             (add `batch` to the ids)"
        );
        return ExitCode::FAILURE;
    }
    let slo_spec = match &slo_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => match tcqr_obs::SloSpec::parse(&text) {
                Ok(spec) => Some(spec),
                Err(e) => {
                    eprintln!("--slo: {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("--slo: cannot read {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if health {
        tcqr_core::health::set_enabled(true);
    }
    // Parse the campaign spec before any telemetry plumbing so a typo
    // fails fast; the plan is installed globally right before the
    // experiment loop and every engine constructed inside inherits it.
    let campaign = match &faults_spec {
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("--faults: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Telemetry plumbing: everything the engines and solvers emit fans out
    // to the console (progress/warnings), an in-memory buffer (profiles +
    // baselines), the live metrics bridge, and optionally JSONL /
    // Chrome-trace files.
    let mem = Arc::new(MemSink::new());
    let bridge = Arc::new(TraceToMetrics::new());
    let mut sinks: Vec<Arc<dyn TraceSink>> = vec![
        mem.clone(),
        Arc::new(ConsoleSink::new(quiet)),
        bridge.clone(),
    ];
    if let Some(path) = &trace_path {
        match JsonlSink::create(path) {
            Ok(s) => sinks.push(Arc::new(s)),
            Err(e) => {
                eprintln!("cannot create trace file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let chrome = chrome_path.as_ref().map(|p| Arc::new(ChromeTraceSink::new(p)));
    if let Some(c) = &chrome {
        sinks.push(c.clone());
    }
    let fanout: Arc<dyn TraceSink> = Arc::new(FanoutSink::new(sinks));
    install_global(fanout.clone());
    let tracer = Tracer::global();

    tracer.info(
        "repro.start",
        &[(
            "msg",
            Value::from(format!(
                "# Reproducing {} experiment(s) at {:?} scale; CSVs go to {}",
                ids.len(),
                scale,
                out.display()
            )),
        )],
    );
    // RAII: the guards disarm the global plan / precision override on every
    // exit path out of main — early returns and panics included — so a
    // failed run can never leak either into a caller's process.
    let _fault_guard: Option<GlobalPlanGuard> = campaign
        .as_ref()
        .map(|plan| GlobalPlanGuard::arm(plan.clone()));
    let _precision_guard: Option<GlobalPrecisionGuard> =
        precision.map(GlobalPrecisionGuard::arm);
    if let Some(mode) = precision {
        tracer.info(
            "repro.precision",
            &[(
                "msg",
                Value::from(format!(
                    "# Precision override armed for every engine: {mode:?}"
                )),
            )],
        );
    }
    if let Some(plan) = &campaign {
        tracer.info(
            "repro.faults",
            &[(
                "msg",
                Value::from(format!(
                    "# Fault campaign armed: {} (seed {fault_seed}, \
                     every {} TC GEMM(s), budget {})",
                    faults_spec.as_deref().unwrap_or("?"),
                    plan.period,
                    plan.max_faults,
                )),
            )],
        );
    }
    // Metric map of the whole run, keys prefixed "<id>.": the currency of
    // the --baseline / --write-baseline gate.
    let mut current: BTreeMap<String, f64> = BTreeMap::new();
    let mut fault_total = FaultSummary::default();
    // Every id's final event stream, kept only when --explain needs to
    // attribute this run against a reference trace at the end.
    let mut all_events: Vec<tcqr_trace::Event> = Vec::new();
    let mut failed = false;
    for id in &ids {
        let t0 = std::time::Instant::now();
        let span = tracer.span("experiment", &[("id", Value::from(id.as_str()))]);
        // `batch` and `chaos` take workload knobs the generic `run`
        // signature has no room for; everything else dispatches through
        // the registry.
        let result = if id == "batch" {
            let mut params = BatchParams::for_scale(scale);
            if let Some(n) = batch_jobs {
                params.jobs = n;
            }
            if let Some(k) = batch_engines {
                params.engines = k;
            }
            params.threads = batch_threads;
            Some(vec![batch::batch_with(&params)])
        } else if id == "chaos" {
            let mut params = ChaosParams::for_scale(scale);
            if let Some(n) = batch_jobs {
                params.jobs = n;
            }
            if let Some(k) = batch_engines {
                params.engines = k;
            }
            params.threads = batch_threads;
            Some(vec![chaos::chaos_with(&params)])
        } else {
            run(id, scale)
        };
        let wall = t0.elapsed().as_secs_f64();
        span.close_with(&[("wall_secs", Value::from(wall))]);
        match result {
            Some(tables) => {
                for t in tables {
                    println!("{}", t.markdown());
                    match t.save_csv(&out) {
                        Ok(p) => tracer.info(
                            "repro.saved",
                            &[("msg", Value::from(format!("  [saved {}]", p.display())))],
                        ),
                        Err(e) => tracer.warn(
                            "repro.csv_save_failed",
                            &[("msg", Value::from(format!("csv save failed: {e}")))],
                        ),
                    }
                }
                // Drain per id so the buffer stays bounded; the report is
                // cheap, so build it unconditionally.
                let mut events = mem.drain();
                if id == "batch" {
                    // Fleet observability: rebuild per-engine timelines from
                    // the post-hoc narration (deterministic for any
                    // --threads), then analyze the critical path, evaluate
                    // SLOs, and export the dashboard against them.
                    let timeline = tcqr_obs::FleetTimeline::from_events(&events);
                    // The critical-path analysis always runs: its
                    // fleet.critpath.* narration feeds the metrics bridge
                    // and this id's report (and thus the baseline gate).
                    let crit = tcqr_obs::CritPath::from_timeline(&timeline);
                    crit.emit(&tracer);
                    events.extend(mem.drain());
                    if let Some(path) = &critpath_path {
                        match std::fs::write(path, format!("{}\n", crit.to_json())) {
                            Ok(()) => tracer.info(
                                "repro.critpath",
                                &[(
                                    "msg",
                                    Value::from(format!(
                                        "  [critical path: digest {:016x} -> {}]",
                                        crit.digest(),
                                        path.display()
                                    )),
                                )],
                            ),
                            Err(e) => {
                                eprintln!("cannot write critpath {}: {e}", path.display());
                                failed = true;
                            }
                        }
                    }
                    let slo_report = slo_spec
                        .as_ref()
                        .map(|spec| tcqr_obs::evaluate(spec, &timeline, &events));
                    if let Some(sr) = &slo_report {
                        // Narrate through the global sink: the metrics
                        // bridge turns slo.* events into tcqr_slo_* series,
                        // and re-draining folds them into this id's report
                        // (and therefore the baseline gate).
                        sr.emit(&tracer);
                        events.extend(mem.drain());
                        if !sr.healthy() || sr.breaches() > 0 {
                            let breached =
                                sr.outcomes.iter().filter(|o| !o.healthy).count();
                            eprintln!(
                                "slo: {breached} objective(s) unhealthy, {} breach \
                                 transition(s) [alert digest {:016x}]",
                                sr.breaches(),
                                sr.alert_digest(),
                            );
                            failed = true;
                        }
                    }
                    if let Some(path) = &timeline_path {
                        let title = format!(
                            "tcqr batch — {} job(s) over {} engine(s)",
                            timeline.jobs,
                            timeline.engines.len(),
                        );
                        let html = tcqr_obs::render(
                            &timeline,
                            slo_report.as_ref(),
                            Some(&crit),
                            &title,
                        );
                        match std::fs::write(path, &html) {
                            Ok(()) => tracer.info(
                                "repro.timeline",
                                &[(
                                    "msg",
                                    Value::from(format!(
                                        "  [timeline dashboard: digest {:016x} -> {}]",
                                        timeline.digest(),
                                        path.display()
                                    )),
                                )],
                            ),
                            Err(e) => {
                                eprintln!(
                                    "cannot write timeline {}: {e}",
                                    path.display()
                                );
                                failed = true;
                            }
                        }
                    }
                }
                // Per-phase rounding-error budgets: account the measured
                // RoundStats against the modeled bounds and narrate the
                // result. Re-draining folds the error.budget events into
                // this id's trace outputs; the report recognizes them and
                // never double-counts the restated rounding tallies.
                let budget = tcqr_obs::ErrorBudget::from_events(&events);
                if !budget.is_empty() {
                    budget.emit(&tracer);
                    events.extend(mem.drain());
                }
                let report = RunReport::from_events(&events);
                fault_total.absorb(&report.fault);
                if explain_path.is_some() {
                    all_events.extend_from_slice(&events);
                }
                if profile {
                    println!("{}", profile_table(&report, id).markdown());
                }
                for (k, v) in report.metrics() {
                    current.insert(format!("{id}.{k}"), v);
                }
                tracer.info(
                    "repro.done",
                    &[
                        ("msg", Value::from(format!("  [{id} done in {wall:.1}s]"))),
                        ("id", Value::from(id.as_str())),
                        ("wall_secs", Value::from(wall)),
                    ],
                );
            }
            None => {
                tracer.warn(
                    "repro.unknown_id",
                    &[(
                        "msg",
                        Value::from(format!(
                            "unknown experiment id: {id} (known: all {})",
                            ALL_IDS.join(" ")
                        )),
                    )],
                );
                failed = true;
            }
        }
    }
    if campaign.is_some() {
        let rungs: Vec<String> = fault_total
            .retries_by_rung
            .iter()
            .map(|(r, n)| format!("{r}={n}"))
            .collect();
        println!(
            "fault campaign: {} injected, {} detected, {} escaped; \
             {} retry(ies){}, {} corrected, {} exhausted",
            fault_total.injected,
            fault_total.detected,
            fault_total.escaped(),
            fault_total.retries,
            if rungs.is_empty() {
                String::new()
            } else {
                format!(" [{}]", rungs.join(", "))
            },
            fault_total.corrected,
            fault_total.exhausted,
        );
        if fault_total.escaped() > 0 {
            eprintln!(
                "fault campaign: {} injected fault(s) escaped detection",
                fault_total.escaped()
            );
            failed = true;
        }
    }
    fanout.flush();
    if let Some(c) = &chrome {
        match c.write() {
            Ok(p) => tracer.info(
                "repro.chrome_trace",
                &[(
                    "msg",
                    Value::from(format!(
                        "  [chrome trace: {} event(s) -> {}]",
                        c.len(),
                        p.display()
                    )),
                )],
            ),
            Err(e) => {
                eprintln!("cannot write chrome trace: {e}");
                failed = true;
            }
        }
    }
    if let Some(p) = &metrics_path {
        // The bridge's live fold covers every event of the run, the
        // chrome-trace note above included.
        if let Err(e) = std::fs::write(p, bridge.render_prometheus()) {
            eprintln!("cannot write metrics file {}: {e}", p.display());
            failed = true;
        }
    }
    if let Some(p) = &write_baseline_path {
        match baseline::write_baseline(p, &current) {
            Ok(()) => println!("baseline: {} metric(s) -> {}", current.len(), p.display()),
            Err(e) => {
                eprintln!("cannot write baseline {}: {e}", p.display());
                failed = true;
            }
        }
    }
    if let Some(p) = &baseline_path {
        match baseline::read_baseline(p) {
            Ok(base) => {
                // Gate only the ids that actually ran: a baseline written
                // by `repro all` must not fail a single-id spot check.
                let base: BTreeMap<String, f64> = base
                    .into_iter()
                    .filter(|(k, _)| {
                        ids.iter()
                            .any(|id| k.strip_prefix(id.as_str()).is_some_and(|r| r.starts_with('.')))
                    })
                    .collect();
                let diffs = baseline::compare(&base, &current, None);
                print!(
                    "{}",
                    baseline::render_diff(&diffs, stdout_color_enabled(), profile)
                );
                if baseline::regressions(&diffs) > 0 {
                    eprintln!("baseline regression vs {}", p.display());
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if let Some(p) = &explain_path {
        let parsed = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|text| {
                tcqr_trace::parse_jsonl_lenient(&text).map_err(|e| format!("{}: {e}", p.display()))
            });
        match parsed {
            Ok((base_events, _skipped)) => {
                let diff = tcqr_obs::TraceDiff::between_events(&base_events, &all_events);
                println!("attribution vs {}:", p.display());
                print!("{}", diff.render_text(10));
                print!(
                    "{}",
                    tcqr_obs::ErrorBudget::render_blame(
                        &tcqr_obs::ErrorBudget::from_events(&base_events),
                        &tcqr_obs::ErrorBudget::from_events(&all_events),
                    )
                );
            }
            Err(e) => {
                eprintln!("--explain: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
