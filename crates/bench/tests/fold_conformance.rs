//! Conformance of the single trace fold.
//!
//! Two checks on a traced `repro batch serve chaos` run and on the committed
//! reference trace:
//!
//! 1. every event is accounted for by the schema: a typed summary event, an
//!    engine charge, a span, solver progress narration, an untyped `msg`
//!    warning, or an info;
//! 2. every quantity present in both the baseline (one fold per experiment
//!    id) and the Prometheus exposition (one live fold of the process)
//!    agrees: the Prometheus value is the sum, max, or min of the per-id
//!    baseline values, with counts bit-exact, and the Chrome exporter's
//!    `flops` and `fp16_rounding` counter tracks end on the fold's tallies.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use tcqr_bench::baseline;
use tcqr_metrics::json::{self, Json};
use tcqr_metrics::{chrome_trace_json, RunReport};
use tcqr_trace::schema::{is_schema, Charge};
use tcqr_trace::{parse_jsonl_lenient, Event, EventKind};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Solver progress ops: per-iteration narration no consumer aggregates.
const PROGRESS_OPS: &[&str] = &["caqr.block", "cgls.iter", "lsqr.iter"];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Why `ev` is allowed in a trace, or `None` when nothing accounts for it.
fn accounted(ev: &Event) -> Option<&'static str> {
    if is_schema(ev) {
        return Some("schema");
    }
    match ev.kind {
        EventKind::SpanOpen | EventKind::SpanClose => Some("span"),
        EventKind::Op => {
            if PROGRESS_OPS.contains(&ev.name.as_str()) {
                Some("progress")
            } else {
                Charge::from_event(ev)
                    .filter(|c| c.phase.is_some() && c.secs.is_some())
                    .map(|_| "charge")
            }
        }
        // Info events are human narration (progress, per-rejection notes);
        // no consumer decodes them.
        EventKind::Info => Some("info"),
        EventKind::Warn => ev.str_field("msg").map(|_| "msg"),
    }
}

fn assert_all_accounted(label: &str, events: &[Event]) {
    assert!(!events.is_empty(), "{label}: empty trace");
    let stray: BTreeMap<(&str, &str), usize> = events
        .iter()
        .filter(|e| accounted(e).is_none())
        .fold(BTreeMap::new(), |mut m, e| {
            *m.entry((e.kind.as_str(), e.name.as_str())).or_insert(0) += 1;
            m
        });
    assert!(
        stray.is_empty(),
        "{label}: events no decoder accounts for: {stray:?}"
    );
}

/// Parse Prometheus text into `series -> value` (comments skipped).
fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (name, v) = l.rsplit_once(' ').expect("series line");
            let v = match v {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v.parse().expect("numeric value"),
            };
            (name.to_string(), v)
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Rule {
    Sum,
    Max,
    Min,
}

/// Fold the per-id baseline values of `key` (`<id>.<key>`) by `rule`;
/// `None` when no id has the key.
fn per_id(base: &BTreeMap<String, f64>, key: &str, rule: Rule) -> Option<f64> {
    let vals: Vec<f64> = base
        .iter()
        .filter(|(k, _)| k.split_once('.').is_some_and(|(_, rest)| rest == key))
        .map(|(_, v)| *v)
        .collect();
    (!vals.is_empty()).then(|| match rule {
        Rule::Sum => vals.iter().sum(),
        Rule::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Rule::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
    })
}

/// The Prometheus value of `series`; a family name ending in `{` sums
/// every labeled series of the family.
fn prom_value(prom: &BTreeMap<String, f64>, series: &str) -> Option<f64> {
    if series.ends_with('{') {
        let vals: Vec<f64> = prom
            .iter()
            .filter(|(k, _)| k.starts_with(series))
            .map(|(_, v)| *v)
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum())
    } else {
        prom.get(series).copied()
    }
}

/// Run `repro` on `ids` with every telemetry output under `dir`.
fn run_repro(
    dir: &Path,
    ids: &[&str],
) -> (Vec<Event>, BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let (trace, prom, base) = (dir.join("t.jsonl"), dir.join("m.prom"), dir.join("b.json"));
    let out = Command::new(REPRO)
        .args(ids)
        .arg("--slo")
        .arg(repo_path("results/slo/quick.toml"))
        .arg("--quiet")
        .arg("--out")
        .arg(dir.join("results"))
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&prom)
        .arg("--write-baseline")
        .arg(&base)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (events, _) = parse_jsonl_lenient(&std::fs::read_to_string(trace).unwrap()).unwrap();
    let prom = parse_prometheus(&std::fs::read_to_string(prom).unwrap());
    (events, prom, baseline::read_baseline(&base).unwrap())
}

#[test]
fn every_event_is_a_schema_event_a_charge_a_span_or_a_msg() {
    let committed = std::fs::read_to_string(repo_path("results/traces/batch-quick.jsonl")).unwrap();
    let (events, skipped) = parse_jsonl_lenient(&committed).unwrap();
    assert_eq!(skipped, 0);
    assert_all_accounted("results/traces/batch-quick.jsonl", &events);

    let dir = std::env::temp_dir().join(format!("tcqr-conformance-{}", std::process::id()));
    let (events, prom, base) = run_repro(&dir, &["batch", "serve", "chaos"]);
    assert_all_accounted("repro batch serve chaos", &events);

    // Counts agree bit-exactly: every quantity is an integer tally.
    let exact: &[(&str, &str, Rule)] = &[
        ("counts.gemm_calls", "tcqr_gemm_calls_total", Rule::Sum),
        ("counts.panel_calls", "tcqr_panel_calls_total", Rule::Sum),
        ("round.rounded", "tcqr_rounded_total", Rule::Sum),
        ("round.overflow", "tcqr_fp16_overflow_total", Rule::Sum),
        ("round.underflow", "tcqr_fp16_underflow_total", Rule::Sum),
        ("round.nan", "tcqr_fp16_nan_total", Rule::Sum),
        ("solve.count", "tcqr_solves_total{", Rule::Sum),
        ("solve.stalled", "tcqr_stalled_solves_total{", Rule::Sum),
        ("fault.injected", "tcqr_fault_injected_total", Rule::Sum),
        ("fault.detected", "tcqr_fault_detected_total", Rule::Sum),
        ("fault.retries", "tcqr_recovery_retries_total{", Rule::Sum),
        ("fleet.jobs", "tcqr_batch_jobs_total", Rule::Sum),
        ("fleet.err", "tcqr_batch_jobs_failed_total", Rule::Sum),
        ("fleet.engines", "tcqr_batch_engines", Rule::Max),
        ("fleet.critpath_jobs", "tcqr_critpath_jobs", Rule::Sum),
        ("slo.breaches", "tcqr_slo_breaches_total{", Rule::Sum),
        ("slo.recovered", "tcqr_slo_recovered_total{", Rule::Sum),
        ("serve.admitted", "tcqr_serve_admitted", Rule::Sum),
        ("serve.rejected", "tcqr_serve_rejected", Rule::Sum),
        ("serve.completed", "tcqr_serve_completed", Rule::Sum),
        ("serve.failed", "tcqr_serve_failed", Rule::Sum),
        ("serve.engines", "tcqr_serve_engines", Rule::Max),
        ("serve.deaths", "tcqr_serve_deaths", Rule::Sum),
        ("serve.failovers", "tcqr_serve_failovers", Rule::Sum),
        ("serve.retries", "tcqr_serve_retries", Rule::Sum),
        ("serve.quarantines", "tcqr_serve_quarantines", Rule::Sum),
        ("serve.rehabilitated", "tcqr_serve_rehabilitated", Rule::Sum),
        (
            "serve.deadline_missed",
            "tcqr_serve_deadline_missed",
            Rule::Sum,
        ),
        ("serve.shed", "tcqr_serve_shed", Rule::Sum),
        ("serve.lost", "tcqr_serve_lost", Rule::Sum),
        ("health.scaled_cols", "tcqr_scaling_scaled_cols", Rule::Max),
        ("health.scaling_min_exp", "tcqr_scaling_min_exp", Rule::Min),
        ("health.scaling_max_exp", "tcqr_scaling_max_exp", Rule::Max),
    ];
    // Modeled seconds and flops: the per-id sums add in a different order
    // than the live running sum, so they agree to rounding.
    let mut close: Vec<(String, String, Rule)> = [
        ("fleet.makespan_secs", "tcqr_batch_makespan_secs", Rule::Sum),
        ("fleet.busy_secs", "tcqr_batch_busy_secs", Rule::Sum),
        (
            "fleet.queue_wait_p50_secs",
            "tcqr_batch_queue_wait_p50_secs",
            Rule::Max,
        ),
        (
            "fleet.queue_wait_p90_secs",
            "tcqr_batch_queue_wait_p90_secs",
            Rule::Max,
        ),
        (
            "fleet.queue_wait_p99_secs",
            "tcqr_batch_queue_wait_p99_secs",
            Rule::Max,
        ),
        (
            "fleet.critpath_length_secs",
            "tcqr_critpath_length_secs",
            Rule::Sum,
        ),
        (
            "fleet.critpath_slack_max_secs",
            "tcqr_critpath_slack_max_secs",
            Rule::Max,
        ),
        ("serve.worst_burn", "tcqr_serve_worst_burn", Rule::Max),
        ("serve.burn_limit", "tcqr_serve_burn_limit", Rule::Max),
        (
            "health.ortho_max",
            "tcqr_orthogonality_error_max",
            Rule::Max,
        ),
    ]
    .iter()
    .map(|(k, s, r)| (k.to_string(), s.to_string(), *r))
    .collect();
    for key in base.keys() {
        let rest = key.split_once('.').unwrap().1;
        for (family, label, prom_family) in [
            ("secs", "phase", "tcqr_modeled_seconds"),
            ("flops", "class", "tcqr_flops"),
        ] {
            if let Some(v) = rest.strip_prefix(family).and_then(|r| r.strip_prefix('.')) {
                if v != "total" {
                    let series = format!("{prom_family}{{{label}=\"{v}\"}}");
                    close.push((rest.to_string(), series, Rule::Sum));
                }
            }
        }
    }
    close.sort_by(|a, b| a.0.cmp(&b.0));
    close.dedup_by(|a, b| a.0 == b.0);

    let mut checked = 0;
    for (key, series, rule, exact) in exact
        .iter()
        .map(|(k, s, r)| (k.to_string(), s.to_string(), *r, true))
        .chain(close.into_iter().map(|(k, s, r)| (k, s, r, false)))
    {
        let (b, p) = (per_id(&base, &key, rule), prom_value(&prom, &series));
        match (b, p) {
            (None, p) => assert!(p.unwrap_or(0.0) == 0.0, "{series} = {p:?} without {key}"),
            (Some(b), None) => assert_eq!(b, 0.0, "{key} = {b} but no {series}"),
            (Some(b), Some(p)) if exact => assert_eq!(b, p, "{key} vs {series} ({rule:?})"),
            (Some(b), Some(p)) => assert!(
                (b - p).abs() <= 1e-9 * b.abs().max(p.abs()),
                "{key} = {b} vs {series} = {p} ({rule:?})"
            ),
        }
        checked += b.is_some() as usize;
    }
    // The run exercised charges, solves, batches, SLOs, services and chaos.
    assert!(
        checked >= 30,
        "only {checked} quantities were present in both views"
    );
    // The live fold also counts repro's own narration outside the
    // per-experiment drains, so it sees at least every drained event.
    let drained = per_id(&base, "counts.events", Rule::Sum).unwrap();
    assert!(prom["tcqr_events_total"] >= drained);

    // The Chrome exporter's counter tracks end on the fold's tallies.
    let rep = RunReport::from_events(&events);
    let doc = json::parse(&chrome_trace_json(&events)).unwrap();
    let last = |track: &str| -> BTreeMap<String, f64> {
        let rec = doc.as_arr().unwrap().iter().rfind(|r| {
            r.get("ph").and_then(Json::as_str) == Some("C")
                && r.get("name").and_then(Json::as_str) == Some(track)
        });
        let args = rec
            .unwrap_or_else(|| panic!("no {track} sample"))
            .get("args");
        let obj = args.and_then(Json::as_obj).unwrap();
        obj.iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap()))
            .collect()
    };
    assert_eq!(last("flops"), rep.class_flops);
    let rounding = [
        ("nan", rep.nan),
        ("overflow", rep.overflow),
        ("underflow", rep.underflow),
    ];
    let rounding = rounding.map(|(k, v)| (k.to_string(), v as f64)).into();
    assert_eq!(last("fp16_rounding"), rounding);
    let _ = std::fs::remove_dir_all(&dir);
}
