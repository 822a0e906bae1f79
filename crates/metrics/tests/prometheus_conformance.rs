//! Parser-based conformance check for the Prometheus text exposition.
//!
//! Rather than substring-matching the rendered text, these tests fold a
//! traced event stream, run a small strict parser over the
//! `render_prometheus` output, and assert the structural rules a real
//! scraper relies on:
//!
//! - every sample's family is announced by a `# HELP` line and then a
//!   `# TYPE` line *before* its first sample, each exactly once;
//! - histogram families expand to `_bucket`/`_sum`/`_count` samples that map
//!   back to the declared family;
//! - label values are quoted and use only the three legal escapes
//!   (`\\`, `\"`, `\n`) — anything else fails the parse;
//! - sample values parse as Prometheus floats (`+Inf`/`-Inf`/`NaN`
//!   spellings included).

use std::sync::Arc;

use tcqr_metrics::{RunReport, TraceToMetrics};
use tcqr_trace::{MemSink, Tracer, Value};

/// One parsed sample line.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parsed exposition: comment stream order plus samples.
#[derive(Debug, Default)]
struct Exposition {
    /// `(family, help-text)` in order of appearance.
    help: Vec<(String, String)>,
    /// `(family, kind)` in order of appearance.
    types: Vec<(String, String)>,
    samples: Vec<Sample>,
}

fn is_name_char(c: char, first: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
}

fn parse_name(s: &str) -> Result<(&str, &str), String> {
    let mut end = 0;
    for (i, c) in s.char_indices() {
        if is_name_char(c, i == 0) {
            end = i + c.len_utf8();
        } else {
            break;
        }
    }
    if end == 0 {
        return Err(format!("expected metric name at {s:?}"));
    }
    Ok((&s[..end], &s[end..]))
}

/// Label pairs plus the unparsed remainder of the line.
type Labels<'a> = (Vec<(String, String)>, &'a str);

/// Parse `{k="v",...}`; rejects any escape other than `\\`, `\"`, `\n` and
/// any raw newline/quote inside a value.
fn parse_labels(s: &str) -> Result<Labels<'_>, String> {
    let mut rest = s
        .strip_prefix('{')
        .ok_or_else(|| format!("expected '{{' at {s:?}"))?;
    let mut labels = Vec::new();
    loop {
        let (key, after_key) = parse_name(rest)?;
        rest = after_key
            .strip_prefix("=\"")
            .ok_or_else(|| format!("label {key}: expected '=\"' at {after_key:?}"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after_value = loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| format!("label {key}: unterminated value"))?;
            match c {
                '"' => break &rest[i + 1..],
                '\\' => {
                    let (_, esc) = chars
                        .next()
                        .ok_or_else(|| format!("label {key}: dangling backslash"))?;
                    match esc {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => {
                            return Err(format!(
                                "label {key}: illegal escape \\{other} (only \\\\, \\\", \\n)"
                            ))
                        }
                    }
                }
                '\n' => return Err(format!("label {key}: raw newline in value")),
                c => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        rest = after_value;
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            continue;
        }
        rest = rest
            .strip_prefix('}')
            .ok_or_else(|| format!("expected ',' or '}}' at {rest:?}"))?;
        return Ok((labels, rest));
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|e| format!("bad sample value {other:?}: {e}")),
    }
}

fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let (family, text) = rest
                    .split_once(' ')
                    .ok_or_else(|| err("HELP without text".into()))?;
                out.help.push((family.to_string(), text.to_string()));
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let (family, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| err("TYPE without kind".into()))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped")
                {
                    return Err(err(format!("unknown TYPE kind {kind:?}")));
                }
                out.types.push((family.to_string(), kind.to_string()));
            } else {
                return Err(err(format!("unrecognized comment {line:?}")));
            }
            continue;
        }
        let (name, rest) = parse_name(line).map_err(err)?;
        let (labels, rest) = if rest.starts_with('{') {
            parse_labels(rest).map_err(err)?
        } else {
            (Vec::new(), rest)
        };
        let rest = rest
            .strip_prefix(' ')
            .ok_or_else(|| err(format!("expected space before value at {rest:?}")))?;
        let value = parse_value(rest).map_err(err)?;
        out.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

/// Map a sample name back to its declared family: histogram samples carry a
/// `_bucket`/`_sum`/`_count` suffix on top of the family name.
fn family_of<'a>(sample: &'a str, declared: &[(String, String)]) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = sample.strip_suffix(suffix) {
            if declared
                .iter()
                .any(|(f, k)| f == stem && k == "histogram")
            {
                return stem;
            }
        }
    }
    sample
}

/// Assert the structural rules over a rendered exposition.
fn assert_conformant(text: &str) -> Exposition {
    let exp = parse_exposition(text).expect("exposition parses");
    // HELP and TYPE at most once per family, HELP first.
    for (i, (family, _)) in exp.types.iter().enumerate() {
        assert_eq!(
            exp.types.iter().filter(|(f, _)| f == family).count(),
            1,
            "family {family} has more than one TYPE line"
        );
        let help_idx = exp
            .help
            .iter()
            .position(|(f, _)| f == family)
            .unwrap_or_else(|| panic!("family {family} has no HELP line"));
        // The renderer interleaves HELP/TYPE pairs, so the i-th TYPE must be
        // preceded by at least i+1 HELP lines including its own.
        assert!(help_idx <= i, "HELP for {family} comes after its TYPE");
    }
    // Every sample belongs to a declared family.
    for s in &exp.samples {
        let family = family_of(&s.name, &exp.types);
        assert!(
            exp.types.iter().any(|(f, _)| f == family),
            "sample {} has no TYPE declaration (family {family})",
            s.name
        );
        assert!(
            exp.help.iter().any(|(f, _)| f == family),
            "sample {} has no HELP declaration (family {family})",
            s.name
        );
    }
    exp
}

/// Fold the events `emit` traces and render them.
fn render(emit: impl FnOnce(&Tracer)) -> String {
    let sink = Arc::new(MemSink::new());
    emit(&Tracer::new(sink.clone()));
    RunReport::from_events(&sink.snapshot()).render_prometheus()
}

#[test]
fn bridge_output_parses_and_declares_every_family() {
    let bridge = Arc::new(TraceToMetrics::new());
    let tracer = Tracer::new(bridge.clone());
    tracer.op(
        "gemm",
        &[
            ("phase", Value::from("update")),
            ("class", Value::from("tc")),
            ("secs", Value::from(2e-3)),
            ("flops", Value::from(1e6)),
        ],
    );
    tracer.op(
        "slo.objective",
        &[
            ("objective", Value::from("queue-wait")),
            ("kind", Value::from("queue_wait")),
            ("healthy", Value::from(true)),
            ("measured", Value::from(0.25)),
        ],
    );
    tracer.warn(
        "slo.breach",
        &[("objective", Value::from("no-escapes")), ("value", Value::from(1.0))],
    );
    let exp = assert_conformant(&bridge.render_prometheus());
    assert!(!exp.samples.is_empty());
    let healthy = exp
        .samples
        .iter()
        .find(|s| s.name == "tcqr_slo_healthy")
        .expect("slo.objective produced tcqr_slo_healthy");
    assert_eq!(
        healthy.labels,
        vec![("objective".to_string(), "queue-wait".to_string())]
    );
    assert_eq!(healthy.value, 1.0);
    let breaches = exp
        .samples
        .iter()
        .find(|s| s.name == "tcqr_slo_breaches_total")
        .expect("slo.breach produced tcqr_slo_breaches_total");
    assert_eq!(breaches.value, 1.0);
}

#[test]
fn hostile_label_values_round_trip_through_the_escaper() {
    // An objective name using every character class the exposition format
    // makes special, as a user-written SLO spec might.
    let nasty = "shape \"4x8\" rejected\\retry\nescalated";
    let text = render(|t| {
        t.op(
            "slo.objective",
            &[
                ("objective", Value::from(nasty)),
                ("healthy", Value::from(false)),
                ("measured", Value::from(3.0)),
            ],
        );
    });
    let exp = assert_conformant(&text);
    let s = exp
        .samples
        .iter()
        .find(|s| s.name == "tcqr_slo_measured")
        .unwrap();
    assert_eq!(s.labels, vec![("objective".to_string(), nasty.to_string())]);
    assert_eq!(s.value, 3.0);
}

#[test]
fn histogram_samples_map_back_to_their_declared_family() {
    let text = render(|t| {
        for secs in [0.75, 3.0] {
            t.op(
                "gemm",
                &[
                    ("phase", Value::from("update")),
                    ("secs", Value::from(secs)),
                ],
            );
        }
    });
    let exp = assert_conformant(&text);
    assert!(exp
        .types
        .iter()
        .any(|(f, k)| f == "tcqr_op_secs" && k == "histogram"));
    // _bucket samples carry the family labels plus `le`, and the +Inf bucket
    // equals _count.
    let buckets: Vec<&Sample> = exp
        .samples
        .iter()
        .filter(|s| s.name == "tcqr_op_secs_bucket")
        .collect();
    assert!(buckets.len() >= 2);
    for b in &buckets {
        assert!(b.labels.iter().any(|(k, v)| k == "phase" && v == "update"));
        assert!(b.labels.iter().any(|(k, _)| k == "le"));
    }
    let inf = buckets
        .iter()
        .find(|b| b.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
        .expect("+Inf bucket present");
    let count = exp
        .samples
        .iter()
        .find(|s| s.name == "tcqr_op_secs_count")
        .unwrap();
    assert_eq!(inf.value, count.value);
    assert_eq!(count.value, 2.0);
}

#[test]
fn the_parser_itself_rejects_nonconforming_text() {
    // Sanity: the checks above are only as strong as the parser.
    assert!(parse_exposition("tcqr_x{a=\"b\\t\"} 1").is_err(), "illegal escape");
    assert!(parse_exposition("tcqr_x{a=\"b} 1").is_err(), "unterminated value");
    assert!(parse_exposition("tcqr_x 1 2 3").is_err(), "trailing tokens");
    assert!(parse_exposition("# TYPE tcqr_x widget").is_err(), "unknown kind");
    assert!(parse_exposition("tcqr_x{a=\"b\"} 1").is_ok());
}
