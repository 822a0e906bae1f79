//! The Prometheus text exposition format.
//!
//! [`RunReport::render_prometheus`](crate::RunReport::render_prometheus)
//! names each series with `labeled` and writes the text through this
//! module: counters and gauges are one `name value` line each, and a
//! [`Histogram`] (log2-bucketed, owned by the fold) expands to cumulative
//! `_bucket` lines, `_sum` and `_count`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log2 buckets: one per exponent in `-128..=127`.
const HIST_BUCKETS: usize = 256;

/// A log2-bucketed histogram of nonnegative observations.
///
/// Bucket `i` counts observations with `floor(log2(v))` equal to `i - 128`
/// (clamped at the ends), i.e. bucket upper bounds are successive powers of
/// two from `2^-127` to `2^128`. Exact powers of two land in the bucket they
/// start: `observe(1.0)` counts toward upper bound `2.0`. Zero, negative,
/// and non-finite observations are counted in [`Histogram::count`] but
/// assigned to the extreme buckets (0 for `<= 0`/`-inf`, the last for
/// `+inf`/NaN), so the distribution never silently loses mass. NaN
/// observations stay out of [`Histogram::sum`].
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum.to_bits() == other.sum.to_bits()
            && self.buckets == other.buckets
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v == f64::INFINITY {
            return HIST_BUCKETS - 1;
        }
        if v <= 0.0 {
            return 0;
        }
        // f64 exponents span -1074..=1023; clamp into our -128..=127 range.
        let e = v.log2().floor();
        let e = e.clamp(-128.0, 127.0) as i32;
        (e + 128) as usize
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if !v.is_nan() {
            self.sum += v;
        }
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the observations that are not NaN.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in ascending order.
    ///
    /// The upper bound of the bucket holding exponent `e` is `2^(e+1)`: every
    /// `v` with `floor(log2 v) == e` satisfies `v < 2^(e+1)`.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let e = i as i32 - 128;
                out.push((2f64.powi(e + 1), c));
            }
        }
        out
    }
}

/// Encode a metric family plus labels into a single series name.
///
/// Labels use the Prometheus exposition syntax directly —
/// `labeled("tcqr_flops", &[("class", "tc")])` is `tcqr_flops{class="tc"}` —
/// so the text writer needs no separate label model and name ordering
/// groups a family's label sets together. Label *values* are escaped per the
/// exposition format ([`escape_label_value`]), so a solver name or error
/// string containing `"`, `\`, or a newline still renders as one
/// well-formed line.
pub(crate) fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut s = String::with_capacity(family.len() + 16 * labels.len());
    s.push_str(family);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label_value(v));
    }
    s.push('}');
    s
}

/// Escape a label value for the Prometheus text exposition format: the
/// format defines exactly three escapes inside a quoted label value —
/// backslash, double quote, and line feed. (Rust's `{:?}` is close but
/// emits `\u{..}` and `\t`-style escapes Prometheus parsers reject.)
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// One series' value.
#[derive(Debug)]
enum Sample {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Histogram>),
}

/// The series of one exposition under their full names (`family{labels}`).
/// Writing a name again overwrites it, and [`Exposition::render`] walks the
/// names in order, so a family's label sets sit together.
#[derive(Debug, Default)]
pub(crate) struct Exposition(BTreeMap<String, Sample>);

impl Exposition {
    /// Set the counter `name`.
    pub(crate) fn counter(&mut self, name: impl Into<String>, v: u64) {
        self.0.insert(name.into(), Sample::Counter(v));
    }

    /// Set the gauge `name`.
    pub(crate) fn gauge(&mut self, name: impl Into<String>, v: f64) {
        self.0.insert(name.into(), Sample::Gauge(v));
    }

    /// Set the histogram `name`.
    pub(crate) fn histogram(&mut self, name: impl Into<String>, h: Histogram) {
        self.0.insert(name.into(), Sample::Histogram(Box::new(h)));
    }

    /// Render every series in the Prometheus text exposition format.
    ///
    /// Every family gets a `# HELP` line (from [`help_for`](crate::help_for),
    /// with a generic fallback for ad-hoc families) and a `# TYPE` line,
    /// then counters and gauges are one `name value` line each; histograms
    /// expand to `_bucket{le="..."}` lines (cumulative, only non-empty
    /// buckets plus `+Inf`), `_sum`, and `_count`, with the family's own
    /// labels merged into the `le` label set.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (name, sample) in &self.0 {
            let (family, labels) = split_labels(name);
            if family != last_family {
                let kind = match sample {
                    Sample::Counter(_) => "counter",
                    Sample::Gauge(_) => "gauge",
                    Sample::Histogram(_) => "histogram",
                };
                let help = crate::bridge::help_for(family)
                    .unwrap_or("tcqr metric (no registered description)");
                let _ = writeln!(out, "# HELP {family} {help}");
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family;
            }
            match sample {
                Sample::Counter(c) => {
                    let _ = writeln!(out, "{name} {c}");
                }
                Sample::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", fmt_f64(*g));
                }
                Sample::Histogram(h) => {
                    let mut cum = 0u64;
                    for (ub, c) in h.nonzero_buckets() {
                        cum += c;
                        let le = fmt_f64(ub);
                        let _ = writeln!(out, "{} {cum}", bucket(family, labels, &le));
                    }
                    let _ = writeln!(out, "{} {}", bucket(family, labels, "+Inf"), h.count());
                    let _ = writeln!(
                        out,
                        "{} {}",
                        rename_family(family, labels, "_sum"),
                        fmt_f64(h.sum())
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        rename_family(family, labels, "_count"),
                        h.count()
                    );
                }
            }
        }
        out
    }
}

/// Split `family{k="v"}` into `("family", Some("k=\"v\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) => (&name[..i], Some(name[i + 1..].trim_end_matches('}'))),
        None => (name, None),
    }
}

/// The `_bucket` series of `family` with upper bound `le`.
fn bucket(family: &str, labels: Option<&str>, le: &str) -> String {
    let le = escape_label_value(le);
    match labels {
        Some(l) if !l.is_empty() => format!("{family}_bucket{{{l},le=\"{le}\"}}"),
        _ => format!("{family}_bucket{{le=\"{le}\"}}"),
    }
}

fn rename_family(family: &str, labels: Option<&str>, suffix: &str) -> String {
    match labels {
        Some(l) if !l.is_empty() => format!("{family}{suffix}{{{l}}}"),
        _ => format!("{family}{suffix}"),
    }
}

/// Prometheus-compatible f64 formatting (`+Inf`/`-Inf`/`NaN` spellings).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        h.observe(0.75); // exponent -1, upper bound 1
        h.observe(1.0); // exponent 0, upper bound 2
        h.observe(3.0); // exponent 1, upper bound 4
        h.observe(3.9);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 8.65).abs() < 1e-12);
        assert_eq!(h.nonzero_buckets(), vec![(1.0, 1), (2.0, 1), (4.0, 2)]);
    }

    #[test]
    fn histogram_edge_observations_keep_mass() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-1.0);
        h.observe(f64::INFINITY);
        h.observe(f64::NAN);
        h.observe(1e-300); // below 2^-128: clamped into the bottom bucket
        assert_eq!(h.count(), 5);
        let total: u64 = h.nonzero_buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
        // NaN counts but stays out of the sum.
        assert_eq!(h.sum(), f64::INFINITY);
    }

    #[test]
    fn labeled_names() {
        assert_eq!(labeled("f", &[]), "f");
        assert_eq!(labeled("f", &[("a", "x")]), "f{a=\"x\"}");
        assert_eq!(
            labeled("f", &[("a", "x"), ("b", "y")]),
            "f{a=\"x\",b=\"y\"}"
        );
    }

    #[test]
    fn label_values_use_exposition_escapes() {
        // Exactly the three escapes the exposition format defines; no Rust
        // debug artifacts like \u{..} or \t.
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("tab\there"), "tab\there");
        assert_eq!(
            labeled("f", &[("err", "shape \"4x8\"\nrejected")]),
            "f{err=\"shape \\\"4x8\\\"\\nrejected\"}"
        );
    }

    #[test]
    fn render_emits_help_before_type_per_family() {
        let mut e = Exposition::default();
        e.counter("tcqr_events_total", 1);
        e.counter(labeled("tcqr_flops", &[("class", "tc")]), 2);
        e.counter(labeled("tcqr_flops", &[("class", "fp32")]), 3);
        e.gauge("tcqr_made_up_family", 1.0);
        let text = e.render();
        // Known families get their registered description...
        assert_eq!(text.matches("# HELP tcqr_flops ").count(), 1);
        let help_pos = text.find("# HELP tcqr_flops").unwrap();
        let type_pos = text.find("# TYPE tcqr_flops").unwrap();
        assert!(help_pos < type_pos, "HELP precedes TYPE");
        // ...and unknown ones still get a HELP line (fallback text).
        assert!(text.contains("# HELP tcqr_made_up_family "));
    }

    #[test]
    fn prometheus_render() {
        let mut e = Exposition::default();
        e.counter(labeled("tcqr_flops", &[("class", "tc")]), 100);
        e.counter(labeled("tcqr_flops", &[("class", "fp32")]), 50);
        e.gauge("tcqr_ortho", 1.25e-7);
        let mut h = Histogram::new();
        h.observe(0.75);
        e.histogram("tcqr_secs", h);
        let text = e.render();
        assert!(text.contains("# TYPE tcqr_flops counter"));
        // One TYPE line per family, not per label set.
        assert_eq!(text.matches("# TYPE tcqr_flops").count(), 1);
        assert!(text.contains("tcqr_flops{class=\"fp32\"} 50"));
        assert!(text.contains("tcqr_flops{class=\"tc\"} 100"));
        assert!(text.contains("tcqr_ortho 0.000000125"));
        assert!(text.contains("# TYPE tcqr_secs histogram"));
        assert!(text.contains("tcqr_secs_bucket{le=\"1\"} 1"));
        assert!(text.contains("tcqr_secs_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("tcqr_secs_sum 0.75"));
        assert!(text.contains("tcqr_secs_count 1"));
    }
}
