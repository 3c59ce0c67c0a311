//! Prometheus/OpenMetrics text exposition for the metrics registry.
//!
//! [`render`] turns a [`RegistrySnapshot`] into the OpenMetrics text
//! format (`# TYPE` metadata, `_total` counter samples, cumulative
//! histogram `_bucket`/`_sum`/`_count` lines, trailing `# EOF`) that
//! Prometheus, VictoriaMetrics, or a plain `curl` can consume from the
//! [`crate::serve::MetricsServer`] scrape endpoint.
//!
//! The registry keys metrics by a flat string. Per-tenant (or otherwise
//! labeled) series use the [`labeled`] naming convention — the metric
//! name followed by a `{key="value"}` block with escaped values — which
//! this renderer splits back into family name + label set so one family
//! groups all of its series under a single `# TYPE` line:
//!
//! ```
//! let name = obs::labeled("slo.within_10pct_ratio", &[("tenant", "alice")]);
//! assert_eq!(name, "slo.within_10pct_ratio{tenant=\"alice\"}");
//! obs::registry().gauge(&name).set(0.9);
//! let text = obs::openmetrics::render(&obs::registry().snapshot());
//! assert!(text.contains("slo_within_10pct_ratio{tenant=\"alice\"} 0.9"));
//! ```
//!
//! Histograms record nanoseconds internally; the exposition renders
//! bucket bounds and sums in **seconds** (the Prometheus base unit for
//! time), keeping the factor-2 power-of-two bucket layout.

use std::fmt::Write as _;

use crate::metrics::{Histogram, HistogramSnapshot, RegistrySnapshot};

/// The scrape response content type for OpenMetrics text.
pub const CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Builds a registry key carrying a label set: `name{k="v",...}` with
/// OpenMetrics-escaped values. Look the metric up under this full key;
/// [`render`] splits it back into family + labels at exposition time.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Escapes a label value per the OpenMetrics text format: backslash,
/// double-quote, and newline.
fn escape_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Sanitizes a metric family name to `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Splits a registry key into `(family, label_block)` where the label
/// block (possibly empty) includes its braces, e.g.
/// `slo.ratio{tenant="a"}` → `("slo_ratio", "{tenant=\"a\"}")`. Keys
/// whose brace block is malformed are sanitized wholesale.
fn split_key(key: &str) -> (String, String) {
    match key.find('{') {
        Some(brace) if key.ends_with('}') => (sanitize(&key[..brace]), key[brace..].to_string()),
        _ => (sanitize(key), String::new()),
    }
}

/// Formats an f64 sample value; non-finite values use the OpenMetrics
/// spellings `+Inf` / `-Inf` / `NaN`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Emits one `# TYPE` line the first time a family appears.
fn type_line(out: &mut String, last_family: &mut String, family: &str, kind: &str) {
    if family != last_family {
        let _ = writeln!(out, "# TYPE {family} {kind}");
        last_family.clear();
        last_family.push_str(family);
    }
}

/// Renders a snapshot in the OpenMetrics text format (ending with
/// `# EOF`). Counters become `<name>_total`, gauges plain samples, and
/// histograms cumulative `_bucket{le="..."}` series (bounds in seconds)
/// plus `_sum`/`_count`.
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(1024);
    let mut last_family = String::new();

    for (key, v) in &snapshot.counters {
        let (family, labels) = split_key(key);
        // Respect names that already carry the `_total` suffix.
        let family = family
            .strip_suffix("_total")
            .map(str::to_string)
            .unwrap_or(family);
        type_line(&mut out, &mut last_family, &family, "counter");
        let _ = writeln!(out, "{family}_total{labels} {v}");
    }
    for (key, v) in &snapshot.gauges {
        let (family, labels) = split_key(key);
        type_line(&mut out, &mut last_family, &family, "gauge");
        let _ = writeln!(out, "{family}{labels} {}", fmt_value(*v));
    }
    for (key, h) in &snapshot.histograms {
        let (family, labels) = split_key(key);
        type_line(&mut out, &mut last_family, &family, "histogram");
        render_histogram(&mut out, &family, &labels, h);
    }
    out.push_str("# EOF\n");
    out
}

fn render_histogram(out: &mut String, family: &str, labels: &str, h: &HistogramSnapshot) {
    // `le` labels compose with any series labels: re-open the block.
    let with = |le: &str| -> String {
        if labels.is_empty() {
            format!("{{le=\"{le}\"}}")
        } else {
            format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
        }
    };
    // Only the buckets that actually accumulate counts are emitted
    // (any subset of cumulative bounds plus +Inf is a valid histogram);
    // the 64-bucket power-of-two layout would otherwise be 64 lines of
    // zeros per histogram.
    let mut cumulative = 0u64;
    for (idx, c) in h.buckets.iter().enumerate() {
        if *c == 0 {
            continue;
        }
        cumulative += c;
        let upper_s = Histogram::bucket_upper_ns(idx) as f64 / 1e9;
        let _ = writeln!(
            out,
            "{family}_bucket{} {cumulative}",
            with(&fmt_value(upper_s))
        );
    }
    let _ = writeln!(out, "{family}_bucket{} {}", with("+Inf"), h.count);
    let _ = writeln!(
        out,
        "{family}_sum{labels} {}",
        fmt_value(h.sum_ns as f64 / 1e9)
    );
    let _ = writeln!(out, "{family}_count{labels} {}", h.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn labeled_escapes_values() {
        assert_eq!(
            labeled("m", &[("tenant", "a\"b\\c\nd")]),
            "m{tenant=\"a\\\"b\\\\c\\nd\"}"
        );
        assert_eq!(
            labeled("m", &[("a", "1"), ("b", "2")]),
            "m{a=\"1\",b=\"2\"}"
        );
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("service.tunings"), "service_tunings");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn golden_counter_gauge_histogram_rendering() {
        let reg = Registry::new();
        reg.counter("service.tunings").add(5);
        reg.counter(&labeled("slo.tuning_cost_cents", &[("tenant", "a\"x")]))
            .add(250);
        reg.gauge(&labeled("slo.within_10pct_ratio", &[("tenant", "alice")]))
            .set(0.9);
        reg.gauge("par.threads").set(f64::INFINITY);
        let h = reg.histogram("tuner.propose_s");
        h.record_ns(3); // bucket [2,4) → le 4ns
        h.record_ns(1000); // bucket [512,1024) → le 1024ns
        h.record_ns(1000);

        let text = render(&reg.snapshot());
        let expected = "\
# TYPE service_tunings counter
service_tunings_total 5
# TYPE slo_tuning_cost_cents counter
slo_tuning_cost_cents_total{tenant=\"a\\\"x\"} 250
# TYPE par_threads gauge
par_threads +Inf
# TYPE slo_within_10pct_ratio gauge
slo_within_10pct_ratio{tenant=\"alice\"} 0.9
# TYPE tuner_propose_s histogram
tuner_propose_s_bucket{le=\"0.000000004\"} 1
tuner_propose_s_bucket{le=\"0.000001024\"} 3
tuner_propose_s_bucket{le=\"+Inf\"} 3
tuner_propose_s_sum 0.000002003
tuner_propose_s_count 3
# EOF
";
        assert_eq!(text, expected);
    }

    #[test]
    fn one_type_line_per_family_of_labeled_series() {
        let reg = Registry::new();
        reg.gauge(&labeled("slo.ratio", &[("tenant", "a")]))
            .set(1.0);
        reg.gauge(&labeled("slo.ratio", &[("tenant", "b")]))
            .set(0.5);
        let text = render(&reg.snapshot());
        assert_eq!(text.matches("# TYPE slo_ratio gauge").count(), 1);
        assert!(text.contains("slo_ratio{tenant=\"a\"} 1\n"));
        assert!(text.contains("slo_ratio{tenant=\"b\"} 0.5\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_labeled() {
        let reg = Registry::new();
        let h = reg.histogram(&labeled("exec.batch_s", &[("stage", "s2")]));
        for _ in 0..4 {
            h.record_ns(10);
        }
        let text = render(&reg.snapshot());
        assert!(
            text.contains("exec_batch_s_bucket{stage=\"s2\",le=\"0.000000016\"} 4"),
            "{text}"
        );
        assert!(text.contains("exec_batch_s_bucket{stage=\"s2\",le=\"+Inf\"} 4"));
        assert!(text.contains("exec_batch_s_count{stage=\"s2\"} 4"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn empty_snapshot_is_just_eof() {
        let reg = Registry::new();
        assert_eq!(render(&reg.snapshot()), "# EOF\n");
    }
}
