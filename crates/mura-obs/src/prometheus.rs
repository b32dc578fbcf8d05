//! Prometheus text-exposition rendering (version 0.0.4 of the format).
//!
//! The serving layer's `.metrics` command emits this format so standard
//! scrapers (Prometheus, VictoriaMetrics, `promtool check metrics`) can
//! ingest the counters without an adapter. Only the subset we need is
//! implemented: `counter`, `gauge` and `histogram` families with optional
//! labels.

use crate::counters::{families, Row};
use crate::histogram::{bucket_bound_us, HistogramSnapshot, BUCKETS};
use std::fmt::Write;

/// An in-progress text-exposition page.
#[derive(Default)]
pub struct PromText {
    buf: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> Self {
        PromText::default()
    }

    /// Writes the `# HELP` / `# TYPE` header for a family. Call once per
    /// family, before its samples.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
        self
    }

    /// Writes one sample with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.buf.push_str(name);
        write_labels(&mut self.buf, labels);
        if value.fract() == 0.0 && value.abs() < 9e15 {
            let _ = writeln!(self.buf, " {}", value as i64);
        } else {
            let _ = writeln!(self.buf, " {value}");
        }
        self
    }

    /// Writes the families of a counter set's [`Row`]s, one sample per
    /// rendered field.
    pub fn rows(&mut self, rows: &[Row]) -> &mut Self {
        for run in families(rows) {
            let head = run[0].0;
            self.family(head.family, head.kind.name(), head.help);
            for (field, value) in run {
                self.sample(field.family, field.labels, *value as f64);
            }
        }
        self
    }

    /// Writes a whole gauge family with one unlabeled sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.family(name, "gauge", help).sample(name, &[], value)
    }

    /// Writes a histogram family (`_bucket` with cumulative `le` labels in
    /// **seconds**, `_sum`, `_count`) from a microsecond snapshot.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) -> &mut Self {
        self.family(name, "histogram", help);
        let mut cum = 0u64;
        for i in 0..=BUCKETS {
            cum += snap.counts.get(i).copied().unwrap_or(0);
            let le =
                if i == BUCKETS { "+Inf".to_string() } else { format_seconds(bucket_bound_us(i)) };
            self.sample(&format!("{name}_bucket"), &[("le", &le)], cum as f64);
        }
        self.sample(&format!("{name}_sum"), &[], snap.sum_us as f64 / 1e6);
        self.sample(&format!("{name}_count"), &[], snap.count as f64);
        self
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.buf
    }
}

pub(crate) fn write_labels(buf: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    buf.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        let _ = write!(buf, "{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    buf.push('}');
}

/// The value of the sample named `series` (`family` or `family{k="v",…}`,
/// as rendered) on a text-exposition page.
pub fn sample(page: &str, series: &str) -> Option<f64> {
    page.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// A microsecond bound as a seconds string without float noise
/// (`1µs → "0.000001"`, `33554432µs → "33.554432"`).
fn format_seconds(us: u64) -> String {
    let secs = us / 1_000_000;
    let rem = us % 1_000_000;
    if rem == 0 {
        format!("{secs}")
    } else {
        let frac = format!("{rem:06}");
        format!("{secs}.{}", frac.trim_end_matches('0'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn counters_and_gauges_render() {
        let mut p = PromText::new();
        p.family("mura_queries_total", "counter", "Queries.").sample(
            "mura_queries_total",
            &[],
            5.0,
        );
        p.gauge("mura_db_epoch", "Epoch.", 2.0);
        let page = p.finish();
        assert!(page.contains("# TYPE mura_queries_total counter"), "{page}");
        assert!(page.contains("mura_queries_total 5"), "{page}");
        assert!(page.contains("mura_db_epoch 2"), "{page}");
        assert_eq!(sample(&page, "mura_queries_total"), Some(5.0));
        assert_eq!(sample(&page, "mura_queries"), None);
    }

    #[test]
    fn labels_are_escaped() {
        let mut p = PromText::new();
        p.family("x_total", "counter", "h");
        p.sample("x_total", &[("q", "say \"hi\"")], 1.0);
        assert!(p.finish().contains("x_total{q=\"say \\\"hi\\\"\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let h = Histogram::new();
        h.record_us(1);
        h.record_us(3);
        h.record_us(100_000_000); // overflow
        let mut p = PromText::new();
        p.histogram("lat_seconds", "h", &h.snapshot());
        let page = p.finish();
        assert!(page.contains("lat_seconds_bucket{le=\"0.000001\"} 1"), "{page}");
        assert!(page.contains("lat_seconds_bucket{le=\"0.000004\"} 2"), "{page}");
        assert!(page.contains("lat_seconds_bucket{le=\"+Inf\"} 3"), "{page}");
        assert!(page.contains("lat_seconds_count 3"), "{page}");
        assert!(page.contains("lat_seconds_sum 100.000004"), "{page}");
    }

    #[test]
    fn seconds_formatting_is_exact() {
        assert_eq!(format_seconds(1), "0.000001");
        assert_eq!(format_seconds(1_000_000), "1");
        assert_eq!(format_seconds(33_554_432), "33.554432");
        assert_eq!(format_seconds(2_097_152), "2.097152");
    }
}
