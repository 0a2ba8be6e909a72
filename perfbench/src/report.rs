//! Result collection and printing.
//!
//! A run collects three kinds of figures: the gated end-to-end metrics
//! (untraced runs), the per-layer metrics (traced runs), and extra
//! information printed for people but not gated. All of them are printed
//! one per line with their unit; the last line of standard output is one
//! JSON object with every figure, which `run.py` narrows to the metrics
//! `BENCHMARK.json` declares.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    EndToEnd,
    Layer,
    Info,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    figures: Vec<(String, f64, String, Kind)>,
    /// Run context: seed, nproc, offered rates, sample counts.
    context: Vec<(String, String)>,
}

/// Renders a float with every digit it has; JSON has no NaN or infinity.
pub fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &str, kind: Kind) {
        self.figures.retain(|(n, ..)| n != name);
        self.figures
            .push((name.to_string(), value, unit.to_string(), kind));
    }

    /// A gated end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::EndToEnd);
    }

    /// A per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::Layer);
    }

    /// A per-layer count.
    pub fn count(&mut self, name: &str, value: f64) {
        self.push(name, value, "count", Kind::Layer);
    }

    /// A figure printed for people and not gated.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::Info);
    }

    /// A context entry of the result row.
    pub fn context(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints every figure, then the result row as the last line.
    pub fn print(&self) {
        for (key, value) in &self.context {
            println!("  {key:<32} {value}");
        }
        for kind in [Kind::EndToEnd, Kind::Info, Kind::Layer] {
            let title = match kind {
                Kind::EndToEnd => "end-to-end",
                Kind::Info => "information (not gated)",
                Kind::Layer => "per-layer",
            };
            let rows: Vec<_> = self.figures.iter().filter(|f| f.3 == kind).collect();
            if rows.is_empty() {
                continue;
            }
            println!("{title}:");
            for (name, value, unit, _) in rows {
                println!("  {name:<32} {value:>16.6} {unit}");
            }
        }
        println!(
            "operations: {} attempted, {} failed, error_rate {}",
            self.attempted,
            self.failed,
            json_num(self.error_rate())
        );
        println!("{}", self.json());
    }

    /// The result row: verdict, counts, context, and every figure.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"context\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (k, v)) in self.context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{v}\"");
        }
        s.push_str("}, \"metrics\": {");
        for (i, (name, value, unit, kind)) in self.figures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let kind = match kind {
                Kind::EndToEnd => "end_to_end",
                Kind::Layer => "per_layer",
                Kind::Info => "info",
            };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"kind\": \"{kind}\"}}",
                json_num(*value)
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_stay_json() {
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(-2.5), "-2.5");
    }

    #[test]
    fn later_figures_replace_earlier_ones() {
        let mut r = Report::default();
        r.layer("a", 1.0, "ms");
        r.layer("a", 2.0, "ms");
        assert!(r.json().contains("\"a\": {\"value\": 2.0,"));
        assert!(!r.json().contains("1.0"));
        r.attempted = 3;
        assert!(r
            .json()
            .starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
