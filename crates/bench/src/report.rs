//! Result rows: aligned console tables plus JSON lines for downstream
//! plotting.

/// One measurement row (superset of what each experiment prints).
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id, e.g. `fig7a`.
    pub experiment: String,
    /// Index label.
    pub index: String,
    /// Dataset label.
    pub dataset: String,
    /// Workload label or sweep parameter name.
    pub workload: String,
    /// Sweep x-value (threads, ε, θ, init ratio …), if any.
    pub x: Option<f64>,
    /// Throughput, million ops/sec.
    pub mops: Option<f64>,
    /// P99.9 latency, µs.
    pub p999_us: Option<f64>,
    /// Generic metric (model count, pointer count, bytes, share…).
    pub value: Option<f64>,
    /// What `value` measures.
    pub metric: String,
    /// The host's available parallelism at run time. Always recorded:
    /// throughput numbers are meaningless without knowing how many
    /// cores produced them (ROADMAP trust item).
    pub parallelism: usize,
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 the way serde_json does: always with a decimal point or
/// exponent so the value round-trips as a float.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        debug_assert!(s.contains('.') || s.contains('e') || s.contains("inf"));
        s
    } else {
        "null".to_string()
    }
}

impl Row {
    /// A blank row for `experiment`.
    pub fn new(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            index: String::new(),
            dataset: String::new(),
            workload: String::new(),
            x: None,
            mops: None,
            p999_us: None,
            value: None,
            metric: String::new(),
            parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Builder-style setters.
    pub fn index(mut self, v: &str) -> Self {
        self.index = v.to_string();
        self
    }
    /// Set the dataset label.
    pub fn dataset(mut self, v: &str) -> Self {
        self.dataset = v.to_string();
        self
    }
    /// Set the workload label.
    pub fn workload(mut self, v: &str) -> Self {
        self.workload = v.to_string();
        self
    }
    /// Set the sweep x-value.
    pub fn x(mut self, v: f64) -> Self {
        self.x = Some(v);
        self
    }
    /// Set throughput.
    pub fn mops(mut self, v: f64) -> Self {
        self.mops = Some(v);
        self
    }
    /// Set tail latency.
    pub fn p999(mut self, v: f64) -> Self {
        self.p999_us = Some(v);
        self
    }
    /// Set a generic metric value.
    pub fn value(mut self, metric: &str, v: f64) -> Self {
        self.metric = metric.to_string();
        self.value = Some(v);
        self
    }

    /// Serialize to one compact JSON object, omitting unset optional
    /// fields (the shape `scripts/summarize_results.py` parses).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"experiment\":\"{}\"", json_escape(&self.experiment)),
            format!("\"index\":\"{}\"", json_escape(&self.index)),
            format!("\"dataset\":\"{}\"", json_escape(&self.dataset)),
            format!("\"workload\":\"{}\"", json_escape(&self.workload)),
        ];
        if let Some(x) = self.x {
            fields.push(format!("\"x\":{}", json_f64(x)));
        }
        if let Some(m) = self.mops {
            fields.push(format!("\"mops\":{}", json_f64(m)));
        }
        if let Some(p) = self.p999_us {
            fields.push(format!("\"p999_us\":{}", json_f64(p)));
        }
        if let Some(v) = self.value {
            fields.push(format!("\"value\":{}", json_f64(v)));
        }
        if !self.metric.is_empty() {
            fields.push(format!("\"metric\":\"{}\"", json_escape(&self.metric)));
        }
        fields.push(format!("\"parallelism\":{}", self.parallelism));
        format!("{{{}}}", fields.join(","))
    }

    /// Print as an aligned console line and a trailing JSON line (prefixed
    /// `#json ` so table parsing stays trivial).
    pub fn emit(&self) {
        let mut line = format!(
            "{:<8} {:<12} {:<8} {:<12}",
            self.experiment, self.index, self.dataset, self.workload
        );
        if let Some(x) = self.x {
            line += &format!(" x={x:<10.3}");
        }
        if let Some(m) = self.mops {
            line += &format!(" {m:>9.3} Mops/s");
        }
        if let Some(p) = self.p999_us {
            line += &format!(" p99.9={p:>9.2}us");
        }
        if let Some(v) = self.value {
            line += &format!(" {}={v:.4}", self.metric);
        }
        println!("{line}");
        println!("#json {}", self.to_json());
    }
}

/// Repetitions behind every best-of measurement (bulk_build's builds,
/// batch_lookup's passes): construction dominates those runs, so extra
/// passes are nearly free, and two were once both caught by host
/// interference.
pub const REPS: usize = 3;

/// The best (largest) of a set of throughput measurements — the one
/// repetition policy: best of [`REPS`] passes, or best over a sweep
/// (service_throughput's saturation row).
pub fn best(mops: impl IntoIterator<Item = f64>) -> f64 {
    mops.into_iter().fold(0.0, f64::max)
}

/// Print an experiment banner with the run configuration.
pub fn banner(name: &str, detail: &str) {
    println!("== {name}: {detail}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_serializes_compactly() {
        let r = Row::new("fig7a")
            .index("ALT-index")
            .dataset("osm")
            .workload("read-only")
            .mops(12.5)
            .p999(3.2);
        let js = r.to_json();
        assert!(js.contains("\"experiment\":\"fig7a\""));
        assert!(js.contains("\"mops\":12.5"));
        assert!(!js.contains("\"x\""), "unset fields omitted: {js}");
    }

    #[test]
    fn every_row_records_host_parallelism() {
        let r = Row::new("any");
        assert!(r.parallelism >= 1);
        assert!(
            r.to_json()
                .contains(&format!("\"parallelism\":{}", r.parallelism)),
            "parallelism must be present on every row"
        );
    }

    #[test]
    fn value_rows_carry_metric_names() {
        let r = Row::new("fig10c").value("keys_in_art", 42.0);
        let js = r.to_json();
        assert!(js.contains("\"metric\":\"keys_in_art\""));
        assert!(js.contains("\"value\":42.0"));
    }

    #[test]
    fn json_floats_roundtrip_as_floats() {
        assert_eq!(super::json_f64(42.0), "42.0");
        assert_eq!(super::json_f64(12.5), "12.5");
        assert_eq!(super::json_f64(f64::NAN), "null");
    }

    #[test]
    fn json_strings_are_escaped() {
        let r = Row::new("e\"x").index("a\\b");
        let js = r.to_json();
        assert!(js.contains("\"experiment\":\"e\\\"x\""));
        assert!(js.contains("\"index\":\"a\\\\b\""));
    }
}
