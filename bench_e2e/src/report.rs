//! Result assembly: metric lists, order statistics, the run header and the
//! one-line JSON result.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// An ordered metric list.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric { name, unit, value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (shots for the engine workloads, windows for
    /// the stream).
    pub attempted: u64,
    /// Operations that ended on a degraded path.
    pub failed: u64,
    /// Correctness-gate violations; empty means correct.
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// Free-form facts for the run record (sample counts, tier splits).
    pub notes: Vec<(&'static str, String)>,
    /// Recorded spans as JSON, traced runs only.
    pub spans_json: Option<String>,
}

impl Outcome {
    /// Records a gate violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host cores as the standard library reports them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON with every digit Rust prints for it.
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value must be finite, got {x}");
    format!("{x:?}")
}

/// The run header: what ran, where, with how many threads.
pub fn header_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    extra_threads: usize,
) -> String {
    let cores = host_cores();
    format!(
        concat!(
            "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, ",
            "\"trace\": {}, \"host_cores\": {}, \"threads\": {}, ",
            "\"generator_threads\": {}, \"oversubscribed\": {}}}}}"
        ),
        json_str(workload),
        seed,
        seconds,
        trace,
        cores,
        threads,
        extra_threads,
        threads + extra_threads > cores,
    )
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.0.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        )
        .expect("write to string");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics
    )
}

/// The run record written next to the result: notes, violations, spans.
pub fn record_json(header: &str, result: &str, out: &Outcome) -> String {
    let mut notes = String::new();
    for (i, (k, v)) in out.notes.iter().enumerate() {
        if i > 0 {
            notes.push_str(", ");
        }
        write!(notes, "{}: {}", json_str(k), json_str(v)).expect("write to string");
    }
    let violations: Vec<String> = out.violations.iter().map(|v| json_str(v)).collect();
    format!(
        "{{\"run\": {},\n\"result\": {},\n\"notes\": {{{}}},\n\"violations\": [{}],\n\"spans\": {}}}\n",
        header,
        result,
        notes,
        violations.join(", "),
        out.spans_json.as_deref().unwrap_or("null")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.metrics.push("wall_s", "s", 1.25);
        let line = result_json(&out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
