//! End-to-end and per-layer benchmark of the CaliQEC workspace.
//!
//! ```text
//! caliqec-e2e-bench --workload decode_d15|runtime_trace|stream_tenants \
//!     --seed N --seconds S --trace 0|1 [--record PATH]
//! ```
//!
//! Prints a run header line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. `--record`
//! also writes the header, result, notes, gate violations and recorded
//! spans to a file. See README.md in this directory for the workloads and
//! metrics.

mod decode_d15;
mod report;
mod runtime_ref;
mod runtime_trace;
mod stream_tenants;
mod trace;

use report::{Metrics, Outcome};
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("shots_per_s", "1/s"),
    ("window_p50_us", "us"),
    ("window_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("served_frac", "fraction"),
];

/// Per-layer metrics (`--trace 1`), in output order. A layer a workload
/// never calls reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("code.memory_circuit_s", "s"),
    ("stab.compile_s", "s"),
    ("stab.dem_extract_s", "s"),
    ("stab.dem_mechanisms", "count"),
    ("match.graph_build_s", "s"),
    ("match.graph_edges", "count"),
    ("match.tier_tables_s", "s"),
    ("stab.sample_s", "s"),
    ("stab.extract_s", "s"),
    ("stab.defects_per_shot", "count"),
    ("match.predecode_s", "s"),
    ("match.predecode_certified_frac", "fraction"),
    ("match.cluster_s", "s"),
    ("match.cluster_peeled_defect_frac", "fraction"),
    ("match.cluster_resolved_shot_frac", "fraction"),
    ("match.uf_decode_s", "s"),
    ("match.uf_calls", "count"),
    ("match.uf_defects_per_call", "count"),
    ("engine.tier0_shots", "count"),
    ("engine.predecoded_shots", "count"),
    ("engine.clustered_shots", "count"),
    ("engine.residual_shots", "count"),
    ("engine.degraded_shots", "count"),
    ("code.deform_s", "s"),
    ("code.distance_s", "s"),
    ("device.synth_s", "s"),
    ("device.characterize_s", "s"),
    ("sched.compile_s", "s"),
    ("engine.runs", "count"),
    ("match.engine_s", "s"),
    ("core.calibrations", "count"),
    ("stream.start_s", "s"),
    ("gen.wait_s", "s"),
    ("stab.window_push_s", "s"),
    ("stream.drain_s", "s"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("stream.queue_peak", "count"),
    ("stream.window_decode_p50_us", "us"),
    ("stream.latency_p50_us", "us"),
    ("stream.latency_p99_us", "us"),
    ("stream.windows_decoded", "count"),
    ("stream.windows_shed", "count"),
    ("stream.windows_deferred", "count"),
    ("stream.windows_rejected", "count"),
    ("stream.retries", "count"),
    ("stream.wedges", "count"),
    ("degraded_frac", "fraction"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.other_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
];

/// Pushes the span-derived metrics of a traced pass: each layer's self
/// seconds (span `x` → metric `x_s`; the root span's self time is
/// `trace.other_s`), the traced wall, and the overhead against
/// `untraced_wall`, the same work timed with the recorder off.
pub fn push_span_metrics(m: &mut Metrics, rec: &Recorder, untraced_wall: f64) {
    let wall = rec.root_seconds();
    for (name, secs) in rec.self_seconds() {
        let metric = if name == "trace" {
            "trace.other_s"
        } else {
            let full = format!("{name}_s");
            PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| *n == full)
                .unwrap_or_else(|| panic!("span {name} has no per-layer metric"))
        };
        m.push(metric, "s", secs);
    }
    let other = m.get("trace.other_s").unwrap_or(0.0);
    m.push("trace.wall_s", "s", wall);
    m.push("trace.untraced_wall_s", "s", untraced_wall);
    m.push("trace.other_frac", "fraction", report::ratio(other, wall));
    m.push(
        "trace.overhead_frac",
        "fraction",
        wall / untraced_wall - 1.0,
    );
    m.push("trace.spans", "count", rec.len() as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--record" => args.record = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Orders the workload's metrics by the contract list, checking that every
/// end-to-end metric was measured and filling unexercised layers with 0.
fn finish_metrics(out: &mut Outcome, trace: bool) {
    let mut measured = std::mem::take(&mut out.metrics);
    if !trace {
        measured.push("peak_rss_mb", "MiB", report::peak_rss_mb());
    } else {
        measured.push(
            "degraded_frac",
            "fraction",
            report::ratio(out.failed as f64, out.attempted as f64),
        );
    }
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in &measured.0 {
        assert!(
            list.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} [{}] is not in the contract list",
            m.name,
            m.unit
        );
    }
    for &(name, unit) in list {
        let value = measured.get(name);
        assert!(
            trace || value.is_some(),
            "end-to-end metric {name} was not measured"
        );
        out.metrics.push(name, unit, value.unwrap_or(0.0));
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("caliqec-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = report::host_cores();
    let (threads, generators) = match args.workload.as_str() {
        "decode_d15" => (cores, 0),
        "runtime_trace" => (runtime_trace::THREADS, 0),
        "stream_tenants" => (stream_tenants::WORKERS, 1),
        other => {
            eprintln!(
                "caliqec-e2e-bench: unknown workload {other:?} \
                 (decode_d15, runtime_trace, stream_tenants)"
            );
            return ExitCode::from(2);
        }
    };
    let header = report::header_json(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        threads,
        generators,
    );
    println!("{header}");
    let mut out = match args.workload.as_str() {
        "decode_d15" => decode_d15::run(args.seed, args.seconds, args.trace, threads, start),
        "runtime_trace" => runtime_trace::run(args.seconds, args.trace, start),
        _ => stream_tenants::run(args.seed, args.seconds, args.trace, start),
    };
    finish_metrics(&mut out, args.trace);
    for v in &out.violations {
        eprintln!("caliqec-e2e-bench: gate violation: {v}");
    }
    let result = report::result_json(&out);
    if let Some(path) = &args.record {
        let record = report::record_json(&header, &result, &out);
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("caliqec-e2e-bench: cannot write {path}: {e}");
            return ExitCode::from(4);
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
