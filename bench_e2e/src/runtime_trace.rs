//! `runtime_trace`: the paper's Fig.-10 runtime, the equivalent of
//! `caliqec simulate --distance 7 --hours 24 --mc-shots 4096 --threads 2`
//! — a synthetic 5×5 device (the CLI's seed-0 device), its preparation and
//! compiled calibration plan, then `run_runtime` over 96 trace points, each
//! a fresh circuit, DEM, matching graph and 4096-shot engine run on the
//! instant's (possibly deformed) layout.
//!
//! `run_runtime` derives every trace point's sampler seed from the point's
//! index, so this workload's inputs do not depend on `--seed`; what varies
//! from run to run is timing alone, and every sampler-independent value is
//! pinned to the seed commit ([`crate::runtime_ref`]).
//!
//! The traced pass replays `run_runtime` from the benchmark's own code, one
//! span per layer call, and must reproduce its trace bit for bit.

use crate::report::{median, quantile, ratio, Outcome};
use crate::runtime_ref::{CALIBRATIONS, POINTS};
use crate::trace::Recorder;
use caliqec::{compile, run_runtime_observed, CaliqecConfig, CompiledPlan, Preparation};
use caliqec::{RuntimeReport, TracePoint};
use caliqec_code::{
    code_distance, memory_circuit, DeformInstruction, DeformedPatch, MemoryBasis, NoiseModel,
    PatchLayout, Side,
};
use caliqec_device::{DeviceConfig, DeviceModel};
use caliqec_match::{LerEngine, MatchingGraph, SampleOptions, UnionFindDecoder};
use caliqec_obs::ObsSink;
use caliqec_sched::ler;
use caliqec_stab::{chunk_seed, extract_dem, CompiledCircuit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const HOURS: f64 = 24.0;
const STEPS: usize = 96;
const MC_SHOTS: usize = 4096;
/// Engine threads, as in the CLI command above.
pub const THREADS: usize = 2;
/// Set-up takes milliseconds, so the median is taken over many repetitions.
const SETUP_REPS: usize = 51;
/// Fewest jobs a plain run times; more follow until `--seconds` is spent.
const MIN_JOBS: usize = 2;
/// Allowed distance, in standard deviations, between a point's failure
/// count and the seed commit's (both binomial over [`MC_SHOTS`] shots).
const FAILURE_SIGMAS: f64 = 5.0;

fn config() -> CaliqecConfig {
    CaliqecConfig {
        distance: 7,
        threads: THREADS,
        mc_shots: MC_SHOTS,
        ..CaliqecConfig::default()
    }
}

/// Device, preparation and compiled plan.
struct Setup {
    device: DeviceModel,
    plan: CompiledPlan,
}

fn setup(rec: &mut Recorder, config: &CaliqecConfig) -> Setup {
    // The CLI seeds one generator with `--seed` (default 0) and draws the
    // device, the preparation and the plan from it in that order.
    let mut rng = StdRng::seed_from_u64(0);
    let device = rec.span("device.synth", || {
        DeviceModel::synthetic(
            &DeviceConfig {
                rows: 5,
                cols: 5,
                ..DeviceConfig::default()
            },
            &mut rng,
        )
    });
    let prep = rec.span("device.characterize", || {
        Preparation::run(&device, &mut rng)
    });
    let plan = rec.span("sched.compile", || {
        compile(&device, &prep, config, &mut rng)
    });
    Setup { device, plan }
}

/// Layer totals over the replayed trace points.
#[derive(Debug, Default)]
struct ReplayStats {
    dem_mechanisms: usize,
    graph_edges: usize,
    engine_runs: usize,
    shots: usize,
    tier0: usize,
    predecoded: usize,
    clustered: usize,
    residual: usize,
    degraded: usize,
}

/// `DeformedPatch` isolation plus enlargement, as the runtime applies a
/// calibration batch (distance checks inside the enlargement loop get
/// their own spans).
fn deformed_layout(
    config: &CaliqecConfig,
    isolation: &[DeformInstruction],
    rec: &mut Recorder,
) -> PatchLayout {
    let mut patch = DeformedPatch::new(config.lattice, config.distance, config.distance);
    for instr in isolation {
        let _ = patch.apply(*instr);
    }
    if config.enlarge {
        for i in 0..(2 * config.delta_d) {
            let layout = patch.layout().expect("journal remains valid");
            let d = rec.span("code.distance", || code_distance(&layout).min());
            if d >= config.distance {
                break;
            }
            let side = if i % 2 == 0 {
                Side::Right
            } else {
                Side::Bottom
            };
            let _ = patch.apply(DeformInstruction::PatchQAd { side });
        }
    }
    patch.layout().expect("journal remains valid")
}

/// The runtime loop of `caliqec::run_runtime` for a plain Monte-Carlo
/// configuration, rebuilt from the layers' public calls with a span around
/// each.
fn replay(s: &Setup, config: &CaliqecConfig, rec: &mut Recorder) -> (RuntimeReport, ReplayStats) {
    struct Window<'p> {
        start: f64,
        end: f64,
        gates: &'p [usize],
        isolation: &'p [DeformInstruction],
        counted: bool,
    }
    let d = config.distance;
    let mut report = RuntimeReport {
        ler_target: ler(d, config.p_tar),
        ..RuntimeReport::default()
    };
    let mut st = ReplayStats::default();
    let mut last_cal = vec![0.0f64; s.device.gates.len()];
    let mut windows = Vec::new();
    let t_cali = s.plan.t_cali_hours();
    let intervals = (HOURS / t_cali).ceil() as usize;
    for m in 1..=intervals {
        let mut cursor = (m - 1) as f64 * t_cali;
        for batch in s.plan.batches_in_interval(m) {
            windows.push(Window {
                start: cursor,
                end: cursor + batch.duration_hours,
                gates: &batch.gates,
                isolation: &batch.isolation,
                counted: false,
            });
            cursor += batch.duration_hours;
        }
    }
    let mut cached: Option<(usize, PatchLayout)> = None;
    let pristine_layout = rec.span("code.deform", || {
        DeformedPatch::new(config.lattice, d, d)
            .layout()
            .expect("pristine patch valid")
    });
    let pristine_qubits = pristine_layout.num_physical_qubits();
    let engine = LerEngine::new(config.threads);
    let dt = HOURS / STEPS as f64;
    for k in 0..STEPS {
        let t = (k as f64 + 0.5) * dt;
        for w in windows.iter_mut() {
            if !w.counted && w.end <= t {
                for &g in w.gates {
                    last_cal[g] = w.end;
                }
                report.calibrations += w.gates.len();
                w.counted = true;
            }
        }
        let active = windows.iter().position(|w| w.start <= t && t < w.end);
        let (distance, qubits, calibrating) = match active {
            None => {
                cached = None;
                (d, pristine_qubits, 0)
            }
            Some(wi) => {
                if cached.as_ref().map(|(i, _)| *i) != Some(wi) {
                    let id = rec.enter("code.deform");
                    let layout = deformed_layout(config, windows[wi].isolation, rec);
                    rec.exit(id);
                    cached = Some((wi, layout));
                }
                let (_, layout) = cached.as_ref().expect("cache filled above");
                let dist = rec.span("code.distance", || code_distance(layout).min());
                (dist, layout.num_physical_qubits(), windows[wi].gates.len())
            }
        };
        let mean_p = s
            .device
            .gates
            .iter()
            .enumerate()
            .map(|(g, info)| info.drift.p_at(t - last_cal[g]).min(0.3))
            .sum::<f64>()
            / s.device.gates.len() as f64;
        let layout = cached.as_ref().map_or(&pristine_layout, |(_, l)| l);
        let noise = NoiseModel::uniform(mean_p.clamp(1e-9, 0.3));
        let mem = rec.span("code.memory_circuit", || {
            memory_circuit(layout, &noise, d.max(1), MemoryBasis::Z)
        });
        let dem = rec.span("stab.dem_extract", || extract_dem(&mem.circuit));
        let graph = rec.span("match.graph_build", || MatchingGraph::from_dem(&dem));
        let compiled = rec.span("stab.compile", || CompiledCircuit::new(&mem.circuit));
        let factory = || UnionFindDecoder::new(graph.clone());
        let run = rec.span("match.engine", || {
            engine.estimate(
                &compiled,
                &factory,
                SampleOptions {
                    min_shots: config.mc_shots,
                    ..SampleOptions::default()
                },
                chunk_seed(0xCA11_0EC5, k as u64),
            )
        });
        st.dem_mechanisms += dem.mechanisms.len();
        st.graph_edges += graph.edges().len();
        st.engine_runs += 1;
        st.shots += run.estimate.shots;
        st.tier0 += run.tier0_shots;
        st.predecoded += run.predecoded_shots;
        st.clustered += run.clustered_shots;
        st.residual += run.residual_shots;
        st.degraded += run.degraded_shots;
        report.faulted_chunks += run.faulted_chunks;
        report.retried_chunks += run.retried_chunks;
        report.degraded_shots += run.degraded_shots;
        let point = TracePoint {
            hours: t,
            mean_p,
            distance,
            physical_qubits: qubits,
            ler: ler(distance, mean_p),
            measured_ler: Some(run.ler()),
            calibrating,
        };
        if point.ler > report.ler_target {
            report.ler_exceedances += 1;
        }
        report.max_physical_qubits = report.max_physical_qubits.max(qubits);
        report.trace.push(point);
    }
    (report, st)
}

/// Per-trace-point latency in µs, read from the engine journal of a sink
/// created at the job's start: from the previous point's last engine event
/// (or the start) to this point's — its circuit, DEM, graph and engine run.
fn point_latencies_us(sink: &ObsSink) -> Vec<f64> {
    let mut ends: BTreeMap<u32, u64> = BTreeMap::new();
    for e in &sink.snapshot().events {
        let end = ends.entry(e.run).or_insert(0);
        *end = (*end).max(e.t_nanos);
    }
    let mut prev = 0;
    ends.values()
        .map(|&end| {
            let us = end.saturating_sub(prev) as f64 / 1e3;
            prev = end;
            us
        })
        .collect()
}

/// Gate: the sampler-independent values equal the seed commit's, and each
/// point's failure count lies within binomial bounds of the seed commit's.
fn check_against_reference(report: &RuntimeReport, out: &mut Outcome) {
    out.check(report.calibrations == CALIBRATIONS, || {
        format!(
            "{} calibrations, seed commit {CALIBRATIONS}",
            report.calibrations
        )
    });
    out.check(report.trace.len() == POINTS.len(), || {
        format!(
            "{} trace points, expected {}",
            report.trace.len(),
            POINTS.len()
        )
    });
    for (k, (p, &(distance, qubits, ref_failures))) in report.trace.iter().zip(&POINTS).enumerate()
    {
        out.check(
            p.distance == distance && p.physical_qubits == qubits,
            || {
                format!(
                    "point {k}: distance {} qubits {}, seed commit {distance} / {qubits}",
                    p.distance, p.physical_qubits
                )
            },
        );
        let failures = p.measured_ler.unwrap_or(f64::NAN) * MC_SHOTS as f64;
        let spread = FAILURE_SIGMAS * (failures + ref_failures as f64).max(1.0).sqrt();
        out.check((failures - ref_failures as f64).abs() <= spread, || {
            format!("point {k}: {failures} failures, seed commit {ref_failures} (±{spread:.1})")
        });
    }
    out.check(report.faulted_chunks == report.retried_chunks, || {
        format!(
            "{} faulted chunks but {} retries",
            report.faulted_chunks, report.retried_chunks
        )
    });
}

/// Bit-for-bit equality of two traces (`f64`s compared by bits).
fn same_trace(a: &RuntimeReport, b: &RuntimeReport) -> Option<String> {
    if a.calibrations != b.calibrations {
        return Some(format!(
            "calibrations {} vs {}",
            a.calibrations, b.calibrations
        ));
    }
    if a.trace.len() != b.trace.len() {
        return Some(format!("{} vs {} points", a.trace.len(), b.trace.len()));
    }
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    for (k, (p, q)) in a.trace.iter().zip(&b.trace).enumerate() {
        let same = p.hours.to_bits() == q.hours.to_bits()
            && p.mean_p.to_bits() == q.mean_p.to_bits()
            && p.distance == q.distance
            && p.physical_qubits == q.physical_qubits
            && p.ler.to_bits() == q.ler.to_bits()
            && bits(p.measured_ler) == bits(q.measured_ler)
            && p.calibrating == q.calibrating;
        if !same {
            return Some(format!("point {k}: {p:?} vs {q:?}"));
        }
    }
    None
}

/// Runs the workload; see the module docs.
pub fn run(seconds: u64, trace: bool, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let config = config();
    let mut off = Recorder::new(false);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = if rep == 0 { start } else { Instant::now() };
        kept = Some(setup(&mut off, &config));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let s = kept.expect("at least one set-up");
    let setup_s = median(&setup_times);
    // The plain run repeats the job until the jobs have taken `--seconds`
    // (at least [`MIN_JOBS`]), each with a fresh sink whose journal times
    // every trace point. Every job does the same work point for point, so
    // a point's latency is its fastest job's: a host stall must then hit
    // the same point in every job to reach the figure. A traced run times
    // one job with the sink off, like the replay it is compared with.
    let budget = Duration::from_secs(seconds);
    let jobs_t0 = Instant::now();
    let mut runtime_times = Vec::new();
    let mut point_us = vec![f64::INFINITY; STEPS];
    let mut report = RuntimeReport::default();
    let mut degraded = 0u64;
    for rep in 0.. {
        let sink = ObsSink::new(!trace);
        let t0 = Instant::now();
        let r = run_runtime_observed(&s.device, Some(&s.plan), &config, HOURS, STEPS, None, &sink);
        runtime_times.push(t0.elapsed().as_secs_f64());
        if !trace {
            let lat = point_latencies_us(&sink);
            out.check(lat.len() == STEPS, || {
                format!("journal holds {} engine runs, not {STEPS}", lat.len())
            });
            for (best, us) in point_us.iter_mut().zip(lat) {
                *best = best.min(us);
            }
        }
        if rep > 0 {
            if let Some(diff) = same_trace(&report, &r) {
                out.violations.push(format!("repeated job differs: {diff}"));
            }
        }
        degraded += r.degraded_shots as u64;
        report = r;
        if trace || (rep + 1 >= MIN_JOBS && jobs_t0.elapsed() >= budget) {
            break;
        }
    }
    let jobs = runtime_times.len();
    let runtime_s = median(&runtime_times);

    check_against_reference(&report, &mut out);
    let shots = (STEPS * MC_SHOTS) as u64;
    out.attempted = jobs as u64 * shots;
    out.failed = degraded;
    out.note(
        "setup_reps_s",
        format!("{setup_times:?}").trim_matches(['[', ']']),
    );
    out.note("engine_threads", config.threads);
    out.note(
        "runtime_reps_s",
        format!("{runtime_times:?}").trim_matches(['[', ']']),
    );

    if !trace {
        out.note("window_samples", point_us.len());
        out.note("jobs", jobs);
        let m = &mut out.metrics;
        m.push("setup_s", "s", setup_s);
        m.push("wall_s", "s", setup_s + runtime_s);
        m.push("shots_per_s", "1/s", shots as f64 / runtime_s);
        m.push("window_p50_us", "us", quantile(&point_us, 0.50));
        m.push("window_p99_us", "us", quantile(&point_us, 0.99));
        m.push(
            "served_frac",
            "fraction",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
        );
        return out;
    }

    let untraced_wall = setup_s + runtime_s;
    drop(s);
    let mut rec = Recorder::new(true);
    let root = rec.enter("trace");
    let ts = setup(&mut rec, &config);
    let (replayed, st) = replay(&ts, &config, &mut rec);
    rec.exit(root);
    if let Some(diff) = same_trace(&report, &replayed) {
        out.violations
            .push(format!("replay differs from run_runtime: {diff}"));
    }
    out.check(st.shots == STEPS * MC_SHOTS, || {
        format!("replay decoded {} shots", st.shots)
    });
    let tiers = st.tier0 + st.predecoded + st.clustered + st.residual;
    out.check(tiers == st.shots, || {
        format!("tier partition {tiers} != {} shots", st.shots)
    });

    let m = &mut out.metrics;
    crate::push_span_metrics(m, &rec, untraced_wall);
    m.push("stab.dem_mechanisms", "count", st.dem_mechanisms as f64);
    m.push("match.graph_edges", "count", st.graph_edges as f64);
    m.push("engine.tier0_shots", "count", st.tier0 as f64);
    m.push("engine.predecoded_shots", "count", st.predecoded as f64);
    m.push("engine.clustered_shots", "count", st.clustered as f64);
    m.push("engine.residual_shots", "count", st.residual as f64);
    m.push("engine.degraded_shots", "count", st.degraded as f64);
    m.push("engine.runs", "count", st.engine_runs as f64);
    m.push("core.calibrations", "count", report.calibrations as f64);
    out.note("spans", rec.len());
    out.spans_json = Some(rec.to_json());
    out
}
