//! `stream_tenants`: an open-loop run of the streaming decode service —
//! 8 tenants, each a d = 5 rotated patch (5 rounds, uniform p = 1e-3)
//! decoded in 5-round, 64-shot windows by one worker, fed by one generator
//! thread on a fixed schedule.
//!
//! [`UNIQUE_WINDOWS`] windows per tenant are sampled from `--seed` before
//! the timed phase and replayed in a cycle. The generator wakes every
//! [`TICK`] and pushes the tick's [`ROUNDS_PER_TICK`] rounds (round `k`
//! belongs to tenant `k mod 8`), whatever the service is doing, at an
//! aggregate [`RATE_WINDOWS_PER_S`] — about a quarter of the seed
//! commit's single-worker capacity. The deadline is armed far above the seed
//! commit's p99, so a healthy run sheds nothing. Every decoded window is
//! scored against the sampled ground truth.
//!
//! The end-to-end window latencies are the service's admission-to-
//! disposition latencies, read per [`SLICE`] and taken at the calm end of
//! the slices ([`CALM_Q`]): host contention only ever adds time. The
//! medians over slices are per-layer metrics.

use crate::report::{median, quantile, ratio, Outcome};
use crate::trace::Recorder;
use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    decode_window_masks, DecoderFactory, Disposition, MatchingGraph, PushOutcome, StreamConfig,
    StreamReport, StreamingDecoder, TenantSpec, Tiered, UnionFindDecoder, WindowScratch,
    WindowStats,
};
use caliqec_obs::{Hist, HistSnapshot, ObsSink, WorkerObs};
use caliqec_stab::{
    chunk_seed, extract_dem, for_each_set_bit, round_bounds, BatchEvents, Circuit, RoundStream,
    SparseBatch, BATCH,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const TENANTS: usize = 8;
const DISTANCE: usize = 5;
const ROUNDS_PER_WINDOW: usize = 5;
const P: f64 = 1e-3;
/// Decode workers; the generator is one more thread.
pub const WORKERS: usize = 1;
/// Aggregate offered load in windows per second: about a quarter of the
/// seed commit's single-worker capacity on a 2-core host (~55 µs per
/// window, ~18k windows/s). At half capacity the p99 swung 4× with host
/// contention from run to run.
const RATE_WINDOWS_PER_S: usize = 4000;
/// The generator wakes once per tick and pushes that tick's rounds, 40
/// windows' worth. Each tick's windows queue behind one another, so their
/// latency is mostly decode work; with a tick per few windows it was
/// mostly the worker's wake-up delay, which on a shared host varies from
/// run to run far more than the program does.
const TICK: Duration = Duration::from_millis(10);
/// Rounds due per tick at [`RATE_WINDOWS_PER_S`].
const ROUNDS_PER_TICK: usize =
    RATE_WINDOWS_PER_S * ROUNDS_PER_WINDOW * TICK.as_micros() as usize / 1_000_000;
/// Service histograms are read per slice of this length, so one host
/// stall moves one slice, not the run.
const SLICE: Duration = Duration::from_millis(250);
/// End-to-end figures take this quantile over the slices of per-slice
/// latencies (and `1 - CALM_Q` of capacities): the calm end, which host
/// contention leaves alone but a slower decoder still moves.
const CALM_Q: f64 = 0.1;
const TICKS_PER_SLICE: usize = (SLICE.as_micros() / TICK.as_micros()) as usize;
/// Distinct sampled windows per tenant, replayed in a cycle.
const UNIQUE_WINDOWS: usize = 1024;
/// Shed deadline, judged by queue age at dequeue: far above the seed
/// commit's p99 window latency, so only a stalled service sheds.
const DEADLINE: Duration = Duration::from_millis(50);
/// Per-tenant queue bound: a deadline's worth of windows, so admission is
/// never the first thing to give.
const QUEUE_BOUND: usize = 64;
const SETUP_REPS: usize = 5;
/// Leading windows per tenant re-decoded serially for the mask check.
const CHECK_WINDOWS: usize = 16;
/// Logical error rate per shot of this patch at the seed commit (2497
/// failures in 2^22 shots through the same tiered decoder); the scored
/// LER must lie within [`FAILURE_SIGMAS`] binomial standard deviations of
/// it.
const REFERENCE_LER: f64 = 5.95e-4;
const FAILURE_SIGMAS: f64 = 5.0;

type UfFactory = Box<dyn Fn() -> UnionFindDecoder + Send + Sync>;
type Service = StreamingDecoder<Tiered<UfFactory>>;

fn tiered(graph: &MatchingGraph) -> Tiered<UfFactory> {
    let g = graph.clone();
    let factory: UfFactory = Box::new(move || UnionFindDecoder::new(g.clone()));
    Tiered::new(graph, factory)
}

/// Tenant circuits and graphs plus the started service.
struct Setup {
    circuits: Vec<Circuit>,
    graphs: Vec<MatchingGraph>,
    service: Service,
}

fn setup(rec: &mut Recorder, sink: ObsSink) -> Setup {
    let mut circuits = Vec::with_capacity(TENANTS);
    let mut graphs = Vec::with_capacity(TENANTS);
    let mut specs = Vec::with_capacity(TENANTS);
    for _ in 0..TENANTS {
        let mem = rec.span("code.memory_circuit", || {
            memory_circuit(
                &rotated_patch(DISTANCE, DISTANCE),
                &NoiseModel::uniform(P),
                ROUNDS_PER_WINDOW,
                MemoryBasis::Z,
            )
        });
        let dem = rec.span("stab.dem_extract", || extract_dem(&mem.circuit));
        let graph = rec.span("match.graph_build", || MatchingGraph::from_dem(&dem));
        let factory = rec.span("match.tier_tables", || tiered(&graph));
        specs.push(TenantSpec {
            factory,
            detectors: graph.num_detectors(),
        });
        circuits.push(mem.circuit);
        graphs.push(graph);
    }
    let config = StreamConfig {
        workers: WORKERS,
        queue_bound: QUEUE_BOUND,
        deadline: Some(DEADLINE),
        ..StreamConfig::default()
    };
    let service = rec.span("stream.start", || {
        StreamingDecoder::start(specs, config, sink)
    });
    Setup {
        circuits,
        graphs,
        service: service.expect("tenant graphs validate"),
    }
}

/// Pre-sampled input: per tenant, each unique window's detector words and
/// per-shot true observable masks.
struct Input {
    words: Vec<Vec<Vec<u64>>>,
    truth: Vec<Vec<[u64; BATCH]>>,
}

fn sample_input(circuits: &[Circuit], seed: u64) -> Input {
    let mut words = Vec::with_capacity(circuits.len());
    let mut truth = Vec::with_capacity(circuits.len());
    for (t, c) in circuits.iter().enumerate() {
        let mut stream = RoundStream::new(c, ROUNDS_PER_WINDOW);
        let mut rng = StdRng::seed_from_u64(chunk_seed(seed, t as u64));
        let mut tw = Vec::with_capacity(UNIQUE_WINDOWS);
        let mut tt = Vec::with_capacity(UNIQUE_WINDOWS);
        for _ in 0..UNIQUE_WINDOWS {
            let mut w = Vec::with_capacity(stream.window_detectors());
            for _ in 0..ROUNDS_PER_WINDOW {
                w.extend_from_slice(stream.next_round(&mut rng).1);
            }
            let mut masks = [0u64; BATCH];
            for (o, &word) in stream.window_observables().iter().enumerate() {
                for_each_set_bit(word, |s| masks[s as usize] |= 1 << o);
            }
            tw.push(w);
            tt.push(masks);
        }
        words.push(tw);
        truth.push(tt);
    }
    Input { words, truth }
}

/// What one open-loop run produced.
struct RunResult {
    report: StreamReport,
    /// Generator lateness per round, microseconds past the scheduled time.
    late_us: Vec<f64>,
    /// Per tenant: generated window index of each admitted window.
    admitted: Vec<Vec<usize>>,
    rejected: u64,
    push_errors: Vec<String>,
    /// Seconds from the first scheduled push to the final report.
    run_s: f64,
    /// The service's admission-to-disposition histogram, per slice.
    latency_slices: Vec<HistSnapshot>,
    /// The service's pure window-decode histogram, per slice.
    decode_slices: Vec<HistSnapshot>,
}

/// `cur - prev` of two cumulative snapshots of one histogram (the maximum
/// stays cumulative; it only clamps quantiles).
fn hist_since(cur: &HistSnapshot, prev: &HistSnapshot) -> HistSnapshot {
    let mut out = cur.clone();
    for (b, p) in out.buckets.iter_mut().zip(prev.buckets.iter()) {
        *b -= p;
    }
    out.count -= prev.count;
    out.sum_nanos -= prev.sum_nanos;
    out
}

/// Cumulative latency and decode histograms of the service so far.
fn service_hists(sink: &ObsSink) -> [HistSnapshot; 2] {
    let snap = sink.snapshot();
    [Hist::RoundLatency, Hist::WindowDecode].map(|h| {
        snap.hist(h)
            .cloned()
            .unwrap_or_else(|| HistSnapshot::empty(h.name()))
    })
}

/// Sleeps until `due`; oversleeping shows up as generator lateness.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

fn open_loop(
    s: Setup,
    input: &Input,
    windows: usize,
    sink: &ObsSink,
    rec: &mut Recorder,
) -> RunResult {
    let detectors = input.words[0][0].len();
    let total = TENANTS * windows * ROUNDS_PER_WINDOW;
    let mut late_us = Vec::with_capacity(total);
    let mut admitted: Vec<Vec<usize>> = (0..TENANTS).map(|_| Vec::with_capacity(windows)).collect();
    let mut rejected = 0u64;
    let mut push_errors = Vec::new();
    let (mut latency_slices, mut decode_slices) = (Vec::new(), Vec::new());
    let mut slice = |last: &mut [HistSnapshot; 2]| {
        let cur = service_hists(sink);
        latency_slices.push(hist_since(&cur[0], &last[0]));
        decode_slices.push(hist_since(&cur[1], &last[1]));
        *last = cur;
    };
    let mut last = service_hists(sink);
    let t0 = Instant::now();
    for k in 0..total {
        let tick = k / ROUNDS_PER_TICK;
        let due = t0 + TICK * tick as u32;
        if k % ROUNDS_PER_TICK == 0 {
            if tick > 0 && tick.is_multiple_of(TICKS_PER_SLICE) {
                slice(&mut last);
            }
            rec.span("gen.wait", || wait_until(due));
        }
        late_us.push(due.elapsed().as_secs_f64() * 1e6);
        let (t, j) = (k % TENANTS, k / TENANTS);
        let (w, r) = (j / ROUNDS_PER_WINDOW, j % ROUNDS_PER_WINDOW);
        let (lo, hi) = round_bounds(detectors, ROUNDS_PER_WINDOW, r);
        let round = &input.words[t][w % UNIQUE_WINDOWS][lo..hi];
        match rec.span("stab.window_push", || s.service.push_round(t, round)) {
            Ok(PushOutcome::Admitted { .. }) => admitted[t].push(w),
            Ok(PushOutcome::Rejected { .. }) => rejected += 1,
            Ok(PushOutcome::Buffered { .. }) => {}
            Err(e) => push_errors.push(format!("tenant {t} window {w} round {r}: {e:?}")),
        }
    }
    let report = rec.span("stream.drain", || {
        s.service.drain();
        s.service.shutdown()
    });
    let run_s = t0.elapsed().as_secs_f64();
    slice(&mut last);
    RunResult {
        report,
        late_us,
        admitted,
        rejected,
        push_errors,
        run_s,
        latency_slices,
        decode_slices,
    }
}

/// The `q`-quantile over non-empty slices of `f(slice)`.
fn over_slices(slices: &[HistSnapshot], q: f64, f: impl Fn(&HistSnapshot) -> f64) -> f64 {
    let per_slice: Vec<f64> = slices.iter().filter(|h| h.count > 0).map(f).collect();
    quantile(&per_slice, q)
}

/// Decode capacity of one worker in shots per second over a slice.
fn capacity(h: &HistSnapshot) -> f64 {
    BATCH as f64 * 1e9 / h.mean_nanos()
}

/// Gate: exact accounting; masks equal to a serial decode of the same
/// windows and identical on every replay of a window; the scored LER
/// within binomial bounds of the reference.
fn check(
    r: &RunResult,
    graphs: &[MatchingGraph],
    input: &Input,
    windows: usize,
    out: &mut Outcome,
) {
    for e in &r.push_errors {
        out.violations.push(format!("push_round failed: {e}"));
    }
    let h = &r.report.health;
    out.check(h.rounds_pending() == 0, || {
        format!("{} rounds pending after drain", h.rounds_pending())
    });
    for t in &h.tenants {
        out.check(
            t.rounds_ingested == t.rounds_decoded + t.rounds_shed + t.rounds_deferred,
            || {
                format!(
                    "tenant {}: ingested {} != decoded {} + shed {} + deferred {}",
                    t.tenant, t.rounds_ingested, t.rounds_decoded, t.rounds_shed, t.rounds_deferred
                )
            },
        );
    }
    let admitted: usize = r.admitted.iter().map(Vec::len).sum();
    let generated = TENANTS * windows;
    out.check(admitted as u64 + r.rejected == generated as u64, || {
        format!(
            "{admitted} admitted + {} rejected != {generated} generated windows",
            r.rejected
        )
    });
    let disposed = h.windows_decoded + h.windows_shed + h.windows_deferred;
    out.check(disposed == admitted as u64, || {
        format!("{disposed} windows disposed, {admitted} admitted")
    });

    let (mut shots, mut failures) = (0u64, 0u64);
    let (mut serial_mismatch, mut replay_mismatch) = (0usize, 0usize);
    let mut sparse = SparseBatch::new();
    let mut events = BatchEvents::default();
    for (t, results) in r.report.tenants.iter().enumerate() {
        out.check(results.len() == r.admitted[t].len(), || {
            format!(
                "tenant {t}: {} results for {} admitted windows",
                results.len(),
                r.admitted[t].len()
            )
        });
        let factory = tiered(&graphs[t]);
        let mut decoder = factory.build();
        let mut pre = factory.predecoder();
        let mut scratch = WindowScratch::default();
        let mut stats = WindowStats::default();
        let mut first: Vec<Option<[u64; BATCH]>> = vec![None; UNIQUE_WINDOWS];
        for res in results {
            if res.disposition != Disposition::Decoded {
                continue;
            }
            let w = r.admitted[t][res.window as usize];
            let u = w % UNIQUE_WINDOWS;
            match &first[u] {
                Some(masks) => replay_mismatch += usize::from(*masks != res.masks),
                None => {
                    first[u] = Some(res.masks);
                    shots += BATCH as u64;
                    failures += res
                        .masks
                        .iter()
                        .zip(&input.truth[t][u])
                        .filter(|(m, t)| m != t)
                        .count() as u64;
                }
            }
            if w < CHECK_WINDOWS {
                events.detectors.clone_from(&input.words[t][u]);
                sparse.extract(&events);
                let mut masks = [0u64; BATCH];
                decode_window_masks(
                    &mut decoder,
                    pre.as_mut(),
                    None,
                    factory.cluster_gate(),
                    factory.cluster_gate_threshold(),
                    &sparse,
                    &mut scratch,
                    &mut WorkerObs::disabled(),
                    Hist::DecodeShotRung0,
                    &mut stats,
                    &mut masks,
                );
                serial_mismatch += (0..BATCH).filter(|&s| masks[s] != res.masks[s]).count();
            }
        }
    }
    out.check(serial_mismatch == 0, || {
        format!("{serial_mismatch} streamed masks differ from a serial decode of the same windows")
    });
    out.check(replay_mismatch == 0, || {
        format!("{replay_mismatch} replayed windows decoded differently from their first pass")
    });
    let expected = shots as f64 * REFERENCE_LER;
    let spread = FAILURE_SIGMAS * expected.max(1.0).sqrt();
    out.check((failures as f64 - expected).abs() <= spread, || {
        format!("{failures} failures in {shots} shots, expected {expected:.1} ± {spread:.1}")
    });
    out.note("scored_shots", shots);
    out.note("scored_failures", failures);
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: u64, trace: bool, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let windows = seconds as usize * RATE_WINDOWS_PER_S / TENANTS;
    let mut off = Recorder::new(false);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS - 1 {
        let t0 = if rep == 0 { start } else { Instant::now() };
        let s = setup(&mut off, ObsSink::enabled());
        setup_times.push(t0.elapsed().as_secs_f64());
        s.service.shutdown();
    }
    let sink = ObsSink::enabled();
    let t0 = Instant::now();
    let s = setup(&mut off, sink.clone());
    setup_times.push(t0.elapsed().as_secs_f64());
    let setup_s = median(&setup_times);
    let input = sample_input(&s.circuits, seed);
    let graphs = s.graphs.clone();
    let r = open_loop(s, &input, windows, &sink, &mut off);
    check(&r, &graphs, &input, windows, &mut out);

    let h = &r.report.health;
    let generated = (TENANTS * windows) as u64;
    out.attempted = generated;
    out.failed = h.windows_shed + h.windows_deferred + r.rejected;
    out.note("windows_generated", generated);
    out.note(
        "latency_samples",
        h.windows_decoded + h.windows_shed + h.windows_deferred,
    );
    out.note("latency_slices", r.latency_slices.len());
    out.note("gen_late_p99_us", quantile(&r.late_us, 0.99));
    out.note(
        "latency_p50_us",
        over_slices(&r.latency_slices, 0.5, |h| h.quantile_nanos(0.50) / 1e3),
    );
    out.note(
        "latency_p99_us",
        over_slices(&r.latency_slices, 0.5, |h| h.quantile_nanos(0.99) / 1e3),
    );
    out.note(
        "decode_p99_us",
        over_slices(&r.decode_slices, 0.5, |h| h.quantile_nanos(0.99) / 1e3),
    );
    out.note(
        "capacity_median",
        over_slices(&r.decode_slices, 0.5, capacity),
    );
    out.note("health", h.to_json());
    out.note(
        "setup_reps_s",
        format!("{setup_times:?}").trim_matches(['[', ']']),
    );

    if !trace {
        let m = &mut out.metrics;
        m.push("setup_s", "s", setup_s);
        m.push("wall_s", "s", setup_s + r.run_s);
        m.push(
            "shots_per_s",
            "1/s",
            over_slices(&r.decode_slices, 1.0 - CALM_Q, capacity),
        );
        m.push(
            "window_p50_us",
            "us",
            over_slices(&r.latency_slices, CALM_Q, |h| h.quantile_nanos(0.50) / 1e3),
        );
        m.push(
            "window_p99_us",
            "us",
            over_slices(&r.latency_slices, CALM_Q, |h| h.quantile_nanos(0.99) / 1e3),
        );
        m.push(
            "served_frac",
            "fraction",
            1.0 - ratio(out.failed as f64, generated as f64),
        );
        return out;
    }

    // Traced pass: a second open-loop run over the same input with spans
    // around set-up, every wait and every push. Service health counts come
    // from the untraced run above.
    let untraced_wall = setup_s + r.run_s;
    let mut rec = Recorder::new(true);
    let sink = ObsSink::enabled();
    let root = rec.enter("trace");
    let ts = setup(&mut rec, sink.clone());
    let graphs = ts.graphs.clone();
    let tr = open_loop(ts, &input, windows, &sink, &mut rec);
    rec.exit(root);
    let mut traced = Outcome::default();
    check(&tr, &graphs, &input, windows, &mut traced);
    out.violations.extend(traced.violations);

    let m = &mut out.metrics;
    crate::push_span_metrics(m, &rec, untraced_wall);
    m.push("gen.late_p50_us", "us", quantile(&r.late_us, 0.50));
    m.push("gen.late_p99_us", "us", quantile(&r.late_us, 0.99));
    m.push("stream.queue_peak", "count", h.queue_peak as f64);
    m.push(
        "stream.window_decode_p50_us",
        "us",
        over_slices(&r.decode_slices, 0.5, |h| h.quantile_nanos(0.50) / 1e3),
    );
    m.push(
        "stream.latency_p50_us",
        "us",
        over_slices(&r.latency_slices, 0.5, |h| h.quantile_nanos(0.50) / 1e3),
    );
    m.push(
        "stream.latency_p99_us",
        "us",
        over_slices(&r.latency_slices, 0.5, |h| h.quantile_nanos(0.99) / 1e3),
    );
    m.push("stream.windows_decoded", "count", h.windows_decoded as f64);
    m.push("stream.windows_shed", "count", h.windows_shed as f64);
    m.push(
        "stream.windows_deferred",
        "count",
        h.windows_deferred as f64,
    );
    m.push("stream.windows_rejected", "count", r.rejected as f64);
    m.push("stream.retries", "count", h.retries as f64);
    m.push("stream.wedges", "count", h.wedges as f64);
    out.note("spans", rec.len());
    out.spans_json = Some(rec.to_json());
    out
}
