//! `decode_d15`: a closed batch job — one long engine run on a d = 15
//! rotated memory circuit (15 rounds, uniform p = 1e-3).
//!
//! The untraced pass times set-up (three times, median), a replica of the
//! engine's per-window path over [`REPLICA_WINDOWS`] windows (a third after
//! each set-up, [`REPLICA_PASSES`] passes over it), which gives the
//! window-latency distribution, and one engine run over a shot budget sized
//! from `--seconds`. The traced pass repeats set-up and engine run and
//! replays [`TRACED_REPLICA_WINDOWS`] windows serially, with a span around
//! every layer call.

use crate::report::{median, quantile, ratio, Outcome};
use crate::trace::Recorder;
use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    decode_window_masks, ClusterGate, ClusterTier, Decoder, DecoderFactory, EngineRun, LerEngine,
    MatchingGraph, Predecoder, ReferenceUnionFind, SampleOptions, Tiered, UnionFindDecoder,
    WindowScratch, WindowStats,
};
use caliqec_obs::{Hist, WorkerObs};
use caliqec_stab::{
    chunk_seed, extract_dem, BatchEvents, CompiledCircuit, SparseBatch, WideFrameState, BATCH,
    LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const DISTANCE: usize = 15;
const P: f64 = 1e-3;
/// Engine shots per second of `--seconds`: the seed commit's throughput
/// on a 2-core host (35–45k shots/s), so the loop runs for about
/// `--seconds` and dominates `wall_s`.
const SHOTS_PER_SECOND_OF_BUDGET: usize = 40_000;
/// Windows (64 shots each) the replica decodes in the untraced pass, a
/// multiple of `SETUP_REPS × LANES`; the p99 window latency has 15 samples
/// beyond it.
const REPLICA_WINDOWS: usize = 1536;
/// Passes the untraced replica makes over each third of its windows. Every
/// pass samples and decodes the same windows, so a window's latency is its
/// fastest pass's: a host stall must hit the same window in every pass to
/// reach the quantiles.
const REPLICA_PASSES: usize = 3;
/// Windows the traced pass replays serially, one span per layer call.
const TRACED_REPLICA_WINDOWS: usize = 1152;
/// Leading replica windows cross-checked against the engine's own window
/// decoder and against `ReferenceUnionFind`.
const CHECK_WINDOWS: usize = 32;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 3;
/// Upper bound on the logical error rate per shot accepted by the gate.
/// The seed commit sees no failure in 800k-shot runs at this point; a
/// broken decoder fails on the order of one shot in a hundred.
const MAX_LER: f64 = 1e-4;

type UfFactory = Box<dyn Fn() -> UnionFindDecoder + Send + Sync>;

/// Everything set-up builds before the first shot.
struct Setup {
    compiled: CompiledCircuit,
    graph: MatchingGraph,
    tiered: Tiered<UfFactory>,
    /// Prototype cluster tier for the replica (the engine builds one per
    /// worker from the same tables).
    cluster: ClusterTier,
    dem_mechanisms: usize,
}

fn setup(rec: &mut Recorder) -> Setup {
    let mem = rec.span("code.memory_circuit", || {
        memory_circuit(
            &rotated_patch(DISTANCE, DISTANCE),
            &NoiseModel::uniform(P),
            DISTANCE,
            MemoryBasis::Z,
        )
    });
    let compiled = rec.span("stab.compile", || CompiledCircuit::new(&mem.circuit));
    let dem = rec.span("stab.dem_extract", || extract_dem(&mem.circuit));
    let graph = rec.span("match.graph_build", || MatchingGraph::from_dem(&dem));
    let (tiered, cluster) = rec.span("match.tier_tables", || {
        let g = graph.clone();
        let factory: UfFactory = Box::new(move || UnionFindDecoder::new(g.clone()));
        let tiered = Tiered::new(&graph, factory).with_cluster_gate(ClusterGate::Auto);
        let cluster = tiered
            .cluster_tier()
            .expect("auto gate arms the cluster tier");
        (tiered, cluster)
    });
    Setup {
        compiled,
        graph,
        tiered,
        cluster,
        dem_mechanisms: dem.mechanisms.len(),
    }
}

/// Per-layer counts gathered by the replica.
#[derive(Debug, Default)]
struct ReplicaStats {
    shots: usize,
    defects: usize,
    failures: usize,
    predecode_attempts: usize,
    predecode_certified: usize,
    cluster_shots: usize,
    cluster_resolved: usize,
    cluster_defects: usize,
    cluster_peeled: usize,
    uf_calls: usize,
    uf_defects: usize,
    tier0: usize,
    /// Extract + decode wall time of each window, microseconds.
    window_us: Vec<f64>,
    /// Masks of the first [`CHECK_WINDOWS`] windows, for the gate.
    check_masks: Vec<[u64; BATCH]>,
    /// The same windows' events, for the gate.
    check_events: Vec<BatchEvents>,
}

/// Decoder state one replica worker owns.
struct Lane {
    uf: UnionFindDecoder,
    pre: Predecoder,
    cluster: ClusterTier,
    threshold: f64,
}

/// Decodes one extracted window the way the engine's rung 0 does (tier-0
/// skip, predecoder, density-gated cluster decomposition, union-find on
/// the residue), with a span around each layer call.
fn decode_window(
    lane: &mut Lane,
    sparse: &SparseBatch,
    rec: &mut Recorder,
    st: &mut ReplicaStats,
    masks: &mut [u64; BATCH],
) {
    let mut dense = Vec::with_capacity(BATCH);
    let mut uncertified = Vec::new();
    let mut window_defects = 0usize;
    for (s, mask) in masks.iter_mut().enumerate() {
        let n = sparse.defect_count(s);
        window_defects += n;
        *mask = 0;
        if n == 0 {
            st.tier0 += 1;
        } else if n <= Predecoder::MAX_CERT_DEFECTS {
            st.predecode_attempts += 1;
            let id = rec.enter("match.predecode");
            let certified = lane.pre.predecode(sparse.defects(s));
            rec.exit(id);
            match certified {
                Some(m) => {
                    st.predecode_certified += 1;
                    *mask = m;
                }
                None => uncertified.push(s),
            }
        } else {
            dense.push(s);
        }
    }
    st.defects += window_defects;
    let cluster_ran = window_defects as f64 / BATCH as f64 >= lane.threshold;
    let mut uf = |rec: &mut Recorder, st: &mut ReplicaStats, defects: &[usize]| {
        st.uf_calls += 1;
        st.uf_defects += defects.len();
        let id = rec.enter("match.uf_decode");
        let m = lane.uf.decode(defects);
        rec.exit(id);
        m
    };
    if cluster_ran {
        for &s in &dense {
            let defects = sparse.defects(s);
            let id = rec.enter("match.cluster");
            let out = lane.cluster.decompose(defects);
            rec.exit(id);
            st.cluster_shots += 1;
            st.cluster_defects += defects.len();
            st.cluster_peeled += out.peeled_defects as usize;
            masks[s] = out.mask;
            if out.fully_peeled() {
                st.cluster_resolved += 1;
            } else {
                masks[s] ^= uf(rec, st, lane.cluster.residual_defects());
            }
        }
        for &s in &uncertified {
            masks[s] = uf(rec, st, sparse.defects(s));
        }
    } else {
        let mut rest: Vec<usize> = dense.iter().chain(&uncertified).copied().collect();
        rest.sort_unstable();
        for s in rest {
            masks[s] = uf(rec, st, sparse.defects(s));
        }
    }
}

/// Serial replica of the engine's per-batch path over the engine's own
/// batch seeds `windows`: sample (4 lanes in lockstep), extract, decode,
/// score, accumulating into `st`.
fn replica(
    s: &Setup,
    base_seed: u64,
    windows: std::ops::Range<usize>,
    rec: &mut Recorder,
    st: &mut ReplicaStats,
) {
    let mut lane = Lane {
        uf: UnionFindDecoder::new(s.graph.clone()),
        pre: s
            .tiered
            .predecoder()
            .expect("tiered factory has a predecoder"),
        cluster: s.cluster.clone(),
        threshold: s.tiered.cluster_gate_threshold(),
    };
    let mut wide = WideFrameState::new(&s.compiled);
    let mut events: [BatchEvents; LANES] = std::array::from_fn(|_| BatchEvents::default());
    let mut sparse = SparseBatch::new();
    let mut masks = [0u64; BATCH];
    assert!(
        windows.start.is_multiple_of(LANES) && windows.end.is_multiple_of(LANES),
        "replica samples whole lane groups"
    );
    for first in windows.step_by(LANES) {
        let mut rngs: [StdRng; LANES] = std::array::from_fn(|l| {
            StdRng::seed_from_u64(chunk_seed(base_seed, (first + l) as u64))
        });
        let id = rec.enter("stab.sample");
        s.compiled
            .sample_batches_wide_into(&mut wide, &mut rngs, &mut events);
        rec.exit(id);
        for ev in &events {
            let t0 = Instant::now();
            let id = rec.enter("stab.extract");
            sparse.extract(ev);
            rec.exit(id);
            decode_window(&mut lane, &sparse, rec, st, &mut masks);
            st.window_us.push(t0.elapsed().as_secs_f64() * 1e6);
            for (sh, &m) in masks.iter().enumerate() {
                if m != sparse.observables(sh) {
                    st.failures += 1;
                }
            }
            st.shots += BATCH;
            if st.check_masks.len() < CHECK_WINDOWS {
                st.check_masks.push(masks);
                st.check_events.push(ev.clone());
            }
        }
    }
}

/// Correctness gate on the replica's leading windows: its masks must equal
/// the engine's own window decoder's (`decode_window_masks` through the
/// tiered factory) and `ReferenceUnionFind`'s, shot for shot.
fn cross_check(s: &Setup, st: &ReplicaStats, out: &mut Outcome) {
    let mut decoder = s.tiered.build();
    let mut pre = s.tiered.predecoder();
    let mut cluster = s.tiered.cluster_tier();
    let mut reference = ReferenceUnionFind::new(s.graph.clone());
    let mut sparse = SparseBatch::new();
    let mut scratch = WindowScratch::default();
    let mut stats = WindowStats::default();
    let mut masks = [0u64; BATCH];
    let mut mismatches = (0usize, 0usize);
    for (ev, replica_masks) in st.check_events.iter().zip(&st.check_masks) {
        sparse.extract(ev);
        decode_window_masks(
            &mut decoder,
            pre.as_mut(),
            cluster.as_mut(),
            s.tiered.cluster_gate(),
            s.tiered.cluster_gate_threshold(),
            &sparse,
            &mut scratch,
            &mut WorkerObs::disabled(),
            Hist::DecodeShotRung0,
            &mut stats,
            &mut masks,
        );
        for sh in 0..BATCH {
            if masks[sh] != replica_masks[sh] {
                mismatches.0 += 1;
            }
            if masks[sh] != reference.decode(sparse.defects(sh)) {
                mismatches.1 += 1;
            }
        }
    }
    let checked = st.check_events.len() * BATCH;
    out.check(checked == CHECK_WINDOWS * BATCH, || {
        format!("cross-check covered {checked} shots")
    });
    out.check(mismatches.0 == 0, || {
        format!(
            "replica disagrees with decode_window_masks on {} of {checked} shots",
            mismatches.0
        )
    });
    out.check(mismatches.1 == 0, || {
        format!(
            "tiered pipeline disagrees with ReferenceUnionFind on {} of {checked} shots",
            mismatches.1
        )
    });
}

/// Engine accounting and outcome checks.
fn check_engine(run: &EngineRun, budget: usize, out: &mut Outcome) {
    let shots = run.estimate.shots;
    out.check(shots == budget, || {
        format!("engine decoded {shots} shots, budget {budget}")
    });
    let tiers = run.tier0_shots + run.predecoded_shots + run.clustered_shots + run.residual_shots;
    out.check(tiers == shots, || {
        format!("tier partition {tiers} != {shots} shots")
    });
    let hist: u64 = run.defect_histogram.iter().sum();
    out.check(hist == shots as u64, || {
        format!("defect histogram sums to {hist}, not {shots}")
    });
    let sizes: u64 = run.cluster_size_histogram.iter().sum();
    out.check(sizes == run.clusters_total, || {
        format!(
            "cluster-size histogram sums to {sizes}, not {}",
            run.clusters_total
        )
    });
    out.check(run.faulted_chunks == run.retried_chunks, || {
        format!(
            "{} faulted chunks but {} retries",
            run.faulted_chunks, run.retried_chunks
        )
    });
    let ler = run.estimate.per_shot();
    out.check(ler <= MAX_LER, || {
        format!("engine LER {ler:.3e} above {MAX_LER:.0e}")
    });
}

fn check_replica(st: &ReplicaStats, windows: usize, out: &mut Outcome) {
    // Every shot ends in exactly one tier; each residual shot costs one
    // union-find call.
    let tiers = st.tier0 + st.predecode_certified + st.cluster_resolved + st.uf_calls;
    out.check(tiers == st.shots, || {
        format!("replica tier partition {tiers} != {} shots", st.shots)
    });
    out.check(st.shots == windows * BATCH, || {
        format!("replica decoded {} shots", st.shots)
    });
    let ler = ratio(st.failures as f64, st.shots as f64);
    out.check(ler <= MAX_LER, || {
        format!("replica LER {ler:.3e} above {MAX_LER:.0e}")
    });
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: u64, trace: bool, threads: usize, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let base_seed = chunk_seed(seed, DISTANCE as u64);
    let budget =
        (seconds as usize * SHOTS_PER_SECOND_OF_BUDGET).div_ceil(BATCH * LANES) * BATCH * LANES;
    let mut off = Recorder::new(false);

    // Untraced pass. The first set-up is timed from process start. A third
    // of the replica follows each set-up, in [`REPLICA_PASSES`] passes that
    // must decode alike; each window keeps its fastest pass's latency. The
    // replica runs on one thread: with both cores busy, other processes on
    // the host inflate its tail.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut st = ReplicaStats::default();
    let mut kept: Option<Setup> = None;
    let part = REPLICA_WINDOWS / SETUP_REPS;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = if rep == 0 { start } else { Instant::now() };
        let s = setup(&mut off);
        setup_times.push(t0.elapsed().as_secs_f64());
        let windows = rep * part..(rep + 1) * part;
        let (first, failures, uf_calls) = (st.window_us.len(), st.failures, st.uf_calls);
        replica(&s, base_seed, windows.clone(), &mut off, &mut st);
        for _ in 1..REPLICA_PASSES {
            let mut again = ReplicaStats::default();
            replica(&s, base_seed, windows.clone(), &mut off, &mut again);
            out.check(
                again.failures == st.failures - failures
                    && again.uf_calls == st.uf_calls - uf_calls,
                || format!("replica passes over windows {windows:?} decoded differently"),
            );
            for (best, us) in st.window_us[first..].iter_mut().zip(&again.window_us) {
                *best = best.min(*us);
            }
        }
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    let engine = LerEngine::new(threads);
    let t0 = Instant::now();
    let run = engine.estimate(
        &s.compiled,
        &s.tiered,
        SampleOptions {
            min_shots: budget,
            ..SampleOptions::default()
        },
        base_seed,
    );
    let engine_s = t0.elapsed().as_secs_f64();

    check_engine(&run, budget, &mut out);
    check_replica(&st, REPLICA_WINDOWS, &mut out);
    cross_check(&s, &st, &mut out);

    out.attempted = run.estimate.shots as u64;
    out.failed = run.degraded_shots as u64;
    let setup_s = median(&setup_times);
    out.note("engine_threads", run.threads);
    out.note("engine_shots", run.estimate.shots);
    out.note("engine_failures", run.estimate.failures);
    out.note("replica_failures", st.failures);
    out.note("window_samples", st.window_us.len());
    out.note(
        "setup_reps_s",
        format!("{setup_times:?}").trim_matches(['[', ']']),
    );

    if !trace {
        let m = &mut out.metrics;
        m.push("setup_s", "s", setup_s);
        m.push("wall_s", "s", setup_s + engine_s);
        m.push("shots_per_s", "1/s", run.estimate.shots as f64 / engine_s);
        m.push("window_p50_us", "us", quantile(&st.window_us, 0.50));
        m.push("window_p99_us", "us", quantile(&st.window_us, 0.99));
        m.push(
            "served_frac",
            "fraction",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
        );
        return out;
    }

    // Traced pass: set-up, engine run and a serial replica of the leading
    // windows once more, each layer call inside a span. Counts and tier
    // splits come from the untraced engine run above; the overhead baseline
    // is the same serial replica with the recorder off.
    let t0 = Instant::now();
    let mut serial = ReplicaStats::default();
    replica(
        &s,
        base_seed,
        0..TRACED_REPLICA_WINDOWS,
        &mut off,
        &mut serial,
    );
    let untraced_wall = setup_s + engine_s + t0.elapsed().as_secs_f64();
    drop(s);
    let mut rec = Recorder::new(true);
    let root = rec.enter("trace");
    let ts = setup(&mut rec);
    let traced_run = rec.span("match.engine", || {
        engine.estimate(
            &ts.compiled,
            &ts.tiered,
            SampleOptions {
                min_shots: budget,
                ..SampleOptions::default()
            },
            base_seed,
        )
    });
    let mut tst = ReplicaStats::default();
    replica(
        &ts,
        base_seed,
        0..TRACED_REPLICA_WINDOWS,
        &mut rec,
        &mut tst,
    );
    rec.exit(root);
    check_replica(&tst, TRACED_REPLICA_WINDOWS, &mut out);
    out.check(
        traced_run.estimate == run.estimate
            && tst.check_masks == st.check_masks
            && tst.failures == serial.failures,
        || "traced pass decoded differently from the untraced pass".to_string(),
    );

    let m = &mut out.metrics;
    crate::push_span_metrics(m, &rec, untraced_wall);
    m.push("stab.dem_mechanisms", "count", ts.dem_mechanisms as f64);
    m.push("match.graph_edges", "count", ts.graph.edges().len() as f64);
    m.push(
        "stab.defects_per_shot",
        "count",
        ratio(tst.defects as f64, tst.shots as f64),
    );
    m.push(
        "match.predecode_certified_frac",
        "fraction",
        ratio(
            tst.predecode_certified as f64,
            tst.predecode_attempts as f64,
        ),
    );
    m.push(
        "match.cluster_peeled_defect_frac",
        "fraction",
        ratio(tst.cluster_peeled as f64, tst.cluster_defects as f64),
    );
    m.push(
        "match.cluster_resolved_shot_frac",
        "fraction",
        ratio(tst.cluster_resolved as f64, tst.cluster_shots as f64),
    );
    m.push("match.uf_calls", "count", tst.uf_calls as f64);
    m.push(
        "match.uf_defects_per_call",
        "count",
        ratio(tst.uf_defects as f64, tst.uf_calls as f64),
    );
    m.push("engine.tier0_shots", "count", run.tier0_shots as f64);
    m.push(
        "engine.predecoded_shots",
        "count",
        run.predecoded_shots as f64,
    );
    m.push(
        "engine.clustered_shots",
        "count",
        run.clustered_shots as f64,
    );
    m.push("engine.residual_shots", "count", run.residual_shots as f64);
    m.push("engine.degraded_shots", "count", run.degraded_shots as f64);
    m.push("engine.runs", "count", 1.0);
    out.note("spans", rec.len());
    out.spans_json = Some(rec.to_json());
    out
}
