//! `serve_churn_s14`: the resident serving engine under reads and writes.
//!
//! `sf2d_serve::Engine` on R-MAT scale 14, 2D-GP, p = 64, `max_batch`
//! 16, driven by one closed-loop client: it submits a seeded burst of
//! 1–16 queries, calls `flush` and waits for the replies. Before every
//! 4th burst it makes one effective edge write, alternating `insert_edge`
//! (a new edge) and `remove_edge` (an edge of the input graph), so a
//! quarter of the flushes pay for a plan recompile. A query's latency
//! runs from its `submit` call to the return of the `flush` that answers
//! it. A run is a sequence of segments, each a fresh `Engine::new`, 100 ×
//! `spmv_with` and 8 × 16-column `spmm_with` on the engine's resident plan
//! (the kernels its flushes run, without the batching around them), and
//! the same [`SEGMENT_BURSTS`] bursts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_obs;
use sf2d_serve::{Engine, EngineConfig, EngineMetrics};

use crate::pipeline::kernel_layers;
use crate::report::Report;
use crate::spans::{self, timed};
use crate::stats::{median, quantile};
use crate::{check, fnv1a, obs_wall_by_label, secs, spmm_input, spmm_output, timed_calls};
use crate::{Args, Deadline, SPMM_COLS, THREADS};

const SCALE: u32 = 14;
const P: usize = 64;
const MAX_BATCH: usize = 16;
/// A write precedes every `WRITE_EVERY`-th burst.
const WRITE_EVERY: u64 = 4;
/// Bursts one segment serves. Every segment builds a fresh engine and
/// replays the same seeded schedule from its start, so the segments of a
/// run are repeat samples of one piece of work, and engine set-ups spread
/// over the whole run rather than one stretch of it.
const SEGMENT_BURSTS: u64 = 64;
const _: () = assert!(SEGMENT_BURSTS % (WRITE_EVERY * MAX_BATCH as u64) == 0);
/// Segments an untraced run serves at least.
const MIN_SEGMENTS: usize = 4;
/// SpMV and 16-column SpMM calls on the resident plan per segment.
const SPMVS: usize = 100;
const SPMMS: usize = 8;

fn config(seed: u64) -> EngineConfig {
    EngineConfig::new(Method::TwoDGp, P)
        .with_seed(seed)
        .with_threads(THREADS)
        .with_max_batch(MAX_BATCH)
}

enum Write {
    Insert(u32, u32),
    Remove(u32, u32),
}

/// The seeded client: burst widths, query vectors and the write schedule
/// all come from one splitmix64 stream.
struct Client<'a> {
    state: u64,
    a: &'a CsrMatrix,
    bursts: u64,
    /// Width of each burst of a segment.
    widths: Vec<usize>,
}

impl<'a> Client<'a> {
    fn new(seed: u64, a: &'a CsrMatrix) -> Client<'a> {
        let mut c = Client {
            state: seed ^ 0x5eed_c11e_47b0_0575,
            a,
            bursts: 0,
            widths: vec![0; SEGMENT_BURSTS as usize],
        };
        // Bursts at the same position in each run of `WRITE_EVERY` (so
        // those after a write, too) take every width from 1 to `MAX_BATCH`
        // equally often, in a seeded order: every seed serves the same mix
        // of widths, and only the order and the data follow the seed.
        let (every, groups) = (WRITE_EVERY as usize, (SEGMENT_BURSTS / WRITE_EVERY) as usize);
        for pos in 0..every {
            let mut ws: Vec<usize> = (0..groups).map(|g| 1 + g % MAX_BATCH).collect();
            for i in (1..groups).rev() {
                ws.swap(i, c.below(i + 1));
            }
            for (g, w) in ws.into_iter().enumerate() {
                c.widths[g * every + pos] = w;
            }
        }
        c
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// The next burst: an optional write, then the query vectors.
    fn step(&mut self, engine: &Engine) -> (Option<Write>, Vec<Vec<f64>>) {
        let k = self.bursts;
        self.bursts += 1;
        let n = self.a.nrows();
        let write = (k % WRITE_EVERY == WRITE_EVERY - 1).then(|| {
            if (k / WRITE_EVERY).is_multiple_of(2) {
                loop {
                    let (i, j) = (self.below(n) as u32, self.below(n) as u32);
                    if i != j && !engine.has_edge(i, j) {
                        break Write::Insert(i, j);
                    }
                }
            } else {
                loop {
                    let i = self.below(n);
                    let (cols, _) = self.a.row(i);
                    if cols.is_empty() {
                        continue;
                    }
                    let j = cols[self.below(cols.len())];
                    if j as usize != i && engine.has_edge(i as u32, j) {
                        break Write::Remove(i as u32, j);
                    }
                }
            }
        });
        let width = self.widths[k as usize % self.widths.len()];
        let xs = (0..width)
            .map(|_| {
                (0..n)
                    .map(|_| (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
                    .collect()
            })
            .collect();
        (write, xs)
    }
}

/// What the client observed in one segment.
#[derive(Default)]
struct Observed {
    latency_ms: Vec<f64>,
    flush_steady_ms: Vec<f64>,
    flush_post_write_ms: Vec<f64>,
    write_us: Vec<f64>,
    queries: u64,
    /// Seconds inside engine calls: writes, submits and flushes.
    busy_s: f64,
    /// Fingerprint of every reply's bits, in order.
    reply_hash: u64,
}

/// The serial oracle: the engine's global matrix at one epoch.
struct Oracle {
    epoch: u64,
    m: CsrMatrix,
}

/// Runs one burst and checks every reply.
fn burst(
    engine: &mut Engine,
    client: &mut Client,
    obs: &mut Observed,
    rep: &mut Report,
    oracle: &mut Option<Oracle>,
) {
    let (write, xs) = timed("bench.client", || client.step(engine));
    let post_write = write.is_some();
    // Seconds inside engine calls for this burst.
    let mut busy = 0.0;
    if let Some(w) = write {
        let t = Instant::now();
        let changed = timed("serve.write", || match w {
            Write::Insert(i, j) => engine.insert_edge(i, j, 1.0),
            Write::Remove(i, j) => engine.remove_edge(i, j),
        });
        busy = secs(t);
        obs.write_us.push(busy * 1e6);
        rep.check("edge write changes the graph", changed);
    }
    let to_submit = xs.clone();
    let mut submitted = Vec::with_capacity(xs.len());
    let t0 = Instant::now();
    timed("serve.submit", || {
        for x in to_submit {
            let at = Instant::now();
            submitted.push((engine.submit(x), at));
        }
    });
    let tf = Instant::now();
    let replies = timed("serve.flush", || engine.flush());
    let done = Instant::now();
    busy += (done - t0).as_secs_f64();
    obs.busy_s += busy;
    obs.queries += xs.len() as u64;
    let flush_ms = (done - tf).as_secs_f64() * 1e3;
    if post_write {
        obs.flush_post_write_ms.push(flush_ms);
    } else {
        obs.flush_steady_ms.push(flush_ms);
    }
    for &(_, at) in &submitted {
        obs.latency_ms.push((done - at).as_secs_f64() * 1e3);
    }

    let _s = spans::span("bench.check");
    let epoch = engine.epoch();
    if oracle.as_ref().is_none_or(|o| o.epoch != epoch) {
        *oracle = Some(Oracle {
            epoch,
            m: engine.global_matrix(),
        });
    }
    let m = &oracle.as_ref().expect("oracle set above").m;
    rep.check(
        "one reply per query",
        replies.len() == submitted.len()
            && replies.iter().zip(&submitted).all(|(r, s)| r.id == s.0),
    );
    for (r, x) in replies.iter().zip(&xs) {
        rep.check(
            "reply vs serial CSR at its epoch",
            check::spmv_ok(m, x, &r.y),
        );
    }
    let bits = replies.iter().flat_map(|r| r.y.iter().map(|v| v.to_bits()));
    obs.reply_hash = fnv1a(std::iter::once(obs.reply_hash).chain(bits));
}

/// [`SPMVS`] × `spmv_with` then [`SPMMS`] × `spmm_with` on one plan: the
/// wall seconds of each call, the modeled seconds of the SpMVs, inputs and
/// last products for the check, and the `sf2d_obs` phase split of the
/// SpMVs when `obs` is set.
struct Probe {
    calls: Vec<f64>,
    spmm_calls: Vec<f64>,
    sim_s: f64,
    xg: Vec<f64>,
    y: Vec<f64>,
    xm_cols: Vec<Vec<f64>>,
    ym: Vec<Vec<f64>>,
    phases: BTreeMap<String, f64>,
}

fn spmv_probe(da: &DistCsrMatrix, seed: u64, obs: bool) -> Probe {
    let x = DistVector::random(Arc::clone(&da.vmap), seed);
    let mut y = DistVector::zeros(Arc::clone(&da.vmap));
    let mut ws = SpmvWorkspace::with_threads(THREADS);
    let mut ledger = CostLedger::new(Machine::cab());
    if obs {
        sf2d_obs::enable();
    }
    let calls = timed("spmv.spmv100", || {
        timed_calls(SPMVS, || spmv_with(da, &x, &mut y, &mut ledger, &mut ws))
    });
    let phases = if obs {
        sf2d_obs::disable();
        let _ = sf2d_obs::take_registry();
        obs_wall_by_label(&sf2d_obs::take_events())
    } else {
        BTreeMap::new()
    };
    let sim_s = ledger.total;
    let (xm, xm_cols) = spmm_input(&da.vmap, seed);
    let mut ym = DistMultiVector::zeros(Arc::clone(&da.vmap), SPMM_COLS);
    let spmm_calls = timed("spmv.spmm16", || {
        timed_calls(SPMMS, || spmm_with(da, &xm, &mut ym, &mut ledger, &mut ws))
    });
    Probe {
        calls,
        spmm_calls,
        sim_s,
        xg: x.to_global(),
        y: y.to_global(),
        xm_cols,
        ym: spmm_output(&ym),
        phases,
    }
}

fn check_probe(rep: &mut Report, a: &CsrMatrix, probe: &Probe) {
    let _s = spans::span("bench.check");
    rep.check(
        "spmv on the engine's plan vs serial CSR",
        check::spmv_ok(a, &probe.xg, &probe.y),
    );
    rep.check(
        "spmm16 on the engine's plan vs serial CSR",
        check::spmm_ok(a, &probe.xm_cols, &probe.ym),
    );
    rep.det("sim_spmv100_s", probe.sim_s);
}

fn rpart_hash(dist: &MatrixDist) -> u64 {
    fnv1a(dist.rpart().iter().map(|&p| u64::from(p)))
}

/// One segment: a fresh engine, [`SPMVS`] SpMVs and [`SPMMS`] SpMMs on
/// its resident plan, then [`SEGMENT_BURSTS`] bursts of the seeded client from its start.
/// The engine is dropped before the next segment builds one, so peak
/// memory holds a single engine.
struct Segment {
    setup_s: f64,
    spmv_calls: Vec<f64>,
    spmm_calls: Vec<f64>,
    sim_spmv100: f64,
    rpart_hash: u64,
    obs: Observed,
    metrics: EngineMetrics,
}

fn segment(a: &CsrMatrix, seed: u64, rep: &mut Report) -> Segment {
    let t = Instant::now();
    let mut engine = timed("serve.engine_new", || Engine::new(a, config(seed)));
    let setup_s = secs(t);
    let probe = spmv_probe(engine.active(), seed, false);
    check_probe(rep, a, &probe);
    let rpart_hash = rpart_hash(engine.dist());
    rep.det_u64("partition.rpart_hash", rpart_hash);
    let mut client = Client::new(seed, a);
    let mut obs = Observed::default();
    let mut oracle = None;
    for _ in 0..SEGMENT_BURSTS {
        rep.attempt("serve burst", |rep| {
            burst(&mut engine, &mut client, &mut obs, rep, &mut oracle)
        });
    }
    // Every segment serves the same schedule from the same start, so its
    // counts must repeat exactly.
    let m = &engine.metrics;
    rep.det_u64("serve.reply_hash", obs.reply_hash);
    rep.det("serve.cache_hit_ratio", m.cache_hit_ratio());
    rep.det_u64("serve.epoch_bumps", m.epoch_bumps);
    rep.det_u64("serve.cache_misses", m.cache_misses);
    rep.det_u64("serve.repartitions", m.repartitions);
    rep.det_u64("serve.batches", m.batches);
    rep.det("serve.sim_s", engine.ledger.total);
    Segment {
        setup_s,
        spmv_calls: probe.calls,
        spmm_calls: probe.spmm_calls,
        sim_spmv100: probe.sim_s,
        rpart_hash,
        obs,
        metrics: engine.metrics.clone(),
    }
}

/// Queries per second inside engine calls.
fn qps(o: &Observed) -> f64 {
    o.queries as f64 / o.busy_s
}

pub fn run(args: &Args, rep: &mut Report) {
    if args.traced {
        return run_traced(args, rep);
    }
    let a = timed("gen.rmat", || rmat(&RmatConfig::graph500(SCALE), args.seed));
    let mut segs = Vec::new();
    let mut deadline = Deadline::new(args.seconds, MIN_SEGMENTS);
    while deadline.more() {
        segs.push(segment(&a, args.seed, rep));
    }
    // One figure per segment, then the robust statistic over segments: a
    // stall on the shared host moves one segment rather than the result.
    let per = |f: &dyn Fn(&Segment) -> f64| segs.iter().map(f).collect::<Vec<f64>>();
    rep.e2e("setup_s", median(&per(&|s| s.setup_s)), "s");
    rep.e2e(
        "query_p50_ms",
        median(&per(&|s| median(&s.obs.latency_ms))),
        "ms",
    );
    rep.e2e(
        "query_p99_ms",
        median(&per(&|s| quantile(&s.obs.latency_ms, 0.99))),
        "ms",
    );
    rep.e2e("qps", median(&per(&|s| qps(&s.obs))), "1/s");
    rep.e2e("round_s", median(&per(&|s| s.obs.busy_s)), "s");
    let spmv: Vec<f64> = segs.iter().flat_map(|s| s.spmv_calls.iter().copied()).collect();
    rep.e2e("spmv100_s", SPMVS as f64 * median(&spmv), "s");
    let spmm: Vec<f64> = segs.iter().flat_map(|s| s.spmm_calls.iter().copied()).collect();
    rep.e2e("spmm16_s", median(&spmm), "s");
    rep.e2e("sim_spmv100_s", segs[0].sim_spmv100, "sim_s");
    let o = &segs[0].obs;
    rep.note(format!(
        "samples: {} segments, each Engine::new, {SPMVS} SpMVs and {SPMMS} SpMMs on its plan, then \
         {SEGMENT_BURSTS} bursts ({} queries, {} flushes after a write); setup_s is the \
         median over segments, query_p50_ms and query_p99_ms the median over \
         segments of each segment's p50 and p99, qps the median over segments, \
         round_s the median over segments of the seconds inside engine calls \
         for the bursts, spmv100_s 100 x the median of every SpMV call and \
         spmm16_s the median of every SpMM call",
        segs.len(),
        o.queries,
        o.flush_post_write_ms.len(),
    ));
}

fn run_traced(args: &Args, rep: &mut Report) {
    spans::enable();
    let root = spans::span("bench.run");
    let a = timed("gen.rmat", || rmat(&RmatConfig::graph500(SCALE), args.seed));
    let mut segs = Vec::new();
    let mut deadline = Deadline::new(args.seconds / 2.0, 1);
    while deadline.more() {
        segs.push(segment(&a, args.seed, rep));
    }
    // Set-up split: the layout and FillComplete `Engine::new` runs, called
    // the same way outside it, and the SpMV phases on that plan.
    let t = Instant::now();
    let dist = timed("partition.layout", || {
        LayoutBuilder::new(&a, args.seed).dist(Method::TwoDGp, P)
    });
    let layout_s = secs(t);
    let t = Instant::now();
    let da = timed("spmv.fillcomplete", || {
        DistCsrMatrix::from_global_with(&a, &dist, THREADS, None)
    });
    let fc_s = secs(t);
    let probe = spmv_probe(&da, args.seed, true);
    check_probe(rep, &a, &probe);
    drop(root);
    let spans = spans::take();
    rep.check(
        "the layout equals the engine's",
        rpart_hash(&dist) == segs[0].rpart_hash,
    );

    // Tracing overhead: one segment untraced, then one traced.
    let plain = segment(&a, args.seed, rep);
    spans::enable();
    let traced = segment(&a, args.seed, rep);
    let _ = spans::take();
    rep.layer(
        "obs.trace_overhead_frac",
        qps(&plain.obs) / qps(&traced.obs) - 1.0,
        "ratio",
    );

    let all = |f: &dyn Fn(&Observed) -> &Vec<f64>| {
        segs.iter()
            .flat_map(|s| f(&s.obs).iter().copied())
            .collect::<Vec<f64>>()
    };
    rep.layer(
        "serve.flush_steady_ms",
        median(&all(&|o| &o.flush_steady_ms)),
        "ms",
    );
    rep.layer(
        "serve.flush_post_write_ms",
        median(&all(&|o| &o.flush_post_write_ms)),
        "ms",
    );
    rep.layer("serve.write_call_us", median(&all(&|o| &o.write_us)), "us");
    let m = &segs.last().expect("at least one segment").metrics;
    rep.layer("serve.recompiles", m.cache_misses as f64, "count");
    rep.layer(
        "serve.batch_width_mean",
        m.gather_amortization_ratio(),
        "queries",
    );
    rep.layer("serve.cache_hit_ratio", m.cache_hit_ratio(), "ratio");
    rep.layer("serve.epoch_bumps", m.epoch_bumps as f64, "count");
    rep.layer("serve.repartitions", m.repartitions as f64, "count");
    rep.layer("serve.queue_depth_peak", m.queue_depth_peak as f64, "count");
    rep.layer("serve.queries", m.queries as f64, "count");

    let lm = LayoutMetrics::compute(&a, &dist);
    rep.layer("partition.layout_s", layout_s, "s");
    rep.layer("partition.edge_cut", crate::edge_cut(&a, &dist), "count");
    rep.layer("partition.nnz_imbalance", lm.nnz_imbalance(), "ratio");
    rep.layer("spmv.fillcomplete_s", fc_s, "s");
    rep.layer("spmv.plan_bytes", da.compiled.plan_bytes() as f64, "bytes");
    kernel_layers(rep, &a, &da, &lm, &probe.xg, &probe.calls, &probe.phases);
    rep.layer("spmv.spmm16_ms", median(&probe.spmm_calls) * 1e3, "ms");
    crate::report_spans(args, rep, &spans);
}
