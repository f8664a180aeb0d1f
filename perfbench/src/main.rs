//! # sf2d-perfbench
//!
//! One benchmark for the whole sf2d system. Each workload generates its
//! input from `--seed` with the `sf2d-gen` R-MAT generator (graph500
//! parameters), drives the public entry points of every layer it covers
//! from this one process on [`THREADS`] threads, checks every result
//! against a serial oracle outside the timed regions, and prints one JSON
//! line last with the figures of every operation it ran (`run.py` keeps
//! the metrics `BENCHMARK.json` lists, which every workload reports):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out FILE] [--det-dir DIR]
//! ```
//!
//! `--trace 0` times the end-to-end metrics with all tracing off.
//! `--trace 1` is a separate run that records a span around every call
//! into a layer (see [`spans`]), turns on the `sf2d_obs` facade around
//! the SpMV loop for its phase split, and reports the per-layer metrics;
//! the span tree and the run's provenance go to `--trace-out`.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! `pipeline_2dgp_s16`, `kernels_2drandom_s14_p256`, `serve_churn_s14`.

mod check;
mod kernels;
mod pipeline;
mod report;
mod serve;
mod spans;
mod stats;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sf2d_core::prelude::*;
use sf2d_core::sf2d_obs;
use sf2d_core::sf2d_partition::Partition;
use sf2d_core::sf2d_spmv::map::VectorMap;

use report::{num, Report};

#[global_allocator]
static ALLOC: sf2d_obs::CountingAlloc = sf2d_obs::CountingAlloc;

/// Thread count of every layer that takes one (`nproc` of the 2-CPU
/// reference host).
pub const THREADS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
    pub det_dir: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         [--trace-out FILE] [--det-dir DIR]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value} for {flag}")))
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
        trace_out: None,
        det_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value after {flag}")));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse(flag, value),
            "--seconds" => args.seconds = parse(flag, value),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--det-dir" => args.det_dir = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

fn main() {
    let args = parse_args();
    // The partitioner behind `LayoutBuilder` resolves its thread budget
    // from SF2D_THREADS; set it before any layer spawns a thread.
    std::env::set_var("SF2D_THREADS", THREADS.to_string());
    sf2d_obs::mem::reset_peak();

    let mut rep = Report::new(args.traced);
    match args.workload.as_str() {
        "pipeline_2dgp_s16" => pipeline::run(&args, &mut rep),
        "kernels_2drandom_s14_p256" => kernels::run(&args, &mut rep),
        "serve_churn_s14" => serve::run(&args, &mut rep),
        other => usage(&format!("unknown workload {other}")),
    }
    if !args.traced {
        rep.e2e("peak_live_mb", peak_live_mb(), "MB");
    }
    if let Some(dir) = &args.det_dir {
        cross_run_check(dir, &args, &mut rep);
    }
    rep.print();
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over a stream of words: a cheap fingerprint of a partition or
/// of result bits for the determinism cross-check.
pub fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Columns of the SpMM every workload times.
pub const SPMM_COLS: usize = 16;

/// The seeded `SPMM_COLS`-column SpMM input on `map`, with its columns as
/// global vectors for the check.
pub fn spmm_input(map: &Arc<VectorMap>, seed: u64) -> (DistMultiVector, Vec<Vec<f64>>) {
    let cols: Vec<Vec<f64>> = (0..SPMM_COLS as u64)
        .map(|c| DistVector::random(Arc::clone(map), seed ^ (c + 1) << 40).to_global())
        .collect();
    (DistMultiVector::from_columns(Arc::clone(map), &cols), cols)
}

/// Every column of `ym` as a global vector.
pub fn spmm_output(ym: &DistMultiVector) -> Vec<Vec<f64>> {
    (0..SPMM_COLS).map(|c| ym.col_to_global(c)).collect()
}

/// Edge cut of a layout's row partition: the weight of the edges of `a`
/// whose ends fall in different row blocks.
pub fn edge_cut(a: &CsrMatrix, dist: &MatrixDist) -> f64 {
    let g = Graph::from_symmetric_matrix(a);
    let part = Partition::new(dist.rpart().to_vec(), dist.nprocs());
    part.edge_cut(&g)
}

/// Peak live heap since start-up, in MB, from the counting allocator.
pub fn peak_live_mb() -> f64 {
    sf2d_obs::mem::snapshot().peak_live_bytes as f64 / 1e6
}

/// Repeats the measured section while another repetition, as long as the
/// last one, still fits in `seconds`, and at least `min_reps` times.
pub struct Deadline {
    end: Instant,
    min_reps: usize,
    reps: usize,
    last_start: Option<Instant>,
}

impl Deadline {
    pub fn new(seconds: f64, min_reps: usize) -> Deadline {
        Deadline {
            end: Instant::now() + Duration::from_secs_f64(seconds),
            min_reps,
            reps: 0,
            last_start: None,
        }
    }

    /// Whether to run another repetition (counts it if so).
    pub fn more(&mut self) -> bool {
        let now = Instant::now();
        let last = self.last_start.map_or(Duration::ZERO, |t| now - t);
        let go = self.reps < self.min_reps || now + last <= self.end;
        if go {
            self.reps += 1;
            self.last_start = Some(now);
        }
        go
    }
}

/// Runs `f` `n` times and returns the wall seconds of each call.
pub fn timed_calls(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect()
}

/// A [`LinearOperator`] that delegates to `inner` and records when each
/// application starts and how long it takes, so an eigensolve splits into
/// operator time and solver self time, and into restart cycles.
pub struct TimedOp<'a> {
    inner: &'a dyn LinearOperator,
    /// Start instant, ledger total at the start, and wall seconds of each
    /// application.
    applies: RefCell<Vec<(Instant, f64, f64)>>,
}

/// What a [`TimedOp`] recorded over one eigensolve.
pub struct OpTimes {
    /// Wall seconds of each operator application.
    pub applies: Vec<f64>,
    /// Wall and modeled seconds of each full Krylov-Schur restart cycle.
    pub cycles: Vec<(f64, f64)>,
}

impl<'a> TimedOp<'a> {
    pub fn new(inner: &'a dyn LinearOperator) -> TimedOp<'a> {
        TimedOp {
            inner,
            applies: RefCell::new(Vec::new()),
        }
    }

    /// The record of a solve run with `cfg`. `krylov_schur_largest` grows
    /// its basis to `max_basis` vectors, and every restart keeps
    /// `keep = nev + (max_basis - nev) / 2` Ritz vectors. So from the
    /// `keep`-th operator application on, the solve runs in cycles of
    /// `max_basis - keep` applications that extend the basis from `keep`
    /// to `max_basis` vectors, each followed by a restart, and every cycle
    /// does the same work however many restarts the input needs: its
    /// applications, their orthogonalization and the restart. A cycle
    /// runs from its first application to the first of the next; the last
    /// one, which ends the solve instead of restarting, is left out.
    pub fn take(self, cfg: &KrylovSchurConfig) -> OpTimes {
        let applies = self.applies.into_inner();
        let m = cfg.max_basis;
        let keep = (cfg.nev + (m - cfg.nev) / 2).min(m - 1);
        let starts: Vec<_> = applies.iter().skip(keep).step_by(m - keep).collect();
        OpTimes {
            cycles: starts
                .windows(2)
                .map(|w| ((w[1].0 - w[0].0).as_secs_f64(), w[1].1 - w[0].1))
                .collect(),
            applies: applies.iter().map(|a| a.2).collect(),
        }
    }
}

impl LinearOperator for TimedOp<'_> {
    fn vmap(&self) -> &Arc<VectorMap> {
        self.inner.vmap()
    }

    fn apply(&self, x: &DistVector, y: &mut DistVector, ledger: &mut CostLedger) {
        let _s = spans::span("eigen.apply");
        let (t, sim) = (Instant::now(), ledger.total);
        self.inner.apply(x, y, ledger);
        self.applies.borrow_mut().push((t, sim, secs(t)));
    }
}

/// Host wall seconds of each `sf2d_obs` wall span label recorded while
/// the facade was on, summed.
pub fn obs_wall_by_label(events: &[sf2d_obs::TraceEvent]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for e in events {
        if let sf2d_obs::TraceEvent::WallSpan { label, dur, .. } = e {
            *out.entry(label.clone()).or_insert(0.0) += dur;
        }
    }
    out
}

/// Wall seconds the ledger spends billing `n` SpMVs of `dm`: the four
/// supersteps each product closes, replayed on a fresh ledger.
pub fn ledger_replay_s(dm: &DistCsrMatrix, n: usize) -> f64 {
    use sf2d_core::sf2d_sim::Phase;
    let c = &dm.compiled;
    let mut ledger = CostLedger::new(Machine::cab());
    let t = Instant::now();
    for _ in 0..n {
        ledger.superstep(Phase::Expand, &c.expand_costs);
        ledger.superstep(Phase::LocalCompute, &c.compute_costs);
        ledger.superstep(Phase::Fold, &c.fold_costs);
        ledger.superstep(Phase::Sum, &c.sum_costs);
    }
    std::hint::black_box(ledger.total);
    secs(t)
}

/// Per-layer figures of the traced run: each layer's self time and share
/// of the root span, the root's wall time, and the span file.
pub fn report_spans(args: &Args, rep: &mut Report, spans: &[spans::SpanRec]) {
    let selfs = spans::self_times(spans);
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur())
        .sum();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        *by_layer.entry(s.layer()).or_insert(0.0) += t;
    }
    rep.layer("trace.wall_s", wall, "s");
    for (layer, t) in &by_layer {
        rep.layer(format!("layer.{layer}.self_s"), *t, "s");
        rep.layer(format!("layer.{layer}.share"), t / wall, "ratio");
    }
    if let Some(path) = &args.trace_out {
        write_trace_file(path, args, rep, spans, &selfs);
    }
}

fn write_trace_file(
    path: &PathBuf,
    args: &Args,
    rep: &Report,
    spans: &[spans::SpanRec],
    selfs: &[f64],
) {
    // `collect` asks git for the revision; keep git from searching the
    // directories above the checkout when the checkout is not a repository.
    if let Some(above) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", above);
    }
    let meta = sf2d_bench::BenchMeta::collect("perfbench", THREADS);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"meta\": {}, \"workload\": \"{}\", \"seed\": {},\n\"spans\": [",
        serde_json::to_string(&meta).expect("meta serializes"),
        args.workload,
        args.seed
    );
    for (i, (s, t)) in spans.iter().zip(selfs).enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \
             \"dur_s\": {}, \"self_s\": {}}}",
            s.name,
            num(s.start),
            num(s.dur()),
            num(*t)
        );
    }
    out.push_str("\n],\n\"metrics\": {");
    for (i, (k, (v, unit))) in rep.layer_metrics().iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    out.push_str("\n}}\n");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Compares this run's deterministic counts with those an earlier run of
/// the same executable recorded for the same workload and seed, and
/// records them when there is none.
fn cross_run_check(dir: &std::path::Path, args: &Args, rep: &mut Report) {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .unwrap_or_default();
    // A rebuilt binary starts a fresh record.
    let hash = fnv1a(exe.iter().map(|&b| u64::from(b)));
    let path = dir.join(format!(
        "{}-seed{}-{hash:016x}.txt",
        args.workload, args.seed
    ));
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut known: BTreeMap<String, String> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut diffs = Vec::new();
    for (k, v) in rep.det_counts() {
        match known.get(k) {
            Some(e) if *e != v.to_string() => diffs.push(k.clone()),
            Some(_) => {}
            None => {
                known.insert(k.clone(), v.to_string());
            }
        }
    }
    for k in diffs {
        rep.det_mismatch(k);
    }
    let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(&path, text);
}
