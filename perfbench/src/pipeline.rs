//! `pipeline_2dgp_s16`: the paper's pipeline on R-MAT scale 16.
//!
//! Set-up builds the 2D-GP layout on p = 64 (8 × 8) with
//! `LayoutBuilder::dist`, then FillComplete for the adjacency and for the
//! diagonal-free adjacency behind the normalized Laplacian. The solve is
//! 100 × `spmv_with` followed by `krylov_schur_largest`
//! (`KrylovSchurConfig::paper`) on `NormalizedLaplacianOp`; a few
//! 16-column `spmm_with` calls sit between them, for `spmm16_s`. The
//! partitioner dominates; the paper leaves it out of its timings (§5.1),
//! this benchmark does not.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sf2d_core::prelude::*;
use sf2d_core::sf2d_eigen::krylov_schur::EigResult;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_obs;
use sf2d_core::sf2d_partition::{partition_graph_report, GpConfig};

use crate::report::Report;
use crate::spans::{self, timed};
use crate::stats::median;
use crate::THREADS;
use crate::{check, fnv1a, ledger_replay_s, obs_wall_by_label, secs, timed_calls};
use crate::{spmm_input, spmm_output, Args, Deadline, OpTimes, TimedOp, SPMM_COLS};

const SCALE: u32 = 16;
const P: usize = 64;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const SPMVS: usize = 100;
/// 16-column SpMM calls per solve; the pipeline itself runs none, but
/// every workload reports `spmm16_s`.
const SPMMS: usize = 8;
const NEV: usize = 10;

/// The generated input: the adjacency, its diagonal-free copy and the
/// degrees the normalized Laplacian scales by.
struct Input {
    a: CsrMatrix,
    stripped: CsrMatrix,
    degrees: Vec<usize>,
}

fn generate(seed: u64) -> Input {
    let a = timed("gen.rmat", || rmat(&RmatConfig::graph500(SCALE), seed));
    let stripped = timed("graph.strip_diagonal", || a.without_diagonal());
    let degrees = (0..stripped.nrows()).map(|i| stripped.row_nnz(i)).collect();
    Input {
        a,
        stripped,
        degrees,
    }
}

/// Everything set-up builds, with its timings.
struct Setup {
    dist: MatrixDist,
    da: DistCsrMatrix,
    op: NormalizedLaplacianOp,
    layout_s: f64,
    fc_s: f64,
    total_s: f64,
}

fn setup(inp: &Input, seed: u64) -> Setup {
    let t0 = Instant::now();
    let dist = timed("partition.layout", || {
        LayoutBuilder::new(&inp.a, seed).dist(Method::TwoDGp, P)
    });
    let layout_s = secs(t0);
    let t = Instant::now();
    let (da, dl) = timed("spmv.fillcomplete", || {
        (
            DistCsrMatrix::from_global_with(&inp.a, &dist, THREADS, None),
            DistCsrMatrix::from_global_with(&inp.stripped, &dist, THREADS, None),
        )
    });
    let fc_s = secs(t);
    let op = timed("eigen.operator", || {
        NormalizedLaplacianOp::new(dl, &inp.degrees).with_threads(THREADS)
    });
    Setup {
        dist,
        da,
        op,
        layout_s,
        fc_s,
        total_s: secs(t0),
    }
}

/// The inputs of a solve on one set-up.
struct Inputs {
    x: DistVector,
    xg: Vec<f64>,
    xm: DistMultiVector,
    xm_cols: Vec<Vec<f64>>,
}

fn inputs(s: &Setup, seed: u64) -> Inputs {
    let x = DistVector::random(Arc::clone(&s.da.vmap), seed);
    let (xm, xm_cols) = spmm_input(&s.da.vmap, seed);
    Inputs {
        xg: x.to_global(),
        x,
        xm,
        xm_cols,
    }
}

/// One solve: 100 SpMVs, [`SPMMS`] SpMMs, then the eigensolve.
struct Solve {
    /// Wall seconds of each SpMV call.
    spmv_calls: Vec<f64>,
    spmm_calls: Vec<f64>,
    eigen_s: f64,
    sim_spmv100: f64,
    sim_eigen: f64,
    /// Operator applications and restart cycles of the eigensolve.
    op: OpTimes,
    y: Vec<f64>,
    ym: Vec<Vec<f64>>,
    res: EigResult,
    /// `sf2d_obs` wall time per span label of the SpMV loop (traced only).
    spmv_phases: BTreeMap<String, f64>,
}

fn solve(s: &Setup, inp: &Inputs, seed: u64, ws: &mut SpmvWorkspace, obs: bool) -> Solve {
    let x = &inp.x;
    let mut y = DistVector::zeros(Arc::clone(&s.da.vmap));
    let mut ledger = CostLedger::new(Machine::cab());
    if obs {
        sf2d_obs::enable();
    }
    let spmv_calls = timed("spmv.spmv100", || {
        timed_calls(SPMVS, || spmv_with(&s.da, x, &mut y, &mut ledger, ws))
    });
    let spmv_phases = if obs {
        sf2d_obs::disable();
        let _ = sf2d_obs::take_registry();
        obs_wall_by_label(&sf2d_obs::take_events())
    } else {
        BTreeMap::new()
    };
    let sim_spmv100 = ledger.total;
    let mut ym = DistMultiVector::zeros(Arc::clone(&s.da.vmap), SPMM_COLS);
    let spmm_calls = timed("spmv.spmm16", || {
        timed_calls(SPMMS, || spmm_with(&s.da, &inp.xm, &mut ym, &mut ledger, ws))
    });

    let op = TimedOp::new(&s.op);
    let cfg = KrylovSchurConfig::paper(seed);
    let mut ledger = CostLedger::new(Machine::cab());
    let t = Instant::now();
    let res = timed("eigen.krylov_schur", || {
        krylov_schur_largest(&op, &cfg, &mut ledger)
    });
    Solve {
        spmv_calls,
        spmm_calls,
        eigen_s: secs(t),
        sim_spmv100,
        sim_eigen: ledger.total,
        op: op.take(&cfg),
        y: y.to_global(),
        ym: spmm_output(&ym),
        res,
        spmv_phases,
    }
}

/// Checks one solve against the serial oracles and records its
/// deterministic counts.
fn check_solve(rep: &mut Report, inp: &Input, x: &Inputs, out: &Solve) {
    let _s = spans::span("bench.check");
    rep.check("spmv vs serial CSR", check::spmv_ok(&inp.a, &x.xg, &out.y));
    rep.check(
        "spmm16 vs serial CSR",
        check::spmm_ok(&inp.a, &x.xm_cols, &out.ym),
    );
    rep.check(
        "krylov-schur residuals",
        check::eigen_ok(&inp.stripped, &out.res, NEV, 1e-3),
    );
    rep.det("sim_spmv100_s", out.sim_spmv100);
    rep.det("sim_eigen_s", out.sim_eigen);
    rep.det_u64("eigen.op_applies", out.res.op_applies as u64);
}

fn rpart_hash(dist: &MatrixDist) -> u64 {
    fnv1a(dist.rpart().iter().map(|&p| u64::from(p)))
}

pub fn run(args: &Args, rep: &mut Report) {
    if args.traced {
        return run_traced(args, rep);
    }
    let inp = generate(args.seed);
    let mut ws = SpmvWorkspace::with_threads(THREADS);
    let mut setup_s = Vec::new();
    let (mut spmv_calls, mut spmm_calls, mut apply_calls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut eigen, mut cycles) = (Vec::new(), Vec::new());
    let mut sim = (f64::NAN, f64::NAN, f64::NAN);
    let mut cur: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak memory holds one.
        drop(cur.take());
        let s = setup(&inp, args.seed);
        setup_s.push(s.total_s);
        rep.det_u64("partition.rpart_hash", rpart_hash(&s.dist));
        let x = inputs(&s, args.seed);
        // Solves follow each set-up, so the set-up samples spread over the
        // whole run rather than one stretch of it.
        let mut deadline = Deadline::new(args.seconds / SETUPS as f64, 1);
        while deadline.more() {
            let Some(out) = rep.attempt("pipeline solve", |_| {
                solve(&s, &x, args.seed, &mut ws, false)
            }) else {
                continue;
            };
            check_solve(rep, &inp, &x, &out);
            spmv_calls.extend_from_slice(&out.spmv_calls);
            spmm_calls.extend_from_slice(&out.spmm_calls);
            apply_calls.extend_from_slice(&out.op.applies);
            cycles.extend_from_slice(&out.op.cycles);
            eigen.push(out.eigen_s);
            sim = (out.sim_spmv100, out.sim_eigen, out.res.op_applies as f64);
        }
        cur = Some(s);
    }
    let setup_med = median(&setup_s);
    let spmv100 = SPMVS as f64 * median(&spmv_calls);
    let eigen_med = median(&eigen);
    rep.e2e("setup_s", setup_med, "s");
    rep.e2e("spmv100_s", spmv100, "s");
    rep.e2e("spmm16_s", median(&spmm_calls), "s");
    let (cycle_wall, cycle_sim): (Vec<f64>, Vec<f64>) = cycles.iter().copied().unzip();
    let cycle = median(&cycle_wall);
    rep.e2e("eigen_cycle_ms", 1e3 * cycle, "ms");
    rep.e2e("round_s", spmv100 + cycle, "s");
    rep.e2e("sim_spmv100_s", sim.0, "sim_s");
    // Printed, not listed in BENCHMARK.json: the vector operations of a
    // cycle are billed at the largest rank's share of the vector, which
    // 2D-GP balances only loosely, so this follows the seed (0.0097-0.0225
    // sim_s per cycle over seeds 11-15).
    rep.e2e("sim_eigen_cycle_s", median(&cycle_sim), "sim_s");
    rep.e2e("time_to_solution_s", setup_med + spmv100 + eigen_med, "s");
    rep.e2e("eigen_s", eigen_med, "s");
    rep.e2e("eigen_apply_ms", 1e3 * median(&apply_calls), "ms");
    rep.e2e("sim_eigen_s", sim.1, "sim_s");
    rep.e2e("eigen.op_applies", sim.2, "count");
    rep.note(format!(
        "samples: {} set-ups, each followed by solves; {} SpMV calls; {} eigensolves; \
         eigen_cycle_ms is the median wall time of a full Krylov-Schur \
         restart cycle ({} cycles), sim_eigen_cycle_s the median modeled time of one; \
         round_s = spmv100_s + one cycle",
        setup_s.len(),
        spmv_calls.len(),
        eigen.len(),
        cycles.len()
    ));
}

fn run_traced(args: &Args, rep: &mut Report) {
    // The accounted run: generation, set-up, one solve, its checks.
    spans::enable();
    let root = spans::span("bench.run");
    let inp = generate(args.seed);
    let s = setup(&inp, args.seed);
    let x = inputs(&s, args.seed);
    let mut ws = SpmvWorkspace::with_threads(THREADS);
    let out = solve(&s, &x, args.seed, &mut ws, true);
    check_solve(rep, &inp, &x, &out);
    rep.det_u64("partition.rpart_hash", rpart_hash(&s.dist));
    drop(root);
    let spans = spans::take();

    // Tracing overhead: the same solve untraced, then traced again.
    let t = Instant::now();
    let _ = solve(&s, &x, args.seed, &mut ws, false);
    let untraced = secs(t);
    spans::enable();
    let t = Instant::now();
    let _ = solve(&s, &x, args.seed, &mut ws, true);
    let traced = secs(t);
    let _ = spans::take();
    rep.layer("obs.trace_overhead_frac", traced / untraced - 1.0, "ratio");

    // Partitioner internals, from the report entry point with the
    // configuration `LayoutBuilder` uses; it must give the same rpart.
    let g = Graph::from_symmetric_matrix(&inp.a);
    let gp = partition_graph_report(
        &g,
        P,
        &GpConfig {
            seed: args.seed,
            ..GpConfig::default()
        },
    );
    rep.check(
        "partition_graph_report rpart equals the layout's",
        gp.partition.part == s.dist.rpart(),
    );
    let ns = |v: u64| v as f64 * 1e-9;
    rep.layer("partition.layout_s", s.layout_s, "s");
    rep.layer("partition.match_s", ns(gp.phases.matching), "s");
    rep.layer("partition.contract_s", ns(gp.phases.contract), "s");
    rep.layer("partition.initpart_s", ns(gp.phases.initpart), "s");
    rep.layer("partition.refine_s", ns(gp.phases.refine), "s");
    rep.layer("partition.project_s", ns(gp.phases.project), "s");
    rep.layer(
        "partition.coarsen_levels",
        gp.stats.coarsen_levels as f64,
        "count",
    );
    rep.layer("partition.match_rate", gp.stats.match_rate(), "ratio");
    rep.layer("partition.fm_moves", gp.stats.fm_moves as f64, "count");
    let cut = gp.partition.edge_cut(&g);
    rep.layer("partition.edge_cut", cut, "count");
    rep.det("partition.edge_cut", cut);
    if let Some(pool) = &gp.pool {
        let idle: u64 = pool.workers.iter().map(|w| w.idle_ns + w.park_ns).sum();
        rep.layer("par.utilization", pool.utilization, "ratio");
        rep.layer("par.idle_s", ns(idle), "s");
        rep.layer("par.jobs", pool.total_jobs as f64, "count");
    }

    let lm = LayoutMetrics::compute(&inp.a, &s.dist);
    rep.layer("partition.nnz_imbalance", lm.nnz_imbalance(), "ratio");
    kernel_layers(
        rep,
        &inp.a,
        &s.da,
        &lm,
        &x.xg,
        &out.spmv_calls,
        &out.spmv_phases,
    );
    rep.layer("spmv.fillcomplete_s", s.fc_s, "s");
    rep.layer(
        "spmv.plan_bytes",
        (s.da.compiled.plan_bytes() + s.op.a.compiled.plan_bytes()) as f64,
        "bytes",
    );
    rep.layer("spmv.spmm16_ms", median(&out.spmm_calls) * 1e3, "ms");
    rep.layer("eigen.op_applies", out.res.op_applies as f64, "count");
    rep.layer("eigen.restarts", out.res.restarts as f64, "count");
    let apply_s: f64 = out.op.applies.iter().sum();
    rep.layer("eigen.apply_s", apply_s, "s");
    rep.layer("eigen.self_s", out.eigen_s - apply_s, "s");
    crate::report_spans(args, rep, &spans);
}

/// The `sf2d_obs` wall span labels of the SpMV executor's four phases.
const PHASE_LABELS: [&str; 4] = [
    "spmv:expand-pack",
    "spmv:unpack-compute",
    "spmv:fold-pack",
    "spmv:sum-unpack",
];

/// The SpMV kernel's per-layer figures, shared with the kernels
/// workload: the median wall time of one product beside the serial CSR
/// floor on the same input, the traced phase split, ledger billing time,
/// and the layout's message counts and bytes moved.
pub fn kernel_layers(
    rep: &mut Report,
    a: &CsrMatrix,
    da: &DistCsrMatrix,
    lm: &LayoutMetrics,
    xg: &[f64],
    spmv_calls: &[f64],
    phases: &BTreeMap<String, f64>,
) {
    let serial = timed_calls(SPMVS, || {
        std::hint::black_box(a.spmv_dense(std::hint::black_box(xg)));
    });
    let spmv_ms = median(spmv_calls) * 1e3;
    let serial_ms = median(&serial) * 1e3;
    rep.layer("spmv.spmv_ms", spmv_ms, "ms");
    rep.layer("graph.serial_spmv_ms", serial_ms, "ms");
    rep.layer("spmv.overhead_x", spmv_ms / serial_ms, "x");
    rep.note(format!(
        "spmv.overhead_x = spmv.spmv_ms / graph.serial_spmv_ms = {spmv_ms:.4} / {serial_ms:.4} \
         (medians of {SPMVS} calls each; serial CsrMatrix::spmv_dense, same input, same process)"
    ));
    let phase = |label: &str| phases.get(label).copied().unwrap_or(0.0);
    for (name, label) in ["spmv.pack_s", "spmv.local_s", "spmv.fold_s", "spmv.sum_s"]
        .into_iter()
        .zip(PHASE_LABELS)
    {
        rep.layer(name, phase(label), "s");
    }
    rep.layer("sim.ledger_s", ledger_replay_s(da, SPMVS), "s");
    let spanned: f64 = PHASE_LABELS.iter().map(|l| phase(l)).sum();
    rep.layer(
        "spmv.unspanned_s",
        spmv_calls.iter().sum::<f64>() - spanned,
        "s",
    );
    rep.note(format!(
        "sim.ledger_s replays the four supersteps of {SPMVS} products on a fresh ledger \
         (an estimate of billing time); spmv.unspanned_s is the traced wall time of the \
         {} SpMV calls outside the four phase spans: the program's own billing, the \
         owned-row add and workspace checks",
        spmv_calls.len()
    ));
    rep.layer("spmv.max_msgs", lm.max_msgs() as f64, "count");
    rep.layer("spmv.total_cv", lm.total_comm_volume() as f64, "doubles");
    rep.layer(
        "spmv.bytes_moved",
        8.0 * lm.total_comm_volume() as f64,
        "bytes",
    );
    rep.det_u64("spmv.max_msgs", lm.max_msgs() as u64);
    rep.det_u64("spmv.total_cv", lm.total_comm_volume() as u64);
}
