//! `kernels_2drandom_s14_p256`: every distributed kernel on a layout that
//! runs no partitioner.
//!
//! R-MAT scale 14 on 2D-Random, p = 256 (16 × 16). Set-up is the layout
//! (about a millisecond) and FillComplete. The solve runs 100 ×
//! `spmv_with`, one 16-column `spmm_with`, `krylov_schur_largest` on the
//! normalized Laplacian, 100 × `spmv_chaos_with` on
//! `ChaosRuntime::seeded(seed, 0.05)`, and `C = A·A` with `spgemm_with`
//! and `summa_with`. Squaring the scale-14 graph takes seconds per
//! product, so the SpGEMM kernels square a smaller R-MAT
//! ([`SPGEMM_SCALE`]) on the same layout kind and p.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sf2d_core::prelude::*;
use sf2d_core::sf2d_eigen::krylov_schur::EigResult;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_graph::spgemm;
use sf2d_core::sf2d_obs;
use sf2d_core::sf2d_sim::Phase;

use crate::pipeline::kernel_layers;
use crate::report::Report;
use crate::spans::{self, timed};
use crate::stats::median;
use crate::{check, fnv1a, obs_wall_by_label, secs, spmm_input, spmm_output, timed_calls};
use crate::{Args, Deadline, TimedOp, SPMM_COLS, THREADS};

const SCALE: u32 = 14;
/// R-MAT scale of the matrix the SpGEMM kernels square.
pub const SPGEMM_SCALE: u32 = 12;
const P: usize = 256;
/// Set-ups per untraced run; `setup_s` is their median. One takes about
/// 0.1 s, so many samples keep the median steady.
const SETUPS: usize = 21;
const SPMVS: usize = 100;
const CHAOS_RATE: f64 = 0.05;
const NEV: usize = 10;

struct Input {
    a: CsrMatrix,
    stripped: CsrMatrix,
    degrees: Vec<usize>,
    /// The SpGEMM operand.
    b: CsrMatrix,
}

fn generate(seed: u64) -> Input {
    let (a, b) = timed("gen.rmat", || {
        (
            rmat(&RmatConfig::graph500(SCALE), seed),
            rmat(&RmatConfig::graph500(SPGEMM_SCALE), seed),
        )
    });
    let stripped = timed("graph.strip_diagonal", || a.without_diagonal());
    let degrees = (0..stripped.nrows()).map(|i| stripped.row_nnz(i)).collect();
    Input {
        a,
        stripped,
        degrees,
        b,
    }
}

struct Setup {
    da: DistCsrMatrix,
    op: NormalizedLaplacianOp,
    dist_b: MatrixDist,
    db: DistCsrMatrix,
    dist: MatrixDist,
    layout_s: f64,
    fc_s: f64,
    total_s: f64,
}

fn setup(inp: &Input, seed: u64) -> Setup {
    let t0 = Instant::now();
    let (dist, dist_b) = timed("partition.layout", || {
        (
            LayoutBuilder::new(&inp.a, seed).dist(Method::TwoDRandom, P),
            LayoutBuilder::new(&inp.b, seed).dist(Method::TwoDRandom, P),
        )
    });
    let layout_s = secs(t0);
    let t = Instant::now();
    let (da, dl, db) = timed("spmv.fillcomplete", || {
        (
            DistCsrMatrix::from_global_with(&inp.a, &dist, THREADS, None),
            DistCsrMatrix::from_global_with(&inp.stripped, &dist, THREADS, None),
            DistCsrMatrix::from_global_with(&inp.b, &dist_b, THREADS, None),
        )
    });
    let fc_s = secs(t);
    let op = timed("eigen.operator", || {
        NormalizedLaplacianOp::new(dl, &inp.degrees).with_threads(THREADS)
    });
    Setup {
        da,
        op,
        dist_b,
        db,
        dist,
        layout_s,
        fc_s,
        total_s: secs(t0),
    }
}

/// Workspaces and inputs reused across solves, as an iterative caller
/// would hold them.
struct Work {
    x: DistVector,
    xm: DistMultiVector,
    ws: SpmvWorkspace,
    spgemm_ws: SpgemmWorkspace,
    summa_ws: SummaWorkspace,
}

/// One pass over every kernel, with the wall seconds of each call.
struct Solve {
    spmv_calls: Vec<f64>,
    spmm_calls: Vec<f64>,
    /// Wall seconds of each eigensolve.
    eigen_calls: Vec<f64>,
    /// Wall seconds of each operator application in the eigensolves.
    apply_calls: Vec<f64>,
    /// Wall and modeled seconds of each full restart cycle of the
    /// eigensolves.
    cycles: Vec<(f64, f64)>,
    chaos_calls: Vec<f64>,
    spgemm_calls: Vec<f64>,
    summa_calls: Vec<f64>,
    sim_spmv100: f64,
    sim_eigen: f64,
    y: Vec<f64>,
    ym: Vec<Vec<f64>>,
    y_chaos: Vec<f64>,
    res: EigResult,
    chaos_ledger: CostLedger,
    chaos_faults: u64,
    c_spgemm: DistSpgemm,
    c_summa: SummaSpgemm,
    spmv_phases: BTreeMap<String, f64>,
}

/// Each solve runs in [`CHUNKS`] interleaved chunks, so every kernel's
/// samples spread over the whole solve rather than one stretch of it:
/// the two vCPUs of the reference host change speed from second to
/// second.
const CHUNKS: usize = 10;
/// SpMM calls per chunk: one is short (~15 ms), so a chunk takes several.
const SPMMS_PER_CHUNK: usize = 4;
/// Chunks that also run one eigensolve, and one product of each SpGEMM
/// kernel.
const EIGEN_CHUNKS: [usize; 4] = [1, 3, 6, 8];
const SPGEMM_CHUNKS: [usize; 3] = [0, 4, 8];

fn solve(s: &Setup, inp: &Input, w: &mut Work, seed: u64, obs: bool) -> Solve {
    let map = Arc::clone(&s.da.vmap);
    let mut y = DistVector::zeros(Arc::clone(&map));
    let mut ym = DistMultiVector::zeros(Arc::clone(&map), SPMM_COLS);
    let mut y_chaos = DistVector::zeros(Arc::clone(&map));
    let (mut spmv_calls, mut spmm_calls, mut chaos_calls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut eigen_calls, mut apply_calls, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    let (mut spgemm_calls, mut summa_calls) = (Vec::new(), Vec::new());
    let (mut res, mut sim_eigen) = (None, 0.0);
    let (mut c_spgemm, mut c_summa) = (None, None);
    let mut spmv_ledger = CostLedger::new(Machine::cab());
    let mut spmv_events = Vec::new();
    let mut rt = ChaosRuntime::seeded(seed, CHAOS_RATE);
    rt.threads = THREADS;
    let mut chaos_ledger = CostLedger::new(Machine::cab());
    let mut ledger = CostLedger::new(Machine::cab());

    for chunk in 0..CHUNKS {
        if obs {
            sf2d_obs::enable();
        }
        spmv_calls.extend(timed("spmv.spmv100", || {
            timed_calls(SPMVS / CHUNKS, || {
                spmv_with(&s.da, &w.x, &mut y, &mut spmv_ledger, &mut w.ws)
            })
        }));
        if obs {
            sf2d_obs::disable();
            let _ = sf2d_obs::take_registry();
            spmv_events.extend(sf2d_obs::take_events());
        }
        spmm_calls.extend(timed("spmv.spmm16", || {
            timed_calls(SPMMS_PER_CHUNK, || {
                spmm_with(&s.da, &w.xm, &mut ym, &mut ledger, &mut w.ws)
            })
        }));
        chaos_calls.extend(timed("chaos.spmv100", || {
            timed_calls(SPMVS / CHUNKS, || {
                spmv_chaos_with(
                    &s.da,
                    &w.x,
                    &mut y_chaos,
                    &mut chaos_ledger,
                    &mut w.ws,
                    &mut rt,
                )
            })
        }));
        if EIGEN_CHUNKS.contains(&chunk) {
            let op = TimedOp::new(&s.op);
            let cfg = KrylovSchurConfig::paper(seed);
            let mut eigen_ledger = CostLedger::new(Machine::cab());
            let t = Instant::now();
            res = Some(timed("eigen.krylov_schur", || {
                krylov_schur_largest(&op, &cfg, &mut eigen_ledger)
            }));
            eigen_calls.push(secs(t));
            let times = op.take(&cfg);
            apply_calls.extend(times.applies);
            cycles.extend(times.cycles);
            sim_eigen = eigen_ledger.total;
        }
        if SPGEMM_CHUNKS.contains(&chunk) {
            spgemm_calls.extend(timed("spgemm.expand_fold", || {
                timed_calls(1, || {
                    c_spgemm = Some(spgemm_with(&s.db, &inp.b, &mut ledger, &mut w.spgemm_ws));
                })
            }));
            summa_calls.extend(timed("spgemm.summa", || {
                timed_calls(1, || {
                    c_summa = Some(summa_with(
                        &s.db,
                        &s.dist_b,
                        &inp.b,
                        &mut ledger,
                        &mut w.summa_ws,
                    ));
                })
            }));
        }
    }
    let f = rt.stats;
    Solve {
        spmv_calls,
        spmm_calls,
        eigen_calls,
        apply_calls,
        cycles,
        chaos_calls,
        spgemm_calls,
        summa_calls,
        sim_spmv100: spmv_ledger.total,
        sim_eigen,
        y: y.to_global(),
        ym: spmm_output(&ym),
        y_chaos: y_chaos.to_global(),
        res: res.expect("EIGEN_CHUNKS is not empty"),
        chaos_ledger,
        chaos_faults: f.drops + f.duplicates + f.bit_flips + f.delays + f.stalls + f.crashes,
        c_spgemm: c_spgemm.expect("SPGEMM_CHUNKS is not empty"),
        c_summa: c_summa.expect("SPGEMM_CHUNKS is not empty"),
        spmv_phases: obs_wall_by_label(&spmv_events),
    }
}

/// Serial oracles, computed once per run outside any timing.
struct Oracle {
    xg: Vec<f64>,
    xm: Vec<Vec<f64>>,
    b2: CsrMatrix,
}

fn spgemm_flops(c: &DistSpgemm) -> u64 {
    c.multiply_flops.iter().sum()
}

fn check_solve(rep: &mut Report, inp: &Input, o: &Oracle, out: &Solve) {
    let _s = spans::span("bench.check");
    rep.check("spmv vs serial CSR", check::spmv_ok(&inp.a, &o.xg, &out.y));
    rep.check("spmm16 vs serial CSR", check::spmm_ok(&inp.a, &o.xm, &out.ym));
    rep.check(
        "krylov-schur residuals",
        check::eigen_ok(&inp.stripped, &out.res, NEV, 1e-3),
    );
    rep.check(
        "chaos spmv vs serial CSR",
        check::spmv_ok(&inp.a, &o.xg, &out.y_chaos),
    );
    rep.check(
        "spgemm vs serial Gustavson",
        check::spgemm_ok(&out.c_spgemm.to_global(), &o.b2),
    );
    rep.check(
        "summa vs serial Gustavson",
        check::spgemm_ok(&out.c_summa.to_global(), &o.b2),
    );
    rep.det("sim_spmv100_s", out.sim_spmv100);
    rep.det("sim_eigen_s", out.sim_eigen);
    rep.det_u64("eigen.op_applies", out.res.op_applies as u64);
    rep.det_u64("chaos.faults", out.chaos_faults);
    rep.det("chaos.sim_s", out.chaos_ledger.total);
    rep.det_u64("spgemm.flops", spgemm_flops(&out.c_spgemm));
    rep.det_u64("spgemm.max_msgs", spgemm_max_msgs(&out.c_spgemm));
    rep.det_u64("summa.stage_max_msgs", summa_stage_max(&out.c_summa));
}

fn spgemm_max_msgs(c: &DistSpgemm) -> u64 {
    c.expand.max_send_msgs() + c.fold.max_send_msgs()
}

fn summa_stage_max(c: &SummaSpgemm) -> u64 {
    c.stage_send_msgs
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap_or(0)
}

fn prepare(s: &Setup, inp: &Input, seed: u64) -> (Work, Oracle) {
    let map = Arc::clone(&s.da.vmap);
    let x = DistVector::random(Arc::clone(&map), seed);
    let (xm, xm_cols) = spmm_input(&map, seed);
    let oracle = Oracle {
        xg: x.to_global(),
        b2: spgemm(&inp.b, &inp.b),
        xm: xm_cols,
    };
    let work = Work {
        xm,
        x,
        ws: SpmvWorkspace::with_threads(THREADS),
        spgemm_ws: SpgemmWorkspace::with_threads(THREADS),
        summa_ws: SummaWorkspace::with_threads(THREADS),
    };
    (work, oracle)
}

pub fn run(args: &Args, rep: &mut Report) {
    if args.traced {
        return run_traced(args, rep);
    }
    let inp = generate(args.seed);
    let mut setup_s = Vec::new();
    let mut cur: Option<Setup> = None;
    for _ in 0..SETUPS {
        drop(cur.take());
        let s = setup(&inp, args.seed);
        setup_s.push(s.total_s);
        rep.det_u64(
            "partition.rpart_hash",
            fnv1a(s.dist.rpart().iter().map(|&p| u64::from(p))),
        );
        cur = Some(s);
    }
    let s = cur.expect("at least one set-up");
    let (mut work, oracle) = prepare(&s, &inp, args.seed);

    let mut calls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut cycles = Vec::new();
    let mut sim = (f64::NAN, f64::NAN, f64::NAN);
    let mut deadline = Deadline::new(args.seconds, 2);
    while deadline.more() {
        let Some(out) = rep.attempt("kernels solve", |_| {
            solve(&s, &inp, &mut work, args.seed, false)
        }) else {
            continue;
        };
        check_solve(rep, &inp, &oracle, &out);
        for (k, v) in [
            ("spmv", &out.spmv_calls),
            ("spmm", &out.spmm_calls),
            ("chaos", &out.chaos_calls),
            ("spgemm", &out.spgemm_calls),
            ("summa", &out.summa_calls),
            ("apply", &out.apply_calls),
            ("eigen", &out.eigen_calls),
        ] {
            calls.entry(k).or_default().extend_from_slice(v);
        }
        cycles.extend_from_slice(&out.cycles);
        sim = (out.sim_spmv100, out.sim_eigen, out.res.op_applies as f64);
    }
    let typical = |k: &str| calls.get(k).map_or(f64::NAN, |v| median(v));
    let (cycle_wall, cycle_sim): (Vec<f64>, Vec<f64>) = cycles.iter().copied().unzip();
    // Each kernel's figure and its weight in one round of work: one call
    // of each kernel, except that SpMV counts 100 products (the paper's
    // unit) and chaos SpMV 10, so that no kernel outweighs the rest (100
    // chaos products cost ~25 times 100 clean ones).
    let ops = [
        ("spmv100_s", SPMVS as f64 * typical("spmv"), 1.0),
        ("spmm16_s", typical("spmm"), 1.0),
        ("eigen_cycle_s", median(&cycle_wall), 1.0),
        ("spmv100_chaos_s", SPMVS as f64 * typical("chaos"), 0.1),
        ("spgemm_s", typical("spgemm"), 1.0),
        ("summa_s", typical("summa"), 1.0),
    ];
    rep.e2e("setup_s", median(&setup_s), "s");
    for (name, t, _) in ops {
        match name {
            "eigen_cycle_s" => rep.e2e("eigen_cycle_ms", 1e3 * t, "ms"),
            _ => rep.e2e(name, t, "s"),
        }
    }
    rep.e2e("round_s", ops.iter().map(|&(_, t, w)| t * w).sum(), "s");
    rep.e2e("sim_spmv100_s", sim.0, "sim_s");
    rep.e2e("sim_eigen_cycle_s", median(&cycle_sim), "sim_s");
    rep.e2e("eigen_apply_ms", 1e3 * typical("apply"), "ms");
    rep.e2e(
        "eigen_s",
        calls.get("eigen").map_or(f64::NAN, |v| median(v)),
        "s",
    );
    rep.e2e("sim_eigen_s", sim.1, "sim_s");
    rep.e2e("eigen.op_applies", sim.2, "count");
    rep.note(format!(
        "samples: {} set-ups; {} solves, each {SPMVS} SpMV, {} SpMM, {} eigensolves, \
         {SPMVS} chaos SpMV, {} of each SpGEMM (operand R-MAT scale {SPGEMM_SCALE}); \
         round_s = spmv100_s + spmm16_s + one eigen cycle + spmv100_chaos_s / 10 + spgemm_s + summa_s",
        setup_s.len(),
        calls.get("spmm").map_or(0, Vec::len) / (CHUNKS * SPMMS_PER_CHUNK),
        CHUNKS * SPMMS_PER_CHUNK,
        EIGEN_CHUNKS.len(),
        SPGEMM_CHUNKS.len()
    ));
}

fn run_traced(args: &Args, rep: &mut Report) {
    spans::enable();
    let root = spans::span("bench.run");
    let inp = generate(args.seed);
    let s = setup(&inp, args.seed);
    let (mut work, oracle) = timed("bench.oracle", || prepare(&s, &inp, args.seed));
    let out = solve(&s, &inp, &mut work, args.seed, true);
    check_solve(rep, &inp, &oracle, &out);
    drop(root);
    let spans = spans::take();

    let t = Instant::now();
    let _ = solve(&s, &inp, &mut work, args.seed, false);
    let untraced = secs(t);
    spans::enable();
    let t = Instant::now();
    let _ = solve(&s, &inp, &mut work, args.seed, true);
    let traced = secs(t);
    let _ = spans::take();
    rep.layer("obs.trace_overhead_frac", traced / untraced - 1.0, "ratio");

    let lm = LayoutMetrics::compute(&inp.a, &s.dist);
    rep.layer("partition.layout_s", s.layout_s, "s");
    rep.layer("partition.edge_cut", crate::edge_cut(&inp.a, &s.dist), "count");
    rep.layer("partition.nnz_imbalance", lm.nnz_imbalance(), "ratio");
    rep.layer("spmv.fillcomplete_s", s.fc_s, "s");
    rep.layer(
        "spmv.plan_bytes",
        (s.da.compiled.plan_bytes() + s.op.a.compiled.plan_bytes() + s.db.compiled.plan_bytes())
            as f64,
        "bytes",
    );
    kernel_layers(
        rep,
        &inp.a,
        &s.da,
        &lm,
        &oracle.xg,
        &out.spmv_calls,
        &out.spmv_phases,
    );
    rep.layer("spmv.spmm16_ms", median(&out.spmm_calls) * 1e3, "ms");
    rep.layer("eigen.op_applies", out.res.op_applies as f64, "count");
    rep.layer("eigen.restarts", out.res.restarts as f64, "count");
    // Per eigensolve: the solve repeats with the same start vector.
    let solves = out.eigen_calls.len() as f64;
    let apply_s = out.apply_calls.iter().sum::<f64>() / solves;
    let eigen_s = out.eigen_calls.iter().sum::<f64>() / solves;
    rep.layer("eigen.apply_s", apply_s, "s");
    rep.layer("eigen.self_s", eigen_s - apply_s, "s");

    rep.layer("chaos.faults", out.chaos_faults as f64, "count");
    rep.layer(
        "chaos.overhead_x",
        median(&out.chaos_calls) / median(&out.spmv_calls),
        "x",
    );
    let by_phase: BTreeMap<Phase, f64> = out.chaos_ledger.phase_breakdown().into_iter().collect();
    for (name, ph) in [
        ("chaos.sim_expand_s", Phase::Expand),
        ("chaos.sim_local_s", Phase::LocalCompute),
        ("chaos.sim_fold_s", Phase::Fold),
        ("chaos.sim_sum_s", Phase::Sum),
        ("chaos.sim_retransmit_s", Phase::Retransmit),
    ] {
        rep.layer(name, by_phase.get(&ph).copied().unwrap_or(0.0), "sim_s");
    }

    // The serial Gustavson floor, on the same operand in this process.
    let serial = timed_calls(3, || {
        std::hint::black_box(spgemm(&inp.b, &inp.b));
    });
    let floor = median(&serial);
    rep.layer("spgemm.flops", spgemm_flops(&out.c_spgemm) as f64, "flops");
    rep.layer(
        "spgemm.max_msgs",
        spgemm_max_msgs(&out.c_spgemm) as f64,
        "count",
    );
    rep.layer(
        "summa.stage_max_msgs",
        summa_stage_max(&out.c_summa) as f64,
        "count",
    );
    rep.layer("graph.serial_spgemm_s", floor, "s");
    let (spgemm_s, summa_s) = (median(&out.spgemm_calls), median(&out.summa_calls));
    rep.layer("spgemm.overhead_x", spgemm_s / floor, "x");
    rep.layer("summa.overhead_x", summa_s / floor, "x");
    rep.note(format!(
        "spgemm.overhead_x = spgemm {spgemm_s:.4} s / serial Gustavson {floor:.4} s; \
         summa.overhead_x = summa {summa_s:.4} s / the same floor \
         (sf2d_graph::spgemm, R-MAT scale {SPGEMM_SCALE}, same process)"
    ));
    crate::report_spans(args, rep, &spans);
}
