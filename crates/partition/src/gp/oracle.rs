//! Test-only reference implementations of the two coarse-level hot loops,
//! kept in the from-scratch form the fast versions replaced:
//!
//! * [`grow_once_reference`] recomputes a frontier vertex's GGGP gain from
//!   its whole adjacency row on every absorb (O(deg²) per hub);
//! * [`heavy_edge_matching_reference`] rescans every free vertex's row in
//!   every handshake round.
//!
//! The property tests below assert that `initpart::grow_once` and
//! `matching::heavy_edge_matching` are byte-identical to these on random
//! weighted graphs, stars under a tight weight cap, contracted graphs with
//! merged multi-edge weights, and disconnected graphs — for several salts
//! and for 1, 2 and 8 threads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sf2d_par::{Par, Pool, SharedSlice};

use super::coarsen::contract;
use super::initpart::grow_once;
use super::matching::{heavy_edge_matching, rank, Rank, UNMATCHED};
use super::tune::{EDGE_GRAIN, MATCH_ROUNDS_MAX, VERTEX_GRAIN};
use super::work::{WorkGraph, MAX_CON};

/// One GGGP growth with every gain recomputed from scratch.
fn grow_once_reference(wg: &WorkGraph, targets0: &[f64; MAX_CON], seed_vertex: usize) -> Vec<u8> {
    let nv = wg.nv();
    let mut side = vec![1u8; nv];
    let mut w0 = [0i64; MAX_CON];

    // Max-heap of (gain, vertex); gains go stale and are re-checked on pop.
    let mut heap: BinaryHeap<(i64, Reverse<u32>)> = BinaryHeap::new();
    let mut in_heap_gain = vec![i64::MIN; nv];

    let gain_of = |v: usize, side: &[u8]| -> i64 {
        let (nbrs, wgts) = wg.neighbors(v);
        let mut g = 0i64;
        for (&u, &w) in nbrs.iter().zip(wgts) {
            if side[u as usize] == 0 {
                g += w;
            } else {
                g -= w;
            }
        }
        g
    };

    let reached = |w0: &[i64; MAX_CON]| (0..wg.ncon).all(|c| w0[c] as f64 >= targets0[c]);

    let add = |v: usize,
               side: &mut Vec<u8>,
               w0: &mut [i64; MAX_CON],
               heap: &mut BinaryHeap<(i64, Reverse<u32>)>,
               in_heap_gain: &mut Vec<i64>| {
        side[v] = 0;
        for c in 0..wg.ncon {
            w0[c] += wg.vw(v, c);
        }
        let (nbrs, _) = wg.neighbors(v);
        for &u in nbrs {
            let u = u as usize;
            if side[u] == 1 {
                let g = gain_of(u, side);
                if g > in_heap_gain[u] {
                    in_heap_gain[u] = g;
                    heap.push((g, Reverse(u as u32)));
                }
            }
        }
    };

    add(
        seed_vertex,
        &mut side,
        &mut w0,
        &mut heap,
        &mut in_heap_gain,
    );
    let mut next_fallback = 0usize;
    while !reached(&w0) {
        let mut picked = None;
        while let Some((g, Reverse(v))) = heap.pop() {
            let v = v as usize;
            if side[v] == 1 && g == in_heap_gain[v] {
                picked = Some(v);
                break;
            }
        }
        let v = match picked {
            Some(v) => v,
            None => {
                while next_fallback < nv && side[next_fallback] == 0 {
                    next_fallback += 1;
                }
                if next_fallback >= nv {
                    break;
                }
                next_fallback
            }
        };
        add(v, &mut side, &mut w0, &mut heap, &mut in_heap_gain);
    }
    side
}

/// Mutual local-max heavy-edge matching with a full adjacency rescan of
/// every free vertex in every round.
fn heavy_edge_matching_reference(
    wg: &WorkGraph,
    max_vwgt: &[i64],
    salt: u64,
    par: &Par,
) -> Vec<u32> {
    let nv = wg.nv();
    let mut mate = vec![UNMATCHED; nv];
    if nv == 0 {
        return mate;
    }
    let mut cand = vec![UNMATCHED; nv];
    for _round in 0..MATCH_ROUNDS_MAX {
        {
            let mate_ro: &[u32] = &mate;
            par.fill(&mut cand, EDGE_GRAIN, |v| {
                if mate_ro[v] != UNMATCHED {
                    return UNMATCHED;
                }
                let (nbrs, wgts) = wg.neighbors(v);
                let mut best: Option<(i64, Rank)> = None;
                for (&u, &w) in nbrs.iter().zip(wgts) {
                    let uu = u as usize;
                    if uu == v || mate_ro[uu] != UNMATCHED {
                        continue;
                    }
                    let fits = (0..wg.ncon).all(|c| wg.vw(v, c) + wg.vw(uu, c) <= max_vwgt[c]);
                    if !fits {
                        continue;
                    }
                    let key = (w, rank(wg, uu, salt));
                    if best.as_ref().map(|b| key > *b).unwrap_or(true) {
                        best = Some(key);
                    }
                }
                best.map(|(_, (_, _, u))| u).unwrap_or(UNMATCHED)
            });
        }
        let accepted = {
            let cand_ro: &[u32] = &cand;
            let out = SharedSlice::new(&mut mate);
            par.reduce(
                nv,
                VERTEX_GRAIN,
                |_, range| {
                    let mut cnt = 0usize;
                    for v in range {
                        let u = cand_ro[v];
                        if u != UNMATCHED && cand_ro[u as usize] == v as u32 {
                            // SAFETY: index v is written by its own chunk only.
                            unsafe { out.write(v, u) };
                            cnt += 1;
                        }
                    }
                    cnt
                },
                |a, b| a + b,
            )
            .unwrap_or(0)
        };
        if accepted == 0 {
            break;
        }
    }
    mate
}

/// splitmix64 step: the test inputs' only source of randomness.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A symmetric work graph from an undirected weighted edge list. Repeated
/// pairs stay separate row entries (multi-edges), which both
/// implementations must handle alike.
fn work_graph(nv: usize, edges: &[(u32, u32, i64)], vwgt: Vec<i64>, ncon: usize) -> WorkGraph {
    let mut rows: Vec<Vec<(u32, i64)>> = vec![Vec::new(); nv];
    for &(u, v, w) in edges {
        rows[u as usize].push((v, w));
        rows[v as usize].push((u, w));
    }
    let mut xadj = vec![0usize];
    let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
    for row in rows {
        for (u, w) in row {
            adjncy.push(u);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
    }
    assert_eq!(vwgt.len(), nv * ncon);
    WorkGraph {
        xadj,
        adjncy,
        adjwgt,
        ncon,
        vwgt,
    }
}

/// Random edges among `lo..hi`, weights in 1..=9.
fn random_edges(lo: u32, hi: u32, m: usize, x: &mut u64, out: &mut Vec<(u32, u32, i64)>) {
    let span = (hi - lo) as u64;
    if span < 2 {
        return;
    }
    for _ in 0..m {
        let a = lo + (mix(x) % span) as u32;
        let b = lo + (mix(x) % span) as u32;
        if a != b {
            out.push((a, b, 1 + (mix(x) % 9) as i64));
        }
    }
}

fn random_vwgt(nv: usize, ncon: usize, x: &mut u64) -> Vec<i64> {
    (0..nv * ncon).map(|_| 1 + (mix(x) % 5) as i64).collect()
}

/// The four input families, chosen by `kind`, with a matching weight cap
/// per family (`i64::MAX` = uncapped).
fn input(kind: usize, nv: usize, ncon: usize, seed: u64) -> (WorkGraph, [i64; MAX_CON]) {
    let mut x = seed;
    let mut edges = Vec::new();
    match kind {
        // Random weighted graph.
        0 => {
            random_edges(0, nv as u32, 4 * nv, &mut x, &mut edges);
            let vw = random_vwgt(nv, ncon, &mut x);
            (work_graph(nv, &edges, vw, ncon), [i64::MAX; MAX_CON])
        }
        // Star (hub 0) with a few leaf-leaf edges, under a cap that keeps
        // the hub single and lets only light leaf pairs marry.
        1 => {
            for leaf in 1..nv as u32 {
                edges.push((0, leaf, 1 + (mix(&mut x) % 3) as i64));
            }
            random_edges(1, nv as u32, nv / 8, &mut x, &mut edges);
            let mut vw = random_vwgt(nv, ncon, &mut x);
            for c in 0..ncon {
                vw[c] = nv as i64;
            }
            (work_graph(nv, &edges, vw, ncon), [6; MAX_CON])
        }
        // A contracted graph: parallel edges merged into summed weights.
        2 => {
            random_edges(0, nv as u32, 6 * nv, &mut x, &mut edges);
            let vw = random_vwgt(nv, ncon, &mut x);
            let fine = work_graph(nv, &edges, vw, ncon);
            let mate = heavy_edge_matching_reference(
                &fine,
                &[i64::MAX; MAX_CON],
                mix(&mut x),
                &Par::seq(),
            );
            let (coarse, _) = contract(&fine, &mate, &Par::seq());
            (coarse, [12; MAX_CON])
        }
        // Disconnected: random blocks of up to 16 vertices, some isolated.
        _ => {
            let mut lo = 0u32;
            while (lo as usize) < nv {
                let len = (1 + mix(&mut x) % 16) as u32;
                let hi = (lo + len).min(nv as u32);
                random_edges(lo, hi, 2 * len as usize, &mut x, &mut edges);
                lo = hi;
            }
            let vw = random_vwgt(nv, ncon, &mut x);
            (work_graph(nv, &edges, vw, ncon), [i64::MAX; MAX_CON])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental-gain growth == from-scratch growth, from several seed
    /// vertices and side-0 targets.
    #[test]
    fn grow_once_matches_reference(
        kind in 0usize..4,
        nv in 1usize..1500,
        ncon in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (wg, _) = input(kind, nv, ncon, seed);
        let nv = wg.nv();
        let start_gain: Vec<i64> =
            (0..nv).map(|v| -wg.neighbors(v).1.iter().sum::<i64>()).collect();
        let tot = wg.total_wgt();
        let mut x = seed ^ 0xA5A5;
        for _ in 0..4 {
            let frac = (1 + mix(&mut x) % 9) as f64 / 10.0;
            let mut t0 = [0.0; MAX_CON];
            for c in 0..wg.ncon {
                t0[c] = frac * tot[c] as f64;
            }
            let sv = (mix(&mut x) % nv as u64) as usize;
            prop_assert_eq!(
                grow_once(&wg, &t0, sv, &start_gain),
                grow_once_reference(&wg, &t0, sv),
                "kind {} seed vertex {} frac {}", kind, sv, frac
            );
        }
    }

    /// Candidate-reusing matching == full-rescan matching, for several
    /// salts and 1, 2 and 8 threads (graphs up to 9000 vertices, so the
    /// fills really chunk above `EDGE_GRAIN`).
    #[test]
    fn matching_matches_reference(
        kind in 0usize..4,
        nv in 1usize..9000,
        ncon in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (wg, cap) = input(kind, nv, ncon, seed);
        let pools = [Pool::new(2), Pool::new(8)];
        let pars = [Par::seq(), Par::new(2, Some(&pools[0])), Par::new(8, Some(&pools[1]))];
        let mut x = seed ^ 0x5A5A;
        for _ in 0..3 {
            let salt = mix(&mut x);
            let want = heavy_edge_matching_reference(&wg, &cap, salt, &Par::seq());
            for par in &pars {
                prop_assert_eq!(
                    heavy_edge_matching(&wg, &cap, salt, par),
                    want.clone(),
                    "kind {} threads {} salt {}", kind, par.threads(), salt
                );
            }
        }
    }
}
