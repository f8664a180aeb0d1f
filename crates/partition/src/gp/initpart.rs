//! Initial bisection of the coarsest graph: greedy graph growing (GGGP).
//!
//! Grow side 0 from a random seed vertex, always absorbing the frontier
//! vertex whose move loses the least edge weight, until side 0 reaches its
//! target weight. Several tries from different seeds; the best (feasible
//! balance first, then lowest cut) wins.
//!
//! **Cost.** One growth is O(Σ deg) adjacency work plus the heap traffic
//! it causes. Every vertex's gain `w(→side 0) − w(→side 1)` is kept as an
//! exact `i64` for the whole growth: it starts at −(weighted degree) and
//! each absorbed vertex `v` adds `2w` to each neighbour across an edge of
//! weight `w`, a walk over v's row only. Recomputing a neighbour's gain
//! from its whole row on every absorb, as a textbook GGGP does, costs
//! O(deg²) per hub; on scale-free coarsest graphs, where coarsening stalls
//! at tens of thousands of vertices, that dominated partitioning time.
//! The update is exact integer arithmetic, so the heap receives the same
//! pushes in the same order and every side vector is identical to the
//! from-scratch growth (the test-only reference in `gp::oracle` pins
//! this).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use super::work::{WorkGraph, MAX_CON};

/// One bisection attempt's quality, ordered worst-to-best.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectionQuality {
    /// Total balance violation (0 = feasible).
    pub violation: f64,
    /// Total weight of cut edges.
    pub cut: i64,
}

impl BisectionQuality {
    /// True when `self` is strictly better than `other`.
    pub fn better_than(&self, other: &BisectionQuality) -> bool {
        (self.violation, self.cut as f64) < (other.violation, other.cut as f64)
    }
}

/// Computes cut weight of a bisection.
pub fn cut_of(wg: &WorkGraph, side: &[u8]) -> i64 {
    let mut cut = 0i64;
    for v in 0..wg.nv() {
        let (nbrs, wgts) = wg.neighbors(v);
        for (&u, &w) in nbrs.iter().zip(wgts) {
            if side[v] != side[u as usize] {
                cut += w;
            }
        }
    }
    cut / 2
}

/// Side weights per constraint.
pub fn side_weights(wg: &WorkGraph, side: &[u8]) -> [[i64; MAX_CON]; 2] {
    let mut w = [[0i64; MAX_CON]; 2];
    for v in 0..wg.nv() {
        for c in 0..wg.ncon {
            w[side[v] as usize][c] += wg.vw(v, c);
        }
    }
    w
}

/// Balance violation: normalized overweight above `ub * target`, summed over
/// sides and constraints. Zero when both sides fit their allowance.
pub fn violation(
    w: &[[i64; MAX_CON]; 2],
    targets: &[[f64; MAX_CON]; 2],
    ncon: usize,
    ub: f64,
) -> f64 {
    let mut viol = 0.0;
    for s in 0..2 {
        for c in 0..ncon {
            let cap = ub * targets[s][c];
            if cap > 0.0 {
                let over = w[s][c] as f64 - cap;
                if over > 0.0 {
                    viol += over / cap;
                }
            }
        }
    }
    viol
}

/// One GGGP growth from `seed_vertex`. Returns the side assignment.
///
/// `start_gain[v]` is `−(weighted degree of v)`: the gain of every vertex
/// while all of them sit on side 1 (see [`gggp`]).
pub(super) fn grow_once(
    wg: &WorkGraph,
    targets0: &[f64; MAX_CON],
    seed_vertex: usize,
    start_gain: &[i64],
) -> Vec<u8> {
    let nv = wg.nv();
    let mut side = vec![1u8; nv];
    let mut w0 = [0i64; MAX_CON];

    // gain[u] = w(u→side 0) − w(u→side 1), exact at all times: moving `v`
    // to side 0 turns each edge (u, v) of weight w from a −w into a +w
    // term of u's gain. Edge weights are symmetric (see `WorkGraph`), so
    // v's own adjacency row carries every update.
    let mut gain = start_gain.to_vec();

    // Max-heap of (gain, vertex); gains go stale and are re-checked on pop.
    let mut heap: BinaryHeap<(i64, Reverse<u32>)> = BinaryHeap::new();
    let mut in_heap_gain = vec![i64::MIN; nv];

    let reached = |w0: &[i64; MAX_CON]| (0..wg.ncon).all(|c| w0[c] as f64 >= targets0[c]);

    let add = |v: usize,
               side: &mut Vec<u8>,
               w0: &mut [i64; MAX_CON],
               gain: &mut Vec<i64>,
               heap: &mut BinaryHeap<(i64, Reverse<u32>)>,
               in_heap_gain: &mut Vec<i64>| {
        side[v] = 0;
        for c in 0..wg.ncon {
            w0[c] += wg.vw(v, c);
        }
        let (nbrs, wgts) = wg.neighbors(v);
        for (&u, &w) in nbrs.iter().zip(wgts) {
            gain[u as usize] += 2 * w;
        }
        // Push only after every update, so each neighbour is offered its
        // final gain for this move (a row may repeat a neighbour).
        for &u in nbrs {
            let u = u as usize;
            if side[u] == 1 && gain[u] > in_heap_gain[u] {
                in_heap_gain[u] = gain[u];
                heap.push((gain[u], Reverse(u as u32)));
            }
        }
    };

    add(
        seed_vertex,
        &mut side,
        &mut w0,
        &mut gain,
        &mut heap,
        &mut in_heap_gain,
    );
    let mut next_fallback = 0usize;
    while !reached(&w0) {
        // Pop the best fresh frontier vertex.
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
                // Disconnected remainder: seed a fresh component.
                while next_fallback < nv && side[next_fallback] == 0 {
                    next_fallback += 1;
                }
                if next_fallback >= nv {
                    break;
                }
                next_fallback
            }
        };
        add(
            v,
            &mut side,
            &mut w0,
            &mut gain,
            &mut heap,
            &mut in_heap_gain,
        );
    }
    side
}

/// Best-of-`tries` GGGP bisection.
///
/// `targets[s][c]` is the ideal weight of side `s` under constraint `c`.
pub fn gggp(
    wg: &WorkGraph,
    targets: &[[f64; MAX_CON]; 2],
    ub: f64,
    tries: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<u8> {
    let nv = wg.nv();
    assert!(nv >= 1);
    let start_gain: Vec<i64> = (0..nv)
        .map(|v| -wg.neighbors(v).1.iter().sum::<i64>())
        .collect();
    let mut best: Option<(BisectionQuality, Vec<u8>)> = None;
    for _ in 0..tries.max(1) {
        let seed_vertex = rng.gen_range(0..nv);
        let side = grow_once(wg, &targets[0], seed_vertex, &start_gain);
        let q = BisectionQuality {
            violation: violation(&side_weights(wg, &side), targets, wg.ncon, ub),
            cut: cut_of(wg, &side),
        };
        if best
            .as_ref()
            .map(|(bq, _)| q.better_than(bq))
            .unwrap_or(true)
        {
            best = Some((q, side));
        }
    }
    best.expect("at least one try").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sf2d_gen::grid_2d;
    use sf2d_graph::Graph;

    fn targets_even(wg: &WorkGraph) -> [[f64; MAX_CON]; 2] {
        let tot = wg.total_wgt();
        let mut t = [[0.0; MAX_CON]; 2];
        for c in 0..wg.ncon {
            t[0][c] = tot[c] as f64 / 2.0;
            t[1][c] = tot[c] as f64 / 2.0;
        }
        t
    }

    #[test]
    fn bisects_a_grid_reasonably() {
        let g = Graph::from_symmetric_matrix(&grid_2d(12, 12));
        let wg = WorkGraph::from_graph(&g);
        let t = targets_even(&wg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let side = gggp(&wg, &t, 1.05, 8, &mut rng);
        let w = side_weights(&wg, &side);
        let tot = wg.total_wgt()[0] as f64;
        // Both sides populated and near half.
        assert!(
            w[0][0] as f64 > 0.3 * tot && (w[1][0] as f64) > 0.3 * tot,
            "{w:?}"
        );
        // Cut far below random (~half of 264 edges).
        assert!(cut_of(&wg, &side) < 80, "cut {}", cut_of(&wg, &side));
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two 4-cliques, no inter-edges: perfect bisection cuts nothing.
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        let g = Graph::from_edges(8, &edges);
        let wg = WorkGraph::from_graph(&g);
        let t = targets_even(&wg);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let side = gggp(&wg, &t, 1.05, 4, &mut rng);
        let w = side_weights(&wg, &side);
        assert!(w[0][0] > 0 && w[1][0] > 0);
    }

    #[test]
    fn asymmetric_targets_respected() {
        // Path of 10 unit-ish vertices; ask for 30%/70%.
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(10, &edges);
        let wg = WorkGraph::from_graph(&g);
        let tot = wg.total_wgt()[0] as f64;
        let t = [[0.3 * tot, 0.0], [0.7 * tot, 0.0]];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let side = gggp(&wg, &t, 1.10, 8, &mut rng);
        let w = side_weights(&wg, &side);
        let frac0 = w[0][0] as f64 / tot;
        assert!(frac0 > 0.2 && frac0 < 0.55, "frac0 {frac0}");
    }

    #[test]
    fn quality_ordering() {
        let a = BisectionQuality {
            violation: 0.0,
            cut: 10,
        };
        let b = BisectionQuality {
            violation: 0.0,
            cut: 12,
        };
        let c = BisectionQuality {
            violation: 0.5,
            cut: 1,
        };
        assert!(a.better_than(&b));
        assert!(a.better_than(&c));
        assert!(b.better_than(&c)); // feasibility dominates cut
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_edges(1, &[]);
        let wg = WorkGraph::from_graph(&g);
        let t = targets_even(&wg);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let side = gggp(&wg, &t, 1.05, 2, &mut rng);
        assert_eq!(side.len(), 1);
    }
}
