//! Golden partition pins: FNV-1a fingerprints of the multilevel graph
//! partitioner's output on fixed R-MAT inputs.
//!
//! The partitioner's speed work (incremental GGGP gains, candidate reuse
//! in heavy-edge matching) is exact by construction, so the part vectors
//! must not move. Any change that does move a partition — on purpose or
//! not — fails here loudly; an intended change re-pins these constants in
//! the same commit and says why.

use sf2d_gen::{rmat, RmatConfig};
use sf2d_graph::Graph;
use sf2d_partition::{
    grid_shape, partition_graph, partition_graph_multiconstraint, GpConfig, MatrixDist,
};

/// FNV-1a (64-bit) over the little-endian bytes of a part vector.
fn fnv1a(part: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in part {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn rmat_graph(scale: u32, seed: u64) -> Graph {
    Graph::from_symmetric_matrix(&rmat(&RmatConfig::graph500(scale), seed))
}

fn cfg(seed: u64) -> GpConfig {
    GpConfig {
        seed,
        threads: 1,
        ..GpConfig::default()
    }
}

/// `(scale, k, seed, fingerprint)`: the R-MAT generator seed and the
/// partitioner seed are the same number.
const GP_PINS: [(u32, usize, u64, u64); 8] = [
    (12, 16, 1, 0x8a36_5d90_2919_378b),
    (12, 16, 2, 0x06ef_1285_b311_df23),
    (12, 64, 1, 0xfe02_0b95_b580_7f83),
    (12, 64, 2, 0x0855_8737_5625_9537),
    (14, 16, 1, 0x4ce6_b8f8_5497_6851),
    (14, 16, 2, 0xe7f0_0074_c6f8_666d),
    (14, 64, 1, 0x7e3f_a06e_a52e_fdb4),
    (14, 64, 2, 0x25fd_dfd1_96fb_7230),
];

fn check(scale: u32, k: usize, seed: u64, want: u64) {
    let p = partition_graph(&rmat_graph(scale, seed), k, &cfg(seed));
    let got = fnv1a(&p.part);
    assert_eq!(
        got, want,
        "gp partition moved: scale {scale} k {k} seed {seed}: {got:#018x}"
    );
}

#[test]
fn gp_scale12_partitions_are_pinned() {
    for &(scale, k, seed, want) in GP_PINS.iter().filter(|p| p.0 == 12) {
        check(scale, k, seed, want);
    }
}

#[test]
fn gp_scale14_k16_partitions_are_pinned() {
    for &(scale, k, seed, want) in GP_PINS.iter().filter(|p| p.0 == 14 && p.1 == 16) {
        check(scale, k, seed, want);
    }
}

#[test]
fn gp_scale14_k64_partitions_are_pinned() {
    for &(scale, k, seed, want) in GP_PINS.iter().filter(|p| p.0 == 14 && p.1 == 64) {
        check(scale, k, seed, want);
    }
}

/// The 2D-GP layout's `rpart` at p = 64, built the way
/// `sf2d_core::LayoutBuilder::dist(Method::TwoDGp, 64)` builds it: a
/// k = 64 graph partition pushed through Algorithm 2 on the
/// `grid_shape(64)` process grid.
#[test]
fn two_d_gp_rpart_is_pinned() {
    let g = rmat_graph(12, 3);
    let part = partition_graph(&g, 64, &cfg(3));
    let (pr, pc) = grid_shape(64);
    let dist = MatrixDist::cartesian_2d(&part, pr, pc, false);
    let got = fnv1a(dist.rpart());
    assert_eq!(got, 0xedc5_49bd_9b89_334f, "2D-GP rpart moved: {got:#018x}");
}

/// The multiconstraint (GP-MC) path runs the same matching and growth code
/// with two vertex-weight constraints.
#[test]
fn gp_mc_partition_is_pinned() {
    let p = partition_graph_multiconstraint(&rmat_graph(12, 4), 16, &cfg(4));
    let got = fnv1a(&p.part);
    assert_eq!(
        got, 0x2595_7d3c_0344_2066,
        "gp-mc partition moved: {got:#018x}"
    );
}
