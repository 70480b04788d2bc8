//! The kernel layer: chunked, autovectorization-friendly primitives
//! under the columnar backend's hot loops.
//!
//! # Why a kernel layer
//!
//! Theorem 3.2 reduces every cube aggregation to *component-wise sums*
//! of ISB measures, and the [`crate::columnar::ColumnarTable`] already
//! stores each ISB component as its own dense vector — exactly the
//! struct-of-arrays shape SIMD wants. What the generic
//! [`crate::table::aggregate_into`] path still paid per source row was
//! a mixed-radix decode, a per-dimension projection, a re-encode, a
//! binary search and a five-vector staged append, followed by a
//! 40-byte-tuple sort in `finish`. The kernels here replace that with
//! contiguous block-at-a-time loops:
//!
//! * [`BlockProjector`] pushes blocks of dense cell ids through fused
//!   per-dimension ancestor LUTs (one remainder-chain division per
//!   dimension, no decode/encode round trip);
//! * [`fold_sorted_runs`] / [`fold_permuted_runs`] fold sorted runs of
//!   projected rows directly between component columns, bulk-copying
//!   collision-free spans;
//! * [`merge_two_runs`] merges a compacted column run with a freshly
//!   folded staged run, again span-at-a-time;
//! * [`screen_ge_abs`] is the chunked exception screen
//!   (`|slope| >= threshold`) over a slope column.
//!
//! Everything is safe Rust (`regcube-core` forbids `unsafe`): the
//! vector shape comes from fixed-size chunks ([`LANES`]) and
//! `extend_from_slice` bulk moves the autovectorizer lowers well, not
//! from explicit intrinsics.
//!
//! # Bit-exactness contract
//!
//! The kernels are the columnar layout's only fold, and a fold is
//! defined by its add order alone: the same f64 additions in the same
//! left-to-right order as repeated [`crate::measure::merge_sibling`]
//! calls over the source cells (floating-point addition is not
//! reassociated — runs are summed sequentially, only the surrounding
//! bookkeeping is vectorized), the same interval-mismatch errors, NaN
//! payloads propagated through unchanged, and the same u64-overflow
//! guard on dense id spaces (enforced at
//! [`crate::table::DenseCellCodec`] construction, before any kernel
//! runs). `tests/kernel_parity.rs` pins the contract bit for bit
//! against an independent oracle — `BTreeMap` tables folded with
//! `merge_sibling`, m-layer in arrival order and every other cuboid
//! from its closest computed descendant in ascending key order — with
//! scripted and property tests.

use crate::measure::merge_sibling;
use crate::Result;
use regcube_regress::Isb;

/// Lane width the chunked kernels are written around. Eight 64-bit
/// lanes span one AVX-512 register or two AVX2/NEON registers; the
/// compiler picks the actual vector width when it lowers the chunks.
pub const LANES: usize = 8;

/// `true` when the slice is nondecreasing (chunked adjacent compare).
///
/// Projection through monotone hierarchies preserves the source
/// table's ascending id order, so the tier roll-up usually skips its
/// sort entirely — this is the test that proves it per block.
pub fn is_nondecreasing_u64(values: &[u64]) -> bool {
    if values.len() < 2 {
        return true;
    }
    let a = &values[..values.len() - 1];
    let b = &values[1..];
    let mut ok = true;
    for (ca, cb) in a.chunks(LANES).zip(b.chunks(LANES)) {
        let mut bad = false;
        for (&x, &y) in ca.iter().zip(cb) {
            bad |= x > y;
        }
        ok &= !bad;
        if !ok {
            return false;
        }
    }
    ok
}

/// Chunked exception screen: pushes the index of every `slopes[i]` with
/// `|slopes[i]| >= threshold` onto `hits` (ascending). `NaN` never
/// qualifies (`NaN >= t` is false), matching
/// [`crate::measure::exception_score`] exactly.
pub fn screen_ge_abs(slopes: &[f64], threshold: f64, hits: &mut Vec<usize>) {
    for (ci, chunk) in slopes.chunks(LANES).enumerate() {
        let mut mask = 0u32;
        for (j, &s) in chunk.iter().enumerate() {
            mask |= u32::from(s.abs() >= threshold) << j;
        }
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            hits.push(ci * LANES + j);
            mask &= mask - 1;
        }
    }
}

/// How one dimension of a [`BlockProjector`] maps its mixed-radix digit
/// into the target id.
#[derive(Debug, Clone)]
pub enum BlockDim {
    /// Source and target level coincide: the digit is scaled straight
    /// onto the target stride.
    Scale {
        /// Source-id stride of this dimension.
        src_stride: u64,
        /// Target-id stride of this dimension.
        tgt_stride: u64,
    },
    /// Fused ancestor lookup: `flut[digit]` is the ancestor member
    /// *already multiplied* by the target stride.
    Lut {
        /// Source-id stride of this dimension.
        src_stride: u64,
        /// Fused `ancestor(member) * tgt_stride` table.
        flut: Box<[u64]>,
    },
    /// The target collapses this dimension to a single member: the
    /// digit contributes nothing (only the remainder chain advances).
    Collapse {
        /// Source-id stride of this dimension.
        src_stride: u64,
    },
}

/// Blocked mixed-radix projection `source id → target id` for one
/// `source → target` cuboid pair: blocks of dense cell ids are pushed
/// through the per-dimension ancestor LUTs of
/// [`crate::table::Projector`] (fused with the target strides), one
/// remainder-chain division per dimension per row instead of a
/// decode → per-dim project → encode round trip. Built via
/// [`Projector::block_projector`](crate::table::Projector::block_projector).
#[derive(Debug, Clone)]
pub struct BlockProjector {
    dims: Vec<BlockDim>,
}

impl BlockProjector {
    /// Assembles a projector from per-dimension digit maps, ordered
    /// most-significant (largest source stride) first.
    pub fn new(dims: Vec<BlockDim>) -> Self {
        BlockProjector { dims }
    }

    /// Projects a block of source ids into `out` (same length),
    /// dimension-outer so each pass is a contiguous chunked loop.
    pub fn project_into(&self, ids: &[u64], out: &mut [u64]) {
        /// Rows per internal block: two 8 KiB scratch strips stay in L1.
        const BLOCK: usize = 1024;
        debug_assert_eq!(ids.len(), out.len());
        let mut rem = [0u64; BLOCK];
        for (ids_blk, out_blk) in ids.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let n = ids_blk.len();
            let rem = &mut rem[..n];
            rem.copy_from_slice(ids_blk);
            out_blk.fill(0);
            for (d, dim) in self.dims.iter().enumerate() {
                let last = d + 1 == self.dims.len();
                match dim {
                    BlockDim::Scale {
                        src_stride,
                        tgt_stride,
                    } => {
                        let (s, t) = (*src_stride, *tgt_stride);
                        if s == 1 {
                            for (o, r) in out_blk.iter_mut().zip(rem.iter()) {
                                *o += r * t;
                            }
                        } else {
                            for (o, r) in out_blk.iter_mut().zip(rem.iter_mut()) {
                                let q = *r / s;
                                *r -= q * s;
                                *o += q * t;
                            }
                        }
                    }
                    BlockDim::Lut { src_stride, flut } => {
                        let s = *src_stride;
                        if s == 1 {
                            for (o, r) in out_blk.iter_mut().zip(rem.iter()) {
                                *o += flut[*r as usize];
                            }
                        } else {
                            for (o, r) in out_blk.iter_mut().zip(rem.iter_mut()) {
                                let q = *r / s;
                                *r -= q * s;
                                *o += flut[q as usize];
                            }
                        }
                    }
                    BlockDim::Collapse { src_stride } => {
                        let s = *src_stride;
                        if s > 1 && !last {
                            for r in rem.iter_mut() {
                                *r %= s;
                            }
                        }
                        // s == 1 or the last dimension: nothing
                        // downstream reads the remainder.
                    }
                }
            }
        }
    }
}

/// The five parallel component columns a fold reads from or writes to.
/// A thin borrow bundle so the fold kernels take one argument per side
/// instead of ten slices.
pub struct FoldColumns<'a> {
    /// Dense cell ids (sorted for [`merge_two_runs`] inputs).
    pub ids: &'a [u64],
    /// Interval starts (`t_b`).
    pub starts: &'a [i64],
    /// Interval ends (`t_e`).
    pub ends: &'a [i64],
    /// Regression bases (`α̂`).
    pub bases: &'a [f64],
    /// Regression slopes (`β̂`).
    pub slopes: &'a [f64],
}

/// The owned output columns a fold appends to.
#[derive(Default)]
pub struct FoldOutput {
    /// Dense cell ids, ascending and duplicate-free after a fold.
    pub ids: Vec<u64>,
    /// Interval starts.
    pub starts: Vec<i64>,
    /// Interval ends.
    pub ends: Vec<i64>,
    /// Regression bases.
    pub bases: Vec<f64>,
    /// Regression slopes.
    pub slopes: Vec<f64>,
}

impl FoldOutput {
    /// Pre-sizes every column for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        FoldOutput {
            ids: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            bases: Vec::with_capacity(n),
            slopes: Vec::with_capacity(n),
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    #[inline]
    fn push(&mut self, id: u64, start: i64, end: i64, base: f64, slope: f64) {
        self.ids.push(id);
        self.starts.push(start);
        self.ends.push(end);
        self.bases.push(base);
        self.slopes.push(slope);
    }

    /// Bulk-copies the contiguous row span `lo..hi` of `src`.
    fn extend_span(&mut self, src: &FoldColumns<'_>, ids: &[u64], lo: usize, hi: usize) {
        self.ids.extend_from_slice(&ids[lo..hi]);
        self.starts.extend_from_slice(&src.starts[lo..hi]);
        self.ends.extend_from_slice(&src.ends[lo..hi]);
        self.bases.extend_from_slice(&src.bases[lo..hi]);
        self.slopes.extend_from_slice(&src.slopes[lo..hi]);
    }
}

/// Reconstructs a stored row as an [`Isb`] (stored rows are valid by
/// construction) — only reached on the interval-mismatch error path, so
/// the exact [`merge_sibling`] error surfaces.
fn isb_of(start: i64, end: i64, base: f64, slope: f64) -> Isb {
    Isb::new(start, end, base, slope).expect("stored rows are valid ISBs")
}

/// Folds the duplicate run `lo..hi` (all the same target id):
/// sequential left-to-right component sums — the same f64 additions in
/// the same order as repeated [`merge_sibling`] calls, without the Isb
/// round trips. Interval mismatches raise [`merge_sibling`]'s exact
/// error.
#[inline]
fn fold_run(
    src: &FoldColumns<'_>,
    order: impl Iterator<Item = usize>,
    out: &mut FoldOutput,
    id: u64,
) -> Result<()> {
    let mut rows = order;
    let first = rows.next().expect("runs are non-empty");
    let (s0, e0) = (src.starts[first], src.ends[first]);
    let mut base = src.bases[first];
    let mut slope = src.slopes[first];
    for i in rows {
        if src.starts[i] != s0 || src.ends[i] != e0 {
            let mut acc = isb_of(s0, e0, base, slope);
            merge_sibling(
                &mut acc,
                &isb_of(src.starts[i], src.ends[i], src.bases[i], src.slopes[i]),
            )?;
            unreachable!("mismatched intervals always fail the sibling merge");
        }
        base += src.bases[i];
        slope += src.slopes[i];
    }
    out.push(id, s0, e0, base, slope);
    Ok(())
}

/// Folds rows whose target ids are **already nondecreasing**: maximal
/// collision-free spans are bulk-copied with `extend_from_slice`;
/// duplicate runs are summed sequentially (see the private `fold_run` helper). `ids` are
/// the projected target ids, parallel to `src`'s component columns.
///
/// # Errors
/// Interval mismatches within a duplicate run (the [`merge_sibling`]
/// error).
pub fn fold_sorted_runs(ids: &[u64], src: &FoldColumns<'_>, out: &mut FoldOutput) -> Result<()> {
    let n = ids.len();
    let mut i = 0;
    while i < n {
        // Advance over the collision-free span [i, k): each row's id
        // differs from its successor's.
        let mut k = i;
        while k + 1 < n && ids[k] != ids[k + 1] {
            k += 1;
        }
        if k + 1 == n {
            out.extend_span(src, ids, i, n);
            break;
        }
        out.extend_span(src, ids, i, k);
        // Rows k.. share ids[k]; fold the run.
        let mut m = k + 1;
        while m < n && ids[m] == ids[k] {
            m += 1;
        }
        fold_run(src, k..m, out, ids[k])?;
        i = m;
    }
    Ok(())
}

/// Folds rows through a sort permutation: `pairs` is `(target id, row
/// index into src)`, stably sorted by id (ties keep ascending row
/// index, i.e. arrival order).
///
/// # Errors
/// Interval mismatches within a duplicate run.
pub fn fold_permuted_runs(
    pairs: &[(u64, usize)],
    src: &FoldColumns<'_>,
    out: &mut FoldOutput,
) -> Result<()> {
    let n = pairs.len();
    let mut i = 0;
    while i < n {
        let id = pairs[i].0;
        let mut m = i + 1;
        while m < n && pairs[m].0 == id {
            m += 1;
        }
        if m == i + 1 {
            let r = pairs[i].1;
            out.push(id, src.starts[r], src.ends[r], src.bases[r], src.slopes[r]);
        } else {
            fold_run(src, pairs[i..m].iter().map(|&(_, r)| r), out, id)?;
        }
        i = m;
    }
    Ok(())
}

/// Merges two sorted duplicate-free runs (`a` = the compacted region,
/// `b` = the freshly folded staged rows): collision-free spans of
/// either side are bulk-copied (span ends found by `partition_point`,
/// not per-row compares); id collisions fold `a`'s row then `b`'s — the
/// older cell first, then the newer rows.
///
/// # Errors
/// Interval mismatches at a collision (the [`merge_sibling`] error).
pub fn merge_two_runs(
    a: &FoldColumns<'_>,
    b: &FoldColumns<'_>,
    out: &mut FoldOutput,
) -> Result<()> {
    let (na, nb) = (a.ids.len(), b.ids.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < na && j < nb {
        if a.ids[i] == b.ids[j] {
            if a.starts[i] != b.starts[j] || a.ends[i] != b.ends[j] {
                let mut acc = isb_of(a.starts[i], a.ends[i], a.bases[i], a.slopes[i]);
                merge_sibling(
                    &mut acc,
                    &isb_of(b.starts[j], b.ends[j], b.bases[j], b.slopes[j]),
                )?;
                unreachable!("mismatched intervals always fail the sibling merge");
            }
            out.push(
                a.ids[i],
                a.starts[i],
                a.ends[i],
                a.bases[i] + b.bases[j],
                a.slopes[i] + b.slopes[j],
            );
            i += 1;
            j += 1;
        } else if a.ids[i] < b.ids[j] {
            let hi = i + a.ids[i..na].partition_point(|&id| id < b.ids[j]);
            out.extend_span(a, a.ids, i, hi);
            i = hi;
        } else {
            let hi = j + b.ids[j..nb].partition_point(|&id| id < a.ids[i]);
            out.extend_span(b, b.ids, j, hi);
            j = hi;
        }
    }
    out.extend_span(a, a.ids, i, na);
    out.extend_span(b, b.ids, j, nb);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols<'a>(
        ids: &'a [u64],
        starts: &'a [i64],
        ends: &'a [i64],
        bases: &'a [f64],
        slopes: &'a [f64],
    ) -> FoldColumns<'a> {
        FoldColumns {
            ids,
            starts,
            ends,
            bases,
            slopes,
        }
    }

    #[test]
    fn uniformity_and_order_scans() {
        assert!(is_nondecreasing_u64(&[]));
        assert!(is_nondecreasing_u64(&[5]));
        assert!(is_nondecreasing_u64(&[1, 1, 2, 9, 9, 100]));
        let mut w: Vec<u64> = (0..100).collect();
        assert!(is_nondecreasing_u64(&w));
        w.swap(70, 71);
        assert!(!is_nondecreasing_u64(&w));
    }

    #[test]
    fn screen_matches_scalar_predicate_including_nan() {
        let slopes = [0.5, -0.9, f64::NAN, 0.0, -0.4, 0.4, f64::INFINITY, 0.39];
        let mut hits = Vec::new();
        screen_ge_abs(&slopes, 0.4, &mut hits);
        let expected: Vec<usize> = slopes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.abs() >= 0.4)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, expected);
        hits.clear();
        screen_ge_abs(&slopes, 0.0, &mut hits);
        assert!(!hits.contains(&2), "NaN never qualifies, even at t = 0");
    }

    #[test]
    fn block_projector_remainder_chain() {
        // radices (3, 1, 4), strides (4, 4, 1): collapse dim 0 to one
        // member, keep dim 2 via a LUT halving members.
        let p = BlockProjector::new(vec![
            BlockDim::Collapse { src_stride: 4 },
            BlockDim::Scale {
                src_stride: 4,
                tgt_stride: 2,
            },
            BlockDim::Lut {
                src_stride: 1,
                flut: (0..4u64).map(|m| m / 2).collect(),
            },
        ]);
        let ids: Vec<u64> = (0..12).collect();
        let mut out = vec![0u64; ids.len()];
        p.project_into(&ids, &mut out);
        // Dim 1 has radix 1 (digit always 0), so only the last digit's
        // halved member survives.
        let expected: Vec<u64> = (0..12u64).map(|id| (id % 4) / 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sorted_fold_bulk_copies_and_sums_runs() {
        let ids = [1u64, 3, 3, 3, 5, 9];
        let starts = [0i64; 6];
        let ends = [9i64; 6];
        let bases = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let slopes = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let src = cols(&ids, &starts, &ends, &bases, &slopes);
        let mut out = FoldOutput::default();
        fold_sorted_runs(&ids, &src, &mut out).unwrap();
        assert_eq!(out.ids, vec![1, 3, 5, 9]);
        assert_eq!(out.bases, vec![1.0, 2.0 + 3.0 + 4.0, 5.0, 6.0]);
        assert_eq!(out.slopes[1], 0.2 + 0.3 + 0.4);
    }

    #[test]
    fn permuted_fold_follows_pair_order() {
        let starts = [0i64; 4];
        let ends = [9i64; 4];
        let bases = [10.0, 20.0, 30.0, 40.0];
        let slopes = [1.0, 2.0, 3.0, 4.0];
        let ids = [0u64; 4]; // unused by the permuted fold
        let src = cols(&ids, &starts, &ends, &bases, &slopes);
        // Target ids: rows 2 and 0 collide on id 4; row order (2, 0)
        // would be wrong — stable sort keeps (0, 2).
        let pairs = [(4u64, 0usize), (4, 2), (7, 1), (8, 3)];
        let mut out = FoldOutput::default();
        fold_permuted_runs(&pairs, &src, &mut out).unwrap();
        assert_eq!(out.ids, vec![4, 7, 8]);
        assert_eq!(out.bases, vec![10.0 + 30.0, 20.0, 40.0]);
    }

    #[test]
    fn interval_mismatch_raises_the_scalar_error() {
        let ids = [2u64, 2];
        let starts = [0i64, 5];
        let ends = [9i64, 14];
        let bases = [1.0, 1.0];
        let slopes = [0.0, 0.0];
        let src = cols(&ids, &starts, &ends, &bases, &slopes);
        let mut out = FoldOutput::default();
        assert!(fold_sorted_runs(&ids, &src, &mut out).is_err());

        let a_ids = [2u64];
        let b_ids = [2u64];
        let a = cols(&a_ids, &starts[..1], &ends[..1], &bases[..1], &slopes[..1]);
        let b = cols(&b_ids, &starts[1..], &ends[1..], &bases[1..], &slopes[1..]);
        let mut out = FoldOutput::default();
        assert!(merge_two_runs(&a, &b, &mut out).is_err());
    }

    #[test]
    fn two_run_merge_interleaves_spans_and_collisions() {
        let a_ids = [1u64, 2, 5, 8];
        let a_starts = [0i64; 4];
        let a_ends = [9i64; 4];
        let a_bases = [1.0, 2.0, 5.0, 8.0];
        let a_slopes = [0.1, 0.2, 0.5, 0.8];
        let b_ids = [2u64, 3, 4, 9];
        let b_bases = [20.0, 30.0, 40.0, 90.0];
        let b_slopes = [2.0, 3.0, 4.0, 9.0];
        let a = cols(&a_ids, &a_starts, &a_ends, &a_bases, &a_slopes);
        let b = cols(&b_ids, &a_starts, &a_ends, &b_bases, &b_slopes);
        let mut out = FoldOutput::default();
        merge_two_runs(&a, &b, &mut out).unwrap();
        assert_eq!(out.ids, vec![1, 2, 3, 4, 5, 8, 9]);
        assert_eq!(out.bases, vec![1.0, 22.0, 30.0, 40.0, 5.0, 8.0, 90.0]);
        assert_eq!(out.slopes[1], 0.2 + 2.0);
    }

    #[test]
    fn nan_payloads_flow_through_folds() {
        let ids = [4u64, 4];
        let starts = [0i64; 2];
        let ends = [9i64; 2];
        let bases = [f64::NAN, 1.0];
        let slopes = [0.5, f64::NAN];
        let src = cols(&ids, &starts, &ends, &bases, &slopes);
        let mut out = FoldOutput::default();
        fold_sorted_runs(&ids, &src, &mut out).unwrap();
        assert!(out.bases[0].is_nan());
        assert!(out.slopes[0].is_nan());
    }
}
