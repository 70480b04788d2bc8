//! Quickstart: the paper's Section 3 in five minutes.
//!
//! Fits the Example 2 / Figure 1 series, demonstrates both lossless
//! aggregation theorems on the Figure 2 / Figure 3 data, and builds a
//! small exception-driven regression cube.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use regcube::core::drill::drill_descendants;
use regcube::prelude::*;

fn main() {
    // ---- Figure 1: a time series and its LSE linear fit -----------------
    let z = TimeSeries::new(
        0,
        vec![0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56],
    )
    .unwrap();
    let fit = LinearFit::fit(&z);
    println!("Example 2 series over {:?}:", z.interval());
    println!("  LSE fit: z(t) = {:.4} + {:.4}·t", fit.base, fit.slope);
    println!("  R² = {:.4}", fit.r_squared(&z));

    // The ISB representation is all a cube cell stores.
    let isb = Isb::fit(&z).unwrap();
    println!("  ISB  = {isb}");
    println!("  IntVal = {}", isb.to_intval());

    // ---- Theorem 3.2: aggregation on a standard dimension ---------------
    // Figure 2's caption values: the ISBs of z1, z2 and z1+z2.
    let z1 = Isb::new(0, 19, 0.540995, 0.0318379).unwrap();
    let z2 = Isb::new(0, 19, 0.294875, 0.0493375).unwrap();
    let sum = aggregate::merge_standard(&[z1, z2]).unwrap();
    println!("\nTheorem 3.2 (Figure 2): {z1} + {z2}");
    println!("  = {sum}  (paper: ([0, 19], 0.83587, 0.0811754))");

    // ---- Theorem 3.3: aggregation on the time dimension -----------------
    // Figure 3's caption values: [0,9] and [10,19] merged into [0,19].
    let seg1 = Isb::new(0, 9, 0.582995, 0.0240189).unwrap();
    let seg2 = Isb::new(10, 19, 0.459046, 0.047474).unwrap();
    let merged = aggregate::merge_time(&[seg1, seg2]).unwrap();
    println!("\nTheorem 3.3 (Figure 3): {seg1} ++ {seg2}");
    println!("  = {merged}  (paper: ([0, 19], 0.509033, 0.0431806))");

    // ---- A small exception-driven regression cube -----------------------
    // Two dimensions with 2-level fanout-3 hierarchies; the m-layer is the
    // finest (L2, L2), the o-layer the apex (*, *).
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    let layers = CriticalLayers::new(
        &schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .unwrap();
    let policy = ExceptionPolicy::slope_threshold(0.8);

    // Nine streams: one trending hard, the rest quiet.
    let mut tuples = Vec::new();
    for a in 0..3u32 {
        for b in 0..3u32 {
            let slope = if (a, b) == (1, 2) { 1.6 } else { 0.02 };
            let series = TimeSeries::from_fn(0, 19, |t| 1.0 + slope * t as f64).unwrap();
            tuples.push(MTuple::new(vec![a, b], Isb::fit(&series).unwrap()));
        }
    }
    let result = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();

    println!("\nRegression cube over {} m-layer streams:", tuples.len());
    println!(
        "  cells computed {}, retained {} (exceptions between layers: {})",
        result.stats().cells_computed,
        result.stats().cells_retained,
        result.total_exception_cells(),
    );
    for (key, measure) in result.exceptional_o_cells() {
        println!(
            "  ALARM at o-layer cell {key}: slope {:.3}",
            measure.slope()
        );
        for hit in drill_descendants(&schema, &result, layers.o_layer(), key) {
            println!(
                "    supporter {} {}: slope {:.3}",
                hit.cuboid,
                hit.key,
                hit.measure.slope()
            );
        }
    }
}
