//! Ablations of the design choices the paper and ARCHITECTURE.md call out:
//!
//! 1. H-tree attribute ordering: ascending cardinality (the paper's
//!    choice) vs descending — sharing near the root vs near the leaves.
//! 2. Aggregating a cuboid from its closest computed descendant (what
//!    m/o-cubing does) vs always from the m-layer.
//! 3. ISB warehousing vs raw series: aggregate with Theorem 3.2 on the
//!    4-number measures vs summing full series and refitting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regcube_bench::experiments::Workload;
use regcube_core::table::{aggregate_from, CuboidTable};
use regcube_datagen::{Dataset, DatasetSpec};
use regcube_olap::htree::{attrs_by_cardinality, expand_tuple, AttrSpec, HTree};
use regcube_olap::{CuboidSpec, Lattice};
use regcube_regress::{aggregate, Isb, TimeSeries};
use std::hint::black_box;

fn workload() -> Workload {
    Workload::from_dataset(&Dataset::generate(DatasetSpec::new(3, 3, 4, 3_000).unwrap()).unwrap())
}

/// Ablation 1: H-tree attribute order.
fn bench_htree_order(c: &mut Criterion) {
    let w = workload();
    let lattice = w.layers.lattice();
    let asc = attrs_by_cardinality(&w.schema, lattice);
    let desc: Vec<AttrSpec> = asc.iter().rev().copied().collect();
    let mut g = c.benchmark_group("ablation_htree_order");
    g.sample_size(10);
    for (name, order) in [("cardinality_asc", &asc), ("cardinality_desc", &desc)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), order, |b, order| {
            b.iter(|| {
                let mut tree: HTree<Isb> = HTree::new(order.clone()).unwrap();
                for t in &w.tuples {
                    let values = expand_tuple(&w.schema, w.layers.m_layer(), t.ids(), tree.order());
                    let leaf = tree.insert_path(&values).unwrap();
                    *tree.payload_mut(leaf) = Some(*t.isb());
                }
                black_box(tree.num_nodes())
            });
        });
    }
    g.finish();
    // Report the structural difference once (node counts drive memory).
    let count_nodes = |order: &Vec<AttrSpec>| {
        let mut tree: HTree<Isb> = HTree::new(order.clone()).unwrap();
        for t in &w.tuples {
            let values = expand_tuple(&w.schema, w.layers.m_layer(), t.ids(), tree.order());
            tree.insert_path(&values).unwrap();
        }
        tree.num_nodes()
    };
    eprintln!(
        "[ablation] H-tree nodes: cardinality-asc {} vs desc {}",
        count_nodes(&asc),
        count_nodes(&desc)
    );
}

/// Ablation 2: aggregate from the closest descendant vs from the m-layer.
fn bench_aggregation_source(c: &mut Criterion) {
    let w = workload();
    let lattice: &Lattice = w.layers.lattice();
    // Build the m-layer table and an intermediate one-step-finer table.
    let m_table: CuboidTable = w
        .tuples
        .iter()
        .map(|t| (regcube_olap::cell::CellKey::new(t.ids().to_vec()), *t.isb()))
        .collect();
    let target = CuboidSpec::new(vec![1, 1, 1]);
    let mid = CuboidSpec::new(vec![1, 2, 2]); // closest computed descendant
    let (mid_table, _) =
        aggregate_from(&w.schema, lattice.m_layer(), &m_table, &mid, None).unwrap();

    let mut g = c.benchmark_group("ablation_aggregation_source");
    g.sample_size(20);
    g.bench_function("from_m_layer", |b| {
        b.iter(|| {
            black_box(
                aggregate_from(&w.schema, lattice.m_layer(), &m_table, &target, None).unwrap(),
            )
        });
    });
    g.bench_function("from_closest_descendant", |b| {
        b.iter(|| black_box(aggregate_from(&w.schema, &mid, &mid_table, &target, None).unwrap()));
    });
    g.finish();
}

/// Ablation 3: the paper's core compression claim — aggregating ISBs vs
/// keeping and summing raw series.
fn bench_isb_vs_raw(c: &mut Criterion) {
    let k = 256usize;
    let len = 96i64; // one day of quarters
    let series: Vec<TimeSeries> = (0..k)
        .map(|i| {
            TimeSeries::from_fn(0, len - 1, |t| {
                1.0 + (i as f64) * 0.01 + 0.002 * (t as f64) * (i % 7) as f64
            })
            .unwrap()
        })
        .collect();
    let isbs: Vec<Isb> = series.iter().map(|z| Isb::fit(z).unwrap()).collect();

    let mut g = c.benchmark_group("ablation_isb_vs_raw");
    g.bench_function("thm32_on_isbs", |b| {
        b.iter(|| black_box(aggregate::merge_standard(&isbs).unwrap()));
    });
    g.bench_function("sum_raw_series_then_fit", |b| {
        b.iter(|| {
            let sum = TimeSeries::sum_many(&series).unwrap();
            black_box(Isb::fit(&sum).unwrap())
        });
    });
    g.finish();
    eprintln!(
        "[ablation] bytes per cell: ISB = {} vs raw series({len} ticks) = {}",
        std::mem::size_of::<Isb>(),
        std::mem::size_of::<TimeSeries>() + len as usize * std::mem::size_of::<f64>(),
    );
}

criterion_group!(
    benches,
    bench_htree_order,
    bench_aggregation_source,
    bench_isb_vs_raw
);
criterion_main!(benches);
