//! A replayed unit is written into a retired result of its own engine
//! only when no reader holds that result. A served tenant whose
//! population reports every unit replays its one shape; a reader keeps
//! one published snapshot across many later closes, at least three of
//! which recycle, and must read the same canonical text and the same
//! drills off it the whole time. Every snapshot published meanwhile
//! must be the one a single-threaded engine takes at that boundary.

use regcube_core::ExceptionPolicy;
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{ServeConfig, Server, TenantId};
use regcube_stream::{CubeSnapshot, EngineConfig, RawRecord};
use regcube_tilt::TiltSpec;
use std::sync::Arc;

const TPU: usize = 4;
const UNITS: i64 = 14;
/// The unit whose snapshot the reader keeps.
const KEPT: i64 = 4;

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.6))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU)
}

/// Every m-cell reports every tick; the slopes drift from unit to unit,
/// so exceptions come and go while the key sequence stays.
fn unit_records(unit: i64) -> Vec<RawRecord> {
    let mut records = Vec::new();
    for t in unit * TPU as i64..(unit + 1) * TPU as i64 {
        let tick = (t % TPU as i64) as f64;
        for a in 0..9u32 {
            for b in 0..9u32 {
                let slope = f64::from((a * 7 + b * 3 + unit as u32) % 11) / 10.0 - 0.4;
                records.push(RawRecord::new(vec![a, b], t, 2.0 + slope * tick));
            }
        }
    }
    records
}

/// What a reader reads off a snapshot: its canonical text, and its
/// drills rendered as text.
type Reads = (String, Vec<String>);

/// What a reader reads: the canonical text, and drills from every
/// o-cell down and through the m-cells' tilt history.
fn reads(snapshot: &CubeSnapshot) -> Reads {
    let cube = snapshot.cube().unwrap();
    let o_layer = cube.layers().o_layer().clone();
    let mut drills = Vec::new();
    let mut o_cells: Vec<CellKey> = cube.o_table().keys().cloned().collect();
    o_cells.sort();
    for key in &o_cells {
        drills.push(format!(
            "{:?}",
            snapshot.drill_children(&o_layer, key).unwrap()
        ));
        drills.push(format!(
            "{:?}",
            snapshot.drill_descendants(&o_layer, key).unwrap()
        ));
    }
    for key in [CellKey::new(vec![0, 0]), CellKey::new(vec![8, 5])] {
        drills.push(format!("{:?}", snapshot.drill_history(&key).unwrap()));
        drills.push(format!("{:?}", snapshot.drill_at(0, &key).unwrap()));
    }
    (snapshot.canonical_text(), drills)
}

#[test]
fn a_held_snapshot_reads_the_same_across_recycled_closes() {
    let mut reference = config().build().unwrap();
    let server = Server::new(ServeConfig::new().with_pump_threads(2));
    let id = TenantId::from("stable");
    server.create_tenant(id.clone(), config()).unwrap();
    let reader = server.reader(&id).unwrap();

    let mut kept: Option<(Arc<CubeSnapshot>, Reads)> = None;
    let mut recycled_at_keep = 0;
    for unit in 0..UNITS {
        for record in unit_records(unit) {
            server.ingest(&id, &record).unwrap();
            reference.ingest(&record).unwrap();
        }
        let pump = server.close_unit(&id).unwrap();
        assert!(pump.errors.is_empty(), "{:?}", pump.errors);
        reference.close_unit().unwrap();

        let published = reader.snapshot();
        assert_eq!(
            published.canonical_text(),
            reference.snapshot().canonical_text(),
            "unit {unit}"
        );
        if unit == KEPT {
            let snapshot = reader.snapshot();
            let read = reads(&snapshot);
            kept = Some((snapshot, read));
            recycled_at_keep = server.units_recycled(&id).unwrap();
        }
        if let Some((snapshot, read)) = &kept {
            assert_eq!(
                &reads(snapshot),
                read,
                "unit {unit}: the kept snapshot moved"
            );
        }
    }
    let recycled = server.units_recycled(&id).unwrap() - recycled_at_keep;
    assert!(
        recycled >= 3,
        "only {recycled} closes recycled while the snapshot was kept"
    );
}
