//! Raw stream records at the primitive layer, and their packed form.
//!
//! [`RawRecord`] is the public input type. An engine packs each one
//! once, on arrival, into a [`PackedRecord`]: the primitive member ids
//! become one mixed-radix `u64` (last dimension fastest, so numeric key
//! order is lexicographic id order), and the whole record is a 32-byte
//! `Copy` value from there to the fitted m-layer tuple — queues and the
//! reorder buffer hold it without a heap allocation, and the canonical
//! order compares integers.

use crate::error::StreamError;
use crate::Result;
use regcube_core::table::DenseCellCodec;
use regcube_olap::{CubeSchema, CuboidSpec};
use std::sync::Arc;

/// One raw measurement: member coordinates at the *primitive* layer (the
/// lowest granularity collected, e.g. `(individual user, street address)`),
/// the minute-level tick, and the measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRecord {
    /// Member ids at the primitive layer's levels, one per dimension.
    pub ids: Vec<u32>,
    /// Absolute fine-grained tick (e.g. minute index).
    pub tick: i64,
    /// Measured value (e.g. kWh in the minute).
    pub value: f64,
    /// Declaring source (sensor / feed id) for per-source watermarks.
    /// Sources are an *arrival-time* attribute: they decide when units
    /// close under [`WatermarkPolicy::PerSource`](crate::reorder::WatermarkPolicy),
    /// never what the closed unit contains — the canonical per-unit
    /// order stays `(tick, ids, value bits)` so bit-identity with
    /// sorted replay is unaffected. Defaults to `0`.
    pub source: u32,
}

impl RawRecord {
    /// Creates a record from the default source `0`.
    pub fn new(ids: Vec<u32>, tick: i64, value: f64) -> Self {
        RawRecord {
            ids,
            tick,
            value,
            source: 0,
        }
    }

    /// Tags the record with a declaring source id (builder style).
    pub fn with_source(mut self, source: u32) -> Self {
        self.source = source;
        self
    }
}

/// A validated [`RawRecord`] with its primitive ids packed into one
/// mixed-radix key by a [`RecordPacker`]. Packing preserves order: for
/// two records of one primitive layer, `a.key < b.key` exactly when
/// `a.ids < b.ids` lexicographically, so `(tick, key, value bits)` is
/// the canonical order `(tick, ids, value bits)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedRecord {
    /// The primitive member ids, packed by the layer's
    /// [`DenseCellCodec`].
    pub key: u64,
    /// Absolute fine-grained tick.
    pub tick: i64,
    /// Measured value.
    pub value: f64,
    /// Declaring source (see [`RawRecord::source`]).
    pub source: u32,
}

/// Packs [`RawRecord`]s of one primitive layer into [`PackedRecord`]s
/// and back. Cheap to clone (the codec is shared), so a producer-side
/// queue can pack on the producer's thread with its own handle.
#[derive(Debug, Clone)]
pub struct RecordPacker {
    codec: Arc<DenseCellCodec>,
    /// Cells of the layer: every valid key is below it.
    cells: u64,
}

impl RecordPacker {
    /// Builds the packer of `primitive`-layer records of `schema`.
    ///
    /// # Errors
    /// [`StreamError::BadConfig`] when the layer's cell space does not
    /// fit a 64-bit key.
    pub fn new(schema: &CubeSchema, primitive: &CuboidSpec) -> Result<Self> {
        let codec = DenseCellCodec::new(schema, primitive).map_err(|e| StreamError::BadConfig {
            detail: format!("primitive layer {primitive}: {e}"),
        })?;
        // The codec's guard makes the product fit.
        let cells = codec.radices().iter().map(|&r| u64::from(r)).product();
        Ok(RecordPacker {
            codec: Arc::new(codec),
            cells,
        })
    }

    /// The codec keys are packed with.
    #[inline]
    pub fn codec(&self) -> &DenseCellCodec {
        &self.codec
    }

    /// Validates a record against the primitive layer (arity and member
    /// range) and packs it.
    ///
    /// # Errors
    /// [`StreamError::BadRecord`] for arity/member violations.
    pub fn pack(&self, record: &RawRecord) -> Result<PackedRecord> {
        let radices = self.codec.radices();
        if record.ids.len() != radices.len() {
            return Err(StreamError::BadRecord {
                detail: format!("{} ids for {} dimensions", record.ids.len(), radices.len()),
            });
        }
        for (d, (&id, &card)) in record.ids.iter().zip(radices).enumerate() {
            if id >= card {
                return Err(StreamError::BadRecord {
                    detail: format!("dimension {d} member {id} out of range ({card})"),
                });
            }
        }
        Ok(PackedRecord {
            key: self.codec.encode(&record.ids),
            tick: record.tick,
            value: record.value,
            source: record.source,
        })
    }

    /// Checks that a packed record's key is one of this layer's cells —
    /// the guard for a [`PackedRecord`] that did not come from this
    /// packer.
    ///
    /// # Errors
    /// [`StreamError::BadRecord`] for a key beyond the layer.
    #[inline]
    pub fn check(&self, record: &PackedRecord) -> Result<()> {
        if record.key < self.cells {
            return Ok(());
        }
        Err(StreamError::BadRecord {
            detail: format!(
                "packed key {} outside the layer's {} cells",
                record.key, self.cells
            ),
        })
    }

    /// The primitive member ids a packed key stands for.
    pub fn ids(&self, key: u64) -> Vec<u32> {
        let mut ids = vec![0; self.codec.num_dims()];
        self.codec.decode_into(key, &mut ids);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let r = RawRecord::new(vec![3, 1], 42, 0.5);
        assert_eq!(r.ids, vec![3, 1]);
        assert_eq!(r.tick, 42);
        assert_eq!(r.value, 0.5);
        assert_eq!(r.source, 0, "default source");
        let r = r.with_source(7);
        assert_eq!(r.source, 7);
    }

    #[test]
    fn packing_round_trips_and_validates() {
        let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
        let packer = RecordPacker::new(&schema, &CuboidSpec::new(vec![2, 1])).unwrap();
        let r = RawRecord::new(vec![8, 2], -3, -0.0).with_source(5);
        let p = packer.pack(&r).unwrap();
        assert_eq!(p.key, 8 * 3 + 2, "last dimension fastest");
        assert_eq!(std::mem::size_of::<PackedRecord>(), 32);
        assert_eq!(packer.ids(p.key), r.ids);
        assert_eq!(
            (p.tick, p.value.to_bits(), p.source),
            (-3, (-0.0f64).to_bits(), 5)
        );
        assert!(packer.check(&p).is_ok());
        let beyond = PackedRecord { key: 27, ..p };
        assert!(matches!(
            packer.check(&beyond),
            Err(StreamError::BadRecord { .. })
        ));
        for bad in [vec![0], vec![9, 0], vec![0, 3], vec![0, 0, 0]] {
            assert!(matches!(
                packer.pack(&RawRecord::new(bad, 0, 1.0)),
                Err(StreamError::BadRecord { .. })
            ));
        }
    }

    #[test]
    fn a_primitive_space_beyond_64_bits_is_a_bad_config() {
        let schema = CubeSchema::synthetic(6, 2, 2048).unwrap();
        assert!(matches!(
            RecordPacker::new(&schema, &CuboidSpec::new(vec![2; 6])),
            Err(StreamError::BadConfig { .. })
        ));
    }
}
