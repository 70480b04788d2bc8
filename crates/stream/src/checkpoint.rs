//! Versioned, checksummed checkpoint/recovery for the online engine.
//!
//! A process restart used to lose every warehoused tilt ladder — the
//! whole point of the tilted-time-frame model is that those ladders
//! *are* the retained history, so durability is table stakes. This
//! module serializes everything an [`OnlineEngine`] needs to resume at
//! its last unit boundary into one self-validating binary file:
//!
//! * the last closed window's m-layer tuples (the cube is **rebuilt**
//!   from them on restore, through the configured cubing path — which
//!   is what makes the restored cube bit-identical to the saved one),
//! * both tilt-ladder families (m- and o-frames, every slot of every
//!   level), the last unit's alarms, and the lateness machinery: the
//!   reorder buffer's records, per-source watermarks, drop counters,
//!   pending amendments and pending alarm revisions.
//!
//! # File format (version 2)
//!
//! ```text
//! magic   b"RGCK"            4 bytes
//! version u32 LE             (currently 2)
//! length  u64 LE             payload byte count
//! payload length bytes       (see encode_state)
//! check   u64 LE             XXH64, seed 0, over the payload
//! ```
//!
//! Version 1 differs only in its check: FNV-1a 64 over the same
//! payload. Its layout and payload are those of version 2, so a
//! version-1 file restores to the same engine and re-encodes to the
//! same payload under a version-2 header. The writer always writes
//! version 2; the reader accepts both and refuses every other version.
//!
//! Every failure mode — missing file, torn write, bit rot, version
//! skew, a checkpoint from a differently-configured engine — surfaces
//! as a typed [`StreamError::Checkpoint`]. Restoration is
//! **all-or-nothing**: once the envelope checks out, the engine is built
//! privately and the payload is decoded into it in one pass, each field
//! checked as it is read and written straight to its place. The first
//! failure drops the engine, so no caller ever observes a half-restored
//! engine. A checkpoint of another configuration is refused on its
//! fingerprint, before the rest of the payload is read.
//!
//! # What is deliberately not captured
//!
//! Cubing-internal counters ([`RunStats`](regcube_core::RunStats)
//! timing/memory figures) restart from the checkpoint boundary, and
//! the restored window's [`UnitDelta`](regcube_core::UnitDelta) is not
//! replayed to the alarm sinks: re-cubing it into a fresh engine
//! reports every exception as appeared, which the sinks of the
//! original run have already seen. The next close diffs against the
//! restored cube, so deltas keep working forward. The queryable state
//! — cube tables, ladders, alarms; everything
//! [`CubeSnapshot::canonical_text`](crate::CubeSnapshot::canonical_text)
//! renders — round-trips bit-identically.

use crate::error::StreamError;
use crate::ingest::Ingestor;
use crate::online::{
    zero_usage, Alarm, BoxedEngine, EngineConfig, LayerFamily, LayerFrames, OnlineEngine,
};
use crate::record::RawRecord;
use crate::Result;
use regcube_core::alarm::{AlarmRevision, LateAmendment, RevisionKind};
use regcube_core::engine::CubingEngine;
use regcube_core::MTuple;
use regcube_olap::cell::CellKey;
use regcube_olap::CuboidSpec;
use regcube_regress::Isb;
use regcube_tilt::{TiltError, TiltFrame, TiltSlot};
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::Path;

const MAGIC: &[u8; 4] = b"RGCK";
/// The version the writer stamps: the payload is checked by XXH64.
const VERSION: u32 = 2;
/// Magic, version and payload length ahead of the payload.
const HEADER_BYTES: usize = 16;
/// Encoded size of one tilt slot: its unit (`u64`) and its ISB.
const SLOT_BYTES: usize = 8 + 32;

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Serializes the engine's resumable state into checkpoint bytes (the
/// full file image, header and checksum included).
///
/// # Errors
/// [`StreamError::Checkpoint`] when the engine holds a partially
/// accumulated open unit (strict-order mode between boundaries):
/// checkpoints are taken at unit boundaries, where the open
/// accumulation is empty. Watermark-mode engines can checkpoint any
/// time — their in-flight records live in the reorder buffer, which is
/// captured.
pub fn checkpoint_bytes<E: CubingEngine>(engine: &OnlineEngine<E>) -> Result<Vec<u8>> {
    if engine.ingestor.open_cells() > 0 {
        return Err(StreamError::Checkpoint {
            detail: format!(
                "open unit {} holds {} partially accumulated cells; \
                 checkpoint at a unit boundary (close_unit first)",
                engine.ingestor.open_unit(),
                engine.ingestor.open_cells()
            ),
        });
    }
    // The file image is written in place: header first (the payload
    // length patched in once it is known), payload, checksum. The tilt
    // frames are nearly all of the payload, so sizing the buffer for
    // them up front spares the doubling copies of a growing `Vec`.
    // Every frame of a layer has the same shape, hence the same length
    // once its key is written.
    let frame_bytes = |frames: &LayerFrames| -> usize {
        let after_key = 24 + 8 * frames.spec().num_levels() + SLOT_BYTES * frames.retained_slots();
        frames
            .ladders()
            .map(|(key, _)| 8 + 4 * key.ids().len() + after_key)
            .sum()
    };
    let mut enc =
        Enc::with_capacity(4096 + frame_bytes(&engine.frames) + frame_bytes(&engine.o_frames));
    enc.buf.extend_from_slice(MAGIC);
    enc.u32(VERSION);
    enc.u64(0);
    encode_state(engine, &mut enc);
    let payload_len = (enc.buf.len() - HEADER_BYTES) as u64;
    enc.buf[8..HEADER_BYTES].copy_from_slice(&payload_len.to_le_bytes());
    enc.u64(xxh64(&enc.buf[HEADER_BYTES..]));
    Ok(enc.buf)
}

/// Writes a checkpoint file for `engine` (see [`checkpoint_bytes`]).
/// The file is written to a sibling temporary path, its data synced to
/// the device, and atomically renamed into place; on Unix the directory
/// is synced after the rename too. A crash mid-write, of the process or
/// of the OS, can tear the temporary but never the checkpoint itself:
/// the path holds the previous checkpoint or this one, whole.
///
/// # Errors
/// [`StreamError::Checkpoint`] for I/O failures, a sync failure
/// included, or a mid-unit engine.
pub fn write_checkpoint<E: CubingEngine>(
    engine: &OnlineEngine<E>,
    path: impl AsRef<Path>,
) -> Result<()> {
    let path = path.as_ref();
    let bytes = checkpoint_bytes(engine)?;
    let tmp = path.with_extension("rgck-tmp");
    let failed = |what: &str, at: &Path, e: std::io::Error| StreamError::Checkpoint {
        detail: format!("{what} {}: {e}", at.display()),
    };
    let mut file = File::create(&tmp).map_err(|e| failed("writing", &tmp, e))?;
    file.write_all(&bytes)
        .map_err(|e| failed("writing", &tmp, e))?;
    file.sync_all().map_err(|e| failed("syncing", &tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| failed("renaming into", path, e))?;
    // The rename lives in the directory: until the directory is synced,
    // an OS crash may forget it.
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| failed("syncing the directory of", path, e))?;
    }
    Ok(())
}

/// Restores an engine from checkpoint bytes. `config` must describe
/// the same analysis as the checkpointed engine (schema, layers,
/// policy, tilt spec, ticks per unit, and the same
/// reordering-enabled/disabled choice); sinks are free to differ — the
/// cube is rebuilt through the configured cubing path, which reproduces
/// the saved cube's bits when it runs the algorithm the cube was saved
/// from.
///
/// # Errors
/// [`StreamError::Checkpoint`] for torn/corrupt/incompatible bytes
/// (all-or-nothing: no partially restored engine escapes).
pub fn restore_bytes(config: EngineConfig, bytes: &[u8]) -> Result<OnlineEngine<BoxedEngine>> {
    let payload = verify_envelope(bytes)?;
    let mut engine = config.build()?;
    decode_into(&mut engine, payload)?;
    Ok(engine)
}

/// Restores an engine from a checkpoint file (see [`restore_bytes`]).
///
/// # Errors
/// [`StreamError::Checkpoint`] for a missing/unreadable file or
/// torn/corrupt/incompatible contents.
pub fn restore(config: EngineConfig, path: impl AsRef<Path>) -> Result<OnlineEngine<BoxedEngine>> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| StreamError::Checkpoint {
        detail: format!("reading {}: {e}", path.display()),
    })?;
    restore_bytes(config, &bytes)
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// FNV-1a 64, the version-1 check: one dependent multiply per byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// XXH64 with seed 0, the version-2 check. Four independent lanes fold
/// each 32-byte stripe, so the multiplies of a stripe overlap instead
/// of waiting on one another. Like FNV-1a, it guards against torn
/// writes and bit rot; it is not a cryptographic seal.
fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    }
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, word(&stripe[8 * i..]));
            }
        }
        let [a, b, c, d] = lanes;
        let mut hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            hash = (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        hash
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        hash = (hash ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        hash = (hash ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        hash = (hash ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Validates magic, version, length and checksum; returns the payload.
fn verify_envelope(bytes: &[u8]) -> Result<&[u8]> {
    let fail = |detail: String| StreamError::Checkpoint { detail };
    if bytes.len() < 24 {
        return Err(fail(format!(
            "file too short for a checkpoint header ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[0..4] != MAGIC {
        return Err(fail("bad magic: not a regcube checkpoint".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let check: fn(&[u8]) -> u64 = match version {
        1 => fnv1a,
        VERSION => xxh64,
        _ => {
            return Err(fail(format!(
                "unsupported checkpoint version {version} (this build reads 1 and {VERSION})"
            )))
        }
    };
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let expected_total = 16usize
        .checked_add(len)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| fail("payload length overflows".into()))?;
    if bytes.len() != expected_total {
        return Err(fail(format!(
            "torn checkpoint: header promises {expected_total} bytes, file has {}",
            bytes.len()
        )));
    }
    let payload = &bytes[16..16 + len];
    let stored = u64::from_le_bytes(bytes[16 + len..].try_into().expect("8 bytes"));
    let actual = check(payload);
    if stored != actual {
        return Err(fail(format!(
            "checksum mismatch: stored {stored:016x}, computed {actual:016x}"
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Encoder / decoder primitives
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.i64(x);
            }
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn ids(&mut self, ids: &[u32]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.u32(id);
        }
    }
    fn isb(&mut self, isb: &Isb) {
        self.i64(isb.start());
        self.i64(isb.end());
        self.f64(isb.base());
        self.f64(isb.slope());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn fail(&self, what: &str) -> StreamError {
        StreamError::Checkpoint {
            detail: format!("truncated payload decoding {what} at offset {}", self.pos),
        }
    }
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.fail(what))?;
        if end > self.buf.len() {
            return Err(self.fail(what));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }
    fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    fn opt_i64(&mut self, what: &str) -> Result<Option<i64>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.i64(what)?)),
            tag => Err(StreamError::Checkpoint {
                detail: format!("bad option tag {tag} decoding {what}"),
            }),
        }
    }
    /// A count of elements that each encode to `min_bytes` or more,
    /// bounded by what the rest of the payload can hold: a corrupt or
    /// forged length can't reserve more than the payload's size.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u64(what)? as usize;
        let remaining = self.remaining();
        if n > remaining / min_bytes {
            return Err(StreamError::Checkpoint {
                detail: format!(
                    "implausible count {n} decoding {what}: only {remaining} payload bytes \
                     remain for elements of {min_bytes} or more"
                ),
            });
        }
        Ok(n)
    }
    fn str(&mut self, what: &str) -> Result<String> {
        let n = self.count(1, what)?;
        String::from_utf8(self.take(n, what)?.to_vec()).map_err(|_| StreamError::Checkpoint {
            detail: format!("invalid UTF-8 decoding {what}"),
        })
    }
    fn ids(&mut self, what: &str) -> Result<Vec<u32>> {
        let n = self.count(4, what)?;
        (0..n).map(|_| self.u32(what)).collect()
    }
    fn isb(&mut self, what: &str) -> Result<Isb> {
        let start = self.i64(what)?;
        let end = self.i64(what)?;
        let base = self.f64(what)?;
        let slope = self.f64(what)?;
        Isb::new(start, end, base, slope).map_err(|e| StreamError::Checkpoint {
            detail: format!("invalid ISB decoding {what}: {e}"),
        })
    }
    /// Payload bytes not yet decoded.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn done(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(StreamError::Checkpoint {
                detail: format!(
                    "{} trailing payload bytes after a complete decode",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Engine state <-> payload
// ---------------------------------------------------------------------------

/// The analysis identity a checkpoint belongs to. Two engines with the
/// same fingerprint warehouse interchangeable state; anything else is
/// rejected at restore time instead of silently mis-restoring.
fn fingerprint(
    ingestor: &Ingestor,
    engine_parts: (&regcube_olap::CubeSchema, &CuboidSpec, &CuboidSpec),
    policy: &regcube_core::ExceptionPolicy,
    tilt_spec: &regcube_tilt::TiltSpec,
    ticks_per_unit: usize,
) -> String {
    let (schema, o_layer, m_layer) = engine_parts;
    // v1 checkpoints were written while the policy carried a reference
    // mode that was always `OwnSlope`: keep its text so they restore.
    let policy = format!("{policy:?}");
    let policy = policy.strip_suffix(" }").unwrap_or(&policy);
    format!(
        "{schema:?}|{:?}|{o_layer:?}|{m_layer:?}|{policy}, ref_mode: OwnSlope }}|{tilt_spec:?}\
         |{ticks_per_unit}",
        ingestor.primitive()
    )
}

fn engine_fingerprint<E: CubingEngine>(engine: &OnlineEngine<E>) -> String {
    fingerprint(
        &engine.ingestor,
        (&engine.schema, &engine.o_layer, &engine.m_layer),
        &engine.policy,
        engine.frames.spec(),
        engine.ticks_per_unit,
    )
}

/// Writes a layer's frames one [`TiltFrame`] at a time — the format's
/// unit of encoding — each row gathered from the family's columns. The
/// clock, the expiry and the level count are the family's: the same in
/// every frame.
fn encode_frames(enc: &mut Enc, frames: &LayerFrames) {
    // Sorted for determinism: the same engine state always produces the
    // same checkpoint bytes.
    let mut ladders: Vec<_> = frames.ladders().collect();
    ladders.sort_by(|a, b| a.0.cmp(b.0));
    enc.u64(ladders.len() as u64);
    let (next_unit, expired_units) = (frames.next_unit(), frames.expired_units());
    let num_levels = frames.spec().num_levels() as u64;
    for (key, ladder) in ladders {
        enc.ids(key.ids());
        enc.u64(next_unit);
        enc.u64(expired_units);
        enc.u64(num_levels);
        for slots in ladder.levels() {
            enc.u64(slots.len() as u64);
            for (unit, measure) in slots.iter() {
                enc.u64(unit);
                enc.isb(measure);
            }
        }
    }
}

fn encode_revision(enc: &mut Enc, rev: &AlarmRevision) {
    enc.u8(match rev.kind {
        RevisionKind::Retracted => 0,
        RevisionKind::Raised => 1,
        RevisionKind::Rescored => 2,
    });
    let levels: Vec<u32> = rev.cuboid.levels().iter().map(|&l| u32::from(l)).collect();
    enc.ids(&levels);
    enc.ids(rev.cell.ids());
    enc.u64(rev.unit);
    enc.u64(rev.level as u64);
    enc.f64(rev.old_score);
    enc.f64(rev.new_score);
}

fn decode_revision(dec: &mut Dec<'_>) -> Result<AlarmRevision> {
    let kind = match dec.u8("revision kind")? {
        0 => RevisionKind::Retracted,
        1 => RevisionKind::Raised,
        2 => RevisionKind::Rescored,
        tag => {
            return Err(StreamError::Checkpoint {
                detail: format!("unknown revision kind {tag}"),
            })
        }
    };
    let levels = dec
        .ids("revision cuboid")?
        .into_iter()
        .map(|l| {
            u8::try_from(l).map_err(|_| StreamError::Checkpoint {
                detail: format!("revision cuboid level {l} exceeds {}", u8::MAX),
            })
        })
        .collect::<Result<_>>()?;
    Ok(AlarmRevision {
        kind,
        cuboid: CuboidSpec::new(levels),
        cell: CellKey::new(dec.ids("revision cell")?),
        unit: dec.u64("revision unit")?,
        level: dec.u64("revision level")? as usize,
        old_score: dec.f64("revision old score")?,
        new_score: dec.f64("revision new score")?,
    })
}

fn encode_state<E: CubingEngine>(engine: &OnlineEngine<E>, enc: &mut Enc) {
    enc.str(&engine_fingerprint(engine));
    enc.u8(u8::from(engine.computed));
    // The format keeps three copies of the engine's one clock.
    let clock = engine.units_closed();
    enc.u64(clock);
    enc.opt_i64(clock.checked_sub(1).map(|unit| unit as i64));
    enc.i64(engine.ingestor.open_unit());

    // The last window's m-layer tuples, sorted: the cube rebuild seed.
    let mut tuples: Vec<(&CellKey, &Isb)> = if engine.computed {
        engine.cubing.result().m_table().iter().collect()
    } else {
        Vec::new()
    };
    tuples.sort_by(|a, b| a.0.cmp(b.0));
    enc.u64(tuples.len() as u64);
    for (key, isb) in tuples {
        enc.ids(key.ids());
        enc.isb(isb);
    }

    encode_frames(enc, &engine.frames);
    encode_frames(enc, &engine.o_frames);

    enc.u64(engine.last_alarms.len() as u64);
    for alarm in &engine.last_alarms {
        enc.ids(alarm.key.ids());
        enc.isb(&alarm.measure);
        enc.f64(alarm.score);
        enc.f64(alarm.threshold);
    }

    match &engine.reorder {
        None => enc.u8(0),
        Some(st) => {
            enc.u8(1);
            enc.opt_i64(st.max_seen_unit);
            enc.u64(st.sources.len() as u64);
            for (&source, &mark) in &st.sources {
                enc.u32(source);
                enc.i64(mark);
            }
            enc.u64(st.dropped_total);
            enc.u64(st.dropped_since_report);
            enc.u64(st.sources_evicted);
            enc.u64(st.watermark_held_units);
            enc.u64(st.units.len() as u64);
            // Buffered records are written with their ids, as they
            // arrived: the file does not depend on the packing.
            let codec = engine.ingestor.packer().codec();
            let mut ids = vec![0; codec.num_dims()];
            for (&unit, records) in &st.units {
                enc.i64(unit);
                enc.u64(records.len() as u64);
                for r in records {
                    codec.decode_into(r.key, &mut ids);
                    enc.ids(&ids);
                    enc.i64(r.tick);
                    enc.f64(r.value);
                    enc.u32(r.source);
                }
            }
        }
    }

    enc.u64(engine.pending_amendments.len() as u64);
    for a in &engine.pending_amendments {
        enc.ids(a.m_cell.ids());
        enc.ids(a.o_cell.ids());
        enc.u64(a.unit);
        enc.i64(a.tick);
        enc.f64(a.delta);
        enc.u64(a.m_level as u64);
        enc.u64(a.o_level as u64);
    }

    enc.u64(engine.pending_revisions.len() as u64);
    for rev in &engine.pending_revisions {
        encode_revision(enc, rev);
    }
    enc.u64(engine.late_amended_total);
}

/// Decodes a payload into a freshly built engine in one pass: each field
/// is checked as it is read and written straight to its place. Called
/// with a private engine: on error the engine is dropped with the `?`,
/// so no partial state escapes.
fn decode_into(engine: &mut OnlineEngine<BoxedEngine>, payload: &[u8]) -> Result<()> {
    let fail = |detail: String| StreamError::Checkpoint { detail };
    let mut dec = Dec::new(payload);
    let fingerprint = dec.str("fingerprint")?;
    let own = engine_fingerprint(engine);
    if own != fingerprint {
        return Err(fail(format!(
            "configuration mismatch: checkpoint was taken from a differently-configured \
             engine (checkpoint `{fingerprint}`, this config `{own}`)"
        )));
    }
    let computed = match dec.u8("computed flag")? {
        0 => false,
        1 => true,
        tag => return Err(fail(format!("bad computed flag {tag}"))),
    };
    // The three copies of the one clock must agree.
    let clock = dec.u64("units_closed")?;
    let last_closed = dec.opt_i64("last_closed_unit")?;
    let open_unit = dec.i64("open_unit")?;
    if i64::try_from(clock).ok() != Some(open_unit) {
        return Err(fail(format!(
            "checkpoint closed {clock} units but resumes at unit {open_unit}"
        )));
    }
    if last_closed != clock.checked_sub(1).map(|unit| unit as i64) {
        return Err(fail(format!(
            "checkpoint closed {clock} units but names {last_closed:?} as the last one"
        )));
    }
    engine.ingestor.set_open_unit(open_unit);

    // Rebuild the cube by re-cubing the saved window's m-tuples through
    // the configured path: deterministic.
    // Each is a key (an id count and ids) and an ISB.
    let n = dec.count(8 + 32, "m-tuple count")?;
    if computed != (n > 0) {
        return Err(fail(format!(
            "computed flag {} disagrees with {n} saved m-tuples",
            u8::from(computed)
        )));
    }
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        let ids = dec.ids("m-tuple key")?;
        tuples.push(MTuple::new(ids, dec.isb("m-tuple measure")?));
    }
    if computed {
        engine
            .cubing
            .ingest_unit(&tuples)
            .map_err(|e| fail(format!("saved m-tuples do not re-cube: {e}")))?;
        engine.computed = true;
    }

    // The format carries frames, not the fills a cell that joins later
    // will read: those are what a never-active cell holds, replayed
    // over the retained span.
    let ticks = engine.ticks_per_unit as i64;
    let never_active = TiltFrame::backfilled(engine.frames.spec().clone(), clock, |unit| {
        let first = i64::try_from(unit)
            .ok()
            .and_then(|unit| unit.checked_mul(ticks))
            .filter(|first| first.checked_add(ticks).is_some())
            .ok_or_else(|| TiltError::BadSpec {
                detail: format!("unit {unit} lies beyond the tick range"),
            })?;
        Ok(Isb::new(first, first + ticks - 1, 0.0, 0.0)?)
    })
    .map_err(|e| fail(format!("invalid tilt frame in checkpoint: {e}")))?;
    engine.frames = decode_family(&mut dec, &never_active, "m-frame count")?;
    engine.o_frames = decode_family(&mut dec, &never_active, "o-frame count")?;

    // Each is a key, an ISB, a score and a threshold.
    let n = dec.count(8 + 32 + 16, "alarm count")?;
    engine.last_alarms = (0..n)
        .map(|_| {
            Ok(Alarm {
                key: CellKey::new(dec.ids("alarm key")?),
                measure: dec.isb("alarm measure")?,
                score: dec.f64("alarm score")?,
                threshold: dec.f64("alarm threshold")?,
            })
        })
        .collect::<Result<_>>()?;

    let saved_reorder = match dec.u8("reorder flag")? {
        0 => false,
        1 => true,
        tag => return Err(fail(format!("bad reorder flag {tag}"))),
    };
    if saved_reorder != engine.reorder.is_some() {
        let state = |on: bool| if on { "enables" } else { "disables" };
        return Err(fail(format!(
            "reordering mismatch: checkpoint {} the watermark stage, this config {} it",
            state(saved_reorder),
            state(engine.reorder.is_some()),
        )));
    }
    if let Some(st) = engine.reorder.as_mut() {
        st.max_seen_unit = dec.opt_i64("reorder max_seen")?;
        for _ in 0..dec.count(4 + 8, "source count")? {
            let source = dec.u32("source id")?;
            st.sources.insert(source, dec.i64("source mark")?);
        }
        st.dropped_total = dec.u64("dropped_total")?;
        st.dropped_since_report = dec.u64("dropped_since_report")?;
        st.sources_evicted = dec.u64("sources_evicted")?;
        st.watermark_held_units = dec.u64("watermark_held_units")?;
        // A bucket holds records of one unit the engine has yet to
        // close: the close folds it without looking again.
        let packer = engine.ingestor.packer();
        let bad_bucket =
            |detail: String| fail(format!("invalid reorder buffer in checkpoint: {detail}"));
        for _ in 0..dec.count(8 + 8, "buffered unit count")? {
            let unit = dec.i64("buffered unit")?;
            if unit < open_unit {
                return Err(bad_bucket(format!(
                    "unit {unit} is buffered but the engine resumes at unit {open_unit}"
                )));
            }
            if st.units.contains_key(&unit) {
                return Err(bad_bucket(format!("unit {unit} is buffered twice")));
            }
            // Each is ids, a tick, a value and a source.
            let m = dec.count(8 + 8 + 8 + 4, "buffered record count")?;
            let mut bucket = Vec::with_capacity(m);
            for _ in 0..m {
                let ids = dec.ids("record ids")?;
                let tick = dec.i64("record tick")?;
                if tick.div_euclid(ticks) != unit {
                    return Err(bad_bucket(format!(
                        "a record of unit {unit} has tick {tick}, outside it"
                    )));
                }
                let value = dec.f64("record value")?;
                let source = dec.u32("record source")?;
                let record = RawRecord::new(ids, tick, value).with_source(source);
                bucket.push(
                    packer
                        .pack(&record)
                        .map_err(|e| fail(format!("buffered record of unit {unit}: {e}")))?,
                );
            }
            st.units.insert(unit, bucket);
        }
    }

    // Each is two keys and five 8-byte fields.
    let n = dec.count(8 + 8 + 5 * 8, "amendment count")?;
    engine.pending_amendments = (0..n)
        .map(|_| {
            Ok(LateAmendment {
                m_cell: CellKey::new(dec.ids("amendment m-cell")?),
                o_cell: CellKey::new(dec.ids("amendment o-cell")?),
                unit: dec.u64("amendment unit")?,
                tick: dec.i64("amendment tick")?,
                delta: dec.f64("amendment delta")?,
                m_level: dec.u64("amendment m-level")? as usize,
                o_level: dec.u64("amendment o-level")? as usize,
            })
        })
        .collect::<Result<_>>()?;

    // Each is a kind, a cuboid, a key and four 8-byte fields.
    let n = dec.count(1 + 8 + 8 + 4 * 8, "revision count")?;
    engine.pending_revisions = (0..n)
        .map(|_| decode_revision(&mut dec))
        .collect::<Result<_>>()?;
    engine.late_amended_total = dec.u64("late_amended_total")?;
    dec.done()
}

/// Decodes one layer's frames into a family on `never_active`'s clock.
/// A layer's frames live on one clock, the engine's: a frame that is
/// valid for a clock of its own would take the next unit under the
/// wrong number. So what a frame's header says — a function of the spec
/// and the clock — is checked as it is read, and what its slots say is
/// held to the same shape as [`LayerFamily::from_rows`] scatters them
/// into the columns.
fn decode_family(
    dec: &mut Dec<'_>,
    never_active: &TiltFrame<Isb>,
    what: &str,
) -> Result<LayerFamily> {
    let invalid = |detail: String| StreamError::Checkpoint {
        detail: format!("invalid tilt frame in checkpoint: {detail}"),
    };
    let num_levels = never_active.spec().num_levels();
    let clock = never_active.next_unit();
    let expired_units = never_active.stats().expired_units;
    // Each frame's header: its key, its clock, its expiry and its level
    // count.
    let n = dec.count(8 + 3 * 8, what)?;
    // Each frame's key and where its slots sit in the layer's one slot
    // buffer. The file lists a frame's levels finest first; a frame
    // keeps them coarsest first (the order `TiltFrame::history` has), so
    // each level's block is rotated to the front of its frame's stretch
    // as it completes.
    let mut rows: Vec<(CellKey, Range<usize>)> = Vec::with_capacity(n);
    let mut slots: Vec<TiltSlot<Isb>> = Vec::new();
    for _ in 0..n {
        let key = CellKey::new(dec.ids("frame key")?);
        let next_unit = dec.u64("frame next_unit")?;
        if next_unit != clock {
            return Err(invalid(format!(
                "frame capture of {key} has ingested {next_unit} units, the engine closed {clock}"
            )));
        }
        let expired = dec.u64("frame expired_units")?;
        if expired != expired_units {
            return Err(invalid(format!(
                "frame capture of {key} reports {expired} expired units, \
                 {clock} ingested units age out {expired_units}"
            )));
        }
        let levels = dec.count(8, "frame level count")?;
        if levels != num_levels {
            return Err(invalid(format!(
                "frame capture of {key} has {levels} levels, spec defines {num_levels}"
            )));
        }
        let start = slots.len();
        for _ in 0..levels {
            let len = dec.count(SLOT_BYTES, "frame slot count")?;
            for _ in 0..len {
                let unit = dec.u64("slot unit")?;
                let measure = dec.isb("slot measure")?;
                slots.push(TiltSlot { unit, measure });
            }
            slots[start..].rotate_right(len);
        }
        if rows.is_empty() {
            // The frames of a layer have one shape: the first one sizes
            // the buffer for all, within what the payload can still hold.
            let rest = (slots.len() - start).saturating_mul(n - 1);
            slots.reserve(rest.min(dec.remaining() / SLOT_BYTES));
        }
        rows.push((key, start..slots.len()));
    }
    let rows = rows
        .into_iter()
        .map(|(key, range)| (key, slots[range].iter().cloned()));
    LayerFamily::from_rows(never_active, zero_usage, rows).map_err(|e| invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 test vectors, seed 0.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one stripe, then the 4-byte and the 1-byte tail steps.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        // Bytes 0..63, as the reference library (xxHash 0.8.1) hashes
        // them: one stripe, then every tail step, three 8-byte words
        // first.
        let bytes: Vec<u8> = (0..63).collect();
        assert_eq!(xxh64(&bytes), 0xe26a_a9e2_a95f_8e4f);
    }

    /// An envelope around `payload`: `version` in the header, `check`'s
    /// sum of the payload after it.
    fn seal(version: u32, payload: &[u8], check: fn(&[u8]) -> u64) -> Vec<u8> {
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&version.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(payload);
        file.extend_from_slice(&check(payload).to_le_bytes());
        file
    }

    /// Every truncation and every single-byte flip of `file` is refused
    /// by `read` with a typed error.
    fn assert_torn_and_flipped_bytes_fail<T>(file: &[u8], read: impl Fn(&[u8]) -> Result<T>) {
        let typed = |bytes: &[u8]| matches!(read(bytes), Err(StreamError::Checkpoint { .. }));
        for cut in 0..file.len() {
            assert!(typed(&file[..cut]), "cut at {cut}");
        }
        let mut bad = file.to_vec();
        for i in 0..file.len() {
            bad[i] ^= 0x40;
            assert!(typed(&bad), "flip at {i}");
            bad[i] ^= 0x40;
        }
    }

    #[test]
    fn envelope_reads_both_versions_each_by_its_own_check() {
        let payload = b"hello payload".as_slice();
        assert_eq!(verify_envelope(&seal(1, payload, fnv1a)).unwrap(), payload);
        assert_eq!(verify_envelope(&seal(2, payload, xxh64)).unwrap(), payload);
        // Each version is read by its own check only.
        for file in [seal(1, payload, xxh64), seal(2, payload, fnv1a)] {
            let err = verify_envelope(&file).unwrap_err();
            assert!(err.to_string().contains("checksum mismatch"), "{err}");
        }
        // A version neither writer stamped.
        for version in [0, 3] {
            let err = verify_envelope(&seal(version, payload, xxh64)).unwrap_err();
            assert!(
                err.to_string().contains("unsupported checkpoint version"),
                "{err}"
            );
        }
    }

    #[test]
    fn envelope_rejects_torn_and_corrupt_bytes() {
        let payload = b"hello payload";
        assert_torn_and_flipped_bytes_fail(&seal(1, payload, fnv1a), |b| {
            verify_envelope(b).map(drop)
        });
        assert_torn_and_flipped_bytes_fail(&seal(2, payload, xxh64), |b| {
            verify_envelope(b).map(drop)
        });
    }

    #[test]
    fn a_real_checkpoint_fails_typed_on_every_tear_and_flip() {
        let schema = regcube_olap::CubeSchema::synthetic(2, 2, 2).unwrap();
        let config = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![1, 1]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_tilt(regcube_tilt::TiltSpec::new(vec![("unit", 2), ("pair", 2)]).unwrap())
        .with_ticks_per_unit(2);
        let mut engine = config.clone().build().unwrap();
        for unit in 0..6 {
            for tick in [2 * unit, 2 * unit + 1] {
                for (a, b) in [(0, 0), (1, 3), (3, 2)] {
                    let value = f64::from(a + b) + tick as f64 * 0.5;
                    engine
                        .ingest(&RawRecord::new(vec![a, b], tick, value))
                        .unwrap();
                }
            }
            engine.close_unit().unwrap();
        }
        let file = engine.checkpoint_bytes().unwrap();
        assert_eq!(&file[4..8], &VERSION.to_le_bytes());
        let restored = restore_bytes(config.clone(), &file).unwrap();
        assert_eq!(restored.frames.ladders().count(), 3);
        assert_eq!(restored.o_frames.ladders().count(), 3);
        assert_torn_and_flipped_bytes_fail(&file, |bytes| restore_bytes(config.clone(), bytes));
    }

    /// A restored layer holds windows too: an engine whose cells report
    /// in rotating blocks, in key order, comes back with every read the
    /// same and no column holding more rows than it did.
    #[test]
    fn a_restored_rotation_holds_no_wider_windows() {
        let schema = regcube_olap::CubeSchema::synthetic(2, 2, 4).unwrap();
        let config = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![1, 1]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_tilt(regcube_tilt::TiltSpec::new(vec![("unit", 4), ("mid", 4), ("top", 4)]).unwrap())
        .with_ticks_per_unit(2);
        let mut engine = config.clone().build().unwrap();
        // 256 m-cells in 16 blocks of 16 (one first id each), one block a
        // unit: a block's rows, and its o-cells' rows, are consecutive.
        let push = |engine: &mut OnlineEngine<_>, unit: u32| {
            let a = unit % 16;
            for tick in [2 * i64::from(unit), 2 * i64::from(unit) + 1] {
                for b in 0..16u32 {
                    let value = f64::from(a + b) + tick as f64 * 0.25;
                    engine
                        .ingest(&RawRecord::new(vec![a, b], tick, value))
                        .unwrap();
                }
            }
            engine.close_unit().unwrap();
        };
        for unit in 0..45 {
            push(&mut engine, unit);
        }
        let restored = restore_bytes(config, &engine.checkpoint_bytes().unwrap()).unwrap();
        type Reads = BTreeMap<CellKey, Vec<(usize, u64, [u64; 2], (i64, i64))>>;
        let reads = |family: &LayerFamily| -> Reads {
            family
                .ladders()
                .map(|(key, ladder)| {
                    let timeline = ladder.timeline().into_iter().map(|(level, unit, m)| {
                        let bits = [m.base().to_bits(), m.slope().to_bits()];
                        (level, unit, bits, (m.start(), m.end()))
                    });
                    (key.clone(), timeline.collect())
                })
                .collect()
        };
        for (was, is) in [
            (&engine.frames, &restored.frames),
            (&engine.o_frames, &restored.o_frames),
        ] {
            assert_eq!(reads(is), reads(was));
            let before: Vec<_> = was.held_windows().collect();
            let after: Vec<_> = is.held_windows().collect();
            assert_eq!(after.len(), before.len());
            for (column, (was, is)) in before.iter().zip(&after).enumerate() {
                assert!(
                    is.len() <= was.len(),
                    "column {column}: {is:?} wider than {was:?}"
                );
            }
            assert!(is.held_rows() < is.retained_slots() * is.len());
        }
        assert_eq!(restored.frames.len(), 256);
    }

    #[test]
    fn slot_bytes_is_what_a_slot_encodes_to() {
        let mut enc = Enc::with_capacity(0);
        enc.u64(7);
        enc.isb(&Isb::new(0, 3, 1.0, 0.5).unwrap());
        assert_eq!(enc.buf.len(), SLOT_BYTES);
    }

    #[test]
    fn fingerprint_keeps_the_v1_policy_text() {
        let schema = regcube_olap::CubeSchema::synthetic(2, 1, 2).unwrap();
        let (o_layer, m_layer) = (CuboidSpec::new(vec![0, 0]), CuboidSpec::new(vec![1, 1]));
        let ingestor = Ingestor::new(schema.clone(), m_layer.clone(), m_layer.clone(), 4).unwrap();
        let policy = regcube_core::ExceptionPolicy::slope_threshold(0.5)
            .with_depth_threshold(1, 0.25)
            .unwrap()
            .with_cuboid_threshold(CuboidSpec::new(vec![1, 0]), 0.75)
            .unwrap();
        let tilt = regcube_tilt::TiltSpec::new(vec![("unit", 2), ("pair", 3)]).unwrap();
        let text = fingerprint(&ingestor, (&schema, &o_layer, &m_layer), &policy, &tilt, 4);
        // Captured from the v1 writer: every checkpoint on disk carries
        // this text, so it must not move.
        assert_eq!(
            text,
            "CubeSchema { dims: [Dimension { name: \"A\", level_names: [\"A.L1\"], \
             hierarchy: Hierarchy { repr: Balanced { depth: 1, fanout: 2 } } }, \
             Dimension { name: \"B\", level_names: [\"B.L1\"], \
             hierarchy: Hierarchy { repr: Balanced { depth: 1, fanout: 2 } } }] }\
             |CuboidSpec { levels: [1, 1] }|CuboidSpec { levels: [0, 0] }\
             |CuboidSpec { levels: [1, 1] }\
             |ExceptionPolicy { default_threshold: 0.5, per_depth: {1: 0.25}, \
             per_cuboid: {CuboidSpec { levels: [1, 0] }: 0.75}, ref_mode: OwnSlope }\
             |TiltSpec { levels: [LevelSpec { name: \"unit\", group: 2 }, \
             LevelSpec { name: \"pair\", group: 3 }] }|4"
        );
    }

    /// A cuboid level is a `u8`; the file writes it as a `u32`, so a
    /// level past 255 is refused rather than wrapped.
    #[test]
    fn a_revision_level_beyond_u8_is_refused() {
        let encoded = |level: u32| {
            let mut enc = Enc::with_capacity(0);
            enc.u8(1); // raised
            enc.ids(&[level, 0]);
            enc.ids(&[0, 0]);
            enc.u64(3); // unit
            enc.u64(0); // tilt level
            enc.f64(0.5);
            enc.f64(1.5);
            enc.buf
        };
        let rev = decode_revision(&mut Dec::new(&encoded(255))).unwrap();
        assert_eq!(rev.cuboid.levels(), &[255, 0]);
        let err = decode_revision(&mut Dec::new(&encoded(256))).unwrap_err();
        assert!(matches!(err, StreamError::Checkpoint { .. }), "{err}");
        assert!(
            err.to_string().contains("revision cuboid level 256"),
            "{err}"
        );
    }

    #[test]
    fn decoder_counts_are_bounded_by_remaining_bytes() {
        let mut enc = Enc::with_capacity(0);
        enc.u64(u64::MAX); // implausible count
        let mut dec = Dec::new(&enc.buf);
        assert!(dec.count(1, "test").is_err());
    }
}
