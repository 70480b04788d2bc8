//! What makes a run *correct*: one digest over every tenant's final
//! published state plus the exact counters, compared with an
//! independent replay and with the values recorded for the known seeds.

use crate::json::Json;

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The counters that must repeat exactly, and the digest of the final
/// `CubeSnapshot::canonical_text()` of every tenant (in tenant order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub digest: u64,
    pub records: u64,
    pub units_closed: u64,
    pub alarms: u64,
    pub late_amendments: u64,
    pub late_dropped: u64,
    pub alarm_revisions: u64,
}

impl Fingerprint {
    /// Field-by-field differences against `other`, empty when equal.
    pub fn mismatches(&self, other: &Fingerprint, against: &str) -> Vec<String> {
        let pairs = [
            ("digest", self.digest, other.digest),
            ("records", self.records, other.records),
            ("units_closed", self.units_closed, other.units_closed),
            ("alarms", self.alarms, other.alarms),
            (
                "late_amendments",
                self.late_amendments,
                other.late_amendments,
            ),
            ("late_dropped", self.late_dropped, other.late_dropped),
            (
                "alarm_revisions",
                self.alarm_revisions,
                other.alarm_revisions,
            ),
        ];
        pairs
            .iter()
            .filter(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("{name}: served {a:#x} != {against} {b:#x}"))
            .collect()
    }

    /// The `expected.json` entry of this fingerprint.
    pub fn entry_json(
        self,
        workload: &str,
        seed: u64,
        seconds: u64,
        checkpoint_bytes: u64,
    ) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"digest\": \"{:016x}\", \"records\": {}, \"units_closed\": {}, \"alarms\": {}, \
             \"late_amendments\": {}, \"late_dropped\": {}, \"alarm_revisions\": {}, \
             \"checkpoint_bytes\": {checkpoint_bytes}}}",
            self.digest,
            self.records,
            self.units_closed,
            self.alarms,
            self.late_amendments,
            self.late_dropped,
            self.alarm_revisions
        )
    }
}

/// The values recorded in `expected.json` for one `(workload, seed,
/// seconds)`, if that combination was recorded. Runs on other seeds are
/// checked against the replay only.
pub fn expected(workload: &str, seed: u64, seconds: u64) -> Option<(Fingerprint, u64)> {
    let doc = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).map(|n| n as u64);
    doc.get("entries")?.as_arr().iter().find_map(|e| {
        let same = e.get("workload").and_then(Json::as_str) == Some(workload)
            && num(e, "seed") == Some(seed)
            && num(e, "seconds") == Some(seconds);
        if !same {
            return None;
        }
        let digest = u64::from_str_radix(e.get("digest")?.as_str()?, 16).ok()?;
        Some((
            Fingerprint {
                digest,
                records: num(e, "records")?,
                units_closed: num(e, "units_closed")?,
                alarms: num(e, "alarms")?,
                late_amendments: num(e, "late_amendments")?,
                late_dropped: num(e, "late_dropped")?,
                alarm_revisions: num(e, "alarm_revisions")?,
            },
            num(e, "checkpoint_bytes")?,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprints_report_each_differing_field() {
        let a = Fingerprint {
            digest: 1,
            records: 10,
            ..Fingerprint::default()
        };
        let mut b = a;
        assert!(a.mismatches(&b, "replay").is_empty());
        b.records = 11;
        b.alarm_revisions = 2;
        assert_eq!(a.mismatches(&b, "replay").len(), 2);
    }

    #[test]
    fn expected_entries_round_trip() {
        let fp = Fingerprint {
            digest: 0xdead_beef,
            records: 5,
            units_closed: 4,
            alarms: 3,
            late_amendments: 2,
            late_dropped: 1,
            alarm_revisions: 7,
        };
        let doc = Json::parse(&fp.entry_json("w", 9, 10, 123)).unwrap();
        assert_eq!(
            doc.get("digest").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            doc.get("checkpoint_bytes").and_then(Json::as_f64),
            Some(123.0)
        );
        // Every recorded entry names a workload that exists, and every
        // workload is recorded for the default and the held-out seed.
        let recorded = Json::parse(include_str!("../expected.json")).unwrap();
        for e in recorded.get("entries").unwrap().as_arr() {
            let name = e.get("workload").and_then(Json::as_str).unwrap();
            assert!(crate::workloads::by_name(name).is_some(), "{name}");
        }
        use crate::workloads::{all, DEFAULT_SECONDS, DEFAULT_SEED, HELD_OUT_SEED};
        for spec in all() {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(
                    expected(spec.name, seed, DEFAULT_SECONDS).is_some(),
                    "{} seed {seed}",
                    spec.name
                );
            }
        }
    }
}
