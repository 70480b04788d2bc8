//! In-memory spans for the traced run, recorded from the benchmark's
//! own files around the calls into each layer (spans inside the program
//! are a later change). One span per (tenant, tick batch) or (tenant,
//! unit), never per record; written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// `tenant` value of a span that belongs to no single tenant.
pub const NO_TENANT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub tenant: u32,
    pub unit: i64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(n),
        }
    }

    /// Records a finished span and returns its index, for children to
    /// name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        tenant: u32,
        unit: i64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            tenant,
            unit,
        });
        self.spans.len() - 1
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(line, "{p}");
                }
                None => line.push_str("null"),
            }
            line.push_str(", \"tenant\": ");
            if s.tenant == NO_TENANT {
                line.push_str("null");
            } else {
                let _ = write!(line, "{}", s.tenant);
            }
            let _ = write!(line, ", \"unit\": {}}}", s.unit);
            if i + 1 < self.spans.len() {
                line.push(',');
            }
            writeln!(out, "{line}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children, summed by name. Signed, because the children of
/// a replayed span come from a different replay than their parent and
/// may add up to slightly more than it; the table reports such a
/// remainder instead of hiding it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, i128> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, i128> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_sum) {
        *out.entry(s.name).or_insert(0) += s.duration_ns() as i128 - *children as i128;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::default();
        // root [0,100) ─ a [10,50) ─ c [20,30)
        //              └ b [60,90)
        let root = t.record("root", 0, 100, None, NO_TENANT, 0);
        let a = t.record("a", 10, 50, Some(root), 0, 0);
        t.record("b", 60, 90, Some(root), 1, 0);
        t.record("c", 20, 30, Some(a), 0, 0);
        // A second root of the same name adds to the same row.
        t.record("root", 200, 205, None, NO_TENANT, 1);
        let st = self_times(&t.spans);
        assert_eq!(st["root"], 100 - 40 - 30 + 5);
        assert_eq!(st["a"], 40 - 10);
        assert_eq!(st["b"], 30);
        assert_eq!(st["c"], 10);
        // Self times of a tree sum to its roots' durations.
        assert_eq!(st.values().sum::<i128>(), 105);
    }

    #[test]
    fn children_longer_than_their_parent_leave_a_negative_remainder() {
        let mut t = Tracer::default();
        let p = t.record("parent", 0, 10, None, 0, 0);
        t.record("child", 100, 112, Some(p), 0, 0);
        let st = self_times(&t.spans);
        assert_eq!(st["parent"], -2);
        assert_eq!(st["child"], 12);
    }

    #[test]
    fn span_file_is_valid_json() {
        let mut t = Tracer::default();
        let p = t.record("serve.pump", 5, 9, None, NO_TENANT, 3);
        t.record("stream.snapshot", 6, 8, Some(p), 2, 3);
        let dir = crate::run::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        t.write_json(&path, "test").unwrap();
        let doc = crate::json::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = doc.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(spans[0].get("tenant"), Some(&crate::json::Json::Null));
    }
}
