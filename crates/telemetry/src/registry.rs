//! Per-run metric tables.
//!
//! A [`Snapshot`] is a plain sorted table each component fills from its
//! own counters at harvest time (see `NetLoop::metrics_snapshot` in the
//! `ioctopus` crate). It carries the per-run story that must not be
//! smeared across sweep threads.
//!
//! Determinism: snapshots render in sorted label order. Nothing depends
//! on hash order, pointer values, or wallclock.

/// A per-run metric table: `(label, value)` rows a harvest pass fills
/// from component counters, rendered in sorted label order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    rows: Vec<(&'static str, u64)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot { rows: Vec::new() }
    }

    /// Appends one row.
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.rows.push((name, value));
    }

    /// Sorts rows by label (harvest order becomes irrelevant).
    pub fn sort(&mut self) {
        self.rows.sort_by(|a, b| a.0.cmp(b.0));
    }

    /// The rows, in their current order.
    pub fn rows(&self) -> &[(&'static str, u64)] {
        &self.rows
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Renders `label value` lines (sorted beforehand by convention).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (n, v) in &self.rows {
            out.push_str(n);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_sorted() {
        let mut s = Snapshot::new();
        s.push("z.last", 2);
        s.push("a.first", 1);
        s.sort();
        assert_eq!(s.render(), "a.first 1\nz.last 2\n");
        assert_eq!(s.get("z.last"), Some(2));
    }
}
