//! Host-time spans around the calls the benchmark makes into each layer.
//!
//! A [`Spans`] recorder is either off (the timed runs: `enter`/`exit` do
//! nothing) or on (the traced run: every span is kept in memory with its
//! name, start, end and parent, and written out when the run ends).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, e.g. `"netloop.run"`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Handle returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Count, total and self time (total minus child spans) of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus time covered by child spans, ns.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`enter`](Self::enter).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            self.spans[idx as usize].end = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let d = s.end - s.start;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index parent name start_ns end_ns` (parent `-` for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# index\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => write!(w, "{i}\t{p}")?,
                None => write!(w, "{i}\t-")?,
            }
            writeln!(w, "\t{}\t{}\t{}", s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::off();
        let o = s.enter("a");
        s.exit(o);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::on();
        let a = s.enter("outer");
        let b = s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(b);
        s.exit(a);
        let t = s.totals();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(s.spans()[1].parent, Some(0));
    }
}
