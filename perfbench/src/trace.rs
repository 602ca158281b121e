//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer in a span
//! named `<crate>.<function>`, with its parent span and the item or replay
//! it belongs to. Spans stay in memory and are written out once, when the
//! run ends. A disabled recorder only runs the closures, so untraced runs
//! pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Shortest single span (0 when never called).
    pub min_ns: u64,
}

impl Totals {
    /// Mean duration per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a parent span; spans recorded until the matching
    /// [`close`](Self::close) become its children.
    pub fn open(&mut self, name: &'static str, item: u64) {
        if self.enabled {
            let start_ns = self.now_ns();
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, item });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn close(&mut self) {
        if self.enabled {
            let id = self.open.pop().expect("close matches an open span");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn call<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns, parent, item });
        out
    }

    /// Per-name totals. A span's self time is its duration minus the time
    /// its children cover; children of one parent run one after another,
    /// so they never overlap and their durations add.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.min_ns = if t.count == 0 { s.duration_ns() } else { t.min_ns.min(s.duration_ns()) };
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child);
        }
        out
    }

    pub fn get(&self, name: &str) -> Totals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// The spans as CSV: `id,name,start_ns,end_ns,parent,item`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,name,start_ns,end_ns,parent,item\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ =
                writeln!(out, "{id},{},{},{},{parent},{}", s.name, s.start_ns, s.end_ns, s.item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("a.item", 0);
        t.call("b.leaf", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close();
        let totals = t.totals();
        let item = totals["a.item"];
        let leaf = totals["b.leaf"];
        assert_eq!(item.total_ns - leaf.total_ns, item.self_ns);
        assert_eq!(leaf.self_ns, leaf.total_ns);
        assert!(t.to_csv().lines().nth(2).expect("leaf row").ends_with(",0,0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("a.item", 0);
        assert_eq!(t.call("b.leaf", 0, || 7), 7);
        t.close();
        assert!(t.totals().is_empty());
    }
}
