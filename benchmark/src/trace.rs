//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! One generator thread makes every call, so spans nest strictly: the
//! parent of a span is whatever span was open when it began. Spans stay in
//! memory and are written out once, at exit. Spans inside the program
//! under test are a later change (ROADMAP item 1's stage clock).

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::report::json_string;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open, `end_ns == 0`) interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at the root.
    pub parent: u32,
    /// Identifier shared by every span of one op (request id, burst
    /// number, simulated-layer index, replay repeat).
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording; untraced segments run with it off so the same
    /// code path serves both runs.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        // Closing a span closes anything left open inside it.
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one compact row
    /// `[name index, start ns, end ns, parent row or -1, op]`.
    pub fn write_json(&self, workload: &str, out: &mut impl Write) -> io::Result<()> {
        let totals = self.totals();
        let names: Vec<&'static str> = totals.keys().copied().collect();
        write!(
            out,
            "{{\"workload\":{},\"unit\":\"ns\",\"names\":[",
            json_string(workload)
        )?;
        for (i, n) in names.iter().enumerate() {
            write!(out, "{}{}", if i == 0 { "" } else { "," }, json_string(n))?;
        }
        out.write_all(b"],\"self_time\":{")?;
        for (i, (name, t)) in totals.iter().enumerate() {
            write!(
                out,
                "{}{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                json_string(name),
                t.count,
                t.total_ns,
                t.self_ns
            )?;
        }
        out.write_all(
            b"},\"columns\":[\"name\",\"start\",\"end\",\"parent\",\"op\"],\"spans\":[\n",
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).unwrap_or(0);
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}[{name},{},{},{parent},{}]",
                if i == 0 { "" } else { "," },
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        out.write_all(b"]}\n")
    }

    /// Writes the span file, creating its directory.
    pub fn write_file(&self, workload: &str, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        self.write_json(workload, &mut out)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.begin("a", 1);
        t.end(id);
        assert_eq!(t.span("b", 2, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let outer = t.begin("outer", 7);
        for i in 0..3 {
            let inner = t.begin("inner", i);
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.end(inner);
        }
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == 0 && s.name == "inner"));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.count, i.count), (1, 3));
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 6_000_000);
    }

    #[test]
    fn ending_an_outer_span_closes_what_it_contains() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let outer = t.begin("outer", 0);
        let _leaked = t.begin("inner", 0);
        t.end(outer);
        assert!(t.spans().iter().all(|s| s.end_ns > 0));
        assert_eq!(t.begin("next", 0).0, Some(2));
        assert_eq!(t.spans()[2].parent, NO_PARENT);
    }

    #[test]
    fn json_rows_index_the_name_table() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.span("zeta", 3, || ());
        let outer = t.begin("alpha", 4);
        t.span("zeta", 4, || ());
        t.end(outer);
        let mut buf = Vec::new();
        t.write_json("serve_f32", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(
            "{\"workload\":\"serve_f32\",\"unit\":\"ns\",\"names\":[\"alpha\",\"zeta\"]"
        ));
        assert!(text.contains("\"alpha\":{\"count\":1,"));
        assert!(text.contains("\"zeta\":{\"count\":2,"));
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start_matches(',').starts_with('['))
            .collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("[1,") && rows[0].ends_with(",-1,3]"));
        assert!(rows[1].starts_with(",[0,") && rows[1].ends_with(",-1,4]"));
        assert!(rows[2].starts_with(",[1,") && rows[2].ends_with(",1,4]"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
