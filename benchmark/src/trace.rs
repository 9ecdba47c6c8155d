//! The benchmark's own tracer: a span around each call into a layer's public
//! functions, recorded from outside the library.
//!
//! A [`Span`] carries a name (`layer.call`), start and end (nanoseconds from
//! the run's epoch), the span that caused it, and the id of the request it
//! belongs to. Spans stay in memory and are written to
//! `out/trace-<workload>.json` once the run is over. A layer's **self
//! time** is its span's duration minus the part its child spans cover.
//!
//! End-to-end numbers never come from here: they are measured in a run with
//! tracing off, and the traced run reports how far apart the two are.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`]; `None` for roots.
    pub parent: Option<usize>,
    /// The request this span belongs to; children inherit their root's.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. Nesting follows the call structure: a span
/// opened while another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by every thread
    /// of a run so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a root span of request `request`. `f` gets the tracer
    /// back to open child spans.
    pub fn root<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        debug_assert!(self.open.is_empty(), "root span opened inside another span");
        self.enter(name, request, f)
    }

    /// Runs `f` inside a child of the currently open span.
    pub fn child<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let request = self
            .open
            .last()
            .map(|&p| self.spans[p].request)
            .expect("child span opened outside a root span");
        self.enter(name, request, |_| f())
    }

    fn enter<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now();
        let result = f(self);
        self.spans[id].end_ns = self.now();
        self.open.pop();
        result
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: duration minus the
/// summed durations of its direct children. Children of one parent never
/// overlap (one thread opens them in sequence), so the sum is the covered
/// part.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// The trace self-check: every span ends no earlier than it starts, every
/// child lies inside its parent, carries its request id, and does not
/// overlap the sibling before it.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .filter(|_| p < i)
            .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) is not inside its parent {p} ({})",
                s.name, parent.name
            ));
        }
        if s.request != parent.request {
            return Err(format!(
                "span {i} ({}) and its parent disagree on the request id",
                s.name
            ));
        }
        let prev_end = last_child_end.insert(p, s.end_ns).unwrap_or(0);
        if s.start_ns < prev_end {
            return Err(format!(
                "span {i} ({}) overlaps its previous sibling",
                s.name
            ));
        }
    }
    Ok(())
}

/// Groups one nanosecond value per span by span name, in microseconds.
fn grouped_us(
    spans: &[Span],
    ns: impl IntoIterator<Item = u64>,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(ns) {
        by_name.entry(s.name).or_default().push(ns as f64 / 1e3);
    }
    by_name
}

/// Durations (µs) of every span, grouped by name.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    grouped_us(spans, spans.iter().map(Span::duration_ns))
}

/// Self times (µs) of every span, grouped by name.
pub fn self_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    grouped_us(spans, self_times_ns(spans))
}

/// Writes the spans as one JSON document: a header plus one compact row
/// `[name, start_ns, end_ns, parent, request]` per span (`parent` is the
/// row index of the causing span, or -1).
pub fn write_json(path: &Path, header: Json, spans: &[Span]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        file,
        "{{\"header\":{},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"spans\":[",
        header.to_line()
    )?;
    for (i, s) in spans.iter().enumerate() {
        let row = Json::Arr(vec![
            Json::str(s.name),
            Json::Num(s.start_ns as f64),
            Json::Num(s.end_ns as f64),
            Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
            Json::Num(s.request as f64),
        ]);
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(file, "{}{sep}", row.to_line())?;
    }
    writeln!(file, "]}}")?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("engine.execute", 0, 100, None),
            span("index.plan", 5, 65, Some(0)),
            span("exec.scan", 70, 95, Some(0)),
            span("exec.kernel", 72, 90, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 60, 7, 18]);
        let own = self_us(&spans);
        assert_eq!(own["engine.execute"], vec![0.015]);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        check_nesting(&spans).unwrap();
    }

    #[test]
    fn nesting_violations_are_caught() {
        let escaping = vec![span("a", 10, 20, None), span("b", 15, 25, Some(0))];
        assert!(check_nesting(&escaping).is_err());
        let overlapping = vec![
            span("a", 0, 100, None),
            span("b", 10, 50, Some(0)),
            span("c", 40, 60, Some(0)),
        ];
        assert!(check_nesting(&overlapping).is_err());
        let backwards = vec![span("a", 10, 5, None)];
        assert!(check_nesting(&backwards).is_err());
        let mut stranger = vec![span("a", 0, 10, None), span("b", 1, 2, Some(0))];
        stranger[1].request = 8;
        assert!(check_nesting(&stranger).is_err());
        let forward_parent = vec![span("a", 0, 10, Some(1)), span("b", 0, 10, None)];
        assert!(check_nesting(&forward_parent).is_err());
    }

    #[test]
    fn tracer_records_the_call_structure() {
        let mut t = Tracer::new(Instant::now());
        let out = t.root("engine.execute", 3, |t| {
            let a = t.child("index.plan", || 20);
            let b = t.child("exec.scan", || 22);
            a + b
        });
        assert_eq!(out, 42);
        t.root("engine.execute", 4, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].request, 3);
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].request, 4);
        check_nesting(spans).unwrap();

        let mut other = Tracer::new(Instant::now());
        other.root("request", 9, |t| t.child("client.query", || ()));
        let mut merged = Tracer::new(Instant::now());
        merged.absorb(t);
        merged.absorb(other);
        assert_eq!(merged.spans()[5].parent, Some(4));
        check_nesting(merged.spans()).unwrap();
    }

    #[test]
    fn trace_file_is_well_formed_json() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let spans = vec![span("a.b", 0, 9, None), span("c.d", 1, 2, Some(0))];
        write_json(&path, Json::obj([("workload", Json::str("w"))]), &spans).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let rows = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].as_array().unwrap()[3].as_f64(), Some(0.0));
        assert_eq!(rows[0].as_array().unwrap()[3].as_f64(), Some(-1.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
