//! An in-memory span recorder for the traced run, written out as JSON
//! when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (index in the recorder).
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Spans of one item (or one layer probe) share a trace id.
    pub trace: usize,
    /// What ran.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// Collects spans in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its id. A span without a
    /// parent starts a new trace.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let trace = parent.map_or(id, |p| self.spans[p].trace);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, trace, name: name.into(), start_ns, end_ns });
        id
    }

    /// Records one item of a pass: caused by `parent`, but the start of a
    /// trace of its own.
    pub fn record_item(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.record(name, parent, start, end);
        self.spans[id].trace = id;
        id
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Self time of a span: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns.min(s.end_ns).saturating_sub(c.start_ns.max(s.start_ns)))
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Writes `{"header": {...}, "attribution": {...}, "spans": [...]}`.
    pub fn write_json(
        &self,
        path: &Path,
        header: &[(&str, String)],
        attribution: &[(String, f64)],
    ) -> std::io::Result<()> {
        let mut out = String::from("{\n  \"header\": {");
        let fields: Vec<String> =
            header.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", crate::json_escape(v))).collect();
        out.push_str(&fields.join(", "));
        out.push_str("},\n  \"attribution\": {");
        let shares: Vec<String> =
            attribution.iter().map(|(k, v)| format!("\"{k}\": {}", finite(*v))).collect();
        out.push_str(&shares.join(", "));
        out.push_str("},\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.id,
                s.trace,
                crate::json_escape(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        let t0 = r.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = r.record("item", None, at(0), at(10));
        let child = r.record("layer", Some(root), at(2), at(5));
        let other = r.record("next", None, at(10), at(11));
        assert_eq!(r.self_ns(root), 7_000_000);
        assert_eq!(r.self_ns(child), 3_000_000);
        assert_eq!(r.spans[child].trace, root);
        assert_eq!(r.spans[other].trace, other);
        let item = r.record_item("item", Some(root), at(11), at(12));
        assert_eq!((r.spans[item].parent, r.spans[item].trace), (Some(root), item));
        // A child outside its parent's interval covers none of it.
        assert_eq!(r.self_ns(root), 10_000_000 - 3_000_000);
        let early = r.record("late-parent", None, at(20), at(30));
        r.record("early-child", Some(early), at(5), at(6));
        assert_eq!(r.self_ns(early), 10_000_000);
    }
}
