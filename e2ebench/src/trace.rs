//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the public
//! calls into each layer. Nothing is written until [`Tracer::write`] at
//! the end of the run, so the recorder costs two clock reads and a push
//! per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Item or request id shared by every span of one operation.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder with a stack for nesting.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing: the untraced run takes the same
    /// code path at the cost of one branch per span.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds of `t` since the origin.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let parent = self.stack.last().copied();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        let i = self.spans.len() - 1;
        self.stack.push(i);
        Open(i)
    }

    /// Close `s`, which must be the innermost open span.
    pub fn close(&mut self, s: Open) {
        if !self.on {
            return;
        }
        let end = self.ns(Instant::now());
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(s.0), "spans close innermost-first");
        self.spans[s.0].end_ns = end;
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, id);
        let out = f();
        self.close(s);
        out
    }

    /// Record an interval measured elsewhere (e.g. a request's stages
    /// after the run) under an explicit parent; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name `(inclusive ms, self ms, count)`. A span's self time is
    /// its duration minus the durations of its direct children, which
    /// never overlap each other.
    pub fn by_name(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        self.by_name_where(|_| true)
    }

    /// [`Tracer::by_name`] over the spans nested, at any depth, in a span
    /// named `ancestor`.
    pub fn by_name_within(&self, ancestor: &str) -> BTreeMap<&'static str, (f64, f64, u64)> {
        self.by_name_where(|mut i| {
            while let Some(p) = self.spans[i].parent {
                if self.spans[p].name == ancestor {
                    return true;
                }
                i = p;
            }
            false
        })
    }

    fn by_name_where(
        &self,
        keep: impl Fn(usize) -> bool,
    ) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(i) {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns() as f64 / 1e6;
            e.1 += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            e.2 += 1;
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut buf = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                buf,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(buf.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("root", 1);
        t.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.close(root);
        let agg = t.by_name();
        let (root_incl, root_self, _) = agg["root"];
        let (child_incl, child_self, n) = agg["child"];
        assert_eq!(n, 1);
        assert_eq!(child_incl, child_self);
        assert!(child_incl >= 3.0);
        assert!((root_incl - root_self - child_incl).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn within_keeps_only_descendants() {
        let mut t = Tracer::new();
        t.time("leaf", 1, || ());
        let a = t.open("a", 1);
        let mid = t.open("mid", 1);
        t.time("leaf", 1, || ());
        t.close(mid);
        t.close(a);
        assert_eq!(t.by_name()["leaf"].2, 2);
        let within = t.by_name_within("a");
        assert_eq!(within["leaf"].2, 1);
        assert_eq!(within["mid"].2, 1);
        assert!(!within.contains_key("a"));
    }
}
