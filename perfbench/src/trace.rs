//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, a start and an end on the host clock, the span that
//! caused it, the timed pass it belongs to and the thread it ran on. Spans
//! stay in memory and are written once, at exit, as a `bda-obs/trace/v1`
//! document. A layer's self time is its span minus the part its child
//! spans cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bda_obs::TraceBuilder;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub pass: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a new span hangs: its parent, pass and thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub parent: u64,
    pub pass: u64,
    pub thread: u64,
}

impl Ctx {
    pub fn pass(self, pass: u64) -> Ctx {
        Ctx { pass, ..self }
    }

    pub fn thread(self, thread: u64) -> Ctx {
        Ctx { thread, ..self }
    }
}

/// Span sink shared by the benchmark's threads. When disabled it records
/// nothing but still times each call, so traced and untraced runs measure
/// the same intervals.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. `f` receives the context its
    /// own children hang from. Returns `f`'s result and the span's host
    /// seconds.
    pub fn span<T>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> (T, f64) {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(Ctx { parent: id, ..ctx });
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans
                .lock()
                .expect("a thread panicked while recording a span")
                .push(Span {
                    id,
                    parent: ctx.parent,
                    name,
                    pass: ctx.pass,
                    thread: ctx.thread,
                    start_ns: ns(start),
                    end_ns: ns(end),
                });
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

/// Self time of `span`: its duration minus the part of it that its child
/// spans cover. Children that overlap each other, as the workers of a
/// parallel sweep do, are counted once.
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == span.id && c.id != span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (a, b) in kids {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                covered += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        covered += rb - ra;
    }
    (span.end_ns - span.start_ns) - covered
}

/// Total self time, in seconds, of the spans named `name` that `keep`
/// selects.
pub fn self_s(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| self_ns(s, spans))
        .sum::<u64>() as f64
        * 1e-9
}

/// The spans as a `bda-obs/trace/v1` document: one lane per thread, host
/// microseconds on the time axis, and each span's id, parent, pass and
/// exact nanosecond duration in its args.
pub fn document(title: &str, spans: &[Span]) -> String {
    let mut b = TraceBuilder::new();
    b.process_name(1, title);
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let lane = if t == 0 {
            "main".to_string()
        } else {
            format!("worker {t}")
        };
        b.thread_name(1, t, &lane);
    }
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        b.span(
            1,
            s.thread,
            s.name,
            s.start_ns / 1_000,
            dur / 1_000,
            &[
                ("id", s.id),
                ("parent", s.parent),
                ("pass", s.pass),
                ("dur_ns", dur),
            ],
        );
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            pass: 0,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two workers' children overlap on [30, 40].
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            // Runs past its parent's end: only [90, 100] is inside.
            span(4, 1, 90, 120),
            // A grandchild is its parent's business, not span 1's.
            span(5, 2, 12, 80),
        ];
        assert_eq!(self_ns(&spans[0], &spans), 100 - 50 - 10);
        assert_eq!(self_ns(&spans[1], &spans), 30 - 28);
        assert_eq!(self_ns(&spans[2], &spans), 30);
    }

    #[test]
    fn nested_children_inside_one_another_do_not_double_count() {
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 20, 80), span(3, 1, 30, 50)];
        assert_eq!(self_ns(&spans[0], &spans), 40);
    }

    #[test]
    fn tracer_records_parents_and_the_document_validates() {
        let tracer = Tracer::new(true);
        let ((), outer) = tracer.span("outer", Ctx::default().pass(3), |ctx| {
            tracer.span("inner", ctx.thread(1), |_| std::hint::black_box(7));
        });
        assert!(outer >= 0.0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.pass, inner.thread), (3, 1));
        assert!(self_ns(outer, &spans) <= outer.end_ns - outer.start_ns);
        let doc = document("test", &spans);
        assert_eq!(bda_obs::validate_trace(&doc).unwrap(), 2 + 1 + 2);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (v, secs) = tracer.span("outer", Ctx::default(), |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }
}
