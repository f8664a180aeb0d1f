//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in a [`span`]
//! guard. With recording off (the end-to-end runs) a guard costs one
//! thread-local flag check; with it on, each span keeps its name, its
//! parent (the span open around it) and its wall-clock interval. Nothing
//! is written until the run ends, when [`take`] hands the spans to the
//! report.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover, so the self times of all spans under a root
//! add up to the root's duration: every second of the traced run lands in
//! exactly one span.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span. Times are seconds since recording was enabled.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl SpanRec {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`
    /// (`spmv.fillcomplete` is in layer `spmv`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Starts recording on this thread.
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.origin = Instant::now();
    });
}

/// Stops recording and returns every span recorded since [`enable`].
///
/// # Panics
/// Panics if a span is still open.
pub fn take() -> Vec<SpanRec> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "span still open at take()");
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// Guard for one open span; the span closes when the guard drops.
#[must_use = "the span closes when this guard drops"]
pub struct Span(Option<usize>);

/// Opens a span named `name` (`layer.what`) under the innermost open span.
pub fn span(name: &'static str) -> Span {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Span(None);
        }
        let t = r.origin.elapsed().as_secs_f64();
        let id = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(SpanRec {
            name,
            parent,
            start: t,
            end: t,
        });
        r.open.push(id);
        Span(Some(id))
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let t = r.origin.elapsed().as_secs_f64();
            r.spans[id].end = t;
            // Guards drop in reverse order of creation on one thread.
            if r.open.last() == Some(&id) {
                r.open.pop();
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _s = span(name);
    f()
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> SpanRec {
        SpanRec {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let spans = vec![
            rec("bench.run", None, 0.0, 10.0),
            rec("partition.layout", Some(0), 1.0, 6.0),
            rec("spmv.spmv100", Some(0), 6.0, 8.0),
            rec("eigen.apply", Some(2), 6.5, 7.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![3.0, 5.0, 1.5, 0.5]);
        assert!((st.iter().sum::<f64>() - spans[0].dur()).abs() < 1e-12);
        assert_eq!(spans[1].layer(), "partition");
    }

    #[test]
    fn recorder_nests_and_is_free_when_off() {
        drop(span("off.ignored"));
        enable();
        {
            let _outer = span("a.outer");
            timed("b.inner", || ());
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
