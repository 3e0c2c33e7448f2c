//! The benchmark's own spans, kept in memory and written out at the end.
//!
//! Spans sit around the calls the benchmark makes into each layer:
//! generate, compile, every execution (one id per execution), every
//! kernel call (a child of its execution), verify and diagnose. Kernel
//! spans are recorded on the worker threads that run the kernels, into
//! one buffer per worker; [`Spans::adopt_kernels`] moves them under
//! their execution once it has returned.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use rio::stf::WorkerId;

use crate::stats;

/// One span. Times are ns since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one (0 for none).
    pub parent: u64,
    pub start: u64,
    pub end: u64,
    /// 0 for the benchmark's main thread, `1 + w` for worker `w`.
    pub thread: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

/// Span recorder of the benchmark's main thread.
pub struct Spans {
    epoch: Instant,
    next_id: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            next_id: Cell::new(1),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Opens a span; it is recorded when passed to [`Spans::close`].
    pub fn open(&self, name: &'static str, parent: u64) -> Span {
        Span {
            name,
            id: self.id(),
            parent,
            start: self.now(),
            end: 0,
            thread: 0,
        }
    }

    pub fn close(&self, mut span: Span) -> Span {
        span.end = self.now();
        self.spans.borrow_mut().push(span);
        span
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn record<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> (R, Span) {
        let span = self.open(name, parent);
        let r = f();
        (r, self.close(span))
    }

    /// A fresh per-worker kernel-span buffer on this recorder's clock.
    pub fn kernels(&self, workers: usize, capacity: usize) -> KernelSpans {
        KernelSpans {
            epoch: self.epoch,
            per_worker: (0..workers)
                .map(|_| Mutex::new(Vec::with_capacity(capacity)))
                .collect(),
        }
    }

    /// Drains `kernels` into children of the execution span `exec` and
    /// returns the execution's self time and the time its kernel spans
    /// cover, in ns. With `keep` false the kernel spans are measured but
    /// not retained.
    pub fn adopt_kernels(&self, exec: &Span, kernels: &KernelSpans, keep: bool) -> (u64, u64) {
        let mut intervals = Vec::new();
        for (w, buf) in kernels.per_worker.iter().enumerate() {
            let mut buf = buf.lock().expect("kernel span buffer poisoned");
            for &(start, end) in buf.iter() {
                intervals.push((start, end));
                if keep {
                    let span = Span {
                        name: "kernel",
                        id: self.id(),
                        parent: exec.id,
                        start,
                        end,
                        thread: w as u32 + 1,
                    };
                    self.spans.borrow_mut().push(span);
                }
            }
            buf.clear();
        }
        (
            stats::self_time(exec.start, exec.end, &intervals),
            stats::covered(&intervals, exec.start, exec.end),
        )
    }

    /// The recorded spans as Chrome-trace JSON (open in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Kernel spans recorded on the worker threads, one buffer per worker so
/// the lock is never contended.
pub struct KernelSpans {
    epoch: Instant,
    per_worker: Vec<Mutex<Vec<(u64, u64)>>>,
}

/// Runs `f` as one kernel call of worker `w`, inside a span when the
/// execution is traced.
#[inline]
pub fn kernel(spans: Option<&KernelSpans>, w: WorkerId, f: impl FnOnce()) {
    let Some(k) = spans else {
        return f();
    };
    let start = k.epoch.elapsed().as_nanos() as u64;
    f();
    let end = k.epoch.elapsed().as_nanos() as u64;
    k.per_worker[w.index()]
        .lock()
        .expect("kernel span buffer poisoned")
        .push((start, end));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_spans_become_children_and_set_self_time() {
        let spans = Spans::new();
        let kernels = spans.kernels(2, 4);
        let ((), exec) = spans.record("execution", 0, || {
            kernel(Some(&kernels), WorkerId(0), || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            kernel(Some(&kernels), WorkerId(1), || {});
        });
        let (self_ns, covered_ns) = spans.adopt_kernels(&exec, &kernels, true);
        assert_eq!(self_ns + covered_ns, exec.ns());
        assert!(covered_ns >= 2_000_000, "the sleeping kernel is covered");
        let all = spans.spans.borrow();
        let children: Vec<_> = all.iter().filter(|s| s.parent == exec.id).collect();
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|s| s.name == "kernel"));
        drop(all);
        assert!(spans.chrome_json().contains("\"name\":\"kernel\""));
    }
}
