//! Cheap per-task time accounting for [`crate::RioConfig::measure_time`].
//!
//! `measure_time` is on by default, so the clocks it reads run around every
//! task body of every run. An `Instant::now` pair costs several times a
//! fine-grained body, so untraced runs time bodies on the raw tick counter
//! instead ([`ticks`]: `rdtsc` on x86_64) and convert once, when the worker
//! finishes, scaled by the worker's own loop:
//!
//! ```text
//! task_ns = task_ticks × loop_ns / loop_ticks
//! ```
//!
//! Both ends of the loop are read on both clocks ([`LoopClock`]), so the
//! conversion needs no calibration. It assumes the tick rate is constant
//! over the loop, which an invariant TSC (`constant_tsc`, `nonstop_tsc`)
//! guarantees; without one the result is clamped so that
//! `task_time + idle_time ≤ loop_time` ([`TaskClock::finish`]), which
//! bounds the damage.
//!
//! Traced and span-recording runs keep their `Instant` stamps: they need
//! absolute times on the run's shared epoch, not just durations. Real
//! waits, which are rare, keep `Instant` as well.

use std::time::{Duration, Instant};

/// The current value of the tick counter: the time-stamp counter on
/// x86_64, nanoseconds since the first call elsewhere. Only differences
/// of two readings on one thread mean anything.
#[inline]
pub(crate) fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` exists on every x86_64 CPU; it reads the
        // time-stamp counter and touches no memory.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// `task_ticks` as a duration, at the rate of a loop that took
/// `loop_ticks` ticks and `loop_time` of wall time. Zero when the loop
/// took no ticks; never more than `loop_time`.
pub(crate) fn ticks_to_duration(task_ticks: u64, loop_ticks: u64, loop_time: Duration) -> Duration {
    if loop_ticks == 0 {
        return Duration::ZERO;
    }
    let loop_ns = loop_time.as_nanos();
    let ns = (u128::from(task_ticks) * loop_ns / u128::from(loop_ticks)).min(loop_ns);
    Duration::from_nanos(ns as u64)
}

/// The start of one worker's loop, on both clocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopClock {
    start: Instant,
    ticks: u64,
}

/// One worker's whole loop: its wall time and its length in ticks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopSpan {
    pub time: Duration,
    ticks: u64,
}

impl LoopClock {
    pub(crate) fn start() -> LoopClock {
        let ticks = ticks();
        LoopClock {
            start: Instant::now(),
            ticks,
        }
    }

    /// Ends the loop. The tick interval encloses the wall interval, so
    /// the scale it gives errs on the side of less task time.
    pub(crate) fn stop(&self) -> LoopSpan {
        let time = self.start.elapsed();
        LoopSpan {
            time,
            ticks: ticks().saturating_sub(self.ticks),
        }
    }
}

/// The start stamp of one task body, in whichever clock its worker uses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stamp {
    Off,
    Ticks(u64),
    At(Instant),
}

/// One worker's body-time accumulator.
///
/// A body is bracketed by [`TaskClock::start`] and [`TaskClock::stop`]:
/// no clock at all without `measure_time`, trace or span recording; an
/// `Instant` pair when the run is traced or records spans; the tick
/// counter otherwise.
#[derive(Debug)]
pub(crate) struct TaskClock {
    /// Body time counts toward `task_time` (`measure_time`).
    measure: bool,
    /// Bodies take `Instant` stamps (trace or span recording on).
    stamped: bool,
    /// Body time taken on `Instant`: stamped bodies and retried attempts.
    time: Duration,
    /// Body time taken on the tick counter.
    ticks: u64,
    /// Failed first attempts of retried bodies, taken on the tick counter;
    /// they belong to the run's `retry_time`, not to `task_time`.
    failed_ticks: u64,
}

impl TaskClock {
    pub(crate) fn new(measure: bool, stamped: bool) -> TaskClock {
        TaskClock {
            measure,
            stamped,
            time: Duration::ZERO,
            ticks: 0,
            failed_ticks: 0,
        }
    }

    /// Stamps the start of a body.
    #[inline]
    pub(crate) fn start(&self) -> Stamp {
        if self.stamped {
            Stamp::At(Instant::now())
        } else if self.measure {
            Stamp::Ticks(ticks())
        } else {
            Stamp::Off
        }
    }

    /// Ends the body begun at `s` and counts its time. Returns the body's
    /// `Instant` span when it was stamped, for the trace and the span log.
    #[inline]
    pub(crate) fn stop(&mut self, s: Stamp) -> Option<(Instant, Instant)> {
        match s {
            Stamp::Off => None,
            Stamp::Ticks(t0) => {
                self.ticks += ticks().saturating_sub(t0);
                None
            }
            Stamp::At(t0) => {
                let t1 = Instant::now();
                self.add_span(t0, t1);
                Some((t0, t1))
            }
        }
    }

    /// Counts a body timed on `Instant` elsewhere (a successful retry).
    pub(crate) fn add_span(&mut self, t0: Instant, t1: Instant) {
        if self.measure {
            self.time += t1.duration_since(t0);
        }
    }

    /// Ends a body begun at `s` that failed: its time is retry time, not
    /// task time. Returns the nanoseconds known now; a tick-timed failure
    /// is only converted at [`TaskClock::finish`].
    pub(crate) fn stop_failed(&mut self, s: Stamp) -> u64 {
        match s {
            Stamp::Off => 0,
            Stamp::Ticks(t0) => {
                self.failed_ticks += ticks().saturating_sub(t0);
                0
            }
            Stamp::At(t0) => t0.elapsed().as_nanos() as u64,
        }
    }

    /// The worker's `task_time` and the retry time of its tick-timed
    /// failures, given its loop and its `idle_time`. The task time is
    /// clamped so that `task_time + idle_time ≤ loop_time`.
    pub(crate) fn finish(&self, lp: LoopSpan, idle: Duration) -> (Duration, Duration) {
        let scale = |t| ticks_to_duration(t, lp.ticks, lp.time);
        let task = (self.time + scale(self.ticks)).min(lp.time.saturating_sub(idle));
        (task, scale(self.failed_ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn zero_loop_ticks_convert_to_zero() {
        assert_eq!(ticks_to_duration(0, 0, MS), Duration::ZERO);
        assert_eq!(ticks_to_duration(1_000, 0, MS), Duration::ZERO);
    }

    #[test]
    fn ticks_scale_by_the_loop_rate() {
        // 3 ticks per nanosecond over a 1 ms loop.
        assert_eq!(
            ticks_to_duration(300, 3_000_000, MS),
            Duration::from_nanos(100)
        );
        assert_eq!(ticks_to_duration(0, 3_000_000, MS), Duration::ZERO);
    }

    #[test]
    fn more_ticks_than_the_loop_are_clamped_to_it() {
        assert_eq!(ticks_to_duration(5_000, 1_000, MS), MS);
        assert_eq!(ticks_to_duration(u64::MAX, 1, MS), MS);
    }

    #[test]
    fn an_end_before_its_start_counts_nothing() {
        let mut c = TaskClock::new(true, false);
        assert_eq!(c.stop(Stamp::Ticks(u64::MAX)), None);
        assert_eq!(c.ticks, 0);
        assert_eq!(c.stop_failed(Stamp::Ticks(u64::MAX)), 0);
        assert_eq!(c.failed_ticks, 0);
        let lp = LoopClock {
            start: Instant::now(),
            ticks: u64::MAX,
        }
        .stop();
        assert_eq!(lp.ticks, 0);
    }

    #[test]
    fn task_time_never_exceeds_the_loop_minus_idle() {
        let mut c = TaskClock::new(true, false);
        c.ticks = 900;
        let lp = LoopSpan {
            time: MS,
            ticks: 1_000,
        };
        let idle = Duration::from_micros(400);
        assert_eq!(c.finish(lp, Duration::ZERO).0, Duration::from_micros(900));
        assert_eq!(c.finish(lp, idle).0, MS - idle);
        assert_eq!(c.finish(lp, 2 * MS).0, Duration::ZERO);
    }

    #[test]
    fn without_measure_time_nothing_is_timed() {
        let mut c = TaskClock::new(false, false);
        assert!(matches!(c.start(), Stamp::Off));
        let t0 = Instant::now();
        c.add_span(t0, t0 + MS);
        let lp = LoopSpan {
            time: MS,
            ticks: 1_000,
        };
        assert_eq!(
            c.finish(lp, Duration::ZERO),
            (Duration::ZERO, Duration::ZERO)
        );
    }

    #[test]
    fn stamped_bodies_keep_their_instant_span() {
        let mut c = TaskClock::new(true, true);
        let s = c.start();
        assert!(matches!(s, Stamp::At(_)));
        let (t0, t1) = c.stop(s).expect("stamped");
        assert_eq!(c.time, t1 - t0);
        assert_eq!(c.ticks, 0);
    }

    #[test]
    fn tick_timed_bodies_convert_at_finish() {
        let lc = LoopClock::start();
        let mut c = TaskClock::new(true, false);
        let s = c.start();
        std::thread::sleep(2 * MS);
        assert_eq!(c.stop(s), None);
        let lp = lc.stop();
        let (task, retry) = c.finish(lp, Duration::ZERO);
        assert!(task >= 2 * MS, "{task:?}");
        assert!(task <= lp.time);
        assert_eq!(retry, Duration::ZERO);
    }
}
