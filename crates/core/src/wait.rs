//! Wait strategies for the blocking `get_read` / `get_write` operations.
//!
//! The protocol's `get_*` routines "may require … potentially waiting for
//! other threads" (§3.4). *How* to wait is an execution-model knob with a
//! real performance trade-off, so it is configurable and benchmarked
//! (`bench/ablation`):
//!
//! * [`WaitStrategy::Spin`] — busy-poll with `spin_loop` hints. Lowest
//!   wake-up latency; burns a hardware thread while waiting. Only sensible
//!   when workers ≤ cores and waits are short.
//! * [`WaitStrategy::SpinYield`] — spin for the spin budget, then
//!   `yield_now` between polls. Keeps latency low while letting the OS
//!   run somebody else; a good default on oversubscribed machines.
//! * [`WaitStrategy::Park`] — spin for the spin budget, then park on an
//!   address-keyed bucket derived from the data object's epoch word (the
//!   paper's prototype "uses mutexes for synchronization"; ours hides
//!   them in a process-wide parking table so the per-data state stays
//!   one cache line). Zero CPU while blocked, which also makes idle time directly
//!   observable from CPU-time accounting, exactly like the paper's
//!   measurement methodology (§5.1).
//!
//! Every strategy starts with the same pure-spin phase, bounded in *time*
//! ([`WaitPolicy::spin`], default [`WaitStrategy::DEFAULT_SPIN`]) rather
//! than in polls: a `PAUSE` costs ~3 ns on older x86 cores and 20–45 ns
//! on newer ones, so a poll count only means something on the host it
//! was tuned on (`DESIGN.md`, "Spin budget").

use std::time::Duration;

use crate::config::RioConfig;
use crate::protocol::{AbortFlag, WaitCx};

/// How a worker waits inside `get_read` / `get_write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitStrategy {
    /// Pure busy-wait.
    Spin,
    /// Busy-wait with `std::thread::yield_now` between polls after the
    /// pure-spin phase.
    SpinYield,
    /// Spin phase, then park on the data object's address-keyed bucket
    /// until a `terminate_*` (or an abort broadcast) wakes us.
    Park,
}

impl WaitStrategy {
    /// Default pure-spin time before escalating (yield or park): about
    /// one measured park round trip, so a wait spins as long as blocking
    /// would cost — the spin-then-block rule, never worse than twice the
    /// optimal wait. Override per run with [`crate::RioConfig::spin`] or
    /// per wait with [`crate::protocol::WaitCx::spin`].
    pub const DEFAULT_SPIN: Duration = Duration::from_micros(10);
}

impl Default for WaitStrategy {
    /// [`WaitStrategy::Park`]: the paper's choice, and the only strategy
    /// that stays live when workers outnumber hardware threads.
    fn default() -> Self {
        WaitStrategy::Park
    }
}

impl std::fmt::Display for WaitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WaitStrategy::Spin => "spin",
            WaitStrategy::SpinYield => "spin-yield",
            WaitStrategy::Park => "park",
        })
    }
}

/// Per-object wait policy: how waits (and the matching `terminate_*`
/// publishes) on *one data object* behave, overriding the run-wide
/// [`crate::RioConfig::wait`]/[`crate::RioConfig::spin`] pair.
///
/// A table of these — one entry per [`rio_stf::DataId`], installed with
/// [`crate::RioConfig::wait_policies`] — lets the tuner
/// ([`crate::tune`]) treat objects differently: *hot* objects whose
/// waits resolve inside the spin phase spin with a raised budget (their
/// waiters never park, so their terminates skip the waiter check and the
/// wake entirely), while *cold* objects keep parking.
///
/// Safety of mixing: the table lives in the shared config, so **every**
/// worker applies the same policy to a given object. An object whose
/// policy never parks therefore never has a parked waiter, which is
/// exactly the condition under which its `terminate_*` may use the
/// cheaper non-waking publish (see `DESIGN.md` §10/§12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaitPolicy {
    /// How waiters on this object wait past the spin phase.
    pub strategy: WaitStrategy,
    /// Pure-spin time before escalating to `strategy`.
    pub spin: Duration,
}

impl WaitPolicy {
    /// A policy with the given strategy and spin budget.
    pub fn new(strategy: WaitStrategy, spin: Duration) -> WaitPolicy {
        WaitPolicy { strategy, spin }
    }

    /// The *hot* policy: spin for up to `spin`, then yield
    /// between polls — never park. [`WaitStrategy::SpinYield`] rather
    /// than pure [`WaitStrategy::Spin`] so an unexpectedly long wait on
    /// an oversubscribed machine degrades to yielding instead of
    /// monopolizing a hardware thread.
    pub fn hot(spin: Duration) -> WaitPolicy {
        WaitPolicy::new(WaitStrategy::SpinYield, spin)
    }

    /// The *cold* policy: park after the default spin phase.
    pub fn cold() -> WaitPolicy {
        WaitPolicy::new(WaitStrategy::Park, WaitStrategy::DEFAULT_SPIN)
    }
}

impl Default for WaitPolicy {
    /// Matches [`RioConfig`](crate::RioConfig)'s defaults: park after
    /// [`WaitStrategy::DEFAULT_SPIN`].
    fn default() -> Self {
        WaitPolicy::cold()
    }
}

impl std::fmt::Display for WaitPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{:?}", self.strategy, self.spin)
    }
}

/// The wait policy of every data object of one run: the per-object
/// entry of [`RioConfig::wait_policies`] where the table names one, the
/// run-wide [`RioConfig::wait`]/[`RioConfig::spin`] pair otherwise.
///
/// Every engine asks this one plan on both sides of the protocol: the
/// wait side ([`WaitPlan::cx`]) and the terminate side
/// ([`WaitPlan::strategy`]), so a terminate that elides the wake for an
/// object whose waiters never park always agrees with those waiters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitPlan<'a> {
    run: WaitPolicy,
    table: &'a [WaitPolicy],
}

impl<'a> WaitPlan<'a> {
    pub(crate) fn of(cfg: &'a RioConfig) -> WaitPlan<'a> {
        WaitPlan {
            run: WaitPolicy::new(cfg.wait, cfg.spin),
            table: cfg.wait_policies.as_deref().unwrap_or(&[]),
        }
    }

    /// The policy governing data object `data`.
    #[inline]
    pub(crate) fn policy(&self, data: usize) -> WaitPolicy {
        self.table.get(data).copied().unwrap_or(self.run)
    }

    /// The strategy waiters on `data` use, which its terminates must
    /// assume.
    #[inline]
    pub(crate) fn strategy(&self, data: usize) -> WaitStrategy {
        self.policy(data).strategy
    }

    /// The wait context for a get on `data`.
    #[inline]
    pub(crate) fn cx<'b>(
        &self,
        data: usize,
        deadline: Option<Duration>,
        abort: &'b AbortFlag,
    ) -> WaitCx<'b> {
        let p = self.policy(data);
        WaitCx {
            strategy: p.strategy,
            spin: p.spin,
            deadline,
            abort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_park() {
        assert_eq!(WaitStrategy::default(), WaitStrategy::Park);
    }

    #[test]
    fn display_labels() {
        assert_eq!(WaitStrategy::Spin.to_string(), "spin");
        assert_eq!(WaitStrategy::SpinYield.to_string(), "spin-yield");
        assert_eq!(WaitStrategy::Park.to_string(), "park");
    }

    #[test]
    fn policy_constructors_and_default() {
        let hot = WaitPolicy::hot(Duration::from_micros(40));
        assert_eq!(hot.strategy, WaitStrategy::SpinYield);
        assert_eq!(hot.spin, Duration::from_micros(40));
        let cold = WaitPolicy::cold();
        assert_eq!(cold.strategy, WaitStrategy::Park);
        assert_eq!(cold.spin, WaitStrategy::DEFAULT_SPIN);
        assert_eq!(WaitPolicy::default(), cold);
        assert_eq!(hot.to_string(), "spin-yield/40µs");
    }

    #[test]
    fn plan_prefers_the_table_and_falls_back_to_the_run_pair() {
        let cfg = RioConfig::with_workers(1)
            .wait(WaitStrategy::Spin)
            .spin(Duration::ZERO)
            .wait_policies(vec![WaitPolicy::cold()]);
        let plan = WaitPlan::of(&cfg);
        assert_eq!(plan.policy(0), WaitPolicy::cold());
        assert_eq!(plan.strategy(1), WaitStrategy::Spin);
        let flag = AbortFlag::new();
        let cx = plan.cx(1, Some(Duration::from_secs(1)), &flag);
        assert_eq!((cx.strategy, cx.spin), (WaitStrategy::Spin, Duration::ZERO));
        assert_eq!(cx.deadline, Some(Duration::from_secs(1)));
        let untabled = RioConfig::with_workers(1);
        assert_eq!(WaitPlan::of(&untabled).policy(7), WaitPolicy::default());
    }
}
