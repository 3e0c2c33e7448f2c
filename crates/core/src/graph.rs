//! Decentralized in-order execution of a *recorded* task graph
//! (Algorithm 1, generalized from one access per task to access lists),
//! and the one engine and the one run shell behind every path.
//!
//! This entry point mirrors how the paper's evaluation runs: the task
//! graphs are real (matmul, LU, …) while the task bodies are supplied as a
//! kernel closure — synthetic counters for the benchmarks, real
//! linear-algebra kernels for the examples.
//!
//! Every worker thread walks the full flow. For each task it evaluates the
//! mapping; if the task is its own it acquires each declared access
//! (`get_read`/`get_write`), runs the kernel, and releases
//! (`terminate_read`/`terminate_write`); otherwise it merely declares the
//! accesses in its private state — the whole per-task cost of somebody
//! else's task.
//!
//! `WorkerCtx` is the only implementation of that cycle and
//! `run_workers` the only place a run spawns its workers: the
//! interpreted, pruned, compiled, hybrid, flow-API and reduction paths
//! differ only in how they walk the flow.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rio_stf::validate::Span;
use rio_stf::{
    Access, DataId, ExecError, FailedTask, FailureDetail, FlightEventKind, Mapping, PartialReport,
    StallDiagnostic, StallSite, TaskDesc, TaskGraph, TaskId, WorkerId,
};

use crate::clock::{LoopClock, TaskClock};
use crate::config::RioConfig;
use crate::counters::{CounterRegistry, WorkerCounters};
use crate::flight::{FlightRecorder, FlightRing};
use crate::hybrid::{PartialMapping, Total};
use crate::protocol::{
    apply_sync, declare_batch, expected_read_word, expected_write_word, get_read_word_cx,
    get_write_word_cx, publish_read, publish_write, terminate_read, terminate_write, unpack_epoch,
    AbortCause, AbortFlag, LocalDataState, RecoveryCtx, SharedDataState, SyncDelta, WaitCx,
    WaitOutcome, WaitResult, WaitVerdict, READ_EPOCH_MASK, WRITE_EPOCH_MASK,
};
use crate::report::{ExecReport, OpCounts, WorkerReport};
use crate::status::StatusTable;
use crate::steal::{ClaimTable, Kernel, ScanSource, StealState, EMPTY_SCAN_LIMIT};
use crate::trace_api::WorkerTracer;
use crate::wait::{WaitPlan, WaitStrategy};

/// Builds the stall diagnostic for a `get_*` whose watchdog deadline
/// expired: the blocked worker, the private-vs-shared counters of the
/// blocked data object, every worker's progress snapshot (with
/// steal/retry deltas since its last tick when `registry` is armed), and
/// the flight-recorder bundle — the last protocol events of every worker
/// leading up to the stall.
#[allow(clippy::too_many_arguments)]
fn stall_diagnostic(
    me: WorkerId,
    task: TaskId,
    access: &Access,
    local: &LocalDataState,
    shared: &SharedDataState,
    waited: Duration,
    status: &StatusTable,
    registry: Option<&CounterRegistry>,
    flight: Option<&FlightRecorder>,
) -> Box<StallDiagnostic> {
    // One coherent load: both shared counters are decoded from the same
    // packed epoch word, so the dump can never pair a new write id with a
    // stale read count.
    let word = shared.epoch_word();
    let (shared_reads, shared_write) = unpack_epoch(word);
    Box::new(StallDiagnostic {
        worker: me,
        waited,
        site: StallSite::DataWait {
            task,
            data: access.data,
            write: access.mode.writes(),
            local_reads_since_write: local.nb_reads_since_write,
            local_last_registered_write: local.last_registered_write,
            shared_reads_since_write: shared_reads,
            shared_last_executed_write: shared_write,
            shared_epoch_word: word,
        },
        workers: status.snapshot_with(registry),
        flight: flight.map(FlightRecorder::dump).unwrap_or_default(),
    })
}

/// What one run shares between its workers, built by [`run_workers`]:
/// the configuration, the shared protocol table, the abort flag, the
/// watchdog's status table, the counters, the flight recorder and the
/// recovery state. Plain references, so every [`WorkerCtx`] holds a copy.
#[derive(Clone, Copy)]
pub(crate) struct RunEnv<'a> {
    pub(crate) cfg: &'a RioConfig,
    pub(crate) shared: &'a [SharedDataState],
    pub(crate) abort: &'a AbortFlag,
    status: &'a StatusTable,
    /// The run's start: the zero of recorded spans and trace stamps.
    epoch: Instant,
    registry: Option<&'a CounterRegistry>,
    flight: Option<&'a FlightRecorder>,
    rec: Option<&'a RecoveryCtx>,
}

impl<'a> RunEnv<'a> {
    /// Worker `me`'s engine for this run. Its loop clock starts now.
    pub(crate) fn worker(&self, me: WorkerId) -> WorkerCtx<'a> {
        WorkerCtx::new(*self, me)
    }
}

/// A joined run: its report, the degraded run's partial report (`None`
/// when it completed cleanly), and what each worker returned besides its
/// report, in worker order.
pub(crate) type Joined<X> = (ExecReport, Option<PartialReport>, Vec<X>);

/// The one run shell. Builds the per-run state ([`RunEnv`]) with a
/// shared table of `table_len` data objects and recovery state over
/// `num_data`, spawns one scoped thread per worker — each binds itself to
/// its node ([`crate::topo::enter_worker`]) and then runs `worker` — and
/// joins them all.
///
/// A contained failure (a body panic without a recovery policy, or a
/// watchdog stall) returns its recorded first cause as the error; the
/// secondary unwinds of the workers that abandoned the flow are dropped.
/// Any other worker panic (a flow closure's own, outside a body) aborts
/// the run too, so no sibling waits forever on the panicking worker's
/// tasks, and propagates once every worker joined.
pub(crate) fn run_workers<X, F>(
    cfg: &RioConfig,
    table_len: usize,
    num_data: usize,
    worker: F,
) -> Result<Joined<X>, ExecError>
where
    X: Send,
    F: Fn(&RunEnv<'_>, WorkerId) -> (WorkerReport, X) + Sync,
{
    cfg.validate();
    let shared = SharedDataState::new_table(table_len);
    let abort = AbortFlag::new();
    let status = StatusTable::new(cfg.workers);
    let registry = CounterRegistry::for_run(cfg);
    let flight = FlightRecorder::for_run(cfg);
    let recovery = cfg.recovery.clone().map(|p| RecoveryCtx::new(p, num_data));
    let env = RunEnv {
        cfg,
        shared: &shared,
        abort: &abort,
        status: &status,
        epoch: Instant::now(),
        registry: registry.as_deref(),
        flight: flight.as_ref(),
        rec: recovery.as_ref(),
    };
    // The first panic to escape a worker outside every contained body (a
    // flow closure's own, say): the run's panic, once every worker joined.
    let escaped = Mutex::new(None);
    let joined: Vec<Option<(WorkerReport, X)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let (env, worker, escaped) = (&env, &worker, &escaped);
                s.spawn(move || {
                    // Bind this thread to its node's parking shard (and
                    // optionally its core) before any protocol traffic.
                    crate::topo::enter_worker(cfg, w);
                    catch_unwind(AssertUnwindSafe(|| worker(env, WorkerId::from_index(w))))
                        .map_err(|p| {
                            // Siblings may wait on this worker's tasks:
                            // abort so they abandon the flow instead of
                            // hanging. Their unwinds come after the armed
                            // flag, so only the first panic is kept.
                            let mut slot = escaped.lock();
                            if slot.is_none() && !env.abort.armed() {
                                *slot = Some(p);
                            }
                            drop(slot);
                            env.abort.arm_and_wake();
                        })
                        .ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().ok().flatten())
            .collect()
    });
    let wall = env.epoch.elapsed();
    if let Some(cause) = abort.take_cause() {
        return Err(cause.into_error());
    }
    if let Some(payload) = escaped.into_inner() {
        std::panic::resume_unwind(payload);
    }
    // Collected in place over `joined`'s buffer: no per-run reallocation.
    let mut extra = Vec::with_capacity(joined.len());
    let workers = joined
        .into_iter()
        .map(|r| {
            let (report, x) = r.expect("a worker panicked without aborting the run");
            extra.push(x);
            report
        })
        .collect();
    let report = ExecReport {
        wall,
        workers,
        counters: registry
            .map(|r| r.snapshot().with_topology(cfg))
            .unwrap_or_default(),
    };
    // Workers joined, so the flight dump is exact: a degraded run's report
    // carries the protocol history that led to every skip and failure.
    let partial = recovery.and_then(RecoveryCtx::into_report).map(|mut p| {
        if let Some(f) = &flight {
            p.flight = f.dump();
        }
        p
    });
    Ok((report, partial, extra))
}

/// Fails a run before any worker spawns when `cfg` arms stealing on a
/// path (named by `path`) that cannot steal: only the interpreted and
/// compiled walks know every task ahead of time and can price a foreign
/// task's guards.
pub(crate) fn reject_stealing(cfg: &RioConfig, path: &'static str) -> Result<(), ExecError> {
    match cfg.stealing {
        Some(_) => Err(ExecError::UnsupportedOption {
            option: "RioConfig::stealing",
            path,
        }),
        None => Ok(()),
    }
}

/// Unwinds a replayed flow closure ([`crate::Rio`], [`crate::redux`])
/// whose engine reported an abort. The run shell drops this secondary
/// unwind and returns the recorded first cause.
#[cold]
pub(crate) fn abandon_flow() -> ! {
    panic!("RIO run aborted: a task body panicked or a wait stalled")
}

/// Executes `graph` with `cfg.workers` decentralized in-order workers:
/// the panicking test shorthand over [`try_execute_graph_impl`] (the
/// production shell is [`crate::Executor::run`]).
///
/// `kernel(worker, task)` is invoked exactly once per task, on the worker
/// the `mapping` designates, only after all of the task's dependencies
/// have been performed; conflicting invocations never overlap.
///
/// # Panics
/// If the mapping designates a worker `>= cfg.workers`, or `cfg` is
/// invalid.
#[cfg(test)]
pub(crate) fn execute_graph_impl<M, K>(
    cfg: &RioConfig,
    graph: &TaskGraph,
    mapping: &M,
    kernel: K,
) -> ExecReport
where
    M: Mapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    try_execute_graph_impl(cfg, graph, mapping, kernel)
        .unwrap_or_else(|e| e.resume())
        .0
}

/// Fallible execution behind [`crate::Executor::try_run`]: instead of
/// panicking, a failed run returns a structured [`ExecError`] — after
/// joining every worker, with no task body started past the abort. With
/// a [`crate::config::RecoveryPolicy`] installed, panics degrade instead
/// of aborting; the second tuple element is the resulting
/// [`PartialReport`] (`None` when the run completed cleanly).
pub(crate) fn try_execute_graph_impl<M, K>(
    cfg: &RioConfig,
    graph: &TaskGraph,
    mapping: &M,
    kernel: K,
) -> Result<(ExecReport, Option<PartialReport>), ExecError>
where
    M: Mapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    if cfg.preflight {
        rio_stf::validate_mapping(mapping, graph.len(), cfg.workers)?;
        // The packed epoch word caps task ids and per-epoch read counts
        // at u32; reject flows the protocol cannot represent.
        graph.validate_limits(u64::from(u32::MAX), u64::from(u32::MAX))?;
    }
    // Bounded stealing (interpreted path): one claim slot per flow entry,
    // the owner of every task (one mapping evaluation, shared by all
    // workers — the thief scan must price tasks it would never map), and
    // the expected epoch word of every access, precomputed by one flow
    // simulation. The simulated private view at task `j` is what *any*
    // worker's view will be at flow position `j` (§3.4 assumption 2), so
    // one shared table prices guards for every thief.
    let steal_pre = cfg.stealing.as_ref().map(|_| {
        let tasks = graph.tasks();
        let mut owners = Vec::with_capacity(tasks.len());
        let mut offsets = Vec::with_capacity(tasks.len() + 1);
        let mut expected = Vec::new();
        let mut sim: Vec<LocalDataState> = vec![LocalDataState::default(); graph.num_data()];
        offsets.push(0u32);
        for t in tasks {
            owners.push(mapping.worker_of(t.id, cfg.workers).index() as u32);
            for a in &t.accesses {
                let l = &sim[a.data.index()];
                expected.push(if a.mode.writes() {
                    expected_write_word(l)
                } else {
                    expected_read_word(l)
                });
            }
            offsets.push(expected.len() as u32);
            declare_batch(&mut sim, t.id, &t.accesses);
        }
        let claims = ClaimTable::new(graph.len());
        let epoch = claims.begin_run();
        let cursors = crate::steal::Cursor::new_table(cfg.workers);
        (owners, offsets, expected, cursors, claims, epoch)
    });
    let (report, partial, _) = run_workers(cfg, graph.num_data(), graph.num_data(), |env, me| {
        let mut ctx = env.worker(me);
        if let (Some(policy), Some((owners, offsets, expected, cursors, claims, epoch))) =
            (cfg.stealing.as_ref(), steal_pre.as_ref())
        {
            ctx.steal = Some(StealState {
                policy,
                claims,
                epoch: *epoch,
                kernel: &kernel,
                scan: ScanSource::Flow {
                    tasks: graph.tasks(),
                    owners,
                    expected,
                    offsets,
                    cursors,
                },
            });
        }
        let report = worker_loop(ctx, graph, &Total(mapping), &kernel, None, None);
        (report, ())
    })?;
    Ok((report, partial))
}

/// One worker's engine: its private protocol state, counters, timers and
/// tracing in one run.
///
/// This is the only task-execution engine. A walker decides which tasks
/// are its worker's — [`worker_loop`] (the interpreted, pruned and hybrid
/// walks), the compiled-program interpreter of [`crate::compile`], the
/// flow API's [`crate::FlowCtx`] and the reduction extension's
/// [`crate::redux::ReduxCtx`] — and the engine runs each one through the
/// paper's cycle in four steps: [`acquire`](WorkerCtx::acquire) every
/// access, run the body (a replayable kernel, or a flow API body that runs
/// at most once), [`complete`](WorkerCtx::complete) the tallies and
/// [`release`](WorkerCtx::release) every access. Every other task is a
/// [`declare`](WorkerCtx::declare). Keeping the cycle, with its fault
/// containment, watchdog and tracing, in one place is what lets every path
/// claim byte-identical protocol semantics.
pub(crate) struct WorkerCtx<'a> {
    pub(crate) env: RunEnv<'a>,
    pub(crate) me: WorkerId,
    /// Every object's wait policy ([`RioConfig::wait_policies`] over the
    /// run-wide pair), for waits and terminates alike.
    pub(crate) plan: WaitPlan<'a>,
    locals: Vec<LocalDataState>,
    pub(crate) ops: OpCounts,
    tasks_executed: u64,
    pub(crate) tasks_visited: u64,
    clock: TaskClock,
    idle_time: Duration,
    spans: Vec<Span>,
    tracer: Option<WorkerTracer>,
    /// Always-on counter line of this worker (`None` when disabled).
    pub(crate) ctr: Option<&'a WorkerCounters>,
    /// This worker's flight-recorder ring (`None` when disabled): the
    /// single-writer event log the hot path appends to.
    ring: Option<&'a FlightRing>,
    /// Steal state shared by every worker of the run (`None` when no
    /// [`crate::steal::StealPolicy`] is installed). Installed by the
    /// interpreted and compiled paths after construction; the other paths
    /// reject the policy up front ([`reject_stealing`]).
    pub(crate) steal: Option<StealState<'a>>,
    measure: bool,
    record: bool,
    wd: bool,
    traced: bool,
    loop_clock: LoopClock,
}

impl<'a> WorkerCtx<'a> {
    fn new(env: RunEnv<'a>, me: WorkerId) -> WorkerCtx<'a> {
        let cfg = env.cfg;
        let tracer = cfg
            .trace
            .as_ref()
            .map(|tc| WorkerTracer::new(tc, me.index() as u32, env.epoch));
        WorkerCtx {
            env,
            me,
            plan: WaitPlan::of(cfg),
            locals: vec![LocalDataState::default(); env.shared.len()],
            ops: OpCounts::default(),
            tasks_executed: 0,
            tasks_visited: 0,
            clock: TaskClock::new(cfg.measure_time, cfg.record_spans || tracer.is_some()),
            idle_time: Duration::ZERO,
            spans: Vec::new(),
            traced: tracer.is_some(),
            tracer,
            ctr: env.registry.map(|r| r.worker(me.index())),
            ring: env.flight.map(|f| f.ring(me.index())),
            steal: None,
            measure: cfg.measure_time,
            record: cfg.record_spans,
            wd: cfg.watchdog.is_some(),
            loop_clock: LoopClock::start(),
        }
    }

    /// Appends one event to this worker's flight ring (no-op with the
    /// recorder disabled). Single-writer: only `self` ever records here.
    #[inline]
    fn flight_event(&self, kind: FlightEventKind, task: TaskId, data: Option<DataId>) {
        if let Some(r) = self.ring {
            r.record(kind, task, data);
        }
    }

    /// Executes one task mapped to this worker through the four steps.
    /// Returns `false` when the run aborted and the worker must abandon
    /// the flow.
    ///
    /// `accesses` equals the task's declared list; it is passed separately
    /// so callers holding an access arena slice avoid touching
    /// `t.accesses`' heap allocation.
    pub(crate) fn exec_task<K>(&mut self, kernel: &K, t: &TaskDesc, accesses: &[Access]) -> bool
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        self.exec_task_inner(kernel, t, accesses, None, accesses.len())
    }

    /// [`WorkerCtx::exec_task`] with the expected epoch words of every
    /// access precomputed (by [`crate::compile`]'s flow simulation):
    /// `pre[i]` is the word access `i` waits for, saving the interpreter's
    /// per-get pack of the private view. Only `accesses[..synced]` go
    /// through the protocol: the rest are worker-private data (no other
    /// worker touches them, see DESIGN.md §9), whose gets would pass at
    /// their first poll and whose terminates nobody reads. Recovery still
    /// sees every access.
    pub(crate) fn exec_task_pre<K>(
        &mut self,
        kernel: &K,
        t: &TaskDesc,
        accesses: &[Access],
        pre: &[u64],
        synced: usize,
    ) -> bool
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        self.exec_task_inner(kernel, t, accesses, Some(pre), synced)
    }

    fn exec_task_inner<K>(
        &mut self,
        kernel: &K,
        t: &TaskDesc,
        accesses: &[Access],
        pre: Option<&[u64]>,
        synced: usize,
    ) -> bool
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        // With stealing armed, the owner must CAS-claim its own task
        // *before* waiting on any guard: a thief only claims tasks whose
        // guards are already satisfied, so deciding by a plain load here
        // would race the claim against the thief's and run the body
        // twice. Losing the CAS means a thief holds the body — the task
        // becomes foreign work: private declares only, no kernel, no
        // terminates (the thief publishes them). See DESIGN.md §14. (A
        // terminate's local effect *is* the declare, so this leaves the
        // owner's private view bit-identical to having run the task.)
        if let Some(st) = self.steal {
            if !st
                .claims
                .try_claim(t.id.index(), st.epoch, self.me.index() as u32)
            {
                self.declare(t.id, accesses);
                self.complete(t.id, false);
                return true;
            }
        }
        let synced = &accesses[..synced];
        if !self.acquire(t.id, synced, pre) {
            return false;
        }
        let Some(ran) = self.run_kernel(kernel, t, accesses) else {
            return false;
        };
        self.complete(t.id, ran);
        self.release(t.id, synced);
        true
    }

    /// [`WorkerCtx::exec_task`] for a flow API body, which runs at most
    /// once: it is an `FnOnce` closure of one replay, not a kernel.
    pub(crate) fn exec_once(
        &mut self,
        id: TaskId,
        accesses: &[Access],
        body: impl FnOnce(),
    ) -> bool {
        if !self.acquire(id, accesses, None) {
            return false;
        }
        let Some(ran) = self.run_once(id, accesses, body) else {
            return false;
        };
        self.complete(id, ran);
        self.release(id, accesses);
        true
    }

    /// Step 1: waits until every access in `accesses` may proceed, in
    /// declaration order. The waits are pure condition polls (no resource
    /// is held), so no acquisition order can deadlock. `pre[i]`, when
    /// given, is the epoch word access `i` waits for, precomputed by
    /// [`crate::compile`]. Returns `false` when the run aborted, before or
    /// during a wait: no body starts once the abort is observed. Always
    /// inlined, like the other steps: they are the per-task hot path, and
    /// a ready get costs one load.
    #[inline(always)]
    pub(crate) fn acquire(&mut self, id: TaskId, accesses: &[Access], pre: Option<&[u64]>) -> bool {
        if self.env.abort.armed() {
            return false;
        }
        for (i, a) in accesses.iter().enumerate() {
            self.ops.gets += 1;
            let data = a.data.index();
            let writes = a.mode.writes();
            let expected = {
                let l = &self.locals[data];
                let interp = if writes {
                    expected_write_word(l)
                } else {
                    expected_read_word(l)
                };
                match pre {
                    Some(words) => {
                        // The compiled path's precomputed word must equal
                        // what the interpreter would pack from the private
                        // view — the compile-time simulation invariant.
                        debug_assert_eq!(
                            words[i], interp,
                            "compiled expected word diverges from the private view \
                             ({id} access {i} on {})",
                            a.data,
                        );
                        words[i]
                    }
                    None => interp,
                }
            };
            let mask = if writes {
                WRITE_EPOCH_MASK
            } else {
                READ_EPOCH_MASK
            };
            // Poll first: a get that is ready at its first poll takes no
            // clock and no status write. Only a failed poll pays for the
            // wait bookkeeping.
            if !self.env.shared[data].satisfied(expected, mask) && !self.wait_get(id, a, expected) {
                return false;
            }
        }
        self.flight_event(FlightEventKind::TaskStart, id, None);
        true
    }

    /// Step 2 for a replayable kernel: runs `kernel` on `t` under fault
    /// containment — abort semantics, or the recovery policy's poison
    /// check, retries and skip. `Some(ran)` hands on to
    /// [`WorkerCtx::complete`]; `None` means the body's panic aborted the
    /// run.
    fn run_kernel<K>(&mut self, kernel: &K, t: &TaskDesc, accesses: &[Access]) -> Option<bool>
    where
        K: Fn(WorkerId, &TaskDesc) + Sync + ?Sized,
    {
        let Some(rec) = self.env.rec else {
            #[cfg(feature = "fault-inject")]
            let cfg = self.env.cfg;
            let me = self.me;
            return self
                .run_body_or_abort(t.id, || {
                    #[cfg(feature = "fault-inject")]
                    if let Some(hook) = cfg.fault_hook.as_ref() {
                        hook.before_task(me, t.id);
                    }
                    kernel(me, t)
                })
                .then_some(true);
        };
        Some(self.run_kernel_recovering(kernel, t, accesses, rec))
    }

    /// [`WorkerCtx::run_kernel`] under a recovery policy: the poison check
    /// and skip, then the body under the policy's retries. Returns whether
    /// an attempt succeeded.
    fn run_kernel_recovering<K>(
        &mut self,
        kernel: &K,
        t: &TaskDesc,
        accesses: &[Access],
        rec: &RecoveryCtx,
    ) -> bool
    where
        K: Fn(WorkerId, &TaskDesc) + Sync + ?Sized,
    {
        if self.skip_poisoned(rec, t.id, accesses) {
            return false;
        }
        let span = run_body_with_recovery(
            self.env.cfg,
            rec,
            kernel,
            self.me,
            t,
            accesses,
            self.ctr,
            self.ring,
            &mut self.clock,
        );
        if let Some(span) = span {
            self.note_body(t.id, span);
        }
        span.is_some()
    }

    /// Step 2 for a body that runs at most once: abort semantics without
    /// a recovery policy. With one, the poison check and skip as for a
    /// kernel, but a panic fails the task for good at attempt 0 — an
    /// `FnOnce` cannot be retried.
    fn run_once(&mut self, id: TaskId, accesses: &[Access], body: impl FnOnce()) -> Option<bool> {
        let Some(rec) = self.env.rec else {
            return self.run_body_or_abort(id, body).then_some(true);
        };
        if self.skip_poisoned(rec, id, accesses) {
            return Some(false);
        }
        let start = self.clock.start();
        let outcome = catch_unwind(AssertUnwindSafe(body));
        let span = self.clock.stop(start);
        match outcome {
            Ok(()) => {
                self.note_body(id, span);
                Some(true)
            }
            Err(payload) => {
                rec.record_failed(FailedTask {
                    task: id,
                    worker: self.me,
                    retries: 0,
                    detail: FailureDetail::TaskFailed { payload },
                });
                poison_writes(rec, id, accesses, self.ctr, self.ring);
                Some(false)
            }
        }
    }

    /// Degraded mode's skip: when an input datum is poisoned, the failure
    /// already happened upstream and this task's outputs would be
    /// garbage, so its body does not run and its writes are poisoned in
    /// turn. The acquire step admitted every access, so any poison a
    /// producer published before its terminate is visible here (the bit
    /// rides the protocol's own Release/Acquire edge).
    #[inline]
    fn skip_poisoned(&self, rec: &RecoveryCtx, id: TaskId, accesses: &[Access]) -> bool {
        let skip = accesses.iter().any(|a| rec.is_poisoned(a.data));
        if skip {
            rec.record_skipped(id);
            poison_writes(rec, id, accesses, self.ctr, self.ring);
        }
        skip
    }

    /// Runs one body with abort semantics (no recovery policy): the first
    /// panic records its cause and ends the whole run. Returns `false` on
    /// a panic.
    pub(crate) fn run_body_or_abort(&mut self, id: TaskId, body: impl FnOnce()) -> bool {
        let start = self.clock.start();
        let outcome = catch_unwind(AssertUnwindSafe(body));
        let span = self.clock.stop(start);
        if let Err(payload) = outcome {
            self.flight_event(FlightEventKind::Abort, id, None);
            if let Some(c) = self.ctr {
                c.inc_aborts();
            }
            self.env.abort.abort(AbortCause::Panic {
                task: id,
                worker: self.me,
                payload,
            });
            return false;
        }
        self.note_body(id, span);
        true
    }

    /// Hands a completed body's `Instant` span, when it took one, to the
    /// span log and the trace.
    #[inline]
    fn note_body(&mut self, task: TaskId, span: Option<(Instant, Instant)>) {
        let Some((t0, t1)) = span else { return };
        if self.record {
            self.spans.push(Span {
                task,
                start: t0.duration_since(self.env.epoch).as_nanos() as u64,
                end: t1.duration_since(self.env.epoch).as_nanos() as u64,
            });
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.task(task, t0, t1);
        }
    }

    /// Step 3: tallies a finished body — `ran` when it succeeded rather
    /// than being skipped, failing for good or running on a thief — and
    /// ticks the watchdog's progress entry: the worker is alive and the
    /// flow is advancing either way.
    #[inline(always)]
    pub(crate) fn complete(&mut self, id: TaskId, ran: bool) {
        if ran {
            self.tasks_executed += 1;
            if let Some(c) = self.ctr {
                c.inc_tasks();
            }
            self.flight_event(FlightEventKind::TaskEnd, id, None);
        }
        if self.wd {
            let (steals, retries) = self.ctr.map_or((0, 0), |c| (c.steals(), c.retries()));
            self.env
                .status
                .completed(self.me, id, self.tasks_executed, steals, retries);
        }
    }

    /// Step 4: publishes the completion of every access. Skip-but-sync:
    /// this runs for skipped and permanently-failed bodies too, so no
    /// downstream worker ever stalls on a failure — they observe the
    /// poison bits instead, set before these stores, so the Release edge
    /// of each terminate carries them.
    #[inline(always)]
    pub(crate) fn release(&mut self, id: TaskId, accesses: &[Access]) {
        for a in accesses {
            self.ops.terminates += 1;
            let data = a.data.index();
            let strategy = self.plan.strategy(data);
            let (s, l) = (&self.env.shared[data], &mut self.locals[data]);
            let elided = if a.mode.writes() {
                terminate_write(s, l, id, strategy)
            } else {
                terminate_read(s, l, strategy)
            };
            if elided {
                if let Some(c) = self.ctr {
                    c.inc_wakes_elided();
                }
            }
        }
        #[cfg(feature = "fault-inject")]
        if let Some(hook) = self.env.cfg.fault_hook.as_ref() {
            if hook.spurious_wake_after(self.me, id) {
                crate::protocol::spurious_wake_all(self.env.shared);
            }
        }
    }

    /// The start of a wait, when anything reads it: time measurement,
    /// the trace or the watchdog.
    #[inline]
    pub(crate) fn wait_clock(&self) -> Option<Instant> {
        (self.measure || self.traced || self.wd).then(Instant::now)
    }

    /// Tallies one finished wait begun at `t0`: the op and counter
    /// tallies, the flight ring's park event, idle time and the trace's
    /// wait event. A wait that never polled (ready at once) counts
    /// nothing.
    pub(crate) fn note_wait(
        &mut self,
        id: TaskId,
        data: DataId,
        writes: bool,
        t0: Option<Instant>,
        wo: WaitOutcome,
    ) {
        if !wo.waited() {
            return;
        }
        self.ops.waits += 1;
        self.ops.poll_loops += wo.polls;
        if let Some(c) = self.ctr {
            c.add_spins(wo.polls);
            c.add_parks(wo.parks);
        }
        if wo.parks > 0 {
            self.flight_event(FlightEventKind::Park, id, Some(data));
        }
        if let Some(t0) = t0 {
            let t1 = Instant::now();
            if self.measure {
                self.idle_time += t1.duration_since(t0);
            }
            if let Some(tr) = self.tracer.as_mut() {
                tr.wait(id, data, writes, t0, t1, wo.polls, wo.parks);
            }
        }
    }

    /// The rest of a get whose first poll failed: the wait itself, under
    /// the watchdog's status entry and the idle clock, then its tallies
    /// and verdict. Returns `false` when the run aborted (or this wait
    /// diagnosed a stall) and the worker must stop.
    #[inline(never)]
    fn wait_get(&mut self, id: TaskId, a: &Access, expected: u64) -> bool {
        let env = self.env;
        let data = a.data.index();
        let s = &env.shared[data];
        let writes = a.mode.writes();
        let wait_start = self.wait_clock();
        if self.wd {
            env.status.begin_wait(self.me, a.data);
        }
        let cx = self.plan.cx(data, env.cfg.watchdog, env.abort);
        let wr = if self.steal.is_some() {
            self.wait_or_steal(expected, writes, data, &cx)
        } else if writes {
            get_write_word_cx(s, expected, &cx)
        } else {
            get_read_word_cx(s, expected, &cx)
        };
        if self.wd {
            env.status.end_wait(self.me);
        }
        self.note_wait(id, a.data, writes, wait_start, wr.outcome);
        match wr.verdict {
            WaitVerdict::Ready => true,
            WaitVerdict::Aborted => false,
            WaitVerdict::DeadlineExceeded => {
                let waited = wait_start
                    .map(|t0| t0.elapsed())
                    .or(env.cfg.watchdog)
                    .unwrap_or_default();
                // Record the abort *before* dumping, so the stalling
                // worker's own ring shows it as the final event.
                self.flight_event(FlightEventKind::Abort, id, Some(a.data));
                let diag = stall_diagnostic(
                    self.me,
                    id,
                    a,
                    &self.locals[data],
                    s,
                    waited,
                    env.status,
                    env.registry,
                    env.flight,
                );
                if let Some(c) = self.ctr {
                    c.inc_aborts();
                }
                env.abort.abort(AbortCause::Stall(diag));
                false
            }
        }
    }

    /// A guard wait with the steal layer interleaved: bounded non-parking
    /// slices of the wait alternate with scans for ready foreign tasks,
    /// until the guard opens, the steal budget runs dry, or scans keep
    /// coming up empty — only then does the wait fall back to the
    /// object's real strategy (under `Park`, this is the moment the
    /// worker actually parks: "park only after a failed scan"). Entered
    /// only after the get's first poll failed, so an armed run whose gets
    /// are ready pays the same one acquire-load per get as an unarmed one.
    fn wait_or_steal(
        &mut self,
        expected: u64,
        writes: bool,
        data: usize,
        cx: &WaitCx<'a>,
    ) -> WaitResult {
        let st = self
            .steal
            .expect("wait_or_steal requires an armed steal layer");
        let s = &self.env.shared[data];
        let wait = |cx: &WaitCx<'_>| {
            if writes {
                get_write_word_cx(s, expected, cx)
            } else {
                get_read_word_cx(s, expected, cx)
            }
        };
        let mut agg = WaitOutcome { polls: 0, parks: 0 };
        let merge = |agg: WaitOutcome, wr: WaitResult| WaitResult {
            outcome: WaitOutcome {
                polls: agg.polls + wr.outcome.polls,
                parks: agg.parks + wr.outcome.parks,
            },
            verdict: wr.verdict,
        };
        // One clock for the whole wait: the watchdog deadline and the
        // spin budget both run from here, across slices and scans, so the
        // wait spins for `cx.spin` in all and its slices after that only
        // yield. Each slice gets its own short deadline, so
        // `DeadlineExceeded` from a slice means "time to scan", not
        // "stalled"; a slice's deadline caps its spin phase too, so a
        // slice lasts `min_wait_before_steal`, no longer.
        let start = Instant::now();
        let left = |budget: Duration| budget.saturating_sub(start.elapsed());
        let mut steals = 0usize;
        let mut empty = 0usize;
        while steals < st.policy.max_steals && empty < EMPTY_SCAN_LIMIT {
            let slice = WaitCx {
                strategy: WaitStrategy::SpinYield,
                spin: left(cx.spin),
                deadline: Some(st.policy.min_wait_before_steal),
                abort: cx.abort,
            };
            let wr = wait(&slice);
            match wr.verdict {
                WaitVerdict::Ready | WaitVerdict::Aborted => return merge(agg, wr),
                WaitVerdict::DeadlineExceeded => {
                    agg.polls += wr.outcome.polls;
                    agg.parks += wr.outcome.parks;
                    if cx.deadline.is_some_and(|d| left(d).is_zero()) {
                        // The *watchdog* expired, not just the slice.
                        return WaitResult {
                            outcome: agg,
                            verdict: WaitVerdict::DeadlineExceeded,
                        };
                    }
                    if self.try_steal_one() {
                        steals += 1;
                        empty = 0;
                    } else {
                        empty += 1;
                    }
                }
            }
        }
        // Budget exhausted: the rest of the wait runs under the object's
        // configured strategy, minus the spin and watchdog time already
        // burned.
        let final_cx = WaitCx {
            spin: left(cx.spin),
            deadline: cx.deadline.map(left),
            ..*cx
        };
        merge(agg, wait(&final_cx))
    }

    /// One scan-and-claim attempt. Returns `true` when a foreign task was
    /// claimed and executed in place.
    fn try_steal_one(&mut self) -> bool {
        // A tearing-down run must not start new bodies: the abort wakes
        // every waiter, so stealing past it would run a task whose owner
        // (and its waiters) already abandoned the flow.
        if self.env.abort.armed() {
            return false;
        }
        let st = self.steal.expect("armed");
        match st.scan {
            ScanSource::Flow {
                tasks,
                owners,
                expected,
                offsets,
                cursors,
            } => self.steal_scan_flow(st, tasks, owners, expected, offsets, cursors),
            ScanSource::Compiled {
                tasks,
                arenas,
                nodes,
                programs,
                cursors,
            } => self.steal_scan_compiled(st, tasks, arenas, nodes, programs, cursors),
        }
    }

    /// Interpreted-path scan: walk the sequential flow from the ready
    /// frontier, pricing every unclaimed foreign task's guards with the
    /// precomputed expected words (one masked acquire-load per access).
    ///
    /// The start is sound by construction: a worker's published cursor
    /// only passes a task once that task is claimed (the owner claims
    /// before its guard waits), so no unclaimed task sits below the
    /// minimum cursor; and the claim-table frontier only advances over
    /// prefixes observed fully claimed. `window` bounds the candidates
    /// priced; a larger cap bounds the total indices walked so claimed
    /// stretches cannot make a scan O(flow).
    fn steal_scan_flow(
        &mut self,
        st: StealState<'a>,
        tasks: &'a [TaskDesc],
        owners: &'a [u32],
        expected: &'a [u64],
        offsets: &'a [u32],
        cursors: &'a [crate::steal::Cursor],
    ) -> bool {
        let me = self.me.index() as u32;
        let shared = self.env.shared;
        let min_cursor = cursors
            .iter()
            .map(|c| c.0.load(std::sync::atomic::Ordering::Relaxed))
            .min()
            .unwrap_or(0);
        let start = st.claims.frontier().max(min_cursor);
        let mut budget = st.policy.window;
        let mut walk = st.policy.window.saturating_mul(8);
        let mut prefix_claimed = true;
        let mut j = start;
        while j < tasks.len() && budget > 0 && walk > 0 {
            walk -= 1;
            if st.claims.claimant(j, st.epoch).is_some() {
                j += 1;
                continue;
            }
            if prefix_claimed {
                // First unclaimed entry: everything in [start, j) is
                // claimed, so later scans can start here.
                st.claims.advance_frontier(j);
                prefix_claimed = false;
            }
            if owners[j] != me {
                budget -= 1;
                let t = &tasks[j];
                let range = offsets[j] as usize..offsets[j + 1] as usize;
                let ready = t.accesses.iter().zip(&expected[range]).all(|(a, &e)| {
                    let mask = if a.mode.writes() {
                        WRITE_EPOCH_MASK
                    } else {
                        READ_EPOCH_MASK
                    };
                    shared[a.data.index()].satisfied(e, mask)
                });
                if ready {
                    if st.claims.try_claim(j, st.epoch, me) {
                        if let Some(c) = self.ctr {
                            c.inc_steals();
                        }
                        self.flight_event(FlightEventKind::Steal, t.id, None);
                        self.execute_stolen(st.kernel, t, &t.accesses);
                        return true;
                    }
                    if let Some(c) = self.ctr {
                        c.inc_steal_aborts();
                    }
                }
            }
            j += 1;
        }
        false
    }

    /// Compiled-path scan: walk victims' instruction streams from their
    /// published cursors. Expected words are precompiled (in the victim's
    /// node arena), so pricing a candidate is one masked acquire-load
    /// per access with no simulation. Stale cursors are safe: everything
    /// a victim already executed is claimed (the owner claims before
    /// running), so re-scanning it merely wastes window budget.
    fn steal_scan_compiled(
        &mut self,
        st: StealState<'a>,
        tasks: &'a [TaskDesc],
        arenas: &'a [crate::compile::NodeArena],
        nodes: &'a [u32],
        programs: &'a [crate::compile::WorkerProgram],
        cursors: &'a [crate::steal::Cursor],
    ) -> bool {
        use crate::compile::SYNC_BIT;
        let me = self.me.index();
        let workers = programs.len();
        let shared = self.env.shared;
        // Victim preference: the policy's (doctor-seeded) order first,
        // then a same-node-first round-robin from our successor — a
        // stolen body touches the victim's arena and epoch words, so
        // same-node victims are cheaper on a multi-socket machine (and
        // on a single node the split is a no-op: every worker is in the
        // `same` half). Duplicates only waste window budget.
        let my_node = nodes.get(me).copied().unwrap_or(0);
        let node_of = move |v: u32| nodes.get(v as usize).copied().unwrap_or(0);
        let preferred = st.policy.victims.as_deref().unwrap_or(&[]).iter().copied();
        let same = (0..workers)
            .map(move |i| ((me + 1 + i) % workers) as u32)
            .filter(move |&v| node_of(v) == my_node);
        let cross = (0..workers)
            .map(move |i| ((me + 1 + i) % workers) as u32)
            .filter(move |&v| node_of(v) != my_node);
        let mut budget = st.policy.window;
        for v in preferred.chain(same).chain(cross) {
            let v = v as usize;
            if v == me || v >= workers || budget == 0 {
                continue;
            }
            let varena = &arenas[nodes.get(v).copied().unwrap_or(0) as usize];
            let prog = &programs[v];
            let mut pc = cursors[v].0.load(std::sync::atomic::Ordering::Relaxed);
            while pc < prog.code.len() && budget > 0 {
                let code = prog.code[pc];
                pc += 1;
                if code & SYNC_BIT != 0 {
                    continue;
                }
                budget -= 1;
                let r = prog.runs[code as usize];
                let ti = r.task as usize;
                if st.claims.claimant(ti, st.epoch).is_some() {
                    continue;
                }
                let range = r.start as usize..r.end as usize;
                let acc = &varena.accesses[range.clone()];
                let exp = &varena.expected[range];
                let ready = acc.iter().zip(exp).all(|(a, &e)| {
                    let mask = if a.mode.writes() {
                        WRITE_EPOCH_MASK
                    } else {
                        READ_EPOCH_MASK
                    };
                    shared[a.data.index()].satisfied(e, mask)
                });
                if !ready {
                    continue;
                }
                if st.claims.try_claim(ti, st.epoch, me as u32) {
                    if let Some(c) = self.ctr {
                        c.inc_steals();
                    }
                    self.flight_event(FlightEventKind::Steal, tasks[ti].id, None);
                    self.execute_stolen(st.kernel, &tasks[ti], acc);
                    return true;
                }
                if let Some(c) = self.ctr {
                    c.inc_steal_aborts();
                }
            }
        }
        false
    }

    /// Runs a claimed foreign task in place: the body under the same
    /// containment/recovery as an owned task, then the *publish-only*
    /// halves of its terminates. No guard waits (readiness was verified
    /// and is monotonic until these publications) and no private
    /// declares — the thief's own walk registers this task as foreign
    /// work when it reaches it, and the owner skips-but-syncs.
    fn execute_stolen(&mut self, kernel: &Kernel<'_>, t: &TaskDesc, accesses: &[Access]) {
        self.flight_event(FlightEventKind::TaskStart, t.id, None);
        // On a panic without a recovery policy the run is tearing down;
        // the claim stays held so the owner never re-runs the body, and
        // the abort wakes every waiter the missing terminates would have.
        // Recovery is keyed on the task, not the worker: a stolen task
        // retries, fails, poisons and skips exactly as on its owner (the
        // poison bits are published before the terminates below, riding
        // the same Release edges).
        let Some(ran) = self.run_kernel(kernel, t, accesses) else {
            return;
        };
        self.complete(t.id, ran);
        // Publish every epoch advance this task owes the protocol — with
        // the data object's own strategy (shared run-wide), so §10 wake
        // elision behaves exactly as if the owner had terminated.
        for a in accesses {
            self.ops.terminates += 1;
            let strategy = self.plan.strategy(a.data.index());
            let s = &self.env.shared[a.data.index()];
            let elided = if a.mode.writes() {
                publish_write(s, t.id, strategy)
            } else {
                publish_read(s, strategy)
            };
            if elided {
                if let Some(c) = self.ctr {
                    c.inc_wakes_elided();
                }
            }
        }
    }

    /// Registers one task that is not this worker's to run: one or two
    /// private writes per access, nothing else.
    #[inline]
    pub(crate) fn declare(&mut self, id: TaskId, accesses: &[Access]) {
        self.ops.declares += accesses.len() as u64;
        declare_batch(&mut self.locals, id, accesses);
    }

    /// Applies one compiled `Sync` instruction: the coalesced private-state
    /// delta of a maximal run of non-local tasks on one data object.
    #[inline]
    pub(crate) fn apply_sync(&mut self, data: usize, delta: SyncDelta) {
        self.ops.syncs += 1;
        if let Some(c) = self.ctr {
            c.inc_syncs();
        }
        apply_sync(&mut self.locals[data], delta);
    }

    /// Ends the worker's loop and consumes the context into its report.
    pub(crate) fn finish(self) -> WorkerReport {
        let lp = self.loop_clock.stop();
        let loop_time = lp.time;
        let (task_time, retry_time) = self.clock.finish(lp, self.idle_time);
        if let Some(rec) = self.env.rec {
            rec.add_retry_ns(retry_time.as_nanos() as u64);
        }
        let ops = self.ops;
        let trace = self.tracer.map(|tr| {
            let mut wt = tr.finish();
            wt.declares = ops.declares;
            wt.gets = ops.gets;
            wt.terminates = ops.terminates;
            wt.loop_ns = loop_time.as_nanos() as u64;
            wt
        });
        WorkerReport {
            worker: self.me,
            tasks_executed: self.tasks_executed,
            tasks_visited: self.tasks_visited,
            task_time,
            idle_time: self.idle_time,
            loop_time,
            ops,
            spans: self.spans,
            trace,
        }
    }
}

/// Poisons every datum `accesses` writes, crediting newly-set bits to
/// the worker's `poisoned` counter (re-poisoning an already-poisoned
/// datum is counted once, by whoever set the bit first). Each newly-set
/// bit is also recorded in the worker's flight ring, attributed to
/// `task` — the producer whose failure (or poisoned input) spread it.
fn poison_writes(
    rec: &RecoveryCtx,
    task: TaskId,
    accesses: &[Access],
    ctr: Option<&WorkerCounters>,
    ring: Option<&FlightRing>,
) {
    let mut newly = 0u64;
    for a in accesses {
        if a.mode.writes() && rec.poison(a.data) {
            newly += 1;
            if let Some(r) = ring {
                r.record(FlightEventKind::Poison, task, Some(a.data));
            }
        }
    }
    if let Some(c) = ctr {
        c.add_poisoned(newly);
    }
}

/// Runs one task body under `rec`'s retry policy. Panicking attempts are
/// retried with capped exponential backoff until the policy's
/// `max_retries` or per-task `deadline` is exhausted; a permanent failure
/// is recorded in `rec` and the task's written data poisoned. Returns
/// `None` on permanent failure (the caller still terminates every access
/// — skip-but-sync), `Some(span)` on success. The winning attempt's time
/// is counted in `clock`; `span` is its `Instant` span when it took one,
/// for the trace and the span log. Attempt 0 is timed exactly like an
/// abort-path body, so an armed policy costs nothing measurable per task.
/// Without `measure_time`, the first failed attempt's body is the one
/// interval `retry_time` cannot include; every later attempt and every
/// backoff sleep is timed regardless.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_body_with_recovery<K>(
    cfg: &RioConfig,
    rec: &RecoveryCtx,
    kernel: &K,
    me: WorkerId,
    t: &TaskDesc,
    accesses: &[Access],
    ctr: Option<&WorkerCounters>,
    ring: Option<&FlightRing>,
    clock: &mut TaskClock,
) -> Option<Option<(Instant, Instant)>>
where
    K: Fn(WorkerId, &TaskDesc) + Sync + ?Sized,
{
    // Fast path: attempt 0, shaped exactly like the abort path — one
    // `catch_unwind`, the same clock, no retry bookkeeping. The deadline
    // clock is the one extra a policy that sets a deadline opts into.
    let first_start = rec.policy.deadline.is_some().then(Instant::now);
    let body = AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        if let Some(hook) = cfg.fault_hook.as_ref() {
            hook.before_attempt(me, t.id, 0);
        }
        kernel(me, t)
    });
    let t0 = clock.start();
    match catch_unwind(body) {
        Ok(()) => Some(clock.stop(t0)),
        Err(payload) => {
            // Attempt 0's failed body is retry time: on the deadline clock
            // when there is one, else on the body's own clock (a tick
            // count is converted at the worker's finish).
            let first_ns = match first_start {
                Some(s) => s.elapsed().as_nanos() as u64,
                None => clock.stop_failed(t0),
            };
            retry_after_failure(
                cfg,
                rec,
                kernel,
                me,
                t,
                accesses,
                ctr,
                ring,
                clock,
                payload,
                first_start,
                first_ns,
            )
        }
    }
}

/// The retry loop behind [`run_body_with_recovery`], entered only after
/// attempt 0 has already panicked (so its cost is irrelevant to the
/// fault-free path); `first_ns` is the failed attempt's body time.
/// Attempts `1..` are always timed on `Instant`: `retry_time` covers
/// every retried body and backoff sleep.
#[cold]
#[allow(clippy::too_many_arguments)]
fn retry_after_failure<K>(
    cfg: &RioConfig,
    rec: &RecoveryCtx,
    kernel: &K,
    me: WorkerId,
    t: &TaskDesc,
    accesses: &[Access],
    ctr: Option<&WorkerCounters>,
    ring: Option<&FlightRing>,
    clock: &mut TaskClock,
    mut payload: Box<dyn std::any::Any + Send>,
    first_start: Option<Instant>,
    first_ns: u64,
) -> Option<Option<(Instant, Instant)>>
where
    K: Fn(WorkerId, &TaskDesc) + Sync + ?Sized,
{
    #[cfg(not(feature = "fault-inject"))]
    let _ = cfg;
    let policy = &rec.policy;
    let mut attempt = 0u32;
    // Time this task spent failing: failed attempt bodies plus backoff
    // sleeps. Successful retries report it too — recovery that
    // eventually worked still cost wall-clock the doctor should see.
    let mut recover_ns = first_ns;
    loop {
        let spent = first_start.map_or(Duration::ZERO, |s| s.elapsed());
        let timed_out = policy.deadline.is_some_and(|d| spent >= d);
        if attempt >= policy.max_retries || timed_out {
            // Retries exhausted (or the deadline passed first): record the
            // permanent failure — keeping the panic payload when both
            // bounds tripped at once — and poison the writes *before* the
            // caller's terminates publish the epoch advances, so every
            // admitted dependent sees the bits.
            let detail = match policy.deadline {
                Some(deadline) if timed_out && attempt < policy.max_retries => {
                    FailureDetail::TaskTimedOut { spent, deadline }
                }
                _ => FailureDetail::TaskFailed { payload },
            };
            rec.record_failed(FailedTask {
                task: t.id,
                worker: me,
                retries: attempt,
                detail,
            });
            rec.add_retry_ns(recover_ns);
            poison_writes(rec, t.id, accesses, ctr, ring);
            return None;
        }
        attempt += 1;
        if let Some(c) = ctr {
            c.inc_retries();
        }
        if let Some(r) = ring {
            r.record(FlightEventKind::Retry, t.id, None);
        }
        let backoff = policy.backoff_for(attempt);
        if !backoff.is_zero() {
            let s0 = Instant::now();
            std::thread::sleep(backoff);
            recover_ns += s0.elapsed().as_nanos() as u64;
        }
        let body = AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            if let Some(hook) = cfg.fault_hook.as_ref() {
                hook.before_attempt(me, t.id, attempt);
            }
            kernel(me, t)
        });
        let t0 = Instant::now();
        match catch_unwind(body) {
            Ok(()) => {
                let t1 = Instant::now();
                rec.add_retry_ns(recover_ns);
                clock.add_span(t0, t1);
                return Some(Some((t0, t1)));
            }
            Err(p) => {
                recover_ns += t0.elapsed().as_nanos() as u64;
                payload = p;
            }
        }
    }
}

/// The interpreted flow walk behind the plain, pruned and hybrid paths:
/// `ctx`'s worker walks the flow — only the flow indices in `visit` when
/// given, a pruned walk (see [`crate::pruning`]) — runs the tasks `pmap`
/// maps to it and declares the rest. A task `pmap` leaves unmapped is
/// claimed at run time, the paper's §6 hybrid: every worker that reaches
/// it races one CAS on its slot in `claims` (the steal layer's
/// [`ClaimTable`]); the winner runs it and the losers declare it, which is
/// skip-but-sync as for a stolen task (DESIGN.md §14). Static paths pass
/// [`Total`] and no claim table.
///
/// Fault containment: the kernel runs under `catch_unwind`; the first
/// failure (body panic, or watchdog-diagnosed stall) records its
/// [`AbortCause`] in the run's abort flag and wakes every parked worker.
/// Every worker abandons the flow at its next wait or before its next own
/// task, so no task body starts after the abort is observed. The run
/// shell converts the recorded cause into an [`ExecError`] after joining.
pub(crate) fn worker_loop<P, K>(
    mut ctx: WorkerCtx<'_>,
    graph: &TaskGraph,
    pmap: &P,
    kernel: &K,
    visit: Option<&[u32]>,
    claims: Option<(&ClaimTable, u32)>,
) -> WorkerReport
where
    P: PartialMapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    let me = ctx.me;
    let workers = ctx.env.cfg.workers;
    let cursor = ctx.steal.and_then(|st| match st.scan {
        ScanSource::Flow { cursors, .. } => Some(&cursors[me.index()].0),
        _ => None,
    });
    // Returns `false` when the run aborted and the worker must stop.
    let step = |ctx: &mut WorkerCtx<'_>, t: &TaskDesc| -> bool {
        ctx.tasks_visited += 1;
        let mine = match pmap.worker_of(t.id, workers) {
            Some(owner) => {
                debug_assert!(
                    owner.index() < workers,
                    "mapping sent {} to non-existent {owner}",
                    t.id
                );
                owner == me
            }
            None => {
                let (claims, epoch) = claims.expect("an unmapped task needs a claim table");
                claims.try_claim(t.id.index(), epoch, me.index() as u32)
            }
        };
        if mine {
            // Publish this worker's flow position so thieves know where
            // the unclaimed frontier can start. Publishing on own tasks
            // only keeps the armed-but-idle cost off the declare fast
            // path and is still sound: every own task is claimed (by
            // owner or thief) before the cursor passes it, and foreign
            // tasks never wait on this worker's cursor. Relaxed:
            // staleness only makes a scan start earlier and skip
            // already-claimed entries.
            if let Some(c) = cursor {
                c.store(t.id.index(), std::sync::atomic::Ordering::Relaxed);
            }
            ctx.exec_task(kernel, t, &t.accesses)
        } else {
            ctx.declare(t.id, &t.accesses);
            true
        }
    };

    match visit {
        None => {
            for t in graph.tasks() {
                if !step(&mut ctx, t) {
                    break;
                }
            }
        }
        Some(indices) => {
            let tasks = graph.tasks();
            for &i in indices {
                if !step(&mut ctx, &tasks[i as usize]) {
                    break;
                }
            }
        }
    }

    // Release the min-cursor: once this worker's walk is over, every one
    // of its own tasks is claimed (or the run aborted, after which no
    // thief executes anything), so it must not pin other workers' scan
    // start at its last own task.
    if let Some(c) = cursor {
        c.store(graph.len(), std::sync::atomic::Ordering::Relaxed);
    }
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::execute_graph_impl as execute_graph;
    use super::*;
    use crate::wait::WaitStrategy;
    use rio_stf::validate::{validate_spans, Span};
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TableMapping, TaskId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers).wait(WaitStrategy::Park)
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..100 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let count = AtomicU64::new(0);
        let report = execute_graph(&cfg(3), &g, &RoundRobin, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(report.tasks_executed(), 100);
        assert_eq!(report.num_workers(), 3);
        // Every worker visited the whole flow.
        for w in &report.workers {
            assert_eq!(w.tasks_visited, 100);
        }
    }

    #[test]
    fn respects_the_mapping() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..10 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let m = TableMapping::from_fn(10, |i| WorkerId::from_index(usize::from(i >= 7)));
        let report = execute_graph(&cfg(2), &g, &m, |_, _| {});
        assert_eq!(report.workers[0].tasks_executed, 7);
        assert_eq!(report.workers[1].tasks_executed, 3);
    }

    #[test]
    fn chain_across_workers_produces_sequential_result() {
        // A single counter incremented by 1000 tasks alternating workers:
        // any missed synchronization loses increments.
        let n = 1000u64;
        let mut b = TaskGraph::builder(1);
        for _ in 0..n {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph(&cfg(4), &g, &RoundRobin, |_, t| {
            let mut v = store.write(DataId(0));
            *v += 1;
            let _ = t;
        });
        assert_eq!(store.into_vec(), vec![n]);
    }

    #[test]
    fn reader_fanout_sees_the_written_value() {
        // T1 writes 42; T2..T9 read and check; T10 overwrites.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        for _ in 0..8 {
            b.task(&[Access::read(DataId(0))], 1, "r");
        }
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        let seen = AtomicU64::new(0);
        execute_graph(&cfg(3), &g, &RoundRobin, |_, t| match t.kind {
            "w" => *store.write(DataId(0)) = 42,
            "r" => {
                assert_eq!(*store.read(DataId(0)), 42);
                seen.fetch_add(1, Ordering::Relaxed);
            }
            "w2" => *store.write(DataId(0)) = 7,
            _ => unreachable!(),
        });
        assert_eq!(seen.load(Ordering::Relaxed), 8);
        assert_eq!(store.into_vec(), vec![7]);
    }

    #[test]
    fn recorded_spans_are_sequentially_consistent() {
        // Random-ish dependency mesh over 4 data objects, spans audited by
        // the STF validator.
        let mut b = TaskGraph::builder(4);
        for i in 0..200u32 {
            let r = DataId(i % 4);
            let w = DataId((i / 2) % 4);
            if r == w {
                b.task(&[Access::read_write(w)], 1, "rw");
            } else {
                b.task(&[Access::read(r), Access::write(w)], 1, "mix");
            }
        }
        let g = b.build();
        let spans = Mutex::new(Vec::new());
        let epoch = Instant::now();
        execute_graph(&cfg(3), &g, &RoundRobin, |_, t| {
            let start = epoch.elapsed().as_nanos() as u64;
            // A tiny body so spans have width.
            std::hint::black_box(0u64);
            let end = epoch.elapsed().as_nanos() as u64 + 1;
            spans.lock().unwrap().push(Span {
                task: t.id,
                start,
                end,
            });
        });
        let spans = spans.into_inner().unwrap();
        assert_eq!(spans.len(), 200);
        validate_spans(&g, &spans).expect("RIO execution violated STF semantics");
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..50 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let order = Mutex::new(Vec::new());
        let report = execute_graph(&cfg(1), &g, &RoundRobin, |_, t| {
            order.lock().unwrap().push(t.id);
        });
        let order = order.into_inner().unwrap();
        let expected: Vec<_> = (0..50).map(TaskId::from_index).collect();
        assert_eq!(order, expected, "one worker executes in flow order");
        // A single worker never waits on anyone.
        assert_eq!(report.total_ops().waits, 0);
        assert_eq!(report.total_ops().declares, 0);
    }

    #[test]
    fn all_wait_strategies_agree_on_results() {
        for wait in [
            WaitStrategy::Spin,
            WaitStrategy::SpinYield,
            WaitStrategy::Park,
        ] {
            let mut b = TaskGraph::builder(2);
            for i in 0..100u32 {
                b.task(&[Access::read_write(DataId(i % 2))], 1, "inc");
            }
            let g = b.build();
            let store = DataStore::from_vec(vec![0u64, 0]);
            let c = RioConfig::with_workers(2).wait(wait);
            execute_graph(&c, &g, &RoundRobin, |_, t| {
                let d = t.accesses[0].data;
                *store.write(d) += 1;
            });
            assert_eq!(store.into_vec(), vec![50, 50], "strategy {wait}");
        }
    }

    #[test]
    fn op_counts_match_the_flow_shape() {
        // 2 workers, 10 tasks each with 1 RW access, round-robin: each
        // worker gets 5 tasks (5 gets + 5 terminates) and declares the
        // other 5.
        let mut b = TaskGraph::builder(1);
        for _ in 0..10 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        let g = b.build();
        let report = execute_graph(&cfg(2), &g, &RoundRobin, |_, _| {});
        for w in &report.workers {
            assert_eq!(w.ops.gets, 5);
            assert_eq!(w.ops.terminates, 5);
            assert_eq!(w.ops.declares, 5);
        }
    }

    /// Every path that runs task bodies, for the tables below.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Interpreted,
        Pruned,
        Compiled,
        Hybrid,
        Flow,
        Redux,
    }

    const PATHS: [Path; 6] = [
        Path::Interpreted,
        Path::Pruned,
        Path::Compiled,
        Path::Hybrid,
        Path::Flow,
        Path::Redux,
    ];

    /// Runs `tasks` tasks on 2 round-robin workers (hybrid: all claimed at
    /// run time) through `path`. Task `i` writes `D(data(i))` and runs
    /// `body` on its worker.
    fn try_run_on(
        path: Path,
        c: &RioConfig,
        tasks: u32,
        data: impl Fn(u32) -> u32 + Sync,
        body: &(dyn Fn(WorkerId) + Sync),
    ) -> Result<ExecReport, ExecError> {
        use crate::executor::Executor;
        use crate::redux::{RAccess, ReduxRio};
        let num_data = (0..tasks).map(&data).max().map_or(0, |d| d as usize + 1);
        let mut b = TaskGraph::builder(num_data);
        for i in 0..tasks {
            b.task(&[Access::read_write(DataId(data(i)))], 1, "t");
        }
        let g = b.build();
        let kernel = |me: WorkerId, _: &TaskDesc| body(me);
        let exec = Executor::new(c.clone()).mapping(&RoundRobin);
        let store = DataStore::from_vec(vec![0u8; num_data]);
        match path {
            Path::Interpreted => exec.try_run(&g, kernel).map(|r| r.report),
            Path::Pruned => exec.pruning(true).try_run(&g, kernel).map(|r| r.report),
            Path::Compiled => exec.compile(&g).try_run(kernel).map(|r| r.report),
            Path::Hybrid => exec
                .hybrid(&crate::hybrid::Unmapped)
                .try_run(&g, kernel)
                .map(|r| r.report),
            Path::Flow => crate::flow::Rio::new(c.clone()).try_run(&store, &RoundRobin, |ctx| {
                for i in 0..tasks {
                    let me = ctx.worker();
                    ctx.task(&[Access::read_write(DataId(data(i)))], move |_| body(me));
                }
            }),
            Path::Redux => ReduxRio::new(c.clone()).try_run(&store, &RoundRobin, |ctx| {
                for i in 0..tasks {
                    let me = ctx.worker();
                    ctx.task(&[RAccess::read_write(DataId(data(i)))], move |_| body(me));
                }
            }),
        }
    }

    /// [`try_run_on`], panicking on an error.
    fn run_on(
        path: Path,
        c: &RioConfig,
        tasks: u32,
        data: impl Fn(u32) -> u32 + Sync,
        body: &(dyn Fn(WorkerId) + Sync),
    ) -> ExecReport {
        try_run_on(path, c, tasks, data, body).unwrap_or_else(|e| e.resume())
    }

    #[test]
    fn stealing_is_honoured_or_rejected_before_any_body_runs() {
        let c = cfg(2).stealing(crate::steal::StealPolicy::new());
        for path in PATHS {
            let ran = AtomicU64::new(0);
            let body = |_: WorkerId| {
                ran.fetch_add(1, Ordering::Relaxed);
            };
            let result = try_run_on(path, &c, 16, |_| 0, &body);
            if matches!(path, Path::Interpreted | Path::Compiled) {
                let report = result.unwrap_or_else(|e| panic!("{path:?}: {e}"));
                assert_eq!(report.tasks_executed(), 16, "{path:?}");
                assert_eq!(ran.load(Ordering::Relaxed), 16, "{path:?}");
            } else {
                let err = result.err().unwrap_or_else(|| panic!("{path:?} ran armed"));
                assert_eq!(err.kind(), "unsupported-option", "{path:?}");
                assert!(err.to_string().contains("RioConfig::stealing"), "{err}");
                assert_eq!(ran.load(Ordering::Relaxed), 0, "{path:?} ran a body");
            }
        }
        // The panicking wrappers render the error.
        for path in [Path::Flow, Path::Redux] {
            let payload = std::panic::catch_unwind(|| run_on(path, &c, 1, |_| 0, &|_| {}))
                .expect_err("an armed policy must be rejected");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("is not supported on the"), "{path:?}: {msg}");
        }
    }

    #[test]
    fn every_path_binds_its_workers_to_their_nodes() {
        // Two workers on two mocked nodes: worker `w` must park in (and
        // so run its bodies bound to) node `w`'s shard.
        let topo = std::sync::Arc::new(crate::topo::Topology::mock(2, 1));
        let c = cfg(2).topology(topo);
        for path in PATHS {
            let (ran, wrong) = (AtomicU64::new(0), AtomicU64::new(0));
            let body = |me: WorkerId| {
                ran.fetch_add(1, Ordering::Relaxed);
                if crate::park::current_shard() != me.index() {
                    wrong.fetch_add(1, Ordering::Relaxed);
                }
            };
            run_on(path, &c, 32, |i| i, &body);
            assert_eq!(ran.load(Ordering::Relaxed), 32, "{path:?}");
            assert_eq!(
                wrong.load(Ordering::Relaxed),
                0,
                "{path:?}: bodies off their node"
            );
        }
    }

    #[test]
    fn measure_time_accumulates_task_time() {
        // A serial chain of sleeping tasks over two workers: every body
        // sleeps, and every get after the first waits on the other worker.
        const SLEEP: Duration = Duration::from_millis(1);
        for path in PATHS {
            for measure in [true, false] {
                let slept = [AtomicU64::new(0), AtomicU64::new(0)];
                let body = |me: WorkerId| {
                    let t0 = Instant::now();
                    std::thread::sleep(SLEEP);
                    slept[me.index()].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                };
                let c = cfg(2).measure_time(measure);
                let report = run_on(path, &c, 6, |_| 0, &body);
                assert_eq!(report.tasks_executed(), 6, "{path:?}");
                for w in &report.workers {
                    let (task, idle) = (w.task_time, w.idle_time);
                    if measure {
                        let slept =
                            Duration::from_nanos(slept[w.worker.index()].load(Ordering::Relaxed));
                        assert!(
                            task >= slept,
                            "{path:?} {}: task {task:?} < slept {slept:?}",
                            w.worker
                        );
                        assert!(task + idle <= w.loop_time, "{path:?} {}: {w:?}", w.worker);
                    } else {
                        assert_eq!((task, idle), (Duration::ZERO, Duration::ZERO), "{path:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ready_gets_never_wait_on_any_path() {
        // Every task writes its own datum, so every get is ready at its
        // first poll whatever the interleaving: no waits, no idle time.
        for path in PATHS {
            let report = run_on(path, &cfg(2), 64, |i| i, &|_| {});
            assert_eq!(report.tasks_executed(), 64, "{path:?}");
            for w in &report.workers {
                assert_eq!(w.ops.waits, 0, "{path:?} {}", w.worker);
                assert_eq!(w.idle_time, Duration::ZERO, "{path:?} {}", w.worker);
            }
        }
    }

    #[test]
    fn always_on_counters_ride_along() {
        // A serialized RW chain over two Park workers: tasks are counted
        // exactly, and at least some terminates elide their wake.
        let mut b = TaskGraph::builder(1);
        for _ in 0..100 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let report = execute_graph(&cfg(2), &g, &RoundRobin, |_, _| {});
        let total = report.counters.total();
        assert_eq!(total.tasks, 100);
        assert_eq!(report.counters.workers.len(), 2);
        assert!(
            total.wakes_elided + total.parks > 0,
            "a Park-mode chain either parks or elides wakes"
        );

        // With counters disabled the snapshot is empty.
        let report = execute_graph(&cfg(2).counters(false), &g, &RoundRobin, |_, _| {});
        assert!(report.counters.is_empty());
    }

    #[test]
    fn per_object_wait_policies_override_the_run_wide_strategy() {
        // A serialized RW chain on D0 under Park workers. Without a
        // policy table the chain parks or elides wakes; with D0 marked
        // hot (never park) both counters must stay at zero — waits spin,
        // terminates skip the waiter check — and the result stays exact.
        use crate::wait::WaitPolicy;
        let mut b = TaskGraph::builder(1);
        for _ in 0..200 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();

        let park = execute_graph(
            &cfg(2).spin(Duration::from_nanos(100)),
            &g,
            &RoundRobin,
            |_, _| {},
        );
        let t = park.counters.total();
        assert!(
            t.parks + t.wakes_elided > 0,
            "a Park-mode chain either parks or elides wakes"
        );

        let store = DataStore::from_vec(vec![0u64]);
        let c = cfg(2)
            .spin(Duration::from_nanos(100))
            .wait_policies(vec![WaitPolicy::hot(Duration::from_millis(20))]);
        let hot = execute_graph(&c, &g, &RoundRobin, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![200]);
        let t = hot.counters.total();
        assert_eq!(t.parks, 0, "hot policy never parks");
        assert_eq!(t.wakes_elided, 0, "hot terminates never consider waking");
    }

    #[test]
    fn external_registry_is_shared_across_runs() {
        use crate::counters::CounterRegistry;
        use std::sync::Arc;
        let reg = Arc::new(CounterRegistry::new(2));
        let mut b = TaskGraph::builder(0);
        for _ in 0..10 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let c = cfg(2).counter_registry(Arc::clone(&reg));
        execute_graph(&c, &g, &RoundRobin, |_, _| {});
        execute_graph(&c, &g, &RoundRobin, |_, _| {});
        assert_eq!(reg.snapshot().total().tasks, 20, "counters accumulate");
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::builder(0).build();
        let report = execute_graph(&cfg(2), &g, &RoundRobin, |_, _| unreachable!());
        assert_eq!(report.tasks_executed(), 0);
    }

    #[test]
    fn write_only_access_is_exclusive() {
        // Writers on the same datum from different workers must serialize;
        // the DataStore guard would panic otherwise.
        let mut b = TaskGraph::builder(1);
        for _ in 0..100 {
            b.task(&[Access::write(DataId(0))], 1, "w");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph(&cfg(4), &g, &RoundRobin, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![100]);
    }
}

#[cfg(test)]
mod poison_tests {
    use super::execute_graph_impl as execute_graph;
    use super::*;
    use crate::wait::WaitStrategy;
    use rio_stf::{Access, DataId, RoundRobin};

    /// A panicking task body must propagate without stranding workers that
    /// are blocked waiting on its (now never-published) completion.
    #[test]
    fn task_panic_propagates_and_unblocks_waiters() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..20 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        for wait in [WaitStrategy::SpinYield, WaitStrategy::Park] {
            let cfg = RioConfig::with_workers(3).wait(wait);
            let result = std::panic::catch_unwind(|| {
                execute_graph(&cfg, &g, &RoundRobin, |_, t| {
                    if t.id.0 == 5 {
                        panic!("task 5 exploded");
                    }
                });
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "task 5 exploded", "strategy {wait}");
        }
    }

    /// The first panic wins; tasks after it on the panicking chain never
    /// execute.
    #[test]
    fn tasks_after_the_panic_point_do_not_run() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut b = TaskGraph::builder(1);
        for _ in 0..50 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let highest = AtomicU64::new(0);
        let cfg = RioConfig::with_workers(2).wait(WaitStrategy::Park);
        let _ = std::panic::catch_unwind(|| {
            execute_graph(&cfg, &g, &RoundRobin, |_, t| {
                if t.id.0 == 10 {
                    panic!("boom");
                }
                highest.fetch_max(t.id.0, Ordering::Relaxed);
            });
        });
        // The RW chain serializes execution, so nothing past T10 ran.
        assert!(highest.load(Ordering::Relaxed) < 10);
    }

    /// A flaky task (two failing attempts, then success) recovers under
    /// the retry policy: the run completes cleanly — no partial report —
    /// with the sequential result and two retries on the counters.
    #[test]
    fn retry_policy_recovers_flaky_tasks() {
        use crate::config::RecoveryPolicy;
        use rio_stf::DataStore;
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut b = TaskGraph::builder(1);
        for _ in 0..20 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        let failures_left = AtomicU64::new(2);
        let cfg = RioConfig::with_workers(2)
            .wait(WaitStrategy::Park)
            .recovery(RecoveryPolicy::default().backoff(std::time::Duration::from_micros(1)));
        let (report, partial) = try_execute_graph_impl(&cfg, &g, &RoundRobin, |_, t| {
            if t.id.0 == 5
                && failures_left
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                    .is_ok()
            {
                panic!("flaky");
            }
            *store.write(DataId(0)) += 1;
        })
        .expect("recovered run must not abort");
        assert!(partial.is_none(), "a recovered run is not degraded");
        assert_eq!(store.into_vec(), vec![20]);
        assert_eq!(report.tasks_executed(), 20);
        assert_eq!(report.counters.total().retries, 2);
        assert_eq!(report.counters.total().poisoned, 0);
    }

    /// A permanently-failing task degrades the run instead of aborting
    /// it: the failure is recorded, its written datum poisoned, every
    /// dependent on the chain skipped — and the independent chain (and
    /// the run itself) completes, because skipped tasks still sync.
    #[test]
    fn permanent_failure_degrades_and_poisons_the_cone() {
        use crate::config::RecoveryPolicy;
        use rio_stf::{DataStore, TaskId};
        let mut b = TaskGraph::builder(2);
        for _ in 0..10 {
            b.task(&[Access::read_write(DataId(0))], 1, "a");
        }
        for _ in 0..10 {
            b.task(&[Access::read_write(DataId(1))], 1, "b");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64, 0]);
        let cfg = RioConfig::with_workers(2)
            .wait(WaitStrategy::Park)
            .recovery(RecoveryPolicy::no_retries());
        let (report, partial) = try_execute_graph_impl(&cfg, &g, &RoundRobin, |_, t| {
            if t.id.0 == 5 {
                panic!("T5 is beyond saving");
            }
            *store.write(t.accesses[0].data) += 1;
        })
        .expect("degraded run must not abort");
        let partial = partial.expect("a permanent failure degrades the run");
        assert_eq!(partial.failed.len(), 1);
        assert_eq!(partial.failed[0].task, TaskId(5));
        assert_eq!(partial.failed[0].retries, 0);
        assert_eq!(partial.failed[0].detail.kind(), "task-failed");
        assert_eq!(partial.poisoned, vec![DataId(0)]);
        let skipped: Vec<_> = (6..=10).map(TaskId).collect();
        assert_eq!(partial.skipped, skipped, "the rest of the D0 chain skips");
        // 20 tasks minus 1 failed minus 5 skipped executed; the healthy
        // D1 chain is untouched by the poison.
        assert_eq!(report.tasks_executed(), 14);
        assert_eq!(store.into_vec(), vec![4, 10]);
        assert_eq!(report.counters.total().poisoned, 1);
        assert_eq!(report.counters.total().retries, 0);
    }

    /// Pruned execution propagates panics the same way.
    #[test]
    fn pruned_execution_propagates_panics() {
        let g = {
            let mut b = TaskGraph::builder(8);
            for i in 0..40u32 {
                b.task(&[Access::read_write(DataId(i % 8))], 1, "t");
            }
            b.build()
        };
        let cfg = RioConfig::with_workers(2);
        let result = std::panic::catch_unwind(|| {
            crate::pruning::execute_graph_pruned_impl(&cfg, &g, &RoundRobin, |_, t| {
                if t.id.0 == 7 {
                    panic!("pruned boom");
                }
            });
        });
        assert!(result.is_err());
    }
}

#[cfg(test)]
mod steal_tests {
    use super::execute_graph_impl as execute_graph;
    use super::*;
    use crate::wait::WaitStrategy;
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TaskId};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// A figure that forces a steal: W0's first task is slow, W1's
    /// second task waits on it, and W0 has ready independent work queued
    /// behind. While blocked, W1 must find and claim that work. W1's
    /// first task is a prelude that holds W1 until W0 is inside T1 (see
    /// [`Handshake`]): a W1 that scanned before W0 claimed T1 would
    /// steal T1 itself.
    fn steal_bait() -> TaskGraph {
        let mut b = TaskGraph::builder(5);
        b.task(&[Access::write(DataId(0))], 1, "slow"); // T1 → W0
        b.task(&[Access::write(DataId(1))], 1, "prelude"); // T2 → W1
        b.task(&[Access::write(DataId(2))], 1, "indep"); // T3 → W0
        b.task(&[Access::read(DataId(0))], 1, "blocked"); // T4 → W1
        b.task(&[Access::write(DataId(3))], 1, "indep"); // T5 → W0
        b.task(&[Access::write(DataId(4))], 1, "indep"); // T6 → W1
        b.build()
    }

    /// Is this W1 running one of W0's independent tasks (T3 or T5)?
    fn is_theft(w: WorkerId, id: TaskId) -> bool {
        w.index() == 1 && (id.0 == 3 || id.0 == 5)
    }

    /// The kernel side of [`steal_bait`], timed by events instead of
    /// sleeps: T1 holds W0 until W1 has stolen T3 or T5, and W1's
    /// prelude holds W1 until W0 has entered T1.
    #[derive(Default)]
    struct Handshake {
        slow_started: AtomicBool,
        stolen: AtomicBool,
    }

    impl Handshake {
        fn body(&self, w: WorkerId, t: &TaskDesc) {
            match t.kind {
                "slow" => {
                    self.slow_started.store(true, Ordering::Release);
                    wait_for(&self.stolen, "W1 to steal T3 or T5 while W0 holds T1");
                }
                "prelude" => wait_for(&self.slow_started, "W0 to enter T1"),
                _ => {}
            }
            if is_theft(w, t.id) {
                self.stolen.store(true, Ordering::Release);
            }
        }
    }

    /// Waits until `flag` is set; panics after 10 s.
    fn wait_for(flag: &AtomicBool, what: &str) {
        let t0 = std::time::Instant::now();
        while !flag.load(Ordering::Acquire) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "waited 10 s for {what}"
            );
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn steal_cfg() -> RioConfig {
        RioConfig::with_workers(2)
            .wait(WaitStrategy::Park)
            .stealing(crate::steal::StealPolicy::new().min_wait_before_steal(Duration::ZERO))
    }

    #[test]
    fn blocked_worker_steals_ready_foreign_tasks() {
        let g = steal_bait();
        let hs = Handshake::default();
        let hits = Mutex::new(Vec::new());
        let report = execute_graph(&steal_cfg(), &g, &RoundRobin, |w, t| {
            hs.body(w, t);
            hits.lock().unwrap().push((w, t.id));
        });
        let hits = hits.into_inner().unwrap();
        assert_eq!(hits.len(), 6, "every task ran exactly once");
        assert_eq!(report.tasks_executed(), 6);
        // W0 holds T1 while W1 (blocked on D0 at T4, with a zero steal
        // fuse) scans forward and claims W0's ready independent tasks.
        let t = report.counters.total();
        assert!(t.steals >= 1, "expected at least one steal, got {t:?}");
        let stolen: Vec<_> = hits
            .iter()
            .filter(|(w, id)| w.index() == 1 && (id.0 == 3 || id.0 == 5))
            .collect();
        assert!(
            !stolen.is_empty(),
            "W1 should have executed some of W0's tasks: {hits:?}"
        );
    }

    #[test]
    fn compiled_run_steals_too() {
        let g = steal_bait();
        let flow = crate::executor::Executor::new(steal_cfg())
            .mapping(&RoundRobin)
            .compile(&g);
        let count = AtomicU64::new(0);
        let hs = Handshake::default();
        let run = flow.run(|w, t| {
            hs.body(w, t);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 6);
        let t = run.counters.total();
        assert!(t.steals >= 1, "expected at least one steal, got {t:?}");
    }

    #[test]
    fn stealing_preserves_sequential_semantics_under_contention() {
        // The 1000-task increment chain, now with stealing armed and an
        // aggressive fuse: any double execution or missed claim breaks the
        // final count.
        let n = 1000u64;
        let mut b = TaskGraph::builder(1);
        for _ in 0..n {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        let cfg = RioConfig::with_workers(4)
            .wait(WaitStrategy::SpinYield)
            .stealing(crate::steal::StealPolicy::new().min_wait_before_steal(Duration::ZERO));
        execute_graph(&cfg, &g, &RoundRobin, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![n]);
    }

    #[test]
    fn stolen_task_panic_still_aborts_the_run() {
        let g = steal_bait();
        let cfg = steal_cfg();
        let result = std::panic::catch_unwind(|| {
            execute_graph(&cfg, &g, &RoundRobin, |_, t| {
                if t.kind == "slow" {
                    std::thread::sleep(Duration::from_millis(30));
                }
                if t.id.0 == 3 {
                    panic!("boom in a likely-stolen task");
                }
            });
        });
        assert!(result.is_err());
    }
}
