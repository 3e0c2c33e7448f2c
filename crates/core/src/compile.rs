//! Ahead-of-time flow compilation: lowering `(TaskGraph, Mapping,
//! workers)` into flat per-worker instruction streams.
//!
//! ## Why compile the flow?
//!
//! Cost model (2) charges every worker O(n_total) for unrolling the whole
//! flow: even a task mapped elsewhere costs a mapping evaluation plus one
//! private declare per access, and the §3.5 pruning pre-pass only removes
//! *fully irrelevant* tasks. But the mapping is static and deterministic
//! (§3.4, assumptions 1–2), so the entire non-local portion of each
//! worker's walk is known at graph-record time. [`try_compile`] walks the
//! flow once per worker and lowers it into a [`WorkerProgram`] of two
//! instruction kinds:
//!
//! * `Run { task, start..end }` — execute a task mapped to this worker;
//!   its accesses live in `arena[start..end]` of one contiguous access
//!   arena instead of a per-task `Vec`, shared data first;
//! * `Sync { data, delta }` — apply the **coalesced** private-state delta
//!   ([`SyncDelta`]) of a maximal run of consecutive non-local tasks on
//!   one data object, in place of their individual declares.
//!
//! Coalescing rule: declares compose per data object — a batch collapses
//! to "the last write in the batch (if any) plus the reads after it"
//! ([`crate::protocol::apply_sync`]). Between two of a worker's own tasks
//! the flow may register thousands of foreign accesses; the compiled
//! program replays them as one `Sync` per *touched* data object, turning
//! O(tasks × accesses) private updates into O(local-task boundaries).
//!
//! Pruning is subsumed: deltas are tracked only for data the worker
//! itself accesses (the §3.5 relevance criterion), so a task whose data
//! the worker never touches contributes *no* instruction — exactly what a
//! visit list would drop, minus the per-task interpretation. Deltas still
//! pending after the worker's last own task are dead (private state is
//! only ever read by the worker's own `get_*`) and are dropped too.
//!
//! Execution ([`CompiledFlow::run`]) drives the same per-worker engine
//! ([`crate::graph`]'s `WorkerCtx`) as the interpreted paths — same
//! `get → kernel → terminate` sequence, same fault containment, watchdog
//! and tracing — so the protocol semantics are byte-identical to the
//! uncompiled walk; only the private bookkeeping between own tasks is
//! batched. Preflight mapping validation and the pruning analysis are
//! paid once at compile time: a [`CompiledFlow`] can be re-run any number
//! of times (the per-run protocol state is allocated per run, so a run
//! that aborts — e.g. [`ExecError::TaskPanicked`] — leaves the program
//! reusable).
//!
//! ## Worker-private data
//!
//! The same relevance bitsets tell which data the own tasks of exactly
//! one worker access. With stealing off, nobody else ever reads or
//! writes such a datum, and its one worker performs its accesses in flow
//! order: every get would pass at its first poll and no other worker
//! reads the terminate. Each `Run`'s arena slice therefore lists its
//! shared accesses first; only that prefix goes through the protocol
//! (the recovery path still sees the whole slice). The shared table and
//! the private views a run allocates end at the last shared datum, so a
//! flow without shared data allocates neither. See DESIGN.md §9.
//!
//! ```
//! use rio_core::prelude::*;
//!
//! let mut b = TaskGraph::builder(1);
//! for _ in 0..100 {
//!     b.task(&[Access::read_write(DataId(0))], 1, "inc");
//! }
//! let g = b.build();
//! let store = DataStore::from_vec(vec![0u64]);
//!
//! // Validate + analyze once, run many times.
//! let flow = Executor::new(RioConfig::with_workers(2))
//!     .mapping(&RoundRobin)
//!     .compile(&g);
//! for _ in 0..3 {
//!     flow.run(|_, _| *store.write(DataId(0)) += 1);
//! }
//! assert_eq!(store.into_vec(), vec![300]);
//! ```

use rio_stf::{ExecError, Mapping, TaskDesc, TaskGraph, WorkerId};

use crate::config::RioConfig;
use crate::executor::Execution;
use crate::graph::{run_workers, WorkerCtx};
use crate::protocol::{
    declare_read, declare_write, expected_read_word, expected_write_word, LocalDataState, SyncDelta,
};
use crate::pruning::set_bits;
use crate::steal::{ClaimTable, Cursor, ScanSource, StealState};

/// Tag bit of one code word: set → `Sync` instruction, clear → `Run`.
/// Crate-visible: the steal layer decodes victim programs directly.
pub(crate) const SYNC_BIT: u32 = 1 << 31;

/// `Run` instruction: execute the task at flow index `task`; its accesses
/// are `arena[start..end]`, shared data first: `arena[start..synced]` go
/// through the protocol, `arena[synced..end]` are worker-private.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunInstr {
    pub(crate) task: u32,
    pub(crate) start: u32,
    pub(crate) synced: u32,
    pub(crate) end: u32,
}

/// `Sync` instruction: apply `delta` to the private state of `data`.
#[derive(Debug, Clone, Copy)]
struct SyncInstr {
    data: u32,
    delta: SyncDelta,
}

/// One worker's compiled instruction stream, stored
/// structure-of-arrays: a flat `code` word per instruction (tag bit +
/// index) plus one dense array per instruction kind. The interpreter
/// walks `code` linearly; both payload arrays are read in order, so the
/// whole program streams through the cache.
#[derive(Debug, Default)]
pub(crate) struct WorkerProgram {
    pub(crate) code: Vec<u32>,
    pub(crate) runs: Vec<RunInstr>,
    syncs: Vec<SyncInstr>,
}

impl WorkerProgram {
    fn push_run(&mut self, r: RunInstr) {
        let idx = self.runs.len() as u32;
        assert!(idx < SYNC_BIT, "program exceeds 2^31 Run instructions");
        self.runs.push(r);
        self.code.push(idx);
    }

    fn push_sync(&mut self, s: SyncInstr) {
        let idx = self.syncs.len() as u32;
        assert!(idx < SYNC_BIT, "program exceeds 2^31 Sync instructions");
        self.syncs.push(s);
        self.code.push(idx | SYNC_BIT);
    }
}

/// What the compiler did, per worker and in aggregate — the compile-time
/// counterpart of [`crate::pruning::PruneStats`].
#[derive(Debug, Clone)]
pub struct CompileStats {
    /// Flow length (tasks every worker would visit uncompiled).
    pub flow_len: usize,
    /// `Run` instructions per worker (== tasks mapped to it).
    pub runs_per_worker: Vec<usize>,
    /// `Sync` instructions per worker (coalesced declare batches).
    pub syncs_per_worker: Vec<usize>,
    /// Per-access declares folded into `Sync` deltas (relevant foreign
    /// accesses). Each costs one private update at run time uncompiled;
    /// compiled, a whole batch costs one.
    pub folded_declares: u64,
    /// Foreign accesses compiled away entirely: data the worker never
    /// touches (the §3.5 pruning criterion, applied per access).
    pub irrelevant_declares: u64,
    /// Deltas dead at the end of a worker's program (no own task follows)
    /// and therefore dropped.
    pub trailing_syncs: u64,
    /// Accesses compiled out of the protocol: accesses of own tasks to
    /// worker-private data, which run with no get and no terminate.
    pub private_accesses: u64,
}

impl CompileStats {
    /// Total instructions across workers.
    pub fn instructions(&self) -> usize {
        self.runs_per_worker.iter().sum::<usize>() + self.syncs_per_worker.iter().sum::<usize>()
    }

    /// Average private updates replaced by one `Sync` instruction
    /// (≥ 1.0 whenever any declare was folded; 0.0 on empty programs).
    pub fn coalesce_factor(&self) -> f64 {
        let syncs: usize = self.syncs_per_worker.iter().sum();
        if syncs == 0 {
            return 0.0;
        }
        self.folded_declares as f64 / syncs as f64
    }
}

/// One NUMA node's slice of the compiled flow: the access entries and
/// precomputed expected epoch words of every `Run` instruction owned by a
/// worker of that node, allocated by that node's workers' own pushes
/// (first-toucher placement under a first-touch NUMA policy).
///
/// `expected[k]` is the packed word ([`crate::protocol::pack_epoch`])
/// that `accesses[k]`'s `get_*` waits for (0 for a private access, which
/// has no get) — computed once by simulating
/// the flow's declares at compile time (worker-independent: every
/// worker's private view before a task equals the sequential replay of
/// all earlier accesses, whether it declared or performed them). A
/// [`RunInstr`]'s `start..end` indexes the arena of the *owning worker's
/// node*. On a single-node topology the one arena holds every task's
/// accesses back to back in flow order, each task's shared accesses
/// before its private ones.
#[derive(Debug, Default)]
pub(crate) struct NodeArena {
    pub(crate) accesses: Vec<rio_stf::Access>,
    pub(crate) expected: Vec<u64>,
}

/// A flow compiled for a fixed `(graph, mapping, config)` triple —
/// produced by [`crate::Executor::compile`], executed any number of times
/// with [`CompiledFlow::run`]/[`CompiledFlow::try_run`].
///
/// Everything interpretation pays per run is paid once here: mapping
/// evaluation (one call per task), preflight validation
/// ([`RioConfig::preflight`]), the pruning-style relevance analysis, the
/// per-task declare bookkeeping (coalesced into `Sync` deltas) and the
/// classification of worker-private data, whose accesses skip the
/// protocol. Only the protocol state itself is per run, so a run that
/// fails leaves the program intact, and concurrent runs of one program
/// are independent.
///
/// With a multi-node [`RioConfig::topology`], each worker's access
/// entries and expected words live in its node's [`NodeArena`] so the
/// hot `get → kernel → terminate` walk streams node-local memory;
/// without one there is a single arena in flow order.
#[must_use = "a CompiledFlow does nothing until `.run()` is called"]
pub struct CompiledFlow<'g> {
    cfg: RioConfig,
    graph: &'g TaskGraph,
    /// One arena per NUMA node of the compiled topology (exactly one
    /// without a topology).
    arenas: Vec<NodeArena>,
    /// The node each worker's `Run` offsets index into, parallel to
    /// `programs` (node-major assignment from the topology; all zeros
    /// without one).
    node_of_worker: Vec<u32>,
    programs: Vec<WorkerProgram>,
    stats: CompileStats,
    /// Entries of the shared table and of every private view: up to the
    /// last shared datum. Private data past it need neither.
    table_len: usize,
}

/// Lowers `graph` under `mapping` into per-worker programs. Behind
/// [`crate::Executor::try_compile`].
pub(crate) fn try_compile<'g>(
    cfg: &RioConfig,
    graph: &'g TaskGraph,
    mapping: &dyn Mapping,
) -> Result<CompiledFlow<'g>, ExecError> {
    cfg.validate();
    if cfg.preflight {
        rio_stf::validate_mapping(mapping, graph.len(), cfg.workers)?;
    }
    // The packed epoch word caps task ids and per-epoch read counts at
    // u32; reject anything the expected-word simulation below could not
    // represent. (Targeted — a full `graph.validate()` would also reject
    // structural defects this path has historically tolerated.)
    graph.validate_limits(u64::from(u32::MAX), u64::from(u32::MAX))?;
    let workers = cfg.workers;
    let tasks = graph.tasks();
    // One mapping evaluation per task, reused by every worker's pass.
    let owners: Vec<u32> = tasks
        .iter()
        .map(|t| mapping.worker_of(t.id, workers).index() as u32)
        .collect();
    // Relevance bitsets: which data does each worker's own work touch?
    // (Pass 1 of the §3.5 pruning pre-pass.)
    let words = graph.num_data().div_ceil(64);
    let touched = crate::pruning::worker_data_bitsets(graph, &owners, workers);
    // Shared data go through the protocol: data the own tasks of two or
    // more workers touch, or, with stealing armed, every datum touched (a
    // thief may run any task, so nothing is private). The rest of the
    // touched data are worker-private.
    let (mut once, mut twice) = (vec![0u64; words], vec![0u64; words]);
    for w in 0..workers {
        for (k, &m) in touched[w * words..(w + 1) * words].iter().enumerate() {
            twice[k] |= once[k] & m;
            once[k] |= m;
        }
    }
    let shared_data = if cfg.stealing.is_some() { once } else { twice };
    let is_shared = |d: usize| shared_data[d / 64] & (1u64 << (d % 64)) != 0;
    // Shared tables and private views end at the last shared datum.
    let table_len = set_bits(&shared_data).last().map_or(0, |d| d + 1);
    // Lay out the access arena, each task's shared accesses first, and
    // precompute the expected epoch word of every shared access by
    // replaying the flow's declares once (a private access has no get and
    // carries 0). The simulated view before task t is the same for every
    // worker — declares and terminates update private state identically,
    // and all of a task's gets use the pre-task view (its own terminates
    // happen after the body; a task never declares one data object
    // twice) — so one sequential pass serves all workers.
    let total = graph.total_accesses();
    assert!(
        u32::try_from(total).is_ok(),
        "flow declares more than u32::MAX accesses"
    );
    let mut accesses = Vec::with_capacity(total);
    let mut expected = Vec::with_capacity(total);
    let mut private_accesses = 0u64;
    {
        let mut sim: Vec<LocalDataState> = vec![LocalDataState::default(); table_len];
        for t in tasks {
            for shared_pass in [true, false] {
                for a in &t.accesses {
                    let d = a.data.index();
                    if is_shared(d) != shared_pass {
                        continue;
                    }
                    expected.push(match (shared_pass, a.mode.writes()) {
                        (false, _) => 0,
                        (true, true) => expected_write_word(&sim[d]),
                        (true, false) => expected_read_word(&sim[d]),
                    });
                    accesses.push(*a);
                    private_accesses += u64::from(!shared_pass);
                }
            }
            for a in t.accesses.iter().filter(|a| is_shared(a.data.index())) {
                let l = &mut sim[a.data.index()];
                if a.mode.writes() {
                    declare_write(l, t.id);
                } else {
                    declare_read(l);
                }
            }
        }
    }

    let mut stats = CompileStats {
        flow_len: graph.len(),
        runs_per_worker: Vec::with_capacity(workers),
        syncs_per_worker: Vec::with_capacity(workers),
        folded_declares: 0,
        irrelevant_declares: 0,
        trailing_syncs: 0,
        private_accesses,
    };
    let mut programs = Vec::with_capacity(workers);
    // Only shared data are ever folded: a foreign access relevant to this
    // worker touches a datum two workers touch.
    let mut pending: Vec<SyncDelta> = vec![SyncDelta::EMPTY; table_len];
    // Data objects with a pending delta, in first-touch order — flushed
    // deterministically so repeated compilations emit identical programs.
    let mut touch_order: Vec<u32> = Vec::new();
    let mut owned = vec![0usize; workers];
    for &o in &owners {
        owned[o as usize] += 1;
    }
    for w in 0..workers {
        let mine = &touched[w * words..(w + 1) * words];
        let mut prog = WorkerProgram {
            code: Vec::with_capacity(owned[w]),
            runs: Vec::with_capacity(owned[w]),
            syncs: Vec::new(),
        };
        // Arena offset of the current task: the arena holds every task's
        // accesses back to back, in flow order.
        let mut start = 0u32;
        for (i, t) in tasks.iter().enumerate() {
            let end = start + t.accesses.len() as u32;
            if owners[i] as usize == w {
                for &d in &touch_order {
                    let delta = std::mem::take(&mut pending[d as usize]);
                    prog.push_sync(SyncInstr { data: d, delta });
                }
                touch_order.clear();
                let shared = t.accesses.iter().filter(|a| is_shared(a.data.index()));
                prog.push_run(RunInstr {
                    task: i as u32,
                    start,
                    synced: start + shared.count() as u32,
                    end,
                });
            } else {
                // A private datum is never foreign: its accesses all belong
                // to one worker, and no other worker's relevance set holds it.
                for a in &t.accesses {
                    let d = a.data.index();
                    if mine[d / 64] & (1u64 << (d % 64)) == 0 {
                        stats.irrelevant_declares += 1;
                        continue;
                    }
                    let delta = &mut pending[d];
                    if delta.is_empty() {
                        touch_order.push(d as u32);
                    }
                    delta.fold(a.mode, t.id);
                    stats.folded_declares += 1;
                }
            }
            start = end;
        }
        // Deltas past the worker's last own task are dead: private state
        // is only consulted by the worker's own `get_*` calls.
        stats.trailing_syncs += touch_order.len() as u64;
        for &d in &touch_order {
            pending[d as usize] = SyncDelta::EMPTY;
        }
        touch_order.clear();
        stats.runs_per_worker.push(prog.runs.len());
        stats.syncs_per_worker.push(prog.syncs.len());
        programs.push(prog);
    }
    // Lay the access arena and expected words out per NUMA node. On the
    // (default) single-node topology the one arena keeps flow order. With
    // a multi-node topology each worker's Run slices are copied into its
    // node's arena in program order and the Run offsets remapped, so the
    // hot walk only ever streams node-local memory.
    let node_of_worker = cfg.node_assignment();
    let num_nodes = node_of_worker
        .iter()
        .map(|&n| n as usize + 1)
        .max()
        .unwrap_or(1);
    let arenas: Vec<NodeArena> = if num_nodes == 1 {
        vec![NodeArena { accesses, expected }]
    } else {
        let mut arenas: Vec<NodeArena> = (0..num_nodes).map(|_| NodeArena::default()).collect();
        for (w, prog) in programs.iter_mut().enumerate() {
            let arena = &mut arenas[node_of_worker[w] as usize];
            for r in &mut prog.runs {
                let range = r.start as usize..r.end as usize;
                let start = arena.accesses.len() as u32;
                arena.accesses.extend_from_slice(&accesses[range.clone()]);
                arena.expected.extend_from_slice(&expected[range]);
                r.synced = start + (r.synced - r.start);
                r.start = start;
                r.end = arena.accesses.len() as u32;
            }
        }
        arenas
    };

    Ok(CompiledFlow {
        cfg: cfg.clone(),
        graph,
        arenas,
        node_of_worker,
        programs,
        stats,
        table_len,
    })
}

impl<'g> CompiledFlow<'g> {
    /// The graph this program was compiled from.
    pub fn graph(&self) -> &'g TaskGraph {
        self.graph
    }

    /// The configuration captured at compile time (worker count, wait
    /// strategy, watchdog, tracing… — every run uses it).
    pub fn config(&self) -> &RioConfig {
        &self.cfg
    }

    /// What the compiler did: instruction counts, coalescing and pruning
    /// effect.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Executes the compiled program. Like [`crate::Executor::run`] for
    /// the same `(graph, mapping)` pair — identical kernel invocations on
    /// identical workers in identical per-worker order — minus the
    /// per-run preflight and per-task interpretation.
    ///
    /// # Panics
    /// Propagates task-body panics (original payload); panics with the
    /// diagnostic rendering of any other [`ExecError`]. Use
    /// [`CompiledFlow::try_run`] to handle failures structurally.
    pub fn run<K>(&self, kernel: K) -> Execution
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        self.try_run(kernel).unwrap_or_else(|e| e.resume())
    }

    /// Like [`CompiledFlow::run`], but a contained failure is returned as
    /// a structured [`ExecError`]. The program itself stays valid: all
    /// protocol state is per-run, so a failed run can simply be retried.
    ///
    /// # Errors
    /// See [`ExecError`] for the post-abort state guarantees.
    pub fn try_run<K>(&self, kernel: K) -> Result<Execution, ExecError>
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        let cfg = &self.cfg;
        // Per-run steal state: a claim slot per task plus one published
        // instruction cursor per worker (thieves scan victims' remaining
        // code from there). All per-run, so the program stays reusable.
        let steal = cfg.stealing.as_ref().map(|policy| {
            let claims = ClaimTable::new(self.graph.len());
            let epoch = claims.begin_run();
            (policy, claims, epoch, Cursor::new_table(cfg.workers))
        });
        let (report, partial, _) =
            run_workers(cfg, self.table_len, self.graph.num_data(), |env, me| {
                let mut ctx = env.worker(me);
                if let Some((policy, claims, epoch, cursors)) = &steal {
                    ctx.steal = Some(StealState {
                        policy,
                        claims,
                        epoch: *epoch,
                        kernel: &kernel,
                        scan: ScanSource::Compiled {
                            tasks: self.graph.tasks(),
                            arenas: &self.arenas,
                            nodes: &self.node_of_worker,
                            programs: &self.programs,
                            cursors,
                        },
                    });
                }
                (self.run_program(ctx, &kernel), ())
            })?;
        Ok(Execution::assemble(cfg, report, partial))
    }

    /// One worker's interpreter: a linear walk of its code stream through
    /// the shared [`WorkerCtx`] engine. `tasks_visited` counts `Run`
    /// instructions (own tasks); `ops.syncs` counts applied deltas.
    fn run_program<K>(&self, mut ctx: WorkerCtx<'_>, kernel: &K) -> crate::report::WorkerReport
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        let me = ctx.me.index();
        let prog = &self.programs[me];
        let tasks = self.graph.tasks();
        let arena = &self.arenas[self.node_of_worker[me] as usize];
        let cursor = ctx.steal.and_then(|st| match st.scan {
            ScanSource::Compiled { cursors, .. } => Some(&cursors[me].0),
            _ => None,
        });
        for (pc, &code) in prog.code.iter().enumerate() {
            if code & SYNC_BIT != 0 {
                let s = &prog.syncs[(code & !SYNC_BIT) as usize];
                ctx.apply_sync(s.data as usize, s.delta);
            } else {
                if let Some(c) = cursor {
                    // Publish where this worker's remaining code starts so
                    // thieves scan forward from here. Run instructions
                    // only: syncs carry nothing stealable, and skipping
                    // them keeps the armed-but-idle cost off the sync fast
                    // path. Relaxed is enough — staleness only wastes a
                    // thief's window budget (anything already executed is
                    // already claimed).
                    c.store(pc, std::sync::atomic::Ordering::Relaxed);
                }
                let r = &prog.runs[code as usize];
                let t = &tasks[r.task as usize];
                ctx.tasks_visited += 1;
                let range = r.start as usize..r.end as usize;
                if !ctx.exec_task_pre(
                    kernel,
                    t,
                    &arena.accesses[range.clone()],
                    &arena.expected[range],
                    (r.synced - r.start) as usize,
                ) {
                    break;
                }
            }
        }
        // Release: this worker's program is over (or the run aborted and
        // no thief will execute past the abort), so thieves should skip
        // straight past its stream.
        if let Some(c) = cursor {
            c.store(prog.code.len(), std::sync::atomic::Ordering::Relaxed);
        }
        ctx.finish()
    }
}

impl std::fmt::Debug for CompiledFlow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledFlow")
            .field("workers", &self.cfg.workers)
            .field("flow_len", &self.stats.flow_len)
            .field("runs_per_worker", &self.stats.runs_per_worker)
            .field("syncs_per_worker", &self.stats.syncs_per_worker)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::wait::WaitStrategy;
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TableMapping, TaskId};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers).wait(WaitStrategy::Park)
    }

    fn compile(c: RioConfig, g: &TaskGraph) -> CompiledFlow<'_> {
        Executor::new(c).mapping(&RoundRobin).compile(g)
    }

    #[test]
    fn independent_tasks_compile_to_runs_only() {
        // Each task writes its own datum: no worker ever needs a foreign
        // delta, so every program is pure Run instructions — the compiled
        // form of "pruning removes everything foreign".
        let n = 40;
        let mut b = TaskGraph::builder(n);
        for i in 0..n {
            b.task(&[Access::write(DataId::from_index(i))], 1, "ind");
        }
        let g = b.build();
        let flow = compile(cfg(4), &g);
        let stats = flow.stats();
        assert_eq!(stats.runs_per_worker, vec![10; 4]);
        assert_eq!(stats.syncs_per_worker, vec![0; 4]);
        assert_eq!(stats.folded_declares, 0);
        // 4 workers × 30 foreign single-access tasks each.
        assert_eq!(stats.irrelevant_declares, 120);
        assert_eq!(stats.coalesce_factor(), 0.0);
        assert_eq!(stats.instructions(), 40);
        // Every datum is private to one worker: no get, no terminate, no
        // sync on any worker, and no table to allocate.
        assert_eq!(stats.private_accesses, 40);
        assert_eq!(flow.table_len, 0);
        let ran = AtomicU64::new(0);
        let run = flow.run(|_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 40);
        for w in &run.report.workers {
            assert_eq!(w.tasks_executed, 10);
            assert_eq!(w.ops, crate::report::OpCounts::default(), "{}", w.worker);
        }
    }

    #[test]
    fn shared_chain_coalesces_foreign_runs_into_single_syncs() {
        // A 100-task RW chain on one datum over 2 workers (round-robin):
        // between two of a worker's own tasks sits exactly one foreign
        // task, so coalescing is 1:1 here — but the structure is checked
        // exactly: alternating Sync/Run, one delta per foreign task.
        let mut b = TaskGraph::builder(1);
        for _ in 0..100 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let flow = compile(cfg(2), &g);
        let stats = flow.stats();
        assert_eq!(stats.runs_per_worker, vec![50, 50]);
        // W0 owns T1: nothing to sync before it; 49 foreign gaps follow.
        // The trailing foreign task (T100 for W0) is dead and dropped.
        assert_eq!(stats.syncs_per_worker, vec![49, 50]);
        assert_eq!(stats.trailing_syncs, 1);
        // All 100 foreign declares (50 per worker) were folded; 99 made
        // it into live Sync instructions, the trailing one was dropped.
        assert_eq!(stats.folded_declares, 100);
        assert!((stats.coalesce_factor() - 100.0 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn long_foreign_runs_coalesce_many_declares_into_one_sync() {
        // W0 owns only the first and last task; the 98 tasks between are
        // W1's, all on the same datum: W0's program must contain exactly
        // ONE Sync covering all 98 declares.
        let n = 100;
        let mut b = TaskGraph::builder(1);
        for _ in 0..n {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let m = TableMapping::from_fn(n, |i| rio_stf::WorkerId(u32::from(!(i == 0 || i == n - 1))));
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        let stats = flow.stats();
        assert_eq!(stats.runs_per_worker, vec![2, 98]);
        assert_eq!(stats.syncs_per_worker, vec![1, 1]);
        // 98 for W0's one gap; W1 folds the head task plus the tail task
        // (the latter is trailing for W1 and dropped again).
        assert_eq!(stats.folded_declares, 98 + 2);
        assert_eq!(stats.trailing_syncs, 1);
        // The one W0 delta summarizes 98 read-writes: last write T99,
        // zero reads after it.
        let s = &flow.programs[0].syncs[0];
        assert_eq!(s.delta.new_last_write, TaskId(99));
        assert_eq!(s.delta.reads_delta, 0);
        // And the run is correct.
        let store = DataStore::from_vec(vec![0u64]);
        flow.run(|_, _| *store.write(DataId(0)) += 1);
        assert_eq!(store.into_vec(), vec![n as u64]);
    }

    #[test]
    fn read_runs_fold_into_read_deltas() {
        // T1 (W0) writes; T2..T9 (W1) read; T10 (W0) writes again. W0's
        // program: Run(T1), Sync(8 reads), Run(T10).
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        for _ in 0..8 {
            b.task(&[Access::read(DataId(0))], 1, "r");
        }
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let m = TableMapping::from_fn(10, |i| rio_stf::WorkerId(u32::from(!(i == 0 || i == 9))));
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        let s = &flow.programs[0].syncs[0];
        assert_eq!(s.delta.reads_delta, 8);
        assert_eq!(s.delta.new_last_write, TaskId::NONE);
        let store = DataStore::from_vec(vec![0u64]);
        let seen = AtomicU64::new(0);
        flow.run(|_, t| match t.kind {
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
    fn compiled_run_matches_interpreted_results() {
        // Mixed mesh over 4 data objects; compiled and interpreted must
        // produce the same store (both equal the sequential result).
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
        let run_store = |compiled: bool| {
            let store = DataStore::filled(4, 0u64);
            let kernel = |_: WorkerId, t: &TaskDesc| {
                for a in &t.accesses {
                    if a.mode.writes() {
                        *store.write(a.data) += u64::from(a.data.0) + t.id.0;
                    } else {
                        std::hint::black_box(*store.read(a.data));
                    }
                }
            };
            if compiled {
                compile(cfg(3), &g).run(kernel);
            } else {
                Executor::new(cfg(3)).mapping(&RoundRobin).run(&g, kernel);
            }
            store.into_vec()
        };
        assert_eq!(run_store(true), run_store(false));
    }

    #[test]
    fn compiled_report_counts_runs_and_syncs() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..10 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        let g = b.build();
        let flow = compile(cfg(2), &g);
        let run = flow.run(|_, _| {});
        assert_eq!(run.report.tasks_executed(), 10);
        for w in &run.report.workers {
            assert_eq!(w.tasks_executed, 5);
            assert_eq!(w.tasks_visited, 5, "visited == own Run instructions");
            assert_eq!(w.ops.gets, 5);
            assert_eq!(w.ops.terminates, 5);
            assert_eq!(w.ops.declares, 0, "compiled runs declare via syncs");
            assert!(w.ops.syncs > 0);
        }
    }

    #[test]
    fn empty_graph_compiles_and_runs() {
        let g = TaskGraph::builder(0).build();
        let flow = compile(cfg(2), &g);
        assert_eq!(flow.stats().instructions(), 0);
        let run = flow.run(|_, _| unreachable!());
        assert_eq!(run.report.tasks_executed(), 0);
    }

    #[test]
    fn compiled_flow_is_reusable_across_runs() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..60 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let flow = compile(cfg(3), &g);
        let store = DataStore::from_vec(vec![0u64]);
        for _ in 0..5 {
            flow.run(|_, _| *store.write(DataId(0)) += 1);
        }
        assert_eq!(store.into_vec(), vec![300]);
    }

    #[test]
    fn preflight_validation_happens_at_compile_time_only() {
        use std::sync::atomic::AtomicUsize;
        struct Counting(AtomicUsize);
        impl Mapping for Counting {
            fn worker_of(&self, task: TaskId, workers: usize) -> rio_stf::WorkerId {
                self.0.fetch_add(1, Ordering::Relaxed);
                rio_stf::WorkerId((task.index() % workers) as u32)
            }
        }
        let mut b = TaskGraph::builder(1);
        for _ in 0..20 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        let g = b.build();
        let m = Counting(AtomicUsize::new(0));
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        let after_compile = m.0.load(Ordering::Relaxed);
        assert!(after_compile > 0, "compile evaluates the mapping");
        flow.run(|_, _| {});
        flow.run(|_, _| {});
        assert_eq!(
            m.0.load(Ordering::Relaxed),
            after_compile,
            "runs never re-evaluate or re-validate the mapping"
        );
    }

    #[test]
    fn compile_rejects_an_invalid_mapping() {
        struct Bad;
        impl Mapping for Bad {
            fn worker_of(&self, _: TaskId, workers: usize) -> rio_stf::WorkerId {
                rio_stf::WorkerId(workers as u32)
            }
        }
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "t");
        let g = b.build();
        let err = Executor::new(cfg(2))
            .mapping(&Bad)
            .try_compile(&g)
            .expect_err("out-of-range mapping must fail at compile time");
        assert_eq!(err.kind(), "invalid-mapping");
    }

    #[test]
    fn failed_run_leaves_the_program_reusable() {
        // Failed and good runs alternate on one program, over shared and
        // private data: every good run still computes the sequential
        // result.
        let n = 30;
        let g = chain_with_scratch(n);
        let flow = compile(cfg(2), &g);
        for round in 0..3u64 {
            let err = flow
                .try_run(|_, t| {
                    if t.id == TaskId(7 + round) {
                        panic!("kernel exploded");
                    }
                })
                .expect_err("the injected panic must abort the run");
            assert_eq!(err.kind(), "task-panicked");
            // Same program, next run: everything works.
            let store = DataStore::filled(n + 1, 0u64);
            let run = flow.run(|_, t| scratch_kernel(&store, t));
            assert_eq!(run.report.tasks_executed(), n as u64);
            assert_eq!(store.into_vec(), scratch_sequential(&g), "round {round}");
        }
    }

    #[test]
    fn all_wait_strategies_agree_under_compilation() {
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
            let flow = compile(RioConfig::with_workers(2).wait(wait), &g);
            flow.run(|_, t| {
                let d = t.accesses[0].data;
                *store.write(d) += 1;
            });
            assert_eq!(store.into_vec(), vec![50, 50], "strategy {wait}");
        }
    }

    #[test]
    fn expected_words_follow_the_flow_simulation() {
        use crate::protocol::pack_epoch;
        // T1 writes d0; T2, T3 read it; T4 writes it again.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let flow = compile(cfg(2), &g);
        // Single-node: one arena in flow order.
        let expected = &flow.arenas[0].expected;
        // T1's write waits for the initial epoch (no write, no reads).
        assert_eq!(expected[0], pack_epoch(TaskId::NONE, 0));
        // The reads wait for T1's write (the high half; the low half of a
        // read's expected word is masked off at wait time).
        assert_eq!(expected[1] >> 32, 1);
        assert_eq!(expected[2] >> 32, 1);
        // T4's write waits for T1's write AND both reads.
        assert_eq!(expected[3], pack_epoch(TaskId(1), 2));
    }

    #[test]
    fn node_arenas_partition_the_flat_arena() {
        use crate::topo::Topology;
        use std::sync::Arc;
        // 2×2 mock topology, 4 workers: every Run's accesses live in the
        // owning worker's node arena, offsets remapped; the run result is
        // identical to the single-arena layout.
        let n = 80;
        let g = chain_with_scratch(n);
        let single = compile(cfg(4), &g);
        assert_eq!(single.arenas.len(), 1, "no topology → one arena");
        let numa = compile(cfg(4).topology(Arc::new(Topology::mock(2, 2))), &g);
        assert_eq!(numa.arenas.len(), 2);
        assert_eq!(numa.node_of_worker, vec![0, 0, 1, 1]);
        // Arena slices, their shared prefixes and their expected words
        // match the single-node compile, which holds the task's accesses
        // with the shared one first.
        for (w, prog) in numa.programs.iter().enumerate() {
            let arena = &numa.arenas[numa.node_of_worker[w] as usize];
            for (r, sr) in prog.runs.iter().zip(&single.programs[w].runs) {
                assert_eq!(r.task, sr.task);
                assert_eq!(r.synced - r.start, sr.synced - sr.start);
                let range = r.start as usize..r.end as usize;
                let srange = sr.start as usize..sr.end as usize;
                let accesses = &g.tasks()[r.task as usize].accesses;
                assert_eq!(
                    &single.arenas[0].accesses[srange.clone()],
                    &[accesses[1], accesses[0]]
                );
                assert_eq!(
                    &arena.accesses[range.clone()],
                    &single.arenas[0].accesses[srange.clone()]
                );
                assert_eq!(&arena.expected[range], &single.arenas[0].expected[srange]);
            }
        }
        // Both arenas together cover exactly the owned Runs' accesses.
        let total: usize = numa.arenas.iter().map(|a| a.accesses.len()).sum();
        assert_eq!(total, g.total_accesses());
        // And the run produces the same store.
        let store = DataStore::filled(n + 1, 0u64);
        numa.run(|_, t| scratch_kernel(&store, t));
        assert_eq!(store.into_vec(), scratch_sequential(&g));
    }

    /// A read-write chain on D0 in which every task also writes its own
    /// scratch datum D(1 + i), declared first: D0 is shared by every
    /// worker, each scratch datum is private to its task's owner.
    fn chain_with_scratch(n: usize) -> TaskGraph {
        let mut b = TaskGraph::builder(n + 1);
        for i in 0..n {
            b.task(
                &[
                    Access::write(DataId::from_index(1 + i)),
                    Access::read_write(DataId(0)),
                ],
                1,
                "step",
            );
        }
        b.build()
    }

    /// Stores D0's value into the task's scratch datum, then advances D0.
    fn scratch_kernel(store: &DataStore<u64>, t: &TaskDesc) {
        let v = *store.read(DataId(0));
        *store.write(t.accesses[0].data) = v ^ t.id.0;
        *store.write(DataId(0)) = v.wrapping_mul(31).wrapping_add(t.id.0);
    }

    fn scratch_sequential(g: &TaskGraph) -> Vec<u64> {
        let store = DataStore::filled(g.num_data(), 0u64);
        rio_stf::sequential::run_graph(g, |id| scratch_kernel(&store, g.task(id)));
        store.into_vec()
    }

    #[test]
    fn mixed_flows_synchronize_exactly_their_shared_accesses() {
        let n = 30;
        let g = chain_with_scratch(n);
        let flow = compile(cfg(2), &g);
        assert_eq!(flow.stats().private_accesses, n as u64);
        // The shared access leads every Run's slice, ahead of the scratch
        // datum declared before it.
        for prog in &flow.programs {
            for r in &prog.runs {
                assert_eq!((r.synced - r.start, r.end - r.start), (1, 2));
                assert_eq!(flow.arenas[0].accesses[r.start as usize].data, DataId(0));
            }
        }
        let run = flow.run(|_, _| {});
        for w in &run.report.workers {
            // One get and one terminate per own task: D0's.
            assert_eq!(w.tasks_executed, 15);
            assert_eq!(w.ops.gets, 15, "{}", w.worker);
            assert_eq!(w.ops.terminates, 15, "{}", w.worker);
            assert_eq!(w.ops.declares, 0);
        }
    }

    #[test]
    fn stealing_elides_nothing() {
        // A thief may run any task, so with stealing armed no datum is
        // private: every access of every task is terminated, exactly as
        // on the interpreted path. Gets skip only the stolen tasks, whose
        // thief publishes without acquiring.
        let n = 30;
        let g = chain_with_scratch(n);
        let c = cfg(2).stealing(crate::steal::StealPolicy::new());
        let flow = compile(c.clone(), &g);
        assert_eq!(flow.stats().private_accesses, 0);
        let compiled = flow.run(|_, _| {});
        let interpreted = Executor::new(c).mapping(&RoundRobin).run(&g, |_, _| {});
        for run in [&compiled, &interpreted] {
            let ops = run.report.total_ops();
            let stolen = run.counters.total().steals;
            assert_eq!(ops.terminates, 2 * n as u64);
            assert_eq!(ops.gets + 2 * stolen, 2 * n as u64);
        }
    }

    #[test]
    fn tasks_mixing_private_and_shared_data_stay_sequential() {
        let n = 60;
        let g = chain_with_scratch(n);
        let expected = scratch_sequential(&g);
        for wait in [
            WaitStrategy::Spin,
            WaitStrategy::SpinYield,
            WaitStrategy::Park,
        ] {
            let flow = compile(RioConfig::with_workers(3).wait(wait), &g);
            let store = DataStore::filled(n + 1, 0u64);
            flow.run(|_, t| scratch_kernel(&store, t));
            assert_eq!(store.into_vec(), expected, "strategy {wait}");
        }
    }

    #[test]
    fn concurrent_runs_of_one_program_are_independent() {
        // Two threads run the same program at once, each on its own
        // protocol state: both compute the sequential result, run after
        // run.
        let n = 200;
        let g = chain_with_scratch(n);
        let flow = compile(cfg(2), &g);
        let expected = scratch_sequential(&g);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let store = DataStore::filled(n + 1, 0u64);
                        flow.run(|_, t| scratch_kernel(&store, t));
                        assert_eq!(store.into_vec(), expected);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "static total mapping")]
    fn hybrid_executors_cannot_compile() {
        let g = TaskGraph::builder(0).build();
        let _ = Executor::new(cfg(2))
            .hybrid(&crate::hybrid::Unmapped)
            .compile(&g);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn compiled_runs_can_be_traced() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..40 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let flow = Executor::new(cfg(2))
            .mapping(&RoundRobin)
            .trace(crate::trace_api::TraceConfig::new())
            .compile(&g);
        let run = flow.run(|_, _| {});
        let trace = run.trace.expect("trace present");
        assert_eq!(trace.workers.len(), 2);
        assert_eq!(trace.workers.iter().map(|w| w.tasks).sum::<u64>(), 40);
    }
}
