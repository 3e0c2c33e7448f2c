//! The benchmark's three workloads, the paper's Experiments 1, 2 and 4.
//!
//! Each workload generates its inputs from the seed ([`Inputs`]), then
//! runs whole-flow executions through RIO's public API and checks every
//! output against an oracle outside the timed region ([`Workload`]).

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rio::centralized::{execute_graph, CentralConfig};
use rio::core::{
    CompiledFlow, ExecReport, Execution, Executor, RioConfig, StealPolicy, Trace, TraceConfig,
};
use rio::dense::lu::lu_reconstruct;
use rio::dense::{tiled_lu_flow, LuFlow, Matrix};
use rio::stf::sequential::run_graph;
use rio::stf::{
    DataId, DataStore, ExecError, Mapping, RoundRobin, TableMapping, TaskDesc, TaskGraph, WorkerId,
};
use rio::workloads::counter_kernel;
use rio::workloads::random_deps::{self, RandomDepsConfig};

use crate::host::process_cpu;
use crate::spans::{self, KernelSpans};

/// Workers of every execution: one per core of the reference host, a
/// 2-vCPU KVM guest on an Intel Xeon (family 6, model 143).
pub const WORKERS: usize = 2;

/// Which runtime configuration an execution uses. `Default` is the
/// shipped configuration; `Traced` adds the event trace; the last three
/// switch the always-on observability layers off cumulatively, for the
/// paired layer-cost rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Default,
    Traced,
    NoTime,
    NoCounters,
    Bare,
}

impl Variant {
    /// The configurations of the paired layer-cost rows, in cumulative order.
    pub const OBS: [Variant; 4] = [
        Variant::Default,
        Variant::NoTime,
        Variant::NoCounters,
        Variant::Bare,
    ];

    fn apply(self, cfg: RioConfig, tasks: usize) -> RioConfig {
        match self {
            Variant::Default => cfg,
            // Room for every task and wait event of a worker, so the
            // doctor never has to estimate a dropped task.
            Variant::Traced => cfg.trace(TraceConfig::new().with_capacity(2 * tasks + 1024)),
            Variant::NoTime => cfg.measure_time(false),
            Variant::NoCounters => cfg.measure_time(false).counters(false),
            Variant::Bare => cfg.measure_time(false).counters(false).flight(false),
        }
    }
}

/// What a finished execution reported.
pub struct Done {
    pub report: ExecReport,
    pub trace: Option<Trace>,
    /// `false` when the run degraded under a recovery policy.
    pub complete: bool,
}

impl From<Execution> for Done {
    fn from(e: Execution) -> Done {
        Done {
            complete: e.outcome.is_complete(),
            report: e.report,
            trace: e.trace,
        }
    }
}

/// One execution: its timed region and what it returned.
pub struct Run<O> {
    pub wall: Duration,
    /// Process CPU time over the timed region, every thread included.
    pub cpu: Duration,
    pub result: Result<(Done, O), ExecError>,
}

/// Times `f`: wall clock and process CPU time.
fn meter<R>(f: impl FnOnce() -> R) -> (R, Duration, Duration) {
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed();
    (r, wall, process_cpu() - cpu0)
}

/// A prepared workload, ready to execute back to back.
pub trait Workload {
    /// What one execution leaves for the oracle to check.
    type Output;

    fn graph(&self) -> &TaskGraph;
    fn mapping(&self) -> &dyn Mapping;
    /// The workload's `Variant::Default` configuration.
    fn base_config(&self) -> RioConfig;
    /// One whole-flow execution. Execution ids stay distinct within a
    /// process; kernel calls record spans into `kernels` when given.
    fn run(&self, v: Variant, exec: u64, kernels: Option<&KernelSpans>) -> Run<Self::Output>;
    /// The oracle: whether execution `exec` produced the right output.
    fn check(&self, exec: u64, out: &Self::Output) -> bool;
    /// Time of the same flow replayed sequentially on one thread, `t(g)`.
    fn sequential(&self) -> Duration;
    /// Time of the same `TaskGraph` on the centralized baseline runtime.
    fn central(&self) -> Duration;
    /// Floating-point operations of one execution (0 for synthetic bodies).
    fn flops(&self) -> f64 {
        0.0
    }
}

/// Seeded inputs of a workload. `prepare` is the program's set-up step
/// after generation (compile, mapping), timed together with `generate`.
pub trait Inputs: Sized {
    type Ready<'a>: Workload
    where
        Self: 'a;
    fn generate(seed: u64) -> Self;
    fn prepare(&self) -> Self::Ready<'_>;
}

/// SplitMix64 finaliser: a cheap, well-mixed hash of one word.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// indep-fine: Experiment 1, independent tasks at fine grain.

/// Tasks of `indep-fine`.
const INDEP_TASKS: usize = 65_536;
/// Counter-kernel iterations per `indep-fine` task (about 30 ns).
const INDEP_BODY: u64 = 64;

pub struct IndepInputs {
    seed: u64,
    graph: TaskGraph,
}

impl IndepInputs {
    pub fn with_size(seed: u64, tasks: usize) -> IndepInputs {
        IndepInputs {
            seed,
            graph: rio::workloads::independent::graph_private_data_cost(tasks, INDEP_BODY),
        }
    }
}

impl Inputs for IndepInputs {
    type Ready<'a> = IndepFine<'a>;

    fn generate(seed: u64) -> IndepInputs {
        IndepInputs::with_size(seed, INDEP_TASKS)
    }

    fn prepare(&self) -> IndepFine<'_> {
        let w = IndepFine {
            inputs: self,
            flows: Default::default(),
            stamps: Stamps {
                seed: self.seed,
                cells: (0..self.graph.len()).map(|_| AtomicU64::new(0)).collect(),
            },
        };
        w.flow(Variant::Default);
        w
    }
}

/// `indep-fine`, compiled once per variant and run back to back.
pub struct IndepFine<'a> {
    inputs: &'a IndepInputs,
    flows: [OnceCell<CompiledFlow<'a>>; 5],
    stamps: Stamps,
}

/// One datum per task; every task stamps its own with a value unique to
/// the execution.
struct Stamps {
    seed: u64,
    cells: Vec<AtomicU64>,
}

impl Stamps {
    fn stamp(&self, exec: u64, task: usize) -> u64 {
        mix(self.seed ^ (exec << 32) ^ task as u64)
    }

    fn body(&self, exec: u64, t: &TaskDesc) {
        counter_kernel(INDEP_BODY);
        self.cells[t.id.index()].store(self.stamp(exec, t.id.index()), Ordering::Relaxed);
    }
}

impl<'a> IndepFine<'a> {
    fn flow(&self, v: Variant) -> &CompiledFlow<'a> {
        self.flows[v as usize].get_or_init(|| {
            Executor::new(v.apply(self.base_config(), self.inputs.graph.len()))
                .mapping(&RoundRobin)
                .compile(&self.inputs.graph)
        })
    }
}

impl Workload for IndepFine<'_> {
    type Output = ();

    fn graph(&self) -> &TaskGraph {
        &self.inputs.graph
    }

    fn mapping(&self) -> &dyn Mapping {
        &RoundRobin
    }

    fn base_config(&self) -> RioConfig {
        RioConfig::with_workers(WORKERS)
    }

    fn run(&self, v: Variant, exec: u64, kernels: Option<&KernelSpans>) -> Run<()> {
        let (flow, stamps) = (self.flow(v), &self.stamps);
        let (r, wall, cpu) =
            meter(|| flow.try_run(|w, t| spans::kernel(kernels, w, || stamps.body(exec, t))));
        Run {
            wall,
            cpu,
            result: r.map(|e| (e.into(), ())),
        }
    }

    /// Every task's stamp is present. The workers' join orders their
    /// relaxed stores before these loads.
    fn check(&self, exec: u64, _: &()) -> bool {
        let s = &self.stamps;
        s.cells
            .iter()
            .enumerate()
            .all(|(i, c)| c.load(Ordering::Relaxed) == s.stamp(exec, i))
    }

    fn sequential(&self) -> Duration {
        let g = &self.inputs.graph;
        run_graph(g, |t| self.stamps.body(u64::MAX, g.task(t))).elapsed
    }

    fn central(&self) -> Duration {
        let cfg = CentralConfig::with_threads(WORKERS);
        let stamps = &self.stamps;
        execute_graph(&cfg, &self.inputs.graph, |_, t| stamps.body(u64::MAX, t)).wall
    }
}

// ---------------------------------------------------------------------
// random-deps: Experiment 2, random dependencies on the typed flow API.

/// Tasks of `random-deps`, over the paper's 128 data objects.
const RANDOM_TASKS: usize = 8_192;
/// Counter-kernel iterations per `random-deps` task (about 1 µs).
const RANDOM_BODY: u64 = 1_024;

pub struct RandomInputs {
    graph: TaskGraph,
    init: Vec<u64>,
}

impl RandomInputs {
    pub fn with_size(seed: u64, tasks: usize) -> RandomInputs {
        let graph = random_deps::graph(&RandomDepsConfig::paper(tasks, seed));
        let init = (0..graph.num_data() as u64)
            .map(|d| mix(seed ^ d))
            .collect();
        RandomInputs { graph, init }
    }
}

impl Inputs for RandomInputs {
    type Ready<'a> = RandomDeps<'a>;

    fn generate(seed: u64) -> RandomInputs {
        RandomInputs::with_size(seed, RANDOM_TASKS)
    }

    fn prepare(&self) -> RandomDeps<'_> {
        RandomDeps {
            inputs: self,
            reference: OnceCell::new(),
        }
    }
}

/// `random-deps`: each body spins about 1 µs, then writes a hash of the
/// values it reads into its write target.
pub struct RandomDeps<'a> {
    inputs: &'a RandomInputs,
    reference: OnceCell<Vec<u64>>,
}

/// The task body: returns the written object and its new value.
fn random_body(t: &TaskDesc, read: impl Fn(DataId) -> u64) -> (DataId, u64) {
    counter_kernel(RANDOM_BODY);
    let h = t.reads().fold(mix(t.id.0), |h, d| mix(h ^ read(d)));
    (t.writes().next().expect("every random-deps task writes"), h)
}

impl RandomDeps<'_> {
    /// The final store of a sequential replay of the flow.
    fn replay(&self) -> Vec<u64> {
        let mut v = self.inputs.init.clone();
        for t in self.inputs.graph.tasks() {
            let (d, h) = random_body(t, |d| v[d.index()]);
            v[d.index()] = h;
        }
        v
    }
}

impl Workload for RandomDeps<'_> {
    type Output = Vec<u64>;

    fn graph(&self) -> &TaskGraph {
        &self.inputs.graph
    }

    fn mapping(&self) -> &dyn Mapping {
        &RoundRobin
    }

    fn base_config(&self) -> RioConfig {
        RioConfig::with_workers(WORKERS)
    }

    fn run(&self, v: Variant, _: u64, kernels: Option<&KernelSpans>) -> Run<Vec<u64>> {
        let graph = &self.inputs.graph;
        let store = DataStore::from_vec(self.inputs.init.clone());
        let rio = rio::core::Rio::new(v.apply(self.base_config(), graph.len()));
        let (r, wall, cpu) = meter(|| {
            rio.try_run_with_outcome(&store, &RoundRobin, |ctx| {
                let me = ctx.worker();
                for t in graph.tasks() {
                    ctx.task(&t.accesses, |view| {
                        spans::kernel(kernels, me, || {
                            let (d, h) = random_body(t, |d| *view.read(d));
                            *view.write(d) = h;
                        })
                    });
                }
            })
        });
        Run {
            wall,
            cpu,
            result: r.map(|(mut report, outcome)| {
                let done = Done {
                    trace: report.take_trace(),
                    report,
                    complete: outcome.is_complete(),
                };
                (done, store.into_vec())
            }),
        }
    }

    /// The final store equals a sequential replay.
    fn check(&self, _: u64, out: &Vec<u64>) -> bool {
        *out == *self.reference.get_or_init(|| self.replay())
    }

    fn sequential(&self) -> Duration {
        let t0 = Instant::now();
        std::hint::black_box(self.replay());
        t0.elapsed()
    }

    fn central(&self) -> Duration {
        let store = DataStore::from_vec(self.inputs.init.clone());
        let cfg = CentralConfig::with_threads(WORKERS);
        execute_graph(&cfg, &self.inputs.graph, |_, t| {
            let (d, h) = random_body(t, |d| *store.read(d));
            *store.write(d) = h;
        })
        .wall
    }
}

// ---------------------------------------------------------------------
// lu-dense: Experiment 4, tiled LU without pivoting.

/// Matrix order and tile size of `lu-dense` (an 8 × 8 tile grid).
const LU_N: usize = 512;
const LU_TILE: usize = 64;
/// Largest accepted ‖LU − A‖_F / ‖A‖_F.
const LU_TOLERANCE: f64 = 1e-12;

pub struct LuInputs {
    a: Matrix,
    flow: LuFlow,
}

impl LuInputs {
    pub fn with_size(seed: u64, n: usize, tile: usize) -> LuInputs {
        LuInputs {
            // `Matrix::random` ignores the seed's lowest bit; mixing keeps
            // neighbouring seeds apart.
            a: Matrix::random_diag_dominant(n, mix(seed)),
            flow: tiled_lu_flow(n / tile, tile),
        }
    }
}

impl Inputs for LuInputs {
    type Ready<'a> = LuDense<'a>;

    fn generate(seed: u64) -> LuInputs {
        LuInputs::with_size(seed, LU_N, LU_TILE)
    }

    fn prepare(&self) -> LuDense<'_> {
        LuDense {
            inputs: self,
            owner: self.flow.owner_mapping(WORKERS),
            reference: OnceCell::new(),
        }
    }
}

/// `lu-dense`: owner-computes mapping, interpreted `Executor::run`, with
/// bounded work stealing armed.
pub struct LuDense<'a> {
    inputs: &'a LuInputs,
    owner: TableMapping,
    /// The sequentially factored matrix, `None` if it failed the
    /// residual check.
    reference: OnceCell<Option<Matrix>>,
}

impl LuDense<'_> {
    /// Factors a fresh copy of the input on one thread; returns the
    /// factored matrix and the time the factorization took.
    fn factor_sequential(&self) -> (Matrix, Duration) {
        let f = &self.inputs.flow;
        let store = f.make_store(&self.inputs.a);
        let kernel = f.kernel(&store);
        let elapsed = run_graph(&f.graph, |t| kernel(WorkerId(0), f.graph.task(t))).elapsed;
        (f.extract(&store), elapsed)
    }
}

/// ‖LU − A‖_F / ‖A‖_F for a matrix factored in place.
pub fn lu_residual(factored: &Matrix, a: &Matrix) -> f64 {
    let lu = lu_reconstruct(factored);
    let diff: f64 = lu
        .as_slice()
        .iter()
        .zip(a.as_slice())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    diff.sqrt() / a.frobenius()
}

impl Workload for LuDense<'_> {
    type Output = Matrix;

    fn graph(&self) -> &TaskGraph {
        &self.inputs.flow.graph
    }

    fn mapping(&self) -> &dyn Mapping {
        &self.owner
    }

    fn base_config(&self) -> RioConfig {
        RioConfig::with_workers(WORKERS).stealing(StealPolicy::new())
    }

    fn run(&self, v: Variant, _: u64, kernels: Option<&KernelSpans>) -> Run<Matrix> {
        let f = &self.inputs.flow;
        let store = f.make_store(&self.inputs.a);
        let kernel = f.kernel(&store);
        let executor =
            Executor::new(v.apply(self.base_config(), f.graph.len())).mapping(&self.owner);
        let (r, wall, cpu) =
            meter(|| executor.try_run(&f.graph, |w, t| spans::kernel(kernels, w, || kernel(w, t))));
        Run {
            wall,
            cpu,
            result: r.map(|e| (e.into(), f.extract(&store))),
        }
    }

    /// ‖LU − A‖/‖A‖ < 1e-12. The residual is O(n³), so it is computed
    /// once, on the sequential factorization; every execution must then
    /// reproduce that factorization bit for bit, which RIO's in-order
    /// execution guarantees (each tile sees the same updates in the same
    /// order).
    fn check(&self, _: u64, out: &Matrix) -> bool {
        let reference = self.reference.get_or_init(|| {
            let (m, _) = self.factor_sequential();
            (lu_residual(&m, &self.inputs.a) < LU_TOLERANCE).then_some(m)
        });
        reference
            .as_ref()
            .is_some_and(|r| r.as_slice() == out.as_slice())
    }

    fn sequential(&self) -> Duration {
        self.factor_sequential().1
    }

    fn central(&self) -> Duration {
        let f = &self.inputs.flow;
        let store = f.make_store(&self.inputs.a);
        let cfg = CentralConfig::with_threads(WORKERS);
        execute_graph(&cfg, &f.graph, f.kernel(&store)).wall
    }

    fn flops(&self) -> f64 {
        let n = self.inputs.a.rows() as f64;
        2.0 * n * n * n / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tally;

    /// Runs one default execution, lets `plant` corrupt its output, and
    /// returns the tally the benchmark would keep.
    fn tally_with<W: Workload>(w: &W, plant: impl FnOnce(&W, &mut W::Output)) -> Tally {
        let mut tally = Tally::default();
        let run = w.run(Variant::Default, 7, None);
        let (done, mut out) = run.result.expect("execution succeeds");
        assert!(done.complete);
        plant(w, &mut out);
        tally.add(w.check(7, &out));
        tally
    }

    #[test]
    fn indep_fine_oracle_catches_a_missing_stamp() {
        let inputs = IndepInputs::with_size(1, 256);
        let w = inputs.prepare();
        assert_eq!(tally_with(&w, |_, _| {}).error_rate(), 0.0);
        let bad = tally_with(&w, |w, _| w.stamps.cells[17].store(0, Ordering::Relaxed));
        assert_eq!((bad.attempted, bad.failed), (1, 1));
        assert!(bad.error_rate() > 0.0);
    }

    #[test]
    fn random_deps_oracle_catches_a_corrupted_store_value() {
        let inputs = RandomInputs::with_size(1, 512);
        let w = inputs.prepare();
        assert_eq!(tally_with(&w, |_, _| {}).error_rate(), 0.0);
        let bad = tally_with(&w, |_, out| out[3] ^= 1);
        assert!(bad.error_rate() > 0.0);
    }

    #[test]
    fn lu_dense_oracle_catches_a_corrupted_tile() {
        let inputs = LuInputs::with_size(1, 64, 16);
        let w = inputs.prepare();
        assert_eq!(tally_with(&w, |_, _| {}).error_rate(), 0.0);
        let bad = tally_with(&w, |_, out| out[(40, 9)] += 1e-9);
        assert!(bad.error_rate() > 0.0);
    }

    #[test]
    fn lu_dense_rejects_a_reference_that_fails_the_residual() {
        let inputs = LuInputs::with_size(3, 64, 16);
        let w = inputs.prepare();
        let (mut m, _) = w.factor_sequential();
        assert!(lu_residual(&m, &inputs.a) < LU_TOLERANCE);
        m[(0, 0)] += 1.0;
        assert!(lu_residual(&m, &inputs.a) >= LU_TOLERANCE);
    }

    #[test]
    fn random_deps_inputs_follow_the_seed() {
        let a = RandomInputs::with_size(1, 64);
        let b = RandomInputs::with_size(1, 64);
        let c = RandomInputs::with_size(2, 64);
        assert_eq!(a.init, b.init);
        assert_ne!(a.init, c.init);
    }
}
