//! Equivalence of the static-mapping execution paths: on random flows,
//! mappings, worker counts and wait strategies, `Executor::compile` +
//! `CompiledFlow::run`, the hybrid walk over a total mapping and the
//! flow API must be observationally identical to `Executor::run` — same
//! per-worker kernel invocation orders, same final store contents — and
//! all must equal the sequential oracle.
//! Coalescing only changes *how* private state is updated between a
//! worker's own tasks, never which tasks run where in what order; the
//! accesses compiled out of the protocol (worker-private data) change
//! neither.

use proptest::prelude::*;
use rio::core::hybrid::{Total, Unmapped};
use rio::core::{Executor, OpCounts, Rio, RioConfig, WaitStrategy};
use rio::stf::{
    Access, AccessMode, DataId, DataStore, ExecError, RoundRobin, TableMapping, TaskDesc,
    TaskGraph, TaskId, WorkerId,
};
use std::sync::Mutex;

/// Strategy: a random well-formed task flow over `num_data` objects.
fn arb_graph(max_tasks: usize, num_data: usize) -> impl Strategy<Value = TaskGraph> {
    let access = (0..num_data as u32, 0..3u8).prop_map(|(d, m)| {
        let mode = match m {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        };
        Access::new(DataId(d), mode)
    });
    let task_accesses = proptest::collection::vec(access, 0..4).prop_map(move |mut accesses| {
        // Deduplicate data objects within a task (writes win over reads).
        accesses.sort_by_key(|a| (a.data, a.mode.writes()));
        accesses.reverse();
        accesses.dedup_by_key(|a| a.data);
        accesses
    });
    proptest::collection::vec(task_accesses, 1..=max_tasks).prop_map(move |tasks| {
        let mut b = TaskGraph::builder(num_data);
        for accesses in tasks {
            b.task(&accesses, 1, "prop");
        }
        b.build()
    })
}

/// A deterministic pseudo-random total mapping derived from `seed`.
fn arb_table_mapping(len: usize, workers: usize, seed: u64) -> TableMapping {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let table = (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            WorkerId((s % workers as u64) as u32)
        })
        .collect();
    TableMapping::new(table)
}

/// The state-hashing kernel: final store contents identify the
/// schedule's observable semantics.
fn hash_kernel(store: &DataStore<u64>, t: &TaskDesc) {
    let mut h = t.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for d in t.reads() {
        h = (h ^ *store.read(d)).wrapping_mul(0x100_0000_01b3);
    }
    for d in t.writes() {
        *store.write(d) = h;
    }
}

fn run_sequential(graph: &TaskGraph) -> Vec<u64> {
    let store = DataStore::filled(graph.num_data(), 0u64);
    rio::stf::sequential::run_graph(graph, |tid| hash_kernel(&store, graph.task(tid)));
    store.into_vec()
}

const WAITS: [WaitStrategy; 3] = [
    WaitStrategy::Spin,
    WaitStrategy::SpinYield,
    WaitStrategy::Park,
];

/// The execution paths that take a static total mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Interpreted,
    Compiled,
    /// The hybrid walk over `Total(mapping)`: nothing left to claim.
    Hybrid,
    /// The flow API replaying the graph's tasks.
    Flow,
}

const PATHS: [Path; 4] = [Path::Interpreted, Path::Compiled, Path::Hybrid, Path::Flow];

/// What one run showed: the final store, each worker's kernel
/// invocation order and each worker's protocol op counts.
struct Observed {
    store: Vec<u64>,
    orders: Vec<Vec<TaskId>>,
    ops: Vec<OpCounts>,
}

/// Runs `graph` under `cfg`/`mapping` through `path`.
fn observe(graph: &TaskGraph, cfg: &RioConfig, mapping: &TableMapping, path: Path) -> Observed {
    let store = DataStore::filled(graph.num_data(), 0u64);
    let orders: Vec<Mutex<Vec<TaskId>>> =
        (0..cfg.workers).map(|_| Mutex::new(Vec::new())).collect();
    let kernel = |w: WorkerId, t: &TaskDesc| {
        orders[w.index()].lock().unwrap().push(t.id);
        hash_kernel(&store, t);
    };
    let exec = Executor::new(cfg.clone()).mapping(mapping);
    let total = Total(mapping);
    let report = match path {
        Path::Interpreted => exec.run(graph, kernel).report,
        Path::Compiled => exec.compile(graph).run(kernel).report,
        Path::Hybrid => exec.hybrid(&total).run(graph, kernel).report,
        Path::Flow => Rio::new(cfg.clone()).run(&store, mapping, |ctx| {
            let me = ctx.worker();
            for t in graph.tasks() {
                ctx.task(&t.accesses, |_| kernel(me, t));
            }
        }),
    };
    Observed {
        store: store.into_vec(),
        orders: orders
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
        ops: report.workers.iter().map(|w| w.ops).collect(),
    }
}

/// Per-worker `(gets, declares, terminates)`: the timing-free op counts.
fn protocol_ops(o: &Observed) -> Vec<(u64, u64, u64)> {
    o.ops
        .iter()
        .map(|ops| (ops.gets, ops.declares, ops.terminates))
        .collect()
}

/// `graph` with scratch data added under `mapping`: per the bits of
/// `picks[i]`, task `i` also read-writes its owner's scratch datum and
/// writes a scratch datum of its own, declared before its other accesses
/// or after them. Both kinds are touched by one worker only, so they are
/// worker-private, and the tasks mix private and shared accesses.
fn with_scratch(
    graph: &TaskGraph,
    mapping: &TableMapping,
    workers: usize,
    picks: &[u8],
) -> TaskGraph {
    use rio::stf::Mapping;
    let base = graph.num_data();
    let mut b = TaskGraph::builder(base + workers + graph.len());
    for (i, t) in graph.tasks().iter().enumerate() {
        let pick = picks[i % picks.len()];
        let owner = mapping.worker_of(t.id, workers).index();
        let mut scratch = Vec::new();
        if pick & 1 != 0 {
            scratch.push(Access::read_write(DataId::from_index(base + owner)));
        }
        if pick & 2 != 0 {
            scratch.push(Access::write(DataId::from_index(base + workers + i)));
        }
        let accesses: Vec<Access> = if pick & 4 != 0 {
            scratch.iter().chain(&t.accesses).copied().collect()
        } else {
            t.accesses.iter().chain(&scratch).copied().collect()
        };
        b.task(&accesses, 1, "prop");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Worker-private data: on flows where part of the data is touched by
    /// one worker only under the drawn mapping — including tasks that mix
    /// private and shared accesses — the compiled path, which skips the
    /// protocol on those accesses, agrees with the interpreted path on
    /// per-worker kernel orders and the final store, under every wait
    /// strategy, and both match the oracle.
    #[test]
    fn compiled_matches_interpreted_with_private_data(
        graph in arb_graph(40, 3),
        workers in 1usize..5,
        map_seed in 0u64..1000,
        picks in proptest::collection::vec(0u8..8, 1..16),
    ) {
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let graph = with_scratch(&graph, &mapping, workers, &picks);
        // Every task-own scratch datum is private, whatever the mapping.
        let own_scratch = (0..graph.len()).filter(|i| picks[i % picks.len()] & 2 != 0).count();
        let stats = Executor::new(RioConfig::with_workers(workers))
            .mapping(&mapping)
            .compile(&graph)
            .stats()
            .clone();
        prop_assert!(stats.private_accesses >= own_scratch as u64);
        let oracle = run_sequential(&graph);
        for wait in WAITS {
            let cfg = RioConfig::with_workers(workers).wait(wait);
            let interp = observe(&graph, &cfg, &mapping, Path::Interpreted);
            let comp = observe(&graph, &cfg, &mapping, Path::Compiled);
            prop_assert_eq!(&comp.orders, &interp.orders,
                "per-worker kernel invocation orders diverged under {}", wait);
            prop_assert_eq!(&comp.store, &interp.store, "store diverged under {}", wait);
            prop_assert_eq!(&comp.store, &oracle, "oracle mismatch under {}", wait);
        }
    }

    /// The tentpole equivalence: the compiled, hybrid and flow-API runs
    /// agree with the interpreted run on per-worker kernel invocation
    /// orders and final store contents — and all match the sequential
    /// oracle — for random graphs, random table mappings, any worker
    /// count and every wait strategy. The hybrid and flow-API walks run
    /// on the interpreted engine, so their per-worker gets, declares and
    /// terminates match it exactly too.
    #[test]
    fn compiled_matches_interpreted(
        graph in arb_graph(40, 5),
        workers in 1usize..5,
        map_seed in 0u64..1000,
        wait_idx in 0usize..3,
    ) {
        let cfg = RioConfig::with_workers(workers).wait(WAITS[wait_idx]);
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let interp = observe(&graph, &cfg, &mapping, Path::Interpreted);
        prop_assert_eq!(&interp.store, &run_sequential(&graph), "oracle mismatch");
        for path in PATHS {
            let run = observe(&graph, &cfg, &mapping, path);
            prop_assert_eq!(&run.orders, &interp.orders,
                "{:?}: per-worker kernel invocation orders diverged", path);
            prop_assert_eq!(&run.store, &interp.store, "{:?}: store diverged", path);
            if matches!(path, Path::Hybrid | Path::Flow) {
                prop_assert_eq!(protocol_ops(&run), protocol_ops(&interp),
                    "{:?}: per-worker op counts diverged", path);
            }
        }
    }

    /// A fully unmapped hybrid run claims every task exactly once: the
    /// claims sum to the flow length, each worker lost every race it did
    /// not win, and the store matches the oracle.
    #[test]
    fn unmapped_hybrid_claims_every_task_once(
        graph in arb_graph(40, 5),
        workers in 1usize..5,
        wait_idx in 0usize..3,
    ) {
        let cfg = RioConfig::with_workers(workers).wait(WAITS[wait_idx]);
        let store = DataStore::filled(graph.num_data(), 0u64);
        let run = Executor::new(cfg)
            .hybrid(&Unmapped)
            .run(&graph, |_, t: &TaskDesc| hash_kernel(&store, t));
        let stats = run.hybrid.expect("a hybrid run reports claim statistics");
        let tasks = graph.len() as u64;
        prop_assert_eq!(stats.claimed_per_worker.iter().sum::<u64>(), tasks);
        for (w, (&claimed, &lost)) in stats
            .claimed_per_worker
            .iter()
            .zip(&stats.lost_races_per_worker)
            .enumerate()
        {
            prop_assert_eq!(lost, tasks - claimed, "worker {}", w);
        }
        prop_assert_eq!(run.report.tasks_executed(), tasks);
        prop_assert_eq!(store.into_vec(), run_sequential(&graph));
    }

    /// Compilation is also equivalent to the *pruned* interpreted path
    /// (which it subsumes): same orders, same stores.
    #[test]
    fn compiled_matches_pruned(
        graph in arb_graph(35, 4),
        workers in 1usize..4,
        map_seed in 0u64..1000,
    ) {
        let cfg = RioConfig::with_workers(workers).wait(WaitStrategy::Park);
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);

        let store = DataStore::filled(graph.num_data(), 0u64);
        let orders: Vec<Mutex<Vec<TaskId>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        Executor::new(cfg.clone())
            .mapping(&mapping)
            .pruning(true)
            .run(&graph, |w: WorkerId, t: &TaskDesc| {
                orders[w.index()].lock().unwrap().push(t.id);
                hash_kernel(&store, t);
            });
        let pruned_store = store.into_vec();
        let pruned_orders: Vec<Vec<TaskId>> = orders
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();

        let comp = observe(&graph, &cfg, &mapping, Path::Compiled);
        prop_assert_eq!(comp.orders, pruned_orders);
        prop_assert_eq!(comp.store, pruned_store);
    }

    /// Compiled state is per-run: after a run aborts with
    /// `TaskPanicked`, a fresh `CompiledFlow::run` of the *same* program
    /// completes and still matches the sequential oracle.
    #[test]
    fn compiled_flow_survives_an_aborted_run(
        graph in arb_graph(30, 4),
        workers in 1usize..4,
        victim_seed in 0usize..1000,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let cfg = RioConfig::with_workers(workers).wait(WaitStrategy::Park);
        let flow = Executor::new(cfg).mapping(&RoundRobin).compile(&graph);

        let err = flow
            .try_run(|_, t: &TaskDesc| {
                if t.id == victim {
                    panic!("injected kernel panic");
                }
            })
            .expect_err("the injected panic must abort the run");
        match err {
            ExecError::TaskPanicked { task, .. } => prop_assert_eq!(task, victim),
            other => prop_assert!(false, "expected TaskPanicked, got {}", other),
        }

        // Same program, fresh run: complete and correct.
        let store = DataStore::filled(graph.num_data(), 0u64);
        let run = flow.run(|_, t: &TaskDesc| hash_kernel(&store, t));
        prop_assert_eq!(run.report.tasks_executed(), graph.len() as u64);
        prop_assert_eq!(store.into_vec(), run_sequential(&graph));
    }
}
