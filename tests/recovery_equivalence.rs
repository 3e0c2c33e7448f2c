//! Recovery-mode equivalence: with a permanently failing task and a
//! `RecoveryPolicy` installed, a run degrades instead of aborting — and
//! degrades *deterministically*. On random flows, mappings, worker
//! counts and wait strategies:
//!
//! * every store value **outside the poisoned cone** is byte-identical
//!   to the fault-free run (executed tasks read only healthy data, so
//!   they compute exactly the fault-free values);
//! * the partial report (failed task, poisoned data, skipped cone) is
//!   identical across `Spin`/`SpinYield`/`Park` and across the
//!   interpreted, pruned, hybrid and compiled execution paths — poison
//!   is decided at serialized write epochs, never by scheduling races.
//!
//! The failure is injected by the kernel itself (an unconditional panic
//! at the victim task) rather than through `rio-faults`: the umbrella
//! crate deliberately does not depend on the fault-injection crate, and
//! a kernel panic exercises the identical retry/poison machinery.

use proptest::prelude::*;
use rio::core::{Executor, RecoveryPolicy, RioConfig, WaitStrategy};
use rio::stf::{
    Access, AccessMode, DataId, DataStore, PartialReport, TableMapping, TaskDesc, TaskGraph,
    TaskId, WorkerId,
};

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

const WAITS: [WaitStrategy; 3] = [
    WaitStrategy::Spin,
    WaitStrategy::SpinYield,
    WaitStrategy::Park,
];

/// The execution paths that must agree on degradation.
#[derive(Clone, Copy, Debug)]
enum Path {
    Interpreted,
    Pruned,
    Hybrid,
    Compiled,
}

const PATHS: [Path; 4] = [
    Path::Interpreted,
    Path::Pruned,
    Path::Hybrid,
    Path::Compiled,
];

/// The stable fingerprint of a degraded run: the worker that happened to
/// own the victim is scheduling-dependent under hybrid claiming (and the
/// panic payload is not comparable), so both are excluded; everything
/// else must be bit-stable.
type Fingerprint = (Vec<(TaskId, u32)>, Vec<DataId>, Vec<TaskId>);

fn fingerprint(p: &PartialReport) -> Fingerprint {
    (
        p.failed.iter().map(|f| (f.task, f.retries)).collect(),
        p.poisoned.clone(),
        p.skipped.clone(),
    )
}

/// Runs `graph` with a kernel that permanently fails at `victim`; returns
/// the final store and the degradation fingerprint.
fn observe_degraded(
    graph: &TaskGraph,
    cfg: &RioConfig,
    mapping: &TableMapping,
    victim: TaskId,
    path: Path,
) -> (Vec<u64>, Fingerprint) {
    let store = DataStore::filled(graph.num_data(), 0u64);
    let kernel = |_: WorkerId, t: &TaskDesc| {
        if t.id == victim {
            panic!("injected permanent failure");
        }
        hash_kernel(&store, t);
    };
    let run = match path {
        Path::Interpreted => Executor::new(cfg.clone())
            .mapping(mapping)
            .try_run(graph, kernel),
        Path::Pruned => Executor::new(cfg.clone())
            .mapping(mapping)
            .pruning(true)
            .try_run(graph, kernel),
        Path::Hybrid => Executor::new(cfg.clone())
            .hybrid(&rio::core::hybrid::Total(mapping))
            .try_run(graph, kernel),
        Path::Compiled => Executor::new(cfg.clone())
            .mapping(mapping)
            .compile(graph)
            .try_run(kernel),
    }
    .expect("a recovered run must degrade, not abort");
    let partial = run
        .outcome
        .partial()
        .expect("the victim fails permanently, so the run must be degraded");
    (store.into_vec(), fingerprint(partial))
}

/// The fault-free baseline under the same configuration.
fn observe_healthy(graph: &TaskGraph, cfg: &RioConfig, mapping: &TableMapping) -> Vec<u64> {
    let store = DataStore::filled(graph.num_data(), 0u64);
    Executor::new(cfg.clone())
        .mapping(mapping)
        .run(graph, |_: WorkerId, t: &TaskDesc| hash_kernel(&store, t));
    store.into_vec()
}

/// `graph` plus, for every task whose `picks` bit is set, a read-write
/// of its owner's scratch datum: data touched by one worker only, which
/// the compiled path runs outside the protocol.
fn with_worker_scratch(
    graph: &TaskGraph,
    mapping: &TableMapping,
    workers: usize,
    picks: &[u8],
) -> TaskGraph {
    use rio::stf::Mapping;
    let base = graph.num_data();
    let mut b = TaskGraph::builder(base + workers);
    for (i, t) in graph.tasks().iter().enumerate() {
        let mut accesses = t.accesses.clone();
        if picks[i % picks.len()] != 0 {
            let owner = mapping.worker_of(t.id, workers).index();
            accesses.insert(0, Access::read_write(DataId::from_index(base + owner)));
        }
        b.task(&accesses, 1, "prop");
    }
    b.build()
}

/// A failed task that writes a worker-private datum poisons it for its
/// own worker's later readers exactly as on the interpreted path, where
/// every access goes through the protocol: the skipped cone, the poisoned
/// set and the store are the same.
#[test]
fn a_failure_on_private_data_degrades_like_the_interpreted_path() {
    let (t, d) = (TaskId::from_index, DataId);
    // D0 is shared by both workers; D1 is private to W0, D2 to W1.
    let mut b = TaskGraph::builder(3);
    b.task(
        &[Access::write(d(1)), Access::read_write(d(0))],
        1,
        "victim",
    ); // W0
    b.task(&[Access::read_write(d(2))], 1, "healthy"); // W1
    b.task(&[Access::read(d(1))], 1, "private-reader"); // W0
    b.task(
        &[Access::read(d(0)), Access::read_write(d(2))],
        1,
        "shared-reader",
    ); // W1
    b.task(&[Access::read_write(d(1))], 1, "private-reader"); // W0
    b.task(&[Access::read(d(2))], 1, "private-reader"); // W1
    let graph = b.build();
    let mapping = TableMapping::from_fn(graph.len(), |i| WorkerId(i as u32 % 2));
    let compiled = Executor::new(RioConfig::with_workers(2))
        .mapping(&mapping)
        .compile(&graph);
    assert_eq!(compiled.stats().private_accesses, 6);
    for wait in WAITS {
        let cfg = RioConfig::with_workers(2)
            .wait(wait)
            .recovery(RecoveryPolicy::no_retries());
        let interpreted = observe_degraded(&graph, &cfg, &mapping, t(0), Path::Interpreted);
        let compiled = observe_degraded(&graph, &cfg, &mapping, t(0), Path::Compiled);
        assert_eq!(compiled, interpreted, "under {wait:?}");
        // The victim's same-worker readers of D1 are skipped, and so is
        // the cone it reaches through D0.
        let (failed, poisoned, skipped) = compiled.1;
        assert_eq!(failed, vec![(t(0), 0)]);
        assert_eq!(poisoned, vec![d(0), d(1), d(2)]);
        assert_eq!(skipped, vec![t(2), t(3), t(4), t(5)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ISSUE satellite: equivalence outside the cone. With a permanent
    /// failure at a random task, every datum *not* in the poisoned cone
    /// holds exactly the fault-free value, on all three wait strategies —
    /// and the degradation fingerprint does not depend on the strategy.
    #[test]
    fn stores_outside_the_poisoned_cone_match_the_fault_free_run(
        graph in arb_graph(30, 5),
        workers in 1usize..4,
        map_seed in 0u64..1000,
        victim_seed in 0usize..1000,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let mut fingerprints = Vec::new();
        for wait in WAITS {
            let cfg = RioConfig::with_workers(workers)
                .wait(wait)
                .recovery(RecoveryPolicy::no_retries());
            let baseline = observe_healthy(&graph, &cfg, &mapping);
            let (store, fp) =
                observe_degraded(&graph, &cfg, &mapping, victim, Path::Interpreted);
            prop_assert_eq!(fp.0.len(), 1);
            prop_assert_eq!(fp.0[0].0, victim);
            for d in 0..graph.num_data() {
                if fp.1.binary_search(&DataId::from_index(d)).is_ok() {
                    continue;
                }
                prop_assert_eq!(
                    store[d], baseline[d],
                    "datum D{} is outside the poisoned cone of {} but diverged \
                     from the fault-free run under {:?}",
                    d, victim, wait
                );
            }
            fingerprints.push(fp);
        }
        prop_assert_eq!(&fingerprints[1], &fingerprints[0],
            "SpinYield degraded differently from Spin");
        prop_assert_eq!(&fingerprints[2], &fingerprints[0],
            "Park degraded differently from Spin");
    }

    /// Tentpole pin: the interpreted, pruned, hybrid and compiled paths
    /// agree on how a run degrades — same failed task, same poisoned
    /// cone, same skipped set, same store — because poison is decided at
    /// serialized write epochs, not by which path noticed it first.
    #[test]
    fn every_execution_path_degrades_identically(
        graph in arb_graph(30, 4),
        workers in 1usize..4,
        map_seed in 0u64..1000,
        victim_seed in 0usize..1000,
        wait_idx in 0usize..3,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let cfg = RioConfig::with_workers(workers)
            .wait(WAITS[wait_idx])
            .recovery(RecoveryPolicy::no_retries());
        let (ref_store, ref_fp) =
            observe_degraded(&graph, &cfg, &mapping, victim, Path::Interpreted);
        for path in PATHS {
            let (store, fp) = observe_degraded(&graph, &cfg, &mapping, victim, path);
            prop_assert_eq!(&fp, &ref_fp,
                "{:?} degraded differently from Interpreted", path);
            prop_assert_eq!(&store, &ref_store,
                "{:?} left a different store from Interpreted", path);
        }
    }

    /// With part of the data private to one worker — accesses the
    /// compiled path runs outside the protocol — every path still
    /// degrades exactly like the interpreted one.
    #[test]
    fn paths_degrade_identically_with_private_data(
        graph in arb_graph(30, 3),
        workers in 1usize..4,
        map_seed in 0u64..1000,
        victim_seed in 0usize..1000,
        picks in proptest::collection::vec(0u8..2, 1..8),
        wait_idx in 0usize..3,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let graph = with_worker_scratch(&graph, &mapping, workers, &picks);
        let cfg = RioConfig::with_workers(workers)
            .wait(WAITS[wait_idx])
            .recovery(RecoveryPolicy::no_retries());
        let (ref_store, ref_fp) =
            observe_degraded(&graph, &cfg, &mapping, victim, Path::Interpreted);
        for path in PATHS {
            let (store, fp) = observe_degraded(&graph, &cfg, &mapping, victim, path);
            prop_assert_eq!(&fp, &ref_fp,
                "{:?} degraded differently from Interpreted", path);
            prop_assert_eq!(&store, &ref_store,
                "{:?} left a different store from Interpreted", path);
        }
    }

    /// A `RecoveryPolicy` with zero faults is invisible: the run
    /// completes, the outcome is `Complete`, and the store matches a run
    /// without the policy — on every path.
    #[test]
    fn recovery_is_invisible_on_healthy_runs(
        graph in arb_graph(30, 4),
        workers in 1usize..4,
        map_seed in 0u64..1000,
    ) {
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let plain = RioConfig::with_workers(workers).wait(WaitStrategy::Park);
        let recovering = plain.clone().recovery(RecoveryPolicy::default());
        let baseline = observe_healthy(&graph, &plain, &mapping);
        for path in PATHS {
            let store = DataStore::filled(graph.num_data(), 0u64);
            let kernel = |_: WorkerId, t: &TaskDesc| hash_kernel(&store, t);
            let run = match path {
                Path::Interpreted => Executor::new(recovering.clone())
                    .mapping(&mapping)
                    .try_run(&graph, kernel),
                Path::Pruned => Executor::new(recovering.clone())
                    .mapping(&mapping)
                    .pruning(true)
                    .try_run(&graph, kernel),
                Path::Hybrid => Executor::new(recovering.clone())
                    .hybrid(&rio::core::hybrid::Total(&mapping))
                    .try_run(&graph, kernel),
                Path::Compiled => Executor::new(recovering.clone())
                    .mapping(&mapping)
                    .compile(&graph)
                    .try_run(kernel),
            }
            .expect("a healthy run must complete");
            prop_assert!(run.outcome.is_complete(), "{:?} reported degradation", path);
            prop_assert_eq!(run.report.tasks_executed(), graph.len() as u64);
            prop_assert_eq!(&store.into_vec(), &baseline, "{:?} store mismatch", path);
        }
    }
}
