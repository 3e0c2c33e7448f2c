//! End-to-end and per-layer benchmark of the RIO runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <indep-fine|random-deps|lu-dense> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload is a closed loop: the main thread submits the next
//! whole-flow execution when the previous one returns, with 2 workers.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics. Each output is checked against an oracle outside the timed
//! region. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod flows;
mod host;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rio::core::{Executor, OpCounts, RioConfig};
use rio::metrics::{decompose, CumulativeTimes};
use rio::stf::{Access, DataId, TaskGraph};
use rio::trace::Histogram;

use flows::{Done, IndepInputs, Inputs, LuInputs, RandomInputs, Variant, Workload, WORKERS};
use spans::Spans;
use stats::{median, percentile, ratio};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of development, for held-out checks of later claims.
const HELD_OUT_SEED: u64 = 2;
/// Set-ups before the first execution. One more runs every
/// [`SETUP_EVERY`] of a measured loop, so the medians of the set-up
/// metrics span the whole run rather than the host's state at start-up.
const SETUP_REPS: usize = 5;
const SETUP_EVERY: Duration = Duration::from_secs(1);
/// Unmeasured executions before a measured loop starts.
const WARMUP: Duration = Duration::from_millis(500);
/// Floor on the executions of every loop, whatever `--seconds` says.
const MIN_EXECS: usize = 6;

const WORKLOADS: [&str; 3] = ["indep-fine", "random-deps", "lu-dense"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: rio-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         default seed {DEFAULT_SEED}; seed {HELD_OUT_SEED} is held out for checking later claims",
        WORKLOADS.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Executions attempted and failed. A failure is a `try_run` error, a
/// degraded outcome or an output the oracle rejects.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Tasks completed per second of timed execution.
fn tasks_per_s(tasks: f64, walls_ms: &[f64]) -> f64 {
    ratio(tasks, walls_ms.iter().sum::<f64>() / 1e3)
}

/// Median of `reps` calls of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    median(&(0..reps).map(|_| ms(f())).collect::<Vec<_>>())
}

/// `engine.fixed_us`: a compiled one-task flow run back to back, which
/// is thread spawn plus per-run table allocation.
fn engine_fixed_us() -> f64 {
    let mut b = TaskGraph::builder(1);
    b.task(&[Access::write(DataId(0))], 1, "one");
    let graph = b.build();
    let flow = Executor::new(RioConfig::with_workers(WORKERS)).compile(&graph);
    1e3 * median_ms(201, || {
        let t0 = Instant::now();
        flow.run(|_, _| {});
        t0.elapsed()
    })
}

/// One benchmark process over one prepared workload.
struct Bench<'w, W: Workload> {
    w: &'w W,
    args: &'w Args,
    spans: Spans,
    tally: Tally,
    next_exec: u64,
    tasks: f64,
    /// Human-readable lines printed before the result.
    notes: String,
    /// One throwaway set-up (generate, then compile), timed.
    resetup: &'w dyn Fn(&Spans) -> Setup,
    setups: Vec<Setup>,
    last_setup: Instant,
}

/// One set-up's times: generate (ms), compile (ms), whole set-up (s).
type Setup = [f64; 3];

/// One execution as a loop sees it.
struct Exec {
    wall: Duration,
    cpu: Duration,
    done: Option<Done>,
}

impl<W: Workload> Bench<'_, W> {
    fn exec_id(&mut self) -> u64 {
        self.next_exec += 1;
        self.next_exec
    }

    /// The oracle verdict on one execution; reports the first failures.
    fn verdict(&self, exec: u64, result: &Result<(Done, W::Output), rio::stf::ExecError>) -> bool {
        let why = match result {
            Ok((done, _)) if !done.complete => "degraded",
            Ok((_, out)) if !self.w.check(exec, out) => "wrong output",
            Ok(_) => return true,
            Err(e) => e.kind(),
        };
        if self.tally.failed < 3 {
            eprintln!("execution {exec} failed: {why}");
        }
        false
    }

    /// One untraced execution of `v`, checked.
    fn execute(&mut self, v: Variant) -> Exec {
        let id = self.exec_id();
        let run = self.w.run(v, id, None);
        let ok = self.verdict(id, &run.result);
        self.tally.add(ok);
        Exec {
            wall: run.wall,
            cpu: run.cpu,
            done: run.result.ok().map(|(d, _)| d),
        }
    }

    fn warm_up(&mut self) {
        let t0 = Instant::now();
        let mut n = 0;
        while t0.elapsed() < WARMUP || n < 3 {
            self.execute(Variant::Default);
            n += 1;
        }
    }

    /// Runs `step` until `secs` have passed and at least [`MIN_EXECS`]
    /// steps ran, with a set-up between steps every [`SETUP_EVERY`].
    fn repeat(&mut self, secs: f64, mut step: impl FnMut(&mut Self, usize)) {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut i = 0;
        while Instant::now() < deadline || i < MIN_EXECS {
            if self.last_setup.elapsed() >= SETUP_EVERY {
                self.setups.push((self.resetup)(&self.spans));
                self.last_setup = Instant::now();
            }
            step(self, i);
            i += 1;
        }
    }

    /// Median over this run's set-ups of column `k` of [`Setup`].
    fn setup_median(&self, k: usize) -> f64 {
        median(&self.setups.iter().map(|x| x[k]).collect::<Vec<_>>())
    }

    /// `--trace 0`: the closed loop with tracing off.
    ///
    /// The gated metrics are the median wall, CPU per task, set-up time,
    /// peak RSS and the success rate. The tail (`wall_ms_p90`) and the
    /// mean throughput (`tasks_per_s`) are printed but not gated: on a
    /// host whose hypervisor steals vCPU time in bursts they follow the
    /// host's load more than the program (see `README.md`); the traced
    /// run reports them as `loop.*`.
    fn end_to_end(&mut self, m: &mut Metrics) {
        let mut walls = Vec::new();
        let mut cpu = Duration::ZERO;
        self.repeat(self.args.seconds, |b, _| {
            let e = b.execute(Variant::Default);
            walls.push(ms(e.wall));
            cpu += e.cpu;
        });
        let done_tasks = self.tasks * walls.len() as f64;
        m.push("wall_ms_p50", percentile(&walls, 0.5), "ms");
        m.push(
            "cpu_ns_per_task",
            ratio(cpu.as_nanos() as f64, done_tasks),
            "ns",
        );
        m.push("setup_s", self.setup_median(2), "s");
        m.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
        m.push("success_rate", 1.0 - self.tally.error_rate(), "ratio");
        let q = |p: f64| percentile(&walls, p);
        let _ = writeln!(
            self.notes,
            "wall_ms_p90 = {} ms\ntasks_per_s = {} 1/s\nerror_rate = {} ({} of {} executions failed)\n\
             samples = {} timed executions; wall ms p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} p99 {:.3}",
            q(0.9),
            tasks_per_s(done_tasks, &walls),
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted,
            walls.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(0.99),
        );
    }

    /// `--trace 1`: reference runs, untraced and traced executions
    /// interleaved, then the paired observability-layer rows.
    fn per_layer(&mut self, m: &mut Metrics) {
        let w = self.w;
        let tasks = self.tasks;
        let fixed_us = engine_fixed_us();
        let ((seq_ms, central_ms), _) = self.spans.record("reference", 0, || {
            (
                median_ms(5, || w.sequential()),
                median_ms(3, || w.central()),
            )
        });
        let seq = Duration::from_secs_f64(seq_ms / 1e3);
        let compiled = Executor::new(w.base_config())
            .mapping(w.mapping())
            .compile(w.graph());
        let cstats = compiled.stats();
        let instructions_per_task = ratio(cstats.instructions() as f64, tasks);
        let coalesce = cstats.coalesce_factor();
        drop(compiled);

        // Interleaved: untraced executions, executions with RIO's trace
        // on, and executions that also record the benchmark's kernel spans.
        let mut plain = Plain::default();
        let (mut rio_traced_walls, mut spanned_walls) = (Vec::new(), Vec::new());
        let (mut self_ms, mut kernel_ms, mut verify_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut waits = Histogram::new();
        let mut doctor: Option<(rio::doctor::DoctorReport, f64)> = None;
        self.repeat(self.args.seconds / 2.0, |b, i| match i % 3 {
            0 => {
                let e = b.execute(Variant::Default);
                plain.add(&e, tasks, seq, w.flops());
            }
            1 => {
                let e = b.execute(Variant::Traced);
                rio_traced_walls.push(ms(e.wall));
                let Some(trace) = e.done.and_then(|d| d.trace) else {
                    return;
                };
                waits.merge(&trace.wait_histogram());
                if doctor.is_none() {
                    let (report, span) = b.spans.record("diagnose", 0, || {
                        rio::doctor::diagnose(w.graph(), w.mapping(), WORKERS, &trace)
                    });
                    doctor = Some((report, span.ms()));
                }
            }
            _ => {
                let id = b.exec_id();
                let kernels = b.spans.kernels(WORKERS, w.graph().len());
                let (run, exec) = b.spans.record("execution", 0, || {
                    w.run(Variant::Traced, id, Some(&kernels))
                });
                let (ok, verify) = b
                    .spans
                    .record("verify", exec.id, || b.verdict(id, &run.result));
                b.tally.add(ok);
                // Kernel spans of the first such execution are kept for
                // the span file; later ones only feed the self-time numbers.
                let (s, k) = b.spans.adopt_kernels(&exec, &kernels, i == 2);
                spanned_walls.push(ms(run.wall));
                self_ms.push(s as f64 / 1e6);
                kernel_ms.push(k as f64 / 1e6);
                verify_ms.push(verify.ms());
            }
        });

        // Paired layer-cost rows: the four configurations of
        // `Variant::OBS` in rotating order within each round.
        let mut rounds: Vec<[f64; 4]> = Vec::new();
        self.repeat(self.args.seconds / 2.0, |b, r| {
            let mut walls = [0.0; 4];
            for k in 0..4 {
                let slot = (r + k) % 4;
                walls[slot] = b.execute(Variant::OBS[slot]).wall.as_nanos() as f64;
            }
            rounds.push(walls);
        });

        let execs = plain.reports as f64;
        let ops = plain.ops;
        let c = plain.counters;
        m.push("setup.generate_ms", self.setup_median(0), "ms");
        m.push("setup.compile_ms", self.setup_median(1), "ms");
        m.push(
            "compile.instructions_per_task",
            instructions_per_task,
            "count",
        );
        m.push("compile.coalesce_factor", coalesce, "ratio");
        m.push("engine.fixed_us", fixed_us, "us");
        m.push(
            "engine.runtime_ns_per_task",
            median(&plain.runtime_ns),
            "ns",
        );
        m.push("engine.task_ns_per_task", median(&plain.task_ns), "ns");
        m.push("engine.idle_ns_per_task", median(&plain.idle_ns), "ns");
        for (k, name, spread) in [
            (
                0,
                "obs.measure_time_ns_per_task",
                "obs.measure_time_spread_ns",
            ),
            (1, "obs.counters_ns_per_task", "obs.counters_spread_ns"),
            (2, "obs.flight_ns_per_task", "obs.flight_spread_ns"),
        ] {
            let deltas: Vec<f64> = rounds.iter().map(|r| (r[k] - r[k + 1]) / tasks).collect();
            let (q1, q2, q3) = (
                percentile(&deltas, 0.25),
                percentile(&deltas, 0.5),
                percentile(&deltas, 0.75),
            );
            m.push(name, q2, "ns");
            m.push(spread, q3 - q1, "ns");
            let verdict = if q1 > 0.0 || q3 < 0.0 {
                "resolved"
            } else {
                "unresolved"
            };
            let _ = writeln!(
                self.notes,
                "{name}: median {q2:.2} ns, quartiles [{q1:.2}, {q3:.2}] over {} paired rounds: {verdict}",
                rounds.len()
            );
        }
        let plain_p50 = median(&plain.walls);
        let rio_traced_p50 = median(&rio_traced_walls);
        let spanned_p50 = median(&spanned_walls);
        m.push(
            "obs.trace_overhead_ratio",
            ratio(rio_traced_p50, plain_p50),
            "ratio",
        );
        let per_task = |x: u64| ratio(x as f64, execs * tasks);
        m.push(
            "protocol.declares_per_task",
            per_task(ops.declares),
            "count",
        );
        m.push("protocol.syncs_per_task", per_task(ops.syncs), "count");
        m.push("protocol.gets_per_task", per_task(ops.gets), "count");
        m.push(
            "protocol.terminates_per_task",
            per_task(ops.terminates),
            "count",
        );
        m.push("protocol.waits_per_task", per_task(ops.waits), "count");
        m.push(
            "protocol.polls_per_wait",
            ratio(ops.poll_loops as f64, ops.waits as f64),
            "count",
        );
        m.push("park.spins_per_exec", ratio(c.spins as f64, execs), "count");
        m.push("park.parks_per_exec", ratio(c.parks as f64, execs), "count");
        m.push(
            "park.wakes_elided_ratio",
            ratio(c.wakes_elided as f64, ops.terminates as f64),
            "ratio",
        );
        m.push(
            "park.handoff_us",
            ratio(plain.idle_us, ops.waits as f64),
            "us",
        );
        m.push(
            "park.wait_ns_p50",
            waits.quantile_upper_bound_ns(0.5) as f64,
            "ns",
        );
        m.push(
            "park.wait_ns_p99",
            waits.quantile_upper_bound_ns(0.99) as f64,
            "ns",
        );
        m.push(
            "steal.steals_per_exec",
            ratio(c.steals as f64, execs),
            "count",
        );
        m.push(
            "steal.claim_success",
            ratio(c.steals as f64, (c.steals + c.steal_aborts) as f64),
            "ratio",
        );
        m.push("steal.stolen_frac", per_task(c.steals), "ratio");
        m.push("dense.gflops", median(&plain.gflops), "GFLOP/s");
        m.push("decomp.e_l", median(&plain.e[0]), "ratio");
        m.push("decomp.e_p", median(&plain.e[1]), "ratio");
        m.push("decomp.e_r", median(&plain.e[2]), "ratio");
        m.push("decomp.e", median(&plain.e[3]), "ratio");
        let (critical_ms, speedup, imbalance, diagnose_ms) =
            doctor.map_or((0.0, 0.0, 0.0, 0.0), |(d, t)| {
                (
                    d.critical_path_ns as f64 / 1e6,
                    d.achievable_speedup,
                    d.quality.imbalance,
                    t,
                )
            });
        m.push("doctor.critical_path_ms", critical_ms, "ms");
        m.push("doctor.achievable_speedup", speedup, "ratio");
        m.push("doctor.imbalance", imbalance, "ratio");
        m.push("doctor.diagnose_ms", diagnose_ms, "ms");
        m.push("ref.seq_ms", seq_ms, "ms");
        m.push("ref.central_ms", central_ms, "ms");
        m.push("span.exec_self_ms", median(&self_ms), "ms");
        m.push("span.kernel_ms", median(&kernel_ms), "ms");
        m.push("span.verify_ms", median(&verify_ms), "ms");
        m.push(
            "span.overhead_ratio",
            ratio(spanned_p50, plain_p50),
            "ratio",
        );
        m.push("loop.wall_ms_p90", percentile(&plain.walls, 0.9), "ms");
        m.push(
            "loop.tasks_per_s",
            tasks_per_s(plain.walls.len() as f64 * tasks, &plain.walls),
            "1/s",
        );
        let _ = writeln!(
            self.notes,
            "wall p50: untraced {plain_p50:.4} ms (n={}), RIO trace on {rio_traced_p50:.4} ms (n={}), \
             trace and kernel spans {spanned_p50:.4} ms (n={})",
            plain.walls.len(),
            rio_traced_walls.len(),
            spanned_walls.len()
        );
    }
}

/// What the untraced executions of a traced run add up to.
#[derive(Default)]
struct Plain {
    walls: Vec<f64>,
    runtime_ns: Vec<f64>,
    task_ns: Vec<f64>,
    idle_ns: Vec<f64>,
    gflops: Vec<f64>,
    /// Per execution: `e_l`, `e_p`, `e_r` and `e`.
    e: [Vec<f64>; 4],
    /// Executions whose report fed the sums below.
    reports: u64,
    ops: OpCounts,
    counters: rio::core::CounterRow,
    idle_us: f64,
}

impl Plain {
    fn add(&mut self, e: &Exec, tasks: f64, seq: Duration, flops: f64) {
        self.walls.push(ms(e.wall));
        let Some(done) = &e.done else { return };
        let r = &done.report;
        let (task, idle) = (r.cumulative_task_time(), r.cumulative_idle_time());
        self.runtime_ns
            .push(r.cumulative_runtime_time().as_nanos() as f64 / tasks);
        self.task_ns.push(task.as_nanos() as f64 / tasks);
        self.idle_ns.push(idle.as_nanos() as f64 / tasks);
        self.gflops.push(ratio(flops, task.as_secs_f64()) / 1e9);
        let d = decompose(
            seq,
            seq,
            &CumulativeTimes {
                threads: r.num_workers(),
                wall: r.wall,
                task,
                idle,
            },
        );
        for (v, x) in self
            .e
            .iter_mut()
            .zip([d.e_l, d.e_p, d.e_r, d.parallel_efficiency()])
        {
            v.push(x);
        }
        self.reports += 1;
        self.ops.merge(&r.total_ops());
        self.counters.merge(&r.counters.total());
        self.idle_us += idle.as_nanos() as f64 / 1e3;
    }
}

/// Sets up the workload, keeps the last set-up, and measures it.
fn run<I: Inputs>(args: &Args, calib_ns: f64) -> (Metrics, Tally, String) {
    let spans = Spans::new();
    let resetup = |spans: &Spans| -> Setup {
        let s = spans.open("setup", 0);
        let (inputs, g) = spans.record("generate", s.id, || I::generate(args.seed));
        let (ready, c) = spans.record("compile", s.id, || inputs.prepare());
        drop(ready);
        [g.ms(), c.ms(), spans.close(s).ns() as f64 / 1e9]
    };
    let mut setups: Vec<Setup> = (1..SETUP_REPS).map(|_| resetup(&spans)).collect();
    let s = spans.open("setup", 0);
    let (inputs, g) = spans.record("generate", s.id, || I::generate(args.seed));
    let (ready, c) = spans.record("compile", s.id, || inputs.prepare());
    setups.push([g.ms(), c.ms(), spans.close(s).ns() as f64 / 1e9]);

    let mut b = Bench {
        w: &ready,
        args,
        spans,
        tally: Tally::default(),
        next_exec: 0,
        tasks: ready.graph().len() as f64,
        notes: String::new(),
        resetup: &resetup,
        setups,
        last_setup: Instant::now(),
    };
    b.warm_up();
    let mut m = Metrics::default();
    if args.trace {
        b.per_layer(&mut m);
        m.push("host.calib_ns", calib_ns, "ns");
        m.push("host.cores", host::cores() as f64, "count");
        let path = format!(
            "{}/out/spans-{}-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        );
        let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
            .and_then(|()| std::fs::write(&path, b.spans.chrome_json()));
        match written {
            Ok(()) => {
                let _ = writeln!(b.notes, "spans written to {path}");
            }
            Err(e) => eprintln!("cannot write spans to {path}: {e}"),
        }
    } else {
        b.end_to_end(&mut m);
    }
    (m, b.tally, b.notes)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let calib_ns = host::calib_ns();
    println!(
        "# rio-perfbench workload={} seed={} seconds={} trace={} workers={WORKERS} cores={} commit={} host.calib_ns={calib_ns:.4}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cores(),
        host::commit(),
    );
    let (metrics, tally, notes) = match args.workload.as_str() {
        "indep-fine" => run::<IndepInputs>(&args, calib_ns),
        "random-deps" => run::<RandomInputs>(&args, calib_ns),
        "lu-dense" => run::<LuInputs>(&args, calib_ns),
        _ => unreachable!("parse accepts only known workloads"),
    };
    let mut json = String::new();
    for (name, value, unit) in &metrics.0 {
        println!("{name} = {value} {unit}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    print!("{notes}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_takes_every_flag_and_defaults_the_seed() {
        let a = args(&["--workload", "lu-dense", "--seconds", "3", "--trace", "1"]).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lu-dense", DEFAULT_SEED, 3.0, true)
        );
        assert_eq!(
            args(&["--workload", "indep-fine", "--seed", "9"])
                .unwrap()
                .seed,
            9
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "indep-fine", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "indep-fine", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "indep-fine", "--seed"]).is_err());
        assert!(args(&["--workload", "indep-fine", "--bogus", "1"]).is_err());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.add(true);
        t.add(false);
        t.add(true);
        t.add(true);
        assert_eq!((t.attempted, t.failed, t.error_rate()), (4, 1, 0.25));
    }
}
