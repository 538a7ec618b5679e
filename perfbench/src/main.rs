//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! mellow-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced cycle-loop replica and prints the
//! per-layer metrics. Human-readable lines go first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Every run also appends its raw samples to
//! `raw/samples.jsonl` beside this package.

use mellow_bench::trajectory::{machine_threads, repo_root};
use mellow_bench::{CellKey, ResultStore, Scale, Sweep};
use mellow_cache::CacheStats;
use mellow_engine::json::Json;
use mellow_engine::CoreCycles;
use mellow_perfbench::metrics::{END_TO_END, PER_LAYER};
use mellow_perfbench::replica::{self, Replica, Snapshot, SAMPLE_STRIDE};
use mellow_perfbench::stats::{
    fastest, histogram_quantile, median, peak_rss_mib, ratio, SegmentMinima,
};
use mellow_perfbench::workload::{self, Workload, NAMES};
use mellow_sim::{Experiment, Metrics, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A window with no memory writes projects an infinite lifetime, which
/// JSON cannot carry; it reads as this many years.
const LIFETIME_CAP_YEARS: f64 = 1e6;

/// Instructions per timed segment of a simulation run: tens of host
/// milliseconds.
const SEGMENT: u64 = 250_000;

/// Repetitions every run makes, however short its budget.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: mellow-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {NAMES:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Attempts and failures: a failure is a panic, a no-progress abort or
/// a result that differs from the oracle. None is ever dropped.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what.to_owned());
        }
    }

    /// Runs `f`, counting a panic as a failed attempt.
    fn guarded<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(f)).ok();
        if out.is_none() {
            self.check(&format!("{what}: panicked"), false);
        }
        out
    }
}

/// One cell's cycle-loop oracle result, computed once per invocation
/// outside the timed region.
struct Reference {
    experiment: Experiment,
    metrics: Metrics,
    json: String,
    snapshot: Snapshot,
    /// Warm-up plus measured instructions.
    instructions: u64,
    /// Core cycles over warm-up plus the measured window.
    cycles: u64,
}

/// Runs `e`'s warm-up and measured window, as `Experiment::run` does,
/// in segments of at most [`SEGMENT`] instructions, and returns the
/// host seconds of each segment. Each segment ends on the first tick
/// that reaches its target, as one whole call would at the last, so the
/// `Metrics` stay those of `Experiment::run` (every repetition is
/// checked against the oracle).
fn finish_system(sys: &mut System, e: &Experiment) -> Vec<f64> {
    let mut segments = Vec::new();
    let mut run = |sys: &mut System, n: u64| {
        let target = sys.core().retired_instructions() + n;
        loop {
            let left = target.saturating_sub(sys.core().retired_instructions());
            if left == 0 {
                break;
            }
            let t = Instant::now();
            sys.run_instructions(left.min(SEGMENT));
            segments.push(t.elapsed().as_secs_f64());
        }
    };
    run(sys, e.warmup_instructions());
    sys.begin_measurement();
    run(sys, e.measure_instructions());
    segments
}

fn metrics_of(sys: &System, e: &Experiment) -> Metrics {
    sys.metrics(&e.workload().name)
}

/// Builds and runs `e` on a `System`, returning the host seconds to the
/// built system and of each run segment, and the run's `Metrics` as
/// JSON.
fn timed_system(e: &Experiment) -> (f64, Vec<f64>, String) {
    let t = Instant::now();
    let mut sys = black_box(e.build());
    let setup = t.elapsed().as_secs_f64();
    let segments = finish_system(&mut sys, e);
    let json = metrics_of(&sys, e).to_json().to_string();
    (setup, segments, json)
}

fn references(w: &Workload, seed: u64, tally: &mut Tally) -> Option<Vec<Reference>> {
    let mut refs = Vec::new();
    for cell in &w.cells {
        let e = cell.experiment(w.scale, seed);
        let what = format!("oracle {} {}", cell.workload, cell.policy);
        let sys = tally.guarded(&what, || replica::oracle(&e))?;
        let metrics = metrics_of(&sys, &e);
        refs.push(Reference {
            json: metrics.to_json().to_string(),
            metrics,
            snapshot: Snapshot::of_system(&sys),
            instructions: e.warmup_instructions() + e.measure_instructions(),
            cycles: CoreCycles::containing(sys.now(), &e.config().core_clock).count(),
            experiment: e,
        });
        tally.check(&what, true);
    }
    Some(refs)
}

/// The replay store: every replay key holds `row`, written in
/// canonical order so replays never rewrite it.
struct Store {
    path: PathBuf,
    row: String,
    experiments: Vec<Experiment>,
    keys: Vec<CellKey>,
}

impl Store {
    fn prefill(w: &Workload, row: &Metrics) -> Result<Store, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
        let path = dir.join(format!("{}-{}.jsonl", w.name, std::process::id()));
        let _ = std::fs::remove_file(&path);
        let experiments: Vec<Experiment> = w
            .replay_cells()
            .iter()
            .map(|c| {
                mellow_bench::try_experiment_for(&c.workload, c.policy, Scale::quick())
                    .expect("figures main cells use Table IV names")
            })
            .collect();
        let keys: Vec<CellKey> = experiments.iter().map(CellKey::for_experiment).collect();
        let mut store = ResultStore::open(&path).map_err(|e| e.to_string())?;
        for key in &keys {
            store.insert(key, row).map_err(|e| e.to_string())?;
        }
        store.compact().map_err(|e| e.to_string())?;
        Ok(Store {
            path,
            row: row.to_json().to_string(),
            experiments,
            keys,
        })
    }

    /// Replays `cells` through a `Sweep` on this store; every cell must
    /// come back cached and equal to the stored row.
    fn replay(&self, w: &Workload, cells: Vec<mellow_bench::Cell>, tally: &mut Tally) -> bool {
        let n = cells.len();
        let sweep = Sweep::new(Scale::quick())
            .cells(cells)
            .threads(w.threads)
            .store(&self.path)
            .quiet();
        let results = tally
            .guarded("warm replay", || sweep.run())
            .and_then(|r| r.ok());
        let ok = results.is_some_and(|rs| {
            rs.len() == n
                && rs
                    .iter()
                    .all(|r| r.cached && r.metrics.to_json().to_string() == self.row)
        });
        tally.check("warm replay returns the stored rows", ok);
        ok
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(self.path.with_extension("jsonl.tmp"));
    }
}

/// Raw per-repetition samples, keyed by sample name.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Times one cold run of the workload: a `System` per cell, or a cold
/// multi-threaded `Sweep`. Returns the set-up seconds and the run's
/// segment seconds (a sweep is one segment).
fn cold_rep(
    w: &Workload,
    seed: u64,
    refs: &[Reference],
    store: &Store,
    tally: &mut Tally,
) -> Option<(f64, Vec<f64>)> {
    if !w.is_sweep() {
        let r = &refs[0];
        let e = &r.experiment;
        let (setup, segments, json) = tally.guarded("cold run", || timed_system(e))?;
        tally.check("cold run equals the cycle-loop oracle", json == r.json);
        return Some((setup, segments));
    }
    let t0 = Instant::now();
    let opened = ResultStore::open(&store.path).map(|s| s.len());
    let t1 = Instant::now();
    tally.check(
        "store opens with every key",
        opened.ok() == Some(store.keys.len()),
    );
    let sweep = Sweep::new(w.scale)
        .cells(w.cells.iter().map(|c| c.sweep_cell(seed)))
        .threads(w.threads)
        .no_store()
        .quiet();
    let results = tally.guarded("cold sweep", || sweep.run())?;
    let t2 = Instant::now();
    let results = results.ok()?;
    for (r, want) in results.iter().zip(refs) {
        let same = r.metrics.to_json().to_string() == want.json;
        tally.check("cold sweep cell equals the cycle-loop oracle", same);
    }
    tally.check("cold sweep returns every cell", results.len() == refs.len());
    Some(((t1 - t0).as_secs_f64(), vec![(t2 - t1).as_secs_f64()]))
}

/// The end-to-end run: repeated cold runs and warm replays until the
/// budget is spent. The run time is the sum of its segments' fastest
/// times (see [`SegmentMinima`]); the other host times are those of
/// the fastest repetition.
fn end_to_end(
    w: &Workload,
    args: &Args,
    refs: &[Reference],
    store: &Store,
    tally: &mut Tally,
    samples: &mut Samples,
) -> BTreeMap<&'static str, f64> {
    let instructions = refs.iter().map(|r| r.instructions).sum::<u64>() as f64;
    let cycles = refs.iter().map(|r| r.cycles).sum::<u64>() as f64;
    push(samples, "instructions", instructions);
    push(samples, "cycles", cycles);
    // A replay of one key proves the keys line up before the timed
    // loop replays them all (a mismatch would simulate every cell).
    let replay_ok = store.replay(w, w.replay_cells().into_iter().take(1).collect(), tally);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut minima = SegmentMinima::default();
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        reps += 1;
        if let Some((setup, segments)) = cold_rep(w, args.seed, refs, store, tally) {
            push(samples, "setup_s", setup);
            push(samples, "run_s", segments.iter().sum());
            let same = minima.add(&segments);
            tally.check("repetitions split into the same segments", same);
        }
        if replay_ok {
            let t = Instant::now();
            if store.replay(w, w.replay_cells(), tally) {
                push(samples, "sweep_warm_s", t.elapsed().as_secs_f64());
            }
        }
    }
    samples.insert("segment_fastest_s", minima.segments().to_vec());
    let fastest_of = |name: &str| samples.get(name).map_or(f64::NAN, |v| fastest(v));
    let run = minima.total();
    BTreeMap::from([
        ("sim_ips", instructions / run),
        ("host_ns_per_cycle", run * 1e9 / cycles),
        ("setup_s", fastest_of("setup_s")),
        ("peak_rss_mib", peak_rss_mib()),
        ("sweep_warm_s", fastest_of("sweep_warm_s")),
    ])
}

fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

/// The model's own counters for the replica cell (simulated, exact).
fn model_counters(r: &Reference, records: u64) -> Vec<(&'static str, f64)> {
    let m = &r.metrics;
    let ctrl = &m.ctrl;
    let cfg = r.experiment.config();
    let mem_divisor = cfg.mem.clock.period().as_ps() / cfg.core_clock.period().as_ps();
    let attempts = ctrl.reads_accepted
        + ctrl.reads_forwarded
        + ctrl.read_rejects
        + ctrl.demand_writes_accepted
        + ctrl.write_rejects;
    let issued = ctrl.writes_issued_normal + ctrl.writes_issued_slow;
    let lat = &ctrl.read_latency_ns;
    let q = |p| histogram_quantile(lat.buckets(), lat.count(), lat.max(), p);
    let core = &r.snapshot.core;
    let target = r.experiment.workload().target_mpki;
    let mut out = vec![
        ("sim.core_cycles", r.cycles as f64),
        ("memctrl.edges", (r.cycles / mem_divisor) as f64),
        (
            "memctrl.reject_ratio",
            ratio(
                (ctrl.read_rejects + ctrl.write_rejects) as f64,
                attempts as f64,
            ),
        ),
        (
            "memctrl.cancel_ratio",
            ratio(ctrl.writes_cancelled as f64, issued as f64),
        ),
        (
            "memctrl.rb_hit_ratio",
            ratio(
                ctrl.rb_hit_reads as f64,
                (ctrl.rb_hit_reads + ctrl.rb_miss_reads) as f64,
            ),
        ),
        ("memctrl.read_lat_p50_ns", q(0.5)),
        ("memctrl.read_lat_p99_ns", q(0.99)),
        ("memctrl.bank_util", m.avg_bank_utilization),
        ("memctrl.drain_frac", m.drain_fraction),
        ("memctrl.slow_frac", m.slow_write_fraction),
        (
            "cpu.head_blocked_frac",
            ratio(core.head_blocked_cycles.as_f64(), core.cycles.as_f64()),
        ),
        ("workloads.records", records as f64),
        ("workloads.mpki_err", ratio((m.mpki - target).abs(), target)),
        (
            "nvm.lifetime_years",
            m.lifetime_years.min(LIFETIME_CAP_YEARS),
        ),
        ("nvm.total_wear", m.total_wear),
        ("model.ipc", m.ipc),
        (
            "cache.llc.eager_useful_ratio",
            ratio(
                m.llc.eager_saved_writebacks as f64,
                m.llc.eager_issued as f64,
            ),
        ),
    ];
    let [l1, l2, llc] = &r.snapshot.caches;
    let hits = |s: &CacheStats| ratio(s.demand_hits as f64, s.demand_accesses() as f64);
    out.extend([
        ("cache.l1.hit_ratio", hits(l1)),
        ("cache.l1.mshr_stall_ticks", l1.mshr_stall_ticks as f64),
        ("cache.l1.input_rejects", l1.input_rejects as f64),
        ("cache.l2.hit_ratio", hits(l2)),
        ("cache.l2.mshr_stall_ticks", l2.mshr_stall_ticks as f64),
        ("cache.l2.input_rejects", l2.input_rejects as f64),
        ("cache.llc.hit_ratio", hits(llc)),
        ("cache.llc.mshr_stall_ticks", llc.mshr_stall_ticks as f64),
        ("cache.llc.input_rejects", llc.input_rejects as f64),
    ]);
    out
}

/// Seconds per call of `f` in the fastest of `reps` timed repetitions
/// that each run `f` `inner` times.
fn time_per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    fastest(&samples)
}

/// The traced run: untraced loop-flag runs, alternating untraced and
/// traced replica runs (each guarded against the oracle), and the
/// sweep and store layers.
fn per_layer(
    w: &Workload,
    args: &Args,
    refs: &[Reference],
    store: &Store,
    tally: &mut Tally,
    samples: &mut Samples,
) -> BTreeMap<&'static str, f64> {
    let r = &refs[w.replica_cell];
    let e = &r.experiment;
    let start = Instant::now();
    let budget = args.seconds;
    let mut out = BTreeMap::new();

    // Full untraced runs under each loop flag, each the sum of its
    // segments' fastest times.
    let loops: [(&'static str, bool, bool); 3] = [
        ("sim.event_s", false, false),
        ("sim.fast_forward_s", false, true),
        ("sim.cycle_loop_s", true, false),
    ];
    let mut minima: [SegmentMinima; 3] = Default::default();
    let mut rounds = 0;
    while rounds < 1 || start.elapsed().as_secs_f64() < 0.4 * budget {
        rounds += 1;
        for (&(name, cycle_loop, fast_forward), minima) in loops.iter().zip(&mut minima) {
            let e = e.clone().configure(|c| {
                c.use_cycle_loop = cycle_loop;
                c.use_fast_forward = fast_forward;
            });
            if let Some((setup, segments, json)) = tally.guarded(name, || timed_system(&e)) {
                tally.check(&format!("{name} equals the oracle"), json == r.json);
                let same = minima.add(&segments);
                tally.check("repetitions split into the same segments", same);
                let run = segments.iter().sum();
                push(samples, name, run);
                if name == "sim.event_s" {
                    push(samples, "event_wall_s", setup + run);
                }
            }
        }
    }
    for (&(name, _, _), minima) in loops.iter().zip(&minima) {
        out.insert(name, minima.total());
    }
    out.insert(
        "sim.skip_speedup",
        out["sim.cycle_loop_s"] / out["sim.event_s"],
    );

    // The replica, untraced and traced in turn; both must match the
    // oracle bit for bit. Layer times come from the fastest traced run,
    // so they break down one run consistently.
    let mut best: Option<(f64, Replica)> = None;
    let mut rounds = 0;
    while rounds < 1 || start.elapsed().as_secs_f64() < budget {
        rounds += 1;
        for stride in [None, Some(SAMPLE_STRIDE)] {
            let name = if stride.is_some() {
                "replica_traced_s"
            } else {
                "replica_s"
            };
            let run = tally.guarded(name, || {
                let mut rep = Replica::new(e, stride);
                let t = Instant::now();
                rep.run(e);
                (t.elapsed().as_secs_f64(), rep)
            });
            let Some((secs, rep)) = run else { continue };
            let verdict = replica::guard(&rep.snapshot(), &r.snapshot);
            if let Err(msg) = &verdict {
                eprintln!("{msg}");
            }
            tally.check("replica equals the cycle-loop oracle", verdict.is_ok());
            push(samples, name, secs);
            if stride.is_some() {
                push(samples, "empty_span_ns", rep.spans().probe_ns());
                if best.as_ref().is_none_or(|(b, _)| secs < *b) {
                    best = Some((secs, rep));
                }
            }
        }
    }
    if let Some((_, rep)) = &best {
        out.extend(rep.spans().layer_times());
        out.extend(model_counters(r, rep.records()));
    }
    let traced = fastest(&samples["replica_traced_s"]);
    out.insert("trace.overhead_x", traced / fastest(&samples["replica_s"]));

    // The sweep engine and the store.
    out.insert(
        "bench.key_ns",
        1e9 * time_per_call(9, 200 / store.experiments.len().max(1) + 1, || {
            for e in &store.experiments {
                black_box(CellKey::for_experiment(black_box(e)));
            }
        }) / store.experiments.len() as f64,
    );
    if let Ok(opened) = ResultStore::open(&store.path) {
        out.insert(
            "bench.store_get_ns",
            1e9 * time_per_call(9, 2000, || {
                for k in &store.keys {
                    black_box(opened.get(black_box(k)));
                }
            }) / store.keys.len() as f64,
        );
    }
    out.insert(
        "bench.store_open_s",
        time_per_call(5, 1, || {
            black_box(ResultStore::open(&store.path).map(|s| s.len()).ok());
        }),
    );
    let (cell_p50, busy) = if w.is_sweep() {
        sweep_layer(w, args.seed, refs, tally)
    } else {
        let runs = &samples["sim.event_s"];
        let walls = &samples["event_wall_s"];
        (
            median(runs),
            runs.iter().sum::<f64>() / walls.iter().sum::<f64>(),
        )
    };
    out.insert("bench.cell_s_p50", cell_p50);
    out.insert("bench.thread_busy_frac", busy);
    out
}

/// Times each cell of the sweep alone on one thread, then one cold
/// sweep on the workload's threads. Returns the median cell time and
/// the share of the threads' wall time the cells kept busy.
fn sweep_layer(w: &Workload, seed: u64, refs: &[Reference], tally: &mut Tally) -> (f64, f64) {
    let mut cell_s = Vec::new();
    for r in refs {
        if let Some((setup, segments, json)) =
            tally.guarded("sweep cell", || timed_system(&r.experiment))
        {
            tally.check("sweep cell equals the oracle", json == r.json);
            cell_s.push(setup + segments.iter().sum::<f64>());
        }
    }
    let sweep = Sweep::new(w.scale)
        .cells(w.cells.iter().map(|c| c.sweep_cell(seed)))
        .threads(w.threads)
        .no_store()
        .quiet();
    let t = Instant::now();
    let ok = tally
        .guarded("cold sweep", || sweep.run())
        .and_then(|r| r.ok())
        .is_some_and(|rs| {
            rs.iter()
                .zip(refs)
                .all(|(a, b)| a.metrics.to_json().to_string() == b.json)
        });
    let wall = t.elapsed().as_secs_f64();
    tally.check("cold sweep equals the oracle", ok);
    let busy = cell_s.iter().sum::<f64>() / (w.threads.min(refs.len()) as f64 * wall);
    (median(&cell_s), busy)
}

/// The commit the benchmark was built from and whether the tree had
/// changes outside the raw-sample record, when the checkout is a git
/// repository.
fn git_state(root: &Path) -> (Json, Json) {
    if !root.join(".git").exists() {
        return (Json::Null, Json::Null);
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let rev = git(&["rev-parse", "HEAD"]).map_or(Json::Null, Json::Str);
    let dirty = git(&[
        "status",
        "--porcelain",
        "--untracked-files=no",
        "--",
        ".",
        ":(exclude)perfbench/raw",
    ])
    .map_or(Json::Null, |s| Json::Bool(!s.is_empty()));
    (rev, dirty)
}

/// Appends this run's raw samples to `raw/samples.jsonl`.
fn record_raw(args: &Args, tally: &Tally, samples: &Samples, metrics: &BTreeMap<&str, f64>) {
    let (rev, dirty) = git_state(&repo_root());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let record = Json::obj([
        ("workload", Json::from(args.workload.name)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::from(machine_threads())),
        ("git", rev),
        ("dirty", dirty),
        ("unix_s", Json::from(unix_s)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "samples",
            Json::obj(
                samples
                    .iter()
                    .map(|(k, v)| (*k, Json::Arr(v.iter().map(|x| Json::from(*x)).collect()))),
            ),
        ),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("raw/samples.jsonl");
    let written = std::fs::create_dir_all(path.parent().expect("raw/ has a parent"))
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
        })
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = written {
        eprintln!("could not record raw samples in {}: {e}", path.display());
    }
}

/// Computes the oracle, pre-fills the replay store and runs the
/// requested measurement.
fn measure(
    args: &Args,
    tally: &mut Tally,
    samples: &mut Samples,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let w = &args.workload;
    let refs = references(w, args.seed, tally)
        .ok_or("the cycle-loop oracle failed; nothing to measure")?;
    let store = Store::prefill(w, &refs[0].metrics)
        .map_err(|e| format!("could not pre-fill the replay store: {e}"))?;
    Ok(if args.trace {
        per_layer(w, args, &refs, &store, tally, samples)
    } else {
        end_to_end(w, args, &refs, &store, tally, samples)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    // Failures are counted, not printed as backtraces mid-table.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let mut tally = Tally::default();
    let mut samples = Samples::new();
    let metrics = measure(&args, &mut tally, &mut samples).unwrap_or_else(|e| {
        eprintln!("{e}");
        BTreeMap::new()
    });
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    record_raw(&args, &tally, &samples, &metrics);

    println!(
        "workload {} seed {} threads {} of {} (host)",
        w.name,
        args.seed,
        w.threads,
        machine_threads()
    );
    for (name, unit) in table {
        let v = metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("{name:<36} {v:>16.6} {unit}");
    }
    for e in &tally.errors {
        println!("FAILED: {e}");
    }
    let all_present = table
        .iter()
        .all(|(n, _)| metrics.get(n).is_some_and(|v| v.is_finite()));
    let correct = tally.failed == 0 && all_present;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "metrics",
            Json::obj(table.iter().map(|(name, unit)| {
                let v = metrics.get(name).copied().unwrap_or(f64::NAN);
                (
                    *name,
                    Json::obj([("value", Json::from(v)), ("unit", Json::from(*unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
