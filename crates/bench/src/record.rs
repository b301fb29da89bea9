//! The runner: one (program, [`Config`]) pair in, one `bench/v2`
//! [`Record`] out — the completion value, the deterministic counters and
//! the wall-clock median with its quartiles.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tm_support::Json;
use tracemonkey::jit::profiler::Activity;
use tracemonkey::runtime::ops::to_display;
use tracemonkey::{Engine, JitOptions, MultiTenantVm, Vm};

use crate::suite::BenchProgram;

/// Runs behind every record (fresh VMs, or fresh tenant pools): the
/// wall-clock statistics are over these, the counters come from the
/// first (from the fastest for [`Config::Tenants`]).
pub const REPEATS: usize = 3;

/// Realms in the [`Config::Tenants`] configuration.
const REALMS: usize = 4;

/// Requests each [`Config::Tenants`] realm serves.
const REQUESTS: usize = 25;

/// Warmed runs a `.tmc` cache may take to reach its fixed point (no new
/// recordings). A warmed run has native coverage from iteration 0, so
/// side exits the cold ramp never drove hot can extend the trees; the
/// growth must stop fast.
const MAX_WARM_RUNS: usize = 6;

/// How a program is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Config {
    /// The baseline bytecode interpreter (the paper's SpiderMonkey).
    Interp,
    /// The interpreter with fast paths (the paper's SFX).
    FastInterp,
    /// The method JIT (the paper's V8).
    Method,
    /// The tracing JIT with default options: native x86-64 tier where
    /// the target has one, persistence off.
    Tracing,
    /// [`Config::Tracing`] without the superinstruction pass.
    Raw,
    /// [`Config::Tracing`] on the decoded executor (native tier off).
    Decoded,
    /// [`Config::Tracing`] with the Figure 12 activity profiler on.
    Profiled,
    /// [`Config::Tracing`] loading a `.tmc` cache that [`converge`]
    /// brought to its fixed point in another process.
    Warm,
    /// One tenant realm serving `REALMS × REQUESTS` requests in sequence.
    Single,
    /// `REALMS` tenant realms serving `REQUESTS` requests each,
    /// concurrently, over one shared code cache and compiler pool.
    Tenants,
}

impl Config {
    /// The name records and `BENCH_gates.json` use.
    pub fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }
}

/// Wall-clock statistics over a record's runs, in ms: the fastest run and
/// the quartiles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Wall {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Wall {
    /// Statistics of `samples` (linear interpolation between order
    /// statistics, so the median of an odd count is the middle run).
    pub fn of(samples: &[Duration]) -> Wall {
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let pos = p * (ms.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            ms[lo] + (ms[hi] - ms[lo]) * (pos - lo as f64)
        };
        Wall { min: ms[0], q1: q(0.25), median: q(0.5), q3: q(0.75) }
    }
}

/// One `bench/v2` record: a program run under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Program name (a suite program or a tenant request).
    pub program: String,
    /// How it ran.
    pub config: Config,
    /// Completion value as the program displays it. For the tenant
    /// configurations, the value every request returned — or the first
    /// one plus the first disagreeing request.
    pub value: String,
    /// Deterministic counters of the first run (empty for engines without
    /// a trace monitor).
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock over the runs.
    pub wall: Wall,
}

impl Record {
    /// Counter `name`, if the record has it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The record as `bench/v2` JSON.
    pub fn to_json(&self) -> Json {
        let w = self.wall;
        let wall = [("min", w.min), ("q1", w.q1), ("median", w.median), ("q3", w.q3)];
        Json::obj([
            ("program", Json::from(self.program.as_str())),
            ("config", Json::from(self.config.name())),
            ("value", Json::from(self.value.as_str())),
            ("wall_ms", Json::obj(wall.map(|(k, v)| (k, Json::from(v))))),
            ("counters", Json::obj(self.counters.iter().map(|(k, &v)| (k.as_str(), v.into())))),
        ])
    }
}

/// Runs `prog` under `config`; [`Config::Warm`] reads its cache from
/// `dir` (see [`converge`]).
///
/// # Errors
///
/// A guest error, a rejected cache, or a panicked tenant thread.
pub fn run(prog: &BenchProgram, config: Config, dir: &Path) -> Result<Record, String> {
    let default = JitOptions::default();
    let vm = match config {
        Config::Single | Config::Tenants => return tenants(prog, config),
        Config::Interp => (Engine::Interp, default),
        Config::FastInterp => (Engine::FastInterp, default),
        Config::Method => (Engine::Method, default),
        Config::Tracing | Config::Warm => (Engine::Tracing, default),
        Config::Raw => (Engine::Tracing, JitOptions { enable_fusion: false, ..default }),
        Config::Decoded => (Engine::Tracing, JitOptions { native_backend: false, ..default }),
        Config::Profiled => (Engine::Tracing, JitOptions { profile: true, ..default }),
    };
    let cache = (config == Config::Warm).then(|| dir.join(format!("{}.tmc", prog.name)));
    fresh_vm(prog, config, vm, cache.as_deref(), REPEATS)
}

/// `runs` fresh-VM runs of `prog`, each timed from parse to completion
/// (SunSpider-style, so compilation counts), labelled `config`.
///
/// # Errors
///
/// A guest error or a rejected cache.
pub fn fresh_vm(
    prog: &BenchProgram,
    config: Config,
    (engine, opts): (Engine, JitOptions),
    cache: Option<&Path>,
    runs: usize,
) -> Result<Record, String> {
    let mut samples = Vec::with_capacity(runs);
    let mut first = None;
    for _ in 0..runs {
        let mut vm = Vm::with_options(engine, opts);
        vm.set_cache_path(cache.map(Path::to_path_buf));
        let start = Instant::now();
        let v = vm.eval(prog.source);
        samples.push(start.elapsed());
        let v = v.map_err(|e| format!("{} failed under {engine:?}: {e}", prog.name))?;
        if let Some(e) = vm.last_cache_error() {
            return Err(format!("{}: cache rejected: {e}", prog.name));
        }
        first.get_or_insert_with(|| (to_display(&mut vm.realm, v), counters(&vm)));
    }
    let (value, counters) = first.expect("at least one run");
    Ok(Record { program: prog.name.to_owned(), config, value, counters, wall: Wall::of(&samples) })
}

/// The monitor's deterministic counters (plus the Figure 12 activity
/// times, zero unless profiling).
fn counters(vm: &Vm) -> BTreeMap<String, u64> {
    let Some(s) = vm.profile() else { return BTreeMap::new() };
    let ns = |a: Activity| s.time_in(a).as_nanos() as u64;
    [
        ("bytecodes_interp", s.bytecodes_interp),
        ("bytecodes_recorded", s.bytecodes_recorded),
        ("bytecodes_native", s.bytecodes_native),
        // Bytecodes run outside compiled traces: the time-to-peak proxy
        // the warm-start gates pin.
        ("warmup_bytecodes", s.bytecodes_interp + s.bytecodes_recorded),
        ("native_insts", s.native_insts),
        ("native_insts_fused", s.native_insts_fused),
        ("trace_enters", s.trace_enters),
        ("side_exits", s.side_exits),
        ("traces_completed", s.traces_completed),
        ("traces_aborted", s.traces_aborted),
        ("trees", s.trees),
        ("fragments", s.fragments),
        ("cache_hits", s.cache_hits),
        ("cache_loaded_trees", s.cache_loaded_trees),
        ("cache_loaded_fragments", s.cache_loaded_fragments),
        ("native_exits", s.native_exits),
        ("native_fallbacks", s.native_fallbacks),
        ("interpret_ns", ns(Activity::Interpret)),
        ("monitor_ns", ns(Activity::Monitor)),
        ("record_ns", ns(Activity::Record)),
        ("compile_ns", ns(Activity::Compile)),
        ("native_ns", ns(Activity::Native)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// Brings `prog`'s cache under `dir` to its fixed point: a cold run
/// records and persists, then warmed runs extend it until one records
/// nothing — the state a fresh process's [`Config::Warm`] run must load.
///
/// # Errors
///
/// A guest error, a cold run that wrote no cache, a warmed run that
/// missed the cache, or no fixed point within `MAX_WARM_RUNS` runs.
pub fn converge(prog: &BenchProgram, dir: &Path) -> Result<(), String> {
    let path = dir.join(format!("{}.tmc", prog.name));
    let _ = std::fs::remove_file(&path);
    let tracing = (Engine::Tracing, JitOptions::default());
    let once = || fresh_vm(prog, Config::Warm, tracing, Some(&path), 1);
    once()?;
    if !path.is_file() {
        return Err(format!("{}: cold run did not write {}", prog.name, path.display()));
    }
    for run in 1..=MAX_WARM_RUNS {
        let c = once()?.counters;
        if c["cache_hits"] != 1 {
            return Err(format!("{}: warmed run {run} missed the cache", prog.name));
        }
        if c["traces_completed"] + c["traces_aborted"] == 0 {
            return Ok(());
        }
    }
    Err(format!("{}: cache did not quiesce within {MAX_WARM_RUNS} warmed runs", prog.name))
}

fn drive_realm(mt: &MultiTenantVm, source: &str, requests: usize) -> Vec<String> {
    let mut vm = mt.realm_vm();
    (0..requests)
        .map(|_| match vm.eval(source) {
            Ok(v) => to_display(&mut vm.realm, v),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

/// [`REPEATS`] fresh tenant pools serving `prog` as requests: one realm
/// on this thread ([`Config::Single`]) or [`REALMS`] realm threads
/// ([`Config::Tenants`]), the same total request count either way.
fn tenants(prog: &BenchProgram, config: Config) -> Result<Record, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let mut samples = Vec::with_capacity(REPEATS);
    let mut fastest: Option<(Duration, BTreeMap<String, u64>)> = None;
    let mut values = Vec::with_capacity(REPEATS * REALMS * REQUESTS);
    for _ in 0..REPEATS {
        let mt = MultiTenantVm::new(workers);
        let start = Instant::now();
        let realms: Vec<Vec<String>> = if config == Config::Single {
            vec![drive_realm(&mt, prog.source, REALMS * REQUESTS)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..REALMS)
                    .map(|_| s.spawn(|| drive_realm(&mt, prog.source, REQUESTS)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect::<Result<_, _>>()
            })
            .map_err(|_| format!("{}: a realm thread panicked", prog.name))?
        };
        let wall = start.elapsed();
        let (shared, pool) = (mt.shared_stats(), mt.pool_stats());
        samples.push(wall);
        values.extend(realms.into_iter().flatten());
        if fastest.as_ref().is_none_or(|(best, _)| wall < *best) {
            let counters = [
                ("shared_publishes", shared.publishes),
                ("shared_hits", shared.hits),
                ("shared_misses", shared.misses),
                ("shared_evictions", shared.evictions),
                // Every job the pool ran was installed by some realm.
                ("compile_jobs_installed", pool.executed),
            ];
            fastest = Some((wall, counters.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()));
        }
    }
    let mut value = values[0].clone();
    if let Some((i, other)) = values.iter().enumerate().find(|(_, v)| **v != value) {
        value = format!("{value} (request {i} returned {other:?})");
    }
    let (_, counters) = fastest.expect("REPEATS > 0");
    Ok(Record { program: prog.name.to_owned(), config, value, counters, wall: Wall::of(&samples) })
}
