//! Set-up and evals for each workload, untraced and traced.
//!
//! An untraced eval is one `Vm::eval`. A traced eval makes the same calls
//! `Vm::eval` makes for the tracing engine — `tm_frontend::parse`,
//! `tm_bytecode::compile`, `Interp::new`, then `Monitor::load_cache`,
//! `Monitor::run_program` and `Monitor::save_cache` — each inside a span,
//! with the Figure 2 profiler on, and then reads the counters the program
//! exposes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tm_bench::BenchProgram;
use tm_core::persist::CacheHandle;
use tm_core::profiler::{Activity, ProfileStats};
use tm_core::shared_cache::{SharedCodeCache, SharedKey};
use tm_core::{CompilerPool, Engine, JitOptions, Monitor, MultiTenantVm, Vm};
use tm_interp::Interp;
use tm_runtime::Realm;

use crate::calib::Kernel;
use crate::reference::{Expected, Reference};
use crate::trace::Tracer;
use crate::workload::{Request, Stream, Workload, TENANT_REALMS};

/// Most fresh-VM runs a warm-start cache may take to stop changing.
const MAX_CONVERGE_RUNS: usize = 8;

/// Per-eval or per-pass counters, by per-layer metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// Adds `more` into `acc`.
pub fn absorb(acc: &mut Counters, more: &Counters) {
    for (k, v) in more {
        *acc.entry(k).or_insert(0.0) += v;
    }
}

/// The result of one eval.
#[derive(Debug)]
pub struct Outcome {
    /// Wall-clock of the eval, in milliseconds.
    pub ms: f64,
    /// Whether the eval succeeded and matched the reference.
    pub ok: bool,
    /// What the eval read from the program: everything when traced, the
    /// recording counts (set-up's convergence loop needs them) otherwise.
    pub counters: Counters,
}

/// Everything a workload's passes run against, built by [`setup`].
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// Its programs, indexed by [`Request::prog`].
    pub progs: Vec<&'static BenchProgram>,
    expected: Vec<Expected>,
    /// The seeded request stream (set-up may already have used a pass).
    pub stream: Stream,
    /// Converged per-program caches (`WarmStart`).
    tmc: Option<Vec<PathBuf>>,
    /// The multi-tenant host and its realms (`Tenants`).
    mt: Option<MultiTenantVm>,
    realms: Vec<Vm>,
    /// Evals attempted and failed so far, set-up included.
    pub attempted: u64,
    /// Of those, evals that errored or did not match the reference.
    pub failed: u64,
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("workload", &self.workload)
            .finish_non_exhaustive()
    }
}

fn base_options(workload: Workload) -> JitOptions {
    JitOptions {
        background_compile: workload == Workload::Tenants,
        ..JitOptions::default()
    }
}

/// Prepares `workload` for timed passes: looks up the reference outputs;
/// on `WarmStart` writes converged caches under `work`; on `Tenants`
/// creates the host and its realms; then runs one warm-up pass. Samples
/// the calibration kernel before each eval, as timed passes do.
///
/// # Errors
///
/// Returns a message when a program has no reference output or a cache
/// cannot be written.
pub fn setup(
    workload: Workload,
    seed: u64,
    reference: &Reference,
    work: &Path,
    kernel: &mut Kernel,
    mut tracer: Option<&mut Tracer>,
) -> Result<Env, String> {
    let progs = workload.programs();
    let expected = progs
        .iter()
        .map(|p| {
            reference
                .get(p.name)
                .cloned()
                .ok_or(format!("{}: no reference output", p.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let stream = Stream::new(workload, progs.len(), seed);
    let mut env = Env {
        workload,
        progs,
        expected,
        stream,
        tmc: None,
        mt: None,
        realms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    match workload {
        Workload::HotLoops | Workload::TraceChurn => {}
        Workload::WarmStart => {
            let dir = work.join(format!("tmc-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let paths: Vec<PathBuf> = env
                .progs
                .iter()
                .map(|p| dir.join(format!("{}.tmc", p.name)))
                .collect();
            env.tmc = Some(paths);
            for prog in 0..env.progs.len() {
                converge(&mut env, prog, kernel, tracer.as_deref_mut());
            }
        }
        Workload::Tenants => {
            let mt = MultiTenantVm::with_options(base_options(workload), 1);
            for _ in 0..TENANT_REALMS {
                let vm = match tracer.as_deref_mut() {
                    Some(t) => t.span("mt.realm_vm", 0, || mt.realm_vm()),
                    None => mt.realm_vm(),
                };
                env.realms.push(vm);
            }
            env.mt = Some(mt);
        }
    }
    // One untimed warm-up pass: lazy set-up finishes and, on `Tenants`,
    // the shared code cache fills before timing starts.
    for req in env.stream.next_pass() {
        kernel.sample();
        eval(&mut env, req, None);
    }
    Ok(env)
}

/// Re-runs one program against its cache in fresh VMs until a run
/// records nothing, so timed passes only read the cache.
fn converge(env: &mut Env, prog: usize, kernel: &mut Kernel, mut tracer: Option<&mut Tracer>) {
    let req = Request { prog, realm: 0 };
    for _ in 0..MAX_CONVERGE_RUNS {
        kernel.sample();
        let o = eval(env, req, tracer.as_deref_mut().map(|t| (t, 0)));
        let recorded = o
            .counters
            .get("recorder.traces_completed")
            .copied()
            .unwrap_or(0.0)
            + o.counters
                .get("recorder.traces_aborted")
                .copied()
                .unwrap_or(0.0);
        if o.ok && recorded == 0.0 {
            return;
        }
    }
}

fn fresh_vm(env: &Env, prog: usize) -> Vm {
    let mut vm = Vm::with_options(Engine::Tracing, base_options(env.workload));
    vm.set_cache_path(env.tmc.as_ref().map(|p| p[prog].clone()));
    vm
}

/// Whether an eval's result and `print` output match the reference.
/// Takes the output, so a persistent realm's next eval starts empty.
fn matches(want: &Expected, realm: &mut Realm, result: Result<tm_runtime::Value, String>) -> bool {
    let output = std::mem::take(&mut realm.output);
    match result {
        Ok(v) => tm_runtime::ops::to_display(realm, v) == want.value && output == want.output,
        Err(_) => false,
    }
}

impl Env {
    /// Counts one checked eval.
    fn count(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// The shared code cache and compiler pool, on `Tenants`.
    pub fn host(&self) -> Option<&MultiTenantVm> {
        self.mt.as_ref()
    }

    /// Total size of the warm-start cache files, in bytes.
    pub fn tmc_bytes(&self) -> u64 {
        self.tmc
            .iter()
            .flatten()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Removes the warm-start cache files.
    pub fn cleanup(&self) {
        if let Some(dir) = self
            .tmc
            .as_ref()
            .and_then(|p| p.first())
            .and_then(|p| p.parent())
        {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Returns the memory freed by the last eval to the system, so the
/// process's peak resident size follows the largest eval rather than the
/// order in which the seeded stream ran them.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to
        // the kernel; it has no preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs one request. Untraced (`tracer` is `None`) it is a plain
/// `Vm::eval`; traced it goes through the layered calls inside spans
/// tagged with the given eval id. Memory the eval freed is released
/// afterwards, outside its timing.
pub fn eval(env: &mut Env, req: Request, tracer: Option<(&mut Tracer, u32)>) -> Outcome {
    let o = eval_once(env, req, tracer);
    release_free_memory();
    o
}

fn eval_once(env: &mut Env, req: Request, tracer: Option<(&mut Tracer, u32)>) -> Outcome {
    let src = env.progs[req.prog].source;
    let Some((t, id)) = tracer else {
        let start = Instant::now();
        let (r, mut fresh) = if env.workload == Workload::Tenants {
            (env.realms[req.realm].eval(src), None)
        } else {
            let mut vm = fresh_vm(env, req.prog);
            (vm.eval(src), Some(vm))
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let vm = match fresh.as_mut() {
            Some(vm) => vm,
            None => &mut env.realms[req.realm],
        };
        let mut counters = Counters::new();
        if let Some(s) = vm.profile() {
            counters.insert("recorder.traces_completed", s.traces_completed as f64);
            counters.insert("recorder.traces_aborted", s.traces_aborted as f64);
        }
        let ok = matches(
            &env.expected[req.prog],
            &mut vm.realm,
            r.map_err(|e| e.to_string()),
        );
        return Outcome {
            ms,
            ok: env.count(ok),
            counters,
        };
    };

    let mut opts = base_options(env.workload);
    opts.profile = true;
    let span = t.enter("eval", id);
    let mut fresh = match env.workload {
        Workload::Tenants => None,
        _ => Some(t.span("vm.new", id, || fresh_vm(env, req.prog))),
    };
    let realm = match fresh.as_mut() {
        Some(vm) => &mut vm.realm,
        None => &mut env.realms[req.realm].realm,
    };
    let gc_before = realm.heap.gc_stats().collections;
    let host = env.mt.as_ref().map(|mt| (mt.shared_cache(), mt.pool()));
    let cache = env.tmc.as_ref().map(|p| p[req.prog].as_path());
    let (r, ran) = layered_eval(src, realm, opts, host, cache, t, id);
    t.exit(span);
    let ms = t.spans()[span].dur() as f64 / 1e6;

    let mut counters = Counters::new();
    if let Some((monitor, _interp)) = &ran {
        read_counters(&mut counters, &monitor.profiler.stats);
        counters.insert(
            "runtime.gc_collections",
            (realm.heap.gc_stats().collections - gc_before) as f64,
        );
        read_trees(&mut counters, monitor, t, id);
    }
    let realm = match fresh.as_mut() {
        Some(vm) => &mut vm.realm,
        None => &mut env.realms[req.realm].realm,
    };
    let ok = matches(&env.expected[req.prog], realm, r);
    Outcome {
        ms,
        ok: env.count(ok),
        counters,
    }
}

type Host<'a> = (&'a Arc<SharedCodeCache>, &'a Arc<CompilerPool>);

/// The tracing engine's `Vm::eval`, one public-layer call per span.
fn layered_eval(
    src: &str,
    realm: &mut Realm,
    opts: JitOptions,
    host: Option<Host<'_>>,
    cache: Option<&Path>,
    t: &mut Tracer,
    id: u32,
) -> (Result<tm_runtime::Value, String>, Option<(Monitor, Interp)>) {
    let ast = match t.span("frontend.parse", id, || tm_frontend::parse(src)) {
        Ok(ast) => ast,
        Err(e) => return (Err(e.to_string()), None),
    };
    let prog = match t.span("bytecode.compile", id, || tm_bytecode::compile(&ast, realm)) {
        Ok(p) => p,
        Err(e) => return (Err(e.to_string()), None),
    };
    let mut interp = t.span("interp.new", id, || Interp::new(prog, realm));
    let mut monitor = Monitor::new(opts);
    if let Some((shared, pool)) = host {
        monitor.attach_shared(Arc::clone(shared), SharedKey::capture(interp.prog(), realm));
        monitor.attach_pool(Arc::clone(pool));
    }
    let handle = cache.map(|p| CacheHandle::capture(p.to_path_buf(), interp.prog(), realm));
    if let Some(h) = &handle {
        // A rejected cache degrades to a cold start, as in `Vm::eval`.
        let _ = t.span("monitor.load_cache", id, || {
            monitor.load_cache(h, &mut interp, realm)
        });
    }
    let r = t.span("monitor.run_program", id, || {
        monitor.run_program(&mut interp, realm)
    });
    if let (Some(h), Ok(_)) = (&handle, &r) {
        let _ = t.span("monitor.save_cache", id, || monitor.save_cache(h, realm));
    }
    (r.map_err(|e| e.to_string()), Some((monitor, interp)))
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn read_counters(c: &mut Counters, s: &ProfileStats) {
    let mut put = |k: &'static str, v: f64| {
        c.insert(k, v);
    };
    put("interp.ms", ms(s.time_in(Activity::Interpret)));
    put("monitor.ms", ms(s.time_in(Activity::Monitor)));
    put("recorder.ms", ms(s.time_in(Activity::Record)));
    put("compile.ms", ms(s.time_in(Activity::Compile)));
    put("exec.ms", ms(s.time_in(Activity::Native)));
    put("interp.bytecodes", s.bytecodes_interp as f64);
    put("runtime.ic_hits", (s.ic.get_hits + s.ic.set_hits) as f64);
    put(
        "runtime.ic_lookups",
        (s.ic.get_hits + s.ic.get_misses + s.ic.set_hits + s.ic.set_misses) as f64,
    );
    put("monitor.trace_enters", s.trace_enters as f64);
    put("monitor.side_exits", s.side_exits as f64);
    put("monitor.slot_slow", s.monitor_slot_slow as f64);
    put("recorder.bytecodes", s.bytecodes_recorded as f64);
    put("recorder.traces_completed", s.traces_completed as f64);
    put("recorder.traces_aborted", s.traces_aborted as f64);
    put("compile.trees", s.trees as f64);
    put("compile.fragments", s.fragments as f64);
    put("compile.fused_superinsts", s.fused_superinsts as f64);
    put("x64.native_fragments", s.native_fragments as f64);
    put("x64.emissions_sync", s.native_emissions_sync as f64);
    put(
        "x64.emissions_offthread",
        s.native_emissions_offthread as f64,
    );
    put("exec.native_insts", s.native_insts as f64);
    put("exec.bytecodes_native", s.bytecodes_native as f64);
    put("exec.native_exits", s.native_exits as f64);
    put("exec.fallbacks", s.native_fallbacks as f64);
    put("persist.loaded_fragments", s.cache_loaded_fragments as f64);
    put(
        "persist.revalidation_failures",
        s.cache_revalidation_failures as f64,
    );
    let warm = if s.cache_hits > 0 {
        s.traces_completed + s.traces_aborted
    } else {
        0
    };
    put("persist.warm_recordings", warm as f64);
    put("pool.compile_jobs_failed", s.compile_jobs_failed as f64);
}

/// Sizes of the installed trees: instructions and spill slots of every
/// fragment, and the native code each tree emits to. Emission happens
/// here, after the eval's span has closed, in a span of its own.
fn read_trees(c: &mut Counters, monitor: &Monitor, t: &mut Tracer, id: u32) {
    let (mut insts, mut spills, mut bytes) = (0usize, 0usize, 0usize);
    for tree in monitor.cache.iter() {
        for f in tree.fragments.iter() {
            insts += f.code.len();
            spills += usize::from(f.num_spills);
        }
        if let Ok(native) = t.span("x64.emit_tree", id, || {
            tm_nanojit::emit_tree(&tree.fragments)
        }) {
            bytes += native.code_size();
        }
    }
    c.insert("compile.code_insts", insts as f64);
    c.insert("compile.spills", spills as f64);
    c.insert("x64.code_bytes", bytes as f64);
}
