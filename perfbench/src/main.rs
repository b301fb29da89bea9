//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//! perfbench --write-reference FILE
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then runs
//! timed passes for `--seconds` and prints the end-to-end metrics. With
//! `--trace 1` it alternates untraced and traced passes and prints the
//! per-layer metrics, writing the traced passes' spans to `--out-dir`.
//! Either way the last line of standard output is one JSON object.

mod calib;
mod reference;
mod runner;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tm_support::Json;

use calib::Kernel;
use runner::{Counters, Env};
use trace::Tracer;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The end-to-end metrics (untraced run): name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("pass_ms_tail", "ms"),
    ("req_ms_p50", "ms"),
    ("req_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (traced run): name and unit. Per-pass values
/// are medians over the traced passes.
const PER_LAYER: [(&str, &str); 58] = [
    ("vm.new_ms", "ms"),
    ("frontend.parse_ms", "ms"),
    ("bytecode.compile_ms", "ms"),
    ("interp.new_ms", "ms"),
    ("interp.ms", "ms"),
    ("interp.bytecodes", "count"),
    ("runtime.ic_hit_ratio", "ratio"),
    ("runtime.gc_collections", "count"),
    ("monitor.run_program_ms", "ms"),
    ("monitor.ms", "ms"),
    ("monitor.trace_enters", "count"),
    ("monitor.side_exits", "count"),
    ("monitor.slot_slow", "count"),
    ("recorder.ms", "ms"),
    ("recorder.bytecodes", "count"),
    ("recorder.traces_completed", "count"),
    ("recorder.traces_aborted", "count"),
    ("recorder.abort_ratio", "ratio"),
    ("compile.ms", "ms"),
    ("compile.trees", "count"),
    ("compile.fragments", "count"),
    ("compile.code_insts", "count"),
    ("compile.spills", "count"),
    ("compile.fused_superinsts", "count"),
    ("x64.native_fragments", "count"),
    ("x64.emissions_sync", "count"),
    ("x64.emissions_offthread", "count"),
    ("x64.code_bytes", "bytes"),
    ("x64.emit_ms", "ms"),
    ("exec.ms", "ms"),
    ("exec.native_insts", "count"),
    ("exec.native_frac", "ratio"),
    ("exec.native_entry_share", "ratio"),
    ("exec.fallbacks", "count"),
    ("share.interp_pct", "%"),
    ("share.monitor_pct", "%"),
    ("share.record_pct", "%"),
    ("share.compile_pct", "%"),
    ("share.exec_pct", "%"),
    ("persist.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.file_bytes", "bytes"),
    ("persist.loaded_fragments", "count"),
    ("persist.revalidation_failures", "count"),
    ("persist.warm_recordings", "count"),
    ("pool.jobs_executed", "count"),
    ("pool.jobs_per_request", "ratio"),
    ("pool.peak_depth", "count"),
    ("pool.compile_jobs_failed", "count"),
    ("shared.hit_ratio", "ratio"),
    ("shared.publishes", "count"),
    ("shared.replaced", "count"),
    ("shared.evictions", "count"),
    ("mt.realm_vm_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.pass_wall_ms", "ms"),
    ("bench.calib_ms", "ms"),
    ("bench.passes_traced", "count"),
];

/// Spans whose summed self time per pass is a per-layer time.
const SPAN_METRICS: [(&str, &str); 7] = [
    ("vm.new", "vm.new_ms"),
    ("frontend.parse", "frontend.parse_ms"),
    ("bytecode.compile", "bytecode.compile_ms"),
    ("interp.new", "interp.new_ms"),
    ("monitor.run_program", "monitor.run_program_ms"),
    ("monitor.load_cache", "persist.load_ms"),
    ("x64.emit_tree", "x64.emit_ms"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench/target/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("--write-reference") {
        write_reference(argv.get(1))
    } else {
        parse_args(&argv).and_then(|a| run(&a, process_start))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_reference(path: Option<&String>) -> Result<(), String> {
    let path = path.ok_or("--write-reference needs a file")?;
    let table = reference::generate()?;
    std::fs::write(path, table).map_err(|e| format!("{path}: {e}"))
}

/// One timed pass.
#[derive(Debug, Default)]
struct Pass {
    traced: bool,
    /// Sum of the evals' wall-clock, ms.
    wall_ms: f64,
    /// Sum of the evals' calibrated times, ms.
    cal_ms: f64,
    /// Median calibration-kernel time beside the pass's evals, ms.
    kernel_ms: f64,
    /// Each eval's program and calibrated time: its wall-clock scaled by
    /// the kernel run right before it.
    evals: Vec<(usize, f64)>,
    /// Peak resident memory during the pass, MiB.
    peak_rss_mb: f64,
    /// Traced passes: summed counters and span self times.
    layers: Counters,
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let reference = reference::Reference::load()?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut kernel = Kernel::default();
    let mut tracer = Tracer::new(process_start);
    let w = args.workload;

    // Set up several times; the last set-up serves the timed passes.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_mark = 0;
    let mut env: Option<Env> = None;
    let (mut attempted, mut failed) = (0, 0);
    for rep in 0..SETUP_REPS {
        if let Some(old) = env.take() {
            attempted += old.attempted;
            failed += old.failed;
        }
        setup_mark = tracer.len();
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let built = runner::setup(
            w,
            args.seed,
            &reference,
            &args.out_dir,
            &mut kernel,
            args.trace.then_some(&mut tracer),
        )?;
        let raw_ms = started.elapsed().as_secs_f64() * 1e3;
        let kernels = kernel.take();
        let spent_ms: f64 = kernels.iter().sum();
        setups.push((raw_ms - spent_ms) / 1e3 * calib::factor(stats::median(&kernels)));
        env = Some(built);
    }
    let mut env = env.expect("at least one set-up");
    env.attempted += attempted;
    env.failed += failed;

    let mut passes: Vec<Pass> = Vec::new();
    // A fixed number of passes, so every commit does the same work; on
    // the reference machine they take `--seconds`. A commit that is much
    // slower stops early at four times that.
    let npasses = w.passes_for(args.seconds);
    let budget = Duration::from_secs_f64(4.0 * args.seconds);
    let timed = Instant::now();
    let mut eval_id = 0u32;
    while passes.len() < npasses && (passes.is_empty() || timed.elapsed() < budget) {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = run_pass(
            &mut env,
            &mut kernel,
            traced.then_some(&mut tracer),
            &mut eval_id,
        );
        passes.push(pass);
    }

    let result = if args.trace {
        let setup_spans = &tracer.spans()[setup_mark..];
        let per_layer = per_layer_metrics(&env, &passes, setup_spans);
        let spans_file = args
            .out_dir
            .join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        tracer
            .write(&spans_file)
            .map_err(|e| format!("{}: {e}", spans_file.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.len(),
            spans_file.display()
        );
        if w.timing_dependent() {
            println!("counters here depend on compiler-pool timing and need not repeat exactly");
        }
        report(&PER_LAYER, &per_layer, |_| String::new())
    } else {
        let e2e = end_to_end_metrics(&passes, env.progs.len(), &setups);
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
        let kernels: Vec<f64> = passes.iter().map(|p| p.kernel_ms).collect();
        println!(
            "  uncalibrated: pass wall-clock median {:.4} ms, kernel median {:.4} ms (reference {} ms)",
            stats::median(&walls),
            stats::median(&kernels),
            calib::REFERENCE_MS
        );
        for (prog, ms) in env
            .progs
            .iter()
            .zip(program_medians(&passes, env.progs.len()))
        {
            println!("  {:28} {ms:>10.3} ms calibrated median", prog.name);
        }
        report(&END_TO_END, &e2e.values, |name| e2e.samples(name))
    };
    env.cleanup();
    let failed_frac = env.failed as f64 / env.attempted.max(1) as f64;
    println!(
        "{} seed {}: {} passes, {} evals attempted, {} failed (failed_frac {failed_frac})",
        w.name(),
        args.seed,
        passes.len(),
        env.attempted,
        env.failed
    );
    let line = Json::obj([
        ("correct", Json::Bool(env.failed == 0)),
        ("attempted", Json::UInt(env.attempted)),
        ("failed", Json::UInt(env.failed)),
        ("metrics", result),
    ]);
    println!("{}", line.to_string());
    Ok(())
}

/// Runs one pass of the seeded stream, timing the calibration kernel
/// right before each eval.
fn run_pass(
    env: &mut Env,
    kernel: &mut Kernel,
    mut tracer: Option<&mut Tracer>,
    eval_id: &mut u32,
) -> Pass {
    let requests = env.stream.next_pass();
    let mut pass = Pass {
        traced: tracer.is_some(),
        ..Pass::default()
    };
    let mut kernels = Vec::with_capacity(requests.len());
    let mark = tracer.as_ref().map_or(0, |t| t.len());
    let host_before = env.host().map(|h| (h.pool_stats(), h.shared_stats()));
    reset_peak_rss();
    for req in &requests {
        let k = kernel.time_ms();
        *eval_id += 1;
        let o = runner::eval(env, *req, tracer.as_deref_mut().map(|t| (t, *eval_id)));
        pass.wall_ms += o.ms;
        pass.evals.push((req.prog, o.ms * calib::factor(k)));
        kernels.push(k);
        runner::absorb(&mut pass.layers, &o.counters);
    }
    pass.cal_ms = pass.evals.iter().map(|(_, ms)| ms).sum();
    pass.kernel_ms = stats::median(&kernels);
    pass.peak_rss_mb = peak_rss_mb();
    if let Some(t) = tracer {
        let spans = &t.spans()[mark..];
        for (span, self_ns) in spans.iter().zip(trace::self_times(spans, mark)) {
            if let Some((_, metric)) = SPAN_METRICS.iter().find(|(s, _)| *s == span.name) {
                *pass.layers.entry(metric).or_insert(0.0) += self_ns as f64 / 1e6;
            }
        }
        if let (Some((pool0, shared0)), Some(h)) = (host_before, env.host()) {
            let (pool, shared) = (h.pool_stats(), h.shared_stats());
            let l = &mut pass.layers;
            l.insert(
                "pool.jobs_executed",
                (pool.executed - pool0.executed) as f64,
            );
            l.insert("shared.hits", (shared.hits - shared0.hits) as f64);
            l.insert("shared.misses", (shared.misses - shared0.misses) as f64);
            l.insert(
                "shared.publishes",
                (shared.publishes - shared0.publishes) as f64,
            );
            l.insert(
                "shared.replaced",
                (shared.replaced - shared0.replaced) as f64,
            );
            l.insert(
                "shared.evictions",
                (shared.evictions - shared0.evictions) as f64,
            );
        }
    }
    pass
}

/// End-to-end values and their sample counts.
struct EndToEnd {
    values: Vec<(&'static str, f64)>,
    passes: usize,
    evals: usize,
    pass_tail: stats::Tail,
    req_tail: stats::Tail,
}

impl EndToEnd {
    fn samples(&self, name: &str) -> String {
        match name {
            "setup_s" => format!("median of {SETUP_REPS} set-ups"),
            "pass_ms" => format!("median of {} passes", self.passes),
            "pass_ms_tail" => tail_note(&self.pass_tail, self.passes, "passes"),
            "req_ms_p50" => format!("median of per-program medians, {} evals", self.evals),
            "req_ms_tail" => tail_note(&self.req_tail, self.evals, "evals"),
            _ => format!("median of {} passes' peaks", self.passes),
        }
    }
}

fn tail_note(t: &stats::Tail, n: usize, what: &str) -> String {
    if t.short {
        format!("max of {n} {what} (too few for ten beyond)")
    } else {
        format!("p{:.1} of {n} {what}, ten beyond", t.pct)
    }
}

/// Each program's median calibrated latency over the run.
fn program_medians(passes: &[Pass], nprogs: usize) -> Vec<f64> {
    (0..nprogs)
        .map(|i| {
            let ms: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.evals.iter().filter(|(j, _)| *j == i).map(|(_, ms)| *ms))
                .collect();
            stats::median(&ms)
        })
        .collect()
}

/// `req_ms_p50` is the median of the programs' median latencies. Every
/// pass runs each program once, so this is the median request with each
/// program's own jitter taken out: the plain median of all evals would
/// fall in the gap between two programs' latencies and jump with their
/// extremes.
fn end_to_end_metrics(passes: &[Pass], nprogs: usize, setups: &[f64]) -> EndToEnd {
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.cal_ms).collect();
    let req_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.evals.iter().map(|(_, ms)| *ms))
        .collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let pass_tail = stats::tail(&pass_ms);
    let req_tail = stats::tail(&req_ms);
    EndToEnd {
        values: vec![
            ("setup_s", stats::median(setups)),
            ("pass_ms", stats::median(&pass_ms)),
            ("pass_ms_tail", pass_tail.value),
            (
                "req_ms_p50",
                stats::median(&program_medians(passes, nprogs)),
            ),
            ("req_ms_tail", req_tail.value),
            ("peak_rss_mb", stats::median(&rss)),
        ],
        passes: pass_ms.len(),
        evals: req_ms.len(),
        pass_tail,
        req_tail,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer_metrics(
    env: &Env,
    passes: &[Pass],
    setup_spans: &[trace::Span],
) -> Vec<(&'static str, f64)> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let per_pass: Vec<Counters> = traced.iter().map(|p| derive(p)).collect();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (name, _) in PER_LAYER {
        let vals: Vec<f64> = per_pass
            .iter()
            .map(|c| c.get(name).copied().unwrap_or(0.0))
            .collect();
        if !vals.is_empty() {
            out.push((name, stats::median(&vals)));
        }
    }
    let span_ms = |name: &str| -> f64 {
        setup_spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur() as f64 / 1e6)
    };
    let cal = |ps: &[&Pass]| {
        let v: Vec<f64> = ps.iter().map(|p| p.cal_ms).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let kernels: Vec<f64> = passes.iter().map(|p| p.kernel_ms).collect();
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_ms).collect();
    let set = |out: &mut Vec<(&'static str, f64)>, name: &'static str, v: f64| match out
        .iter_mut()
        .find(|(n, _)| *n == name)
    {
        Some(slot) => slot.1 = v,
        None => out.push((name, v)),
    };
    set(&mut out, "persist.save_ms", span_ms("monitor.save_cache"));
    set(&mut out, "persist.file_bytes", env.tmc_bytes() as f64);
    set(&mut out, "mt.realm_vm_ms", span_ms("mt.realm_vm"));
    set(
        &mut out,
        "pool.peak_depth",
        env.host().map_or(0.0, |h| h.pool_stats().peak_depth as f64),
    );
    set(
        &mut out,
        "bench.trace_overhead_pct",
        100.0 * (ratio(cal(&traced), cal(&untraced)) - 1.0),
    );
    set(
        &mut out,
        "bench.pass_wall_ms",
        if walls.is_empty() {
            0.0
        } else {
            stats::median(&walls)
        },
    );
    set(&mut out, "bench.calib_ms", stats::median(&kernels));
    set(&mut out, "bench.passes_traced", traced.len() as f64);
    // Keep the table's order.
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            (
                *name,
                out.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v),
            )
        })
        .collect()
}

/// A traced pass's per-layer values: its summed counters plus the ratios
/// and Figure 12 shares derived from them.
fn derive(p: &Pass) -> Counters {
    let mut c = p.layers.clone();
    let g = |c: &Counters, k: &str| c.get(k).copied().unwrap_or(0.0);
    let total_ms: f64 = [
        "interp.ms",
        "monitor.ms",
        "recorder.ms",
        "compile.ms",
        "exec.ms",
    ]
    .iter()
    .map(|k| g(&c, k))
    .sum();
    let derived = [
        (
            "runtime.ic_hit_ratio",
            ratio(g(&c, "runtime.ic_hits"), g(&c, "runtime.ic_lookups")),
        ),
        (
            "recorder.abort_ratio",
            ratio(
                g(&c, "recorder.traces_aborted"),
                g(&c, "recorder.traces_aborted") + g(&c, "recorder.traces_completed"),
            ),
        ),
        (
            "exec.native_frac",
            ratio(
                g(&c, "exec.bytecodes_native"),
                g(&c, "exec.bytecodes_native")
                    + g(&c, "interp.bytecodes")
                    + g(&c, "recorder.bytecodes"),
            ),
        ),
        (
            "exec.native_entry_share",
            ratio(
                g(&c, "exec.native_exits"),
                g(&c, "exec.native_exits") + g(&c, "exec.fallbacks"),
            ),
        ),
        (
            "share.interp_pct",
            100.0 * ratio(g(&c, "interp.ms"), total_ms),
        ),
        (
            "share.monitor_pct",
            100.0 * ratio(g(&c, "monitor.ms"), total_ms),
        ),
        (
            "share.record_pct",
            100.0 * ratio(g(&c, "recorder.ms"), total_ms),
        ),
        (
            "share.compile_pct",
            100.0 * ratio(g(&c, "compile.ms"), total_ms),
        ),
        ("share.exec_pct", 100.0 * ratio(g(&c, "exec.ms"), total_ms)),
        (
            "pool.jobs_per_request",
            ratio(g(&c, "pool.jobs_executed"), p.evals.len() as f64),
        ),
        (
            "shared.hit_ratio",
            ratio(
                g(&c, "shared.hits"),
                g(&c, "shared.hits") + g(&c, "shared.misses"),
            ),
        ),
    ];
    for (k, v) in derived {
        c.insert(k, v);
    }
    c
}

/// Restarts the process's peak resident size (`VmHWM`) from its current
/// resident size, so each pass reads its own peak.
fn reset_peak_rss() {
    // Best effort: without it the pass reads the peak so far.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (`VmHWM`), less the calibration
/// kernel's table, which stays resident from start to end, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    (kib * 1024.0 - calib::TABLE_BYTES as f64) / (1024.0 * 1024.0)
}

/// Prints one line per metric (name, value, unit, samples) and returns
/// the `metrics` object of the result line.
fn report(
    table: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
    samples: impl Fn(&str) -> String,
) -> Json {
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        println!("  {name:30} {v:>14.4} {unit:6} {}", samples(name));
        fields.push((
            *name,
            Json::obj([("value", Json::Float(v)), ("unit", Json::from(*unit))]),
        ));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` list the same names
    /// in the same order, with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv: Vec<String> = "--workload tenants --seed 7 --seconds 2.5 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload, Workload::Tenants);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn derived_ratios_and_shares() {
        let mut p = Pass {
            traced: true,
            evals: vec![(0, 1.0), (1, 2.0)],
            ..Pass::default()
        };
        for (k, v) in [
            ("interp.ms", 10.0),
            ("monitor.ms", 30.0),
            ("exec.ms", 60.0),
            ("recorder.traces_aborted", 1.0),
            ("recorder.traces_completed", 3.0),
            ("pool.jobs_executed", 5.0),
        ] {
            p.layers.insert(k, v);
        }
        let c = derive(&p);
        assert_eq!(c["share.monitor_pct"], 30.0);
        assert_eq!(c["share.exec_pct"], 60.0);
        assert_eq!(c["recorder.abort_ratio"], 0.25);
        assert_eq!(c["pool.jobs_per_request"], 2.5);
        assert_eq!(c["shared.hit_ratio"], 0.0);
    }
}
