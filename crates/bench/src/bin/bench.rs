//! `bench`: the perf gate and the paper-figure report, over one runner
//! (`tm_bench::record`) and one declarative gate list (`tm_bench::gates`).
//!
//! Usage:
//!   `bench gate`            run each (program, config) pair the gates read
//!                           once and check every gate against
//!                           `BENCH_gates.json`; exit 1 on any failure
//!   `bench gate --refresh`  the same, after rewriting `BENCH_gates.json`
//!                           from this run
//!   `bench report`          the suite on all four engines plus a profiled
//!                           tracing run: Figures 10–12; exit 1 if an
//!                           engine disagrees with the interpreter
//!
//! Both print progress and verdicts or tables on stderr and the
//! `bench/v2` records as JSON on stdout. `bench gate` spawns
//! `bench converge DIR PROG..` to bring the warm-start caches to their
//! fixed point in a process that then exits, so the warm runs load them
//! in a process that never recorded those programs.

use std::path::Path;
use std::process::{Command, ExitCode};

use tm_bench::gates::{baselines, program, Gate, Records, GATES};
use tm_bench::record::{self, Config, Record, REPEATS};
use tm_bench::SUITE;
use tm_support::Json;

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gates.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["gate"] => gate(false),
        ["gate", "--refresh"] => gate(true),
        ["report"] => report(),
        ["converge", dir, programs @ ..] => {
            let converge = |p: &&str| {
                record::converge(program(p).ok_or(format!("unknown program {p}"))?, Path::new(dir))
            };
            if let Err(e) = programs.iter().try_for_each(converge) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: bench gate [--refresh] | bench report");
            ExitCode::from(2)
        }
    }
}

fn document(mode: &str, records: &[&Record], extra: Vec<(&str, Json)>) -> Json {
    let head = [
        ("schema", Json::from("bench/v2")),
        ("mode", Json::from(mode)),
        ("repeats", Json::from(REPEATS)),
        ("records", Json::Array(records.iter().map(|r| r.to_json()).collect())),
    ];
    Json::obj(head.into_iter().chain(extra))
}

fn progress(r: &Result<Record, String>) {
    match r {
        Ok(Record { program, config, wall: w, .. }) => {
            let config = config.name();
            eprintln!("  {program:26} {config:11} {:9.2} ms  [{:.2} - {:.2}]", w.median, w.q1, w.q3)
        }
        Err(e) => eprintln!("  error: {e}"),
    }
}

fn gate(refresh: bool) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let native = tracemonkey::nanojit::native_supported();
    let (active, skipped): (Vec<&Gate>, Vec<&Gate>) =
        GATES.iter().partition(|g| native || !g.native_only);

    // Each needed pair once, one program's configurations back to back.
    let needs: Vec<(&str, Config)> = active.iter().flat_map(|g| g.needs()).collect();
    let first = |p: &str| needs.iter().position(|n| n.0 == p);
    let mut pairs: Vec<_> = needs.iter().map(|&(p, c)| (first(p), p, c)).collect();
    pairs.sort();
    pairs.dedup();
    let pairs: Vec<(&str, Config)> = pairs.into_iter().map(|(_, p, c)| (p, c)).collect();

    let dir = std::env::temp_dir().join(format!("tm-bench-warm-{}", std::process::id()));
    let warm: Vec<&str> =
        pairs.iter().filter(|&&(_, c)| c == Config::Warm).map(|&(p, _)| p).collect();
    let converged = if warm.is_empty() { Ok(()) } else { converge_elsewhere(&dir, &warm) };
    let mut records = Records::new();
    for (p, c) in pairs {
        let prog = program(p).expect("gates name known programs");
        let r = match &converged {
            Err(e) if c == Config::Warm => Err(e.clone()),
            _ => record::run(prog, c, &dir),
        };
        progress(&r);
        records.insert((p.to_owned(), c), r);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let base = if refresh {
        baselines(&active, &records).and_then(|doc| {
            std::fs::write(BASELINE, doc.to_string_pretty() + "\n").map_err(|e| e.to_string())?;
            Ok(doc)
        })
    } else {
        std::fs::read_to_string(BASELINE)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
    };
    let base = base.unwrap_or_else(|e| {
        eprintln!("bench: {BASELINE}: {e}");
        std::process::exit(1)
    });

    for g in &skipped {
        eprintln!("SKIP {}: no native backend for this target", g.id);
    }
    let (mut verdicts, mut failed) = (Vec::new(), 0);
    for g in &active {
        let (status, detail) = match g.check(&records, &base, cores) {
            Ok(d) => ("pass", d),
            Err(d) => ("fail", d),
        };
        failed += usize::from(status == "fail");
        eprintln!("{} {}: {detail}", status.to_uppercase(), g.id);
        let fields = [("id", g.id), ("status", status), ("detail", &detail)];
        verdicts.push(Json::obj(fields.map(|(k, v)| (k, Json::from(v)))));
    }
    let ok: Vec<&Record> = records.values().filter_map(|r| r.as_ref().ok()).collect();
    let extra = vec![("cores", Json::from(cores)), ("gates", Json::Array(verdicts))];
    println!("{}", document("gate", &ok, extra).to_string_pretty());
    eprintln!("bench gate: {failed} of {} gates failed", active.len());
    ExitCode::from(u8::from(failed > 0))
}

/// Converges the warm-start caches in a child `bench converge`, so no
/// recording of theirs happens in this process.
fn converge_elsewhere(dir: &Path, programs: &[&str]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe).arg("converge").arg(dir).args(programs).output();
    let out = out.map_err(|e| format!("cannot spawn bench converge: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    out.status.success().then_some(()).ok_or_else(|| format!("bench converge failed: {stderr}"))
}

fn report() -> ExitCode {
    use Config::{FastInterp, Interp, Method, Profiled, Tracing};
    let mut rows: Vec<Vec<Record>> = Vec::new();
    let mut disagreements = 0;
    for prog in SUITE {
        let runs = [Interp, FastInterp, Method, Tracing, Profiled].map(|c| {
            let r = record::run(prog, c, Path::new(""));
            progress(&r);
            r
        });
        let Ok(row) = runs.into_iter().collect::<Result<Vec<_>, _>>() else {
            return ExitCode::FAILURE;
        };
        for r in &row[1..] {
            if r.value != row[0].value {
                let (name, v, want) = (r.config.name(), &r.value, &row[0].value);
                eprintln!("{}: {name} printed {v:?}, the interpreter {want:?}", prog.name);
                disagreements += 1;
            }
        }
        rows.push(row);
    }

    let speedup = |r: &[Record], i: usize| r[0].wall.median / r[i].wall.median.max(1e-9);
    table(
        "Figure 10: median ms, and speedup over the interpreter",
        &["interp", "sfx", "method", "tracing", "sfx x", "method x", "tracing x"],
        rows.iter().map(|r| {
            let ms = r[..4].iter().map(|x| x.wall.median);
            (&r[0].program, ms.chain((1..4).map(|i| speedup(r, i))).collect())
        }),
    );
    let n = rows.len() as f64;
    let geomean = |i| (rows.iter().map(|r| speedup(r, i).ln()).sum::<f64>() / n).exp();
    let fastest = rows.iter().filter(|r| (0..3).all(|i| speedup(r, 3) >= speedup(r, i))).count();
    let best = rows.iter().max_by(|a, b| speedup(a, 3).total_cmp(&speedup(b, 3)));
    eprintln!(
        "geomean speedups: sfx {:.2}x  method {:.2}x  tracing {:.2}x\n\
         tracing fastest on {fastest} of {} programs (paper: 9 of 26); best tracing \
         speedup {:.1}x on {} (paper: 25x on bitops-bitwise-and)",
        geomean(1),
        geomean(2),
        geomean(3),
        rows.len(),
        best.map_or(0.0, |r| speedup(r, 3)),
        best.map_or("", |r| &r[0].program),
    );

    table(
        "Figure 11: % of bytecodes interpreted, recorded and run natively (tracing)",
        &["bytecodes", "interp%", "record%", "native%", "speedup"],
        rows.iter().map(|r| {
            let parts = ["bytecodes_interp", "bytecodes_recorded", "bytecodes_native"]
                .map(|n| r[3].counter(n).unwrap_or(0) as f64);
            let total: f64 = parts.iter().sum();
            let pct = parts.map(|x| 100.0 * x / total.max(1.0));
            (&r[0].program, [total, pct[0], pct[1], pct[2], speedup(r, 3)].to_vec())
        }),
    );
    table(
        "Figure 12: % of time by activity (profiled tracing; paper: monitor < 5% when well traced)",
        &["total ms", "interp%", "monitor%", "record%", "compile%", "native%"],
        rows.iter().map(|r| {
            let ns = ["interpret_ns", "monitor_ns", "record_ns", "compile_ns", "native_ns"]
                .map(|n| r[4].counter(n).unwrap_or(0) as f64);
            let total: f64 = ns.iter().sum();
            let pct = ns.map(|x| 100.0 * x / total.max(1.0));
            (&r[0].program, std::iter::once(total / 1e6).chain(pct).collect())
        }),
    );

    let all: Vec<&Record> = rows.iter().flatten().collect();
    println!("{}", document("report", &all, Vec::new()).to_string_pretty());
    if disagreements > 0 {
        eprintln!("bench report: {disagreements} engine disagreements with the interpreter");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn table<'a>(title: &str, columns: &[&str], rows: impl Iterator<Item = (&'a String, Vec<f64>)>) {
    eprint!("\n{title}\n{:26}", "program");
    columns.iter().for_each(|c| eprint!(" {c:>10}"));
    for (program, values) in rows {
        eprint!("\n{program:26}");
        values.iter().for_each(|v| eprint!(" {v:>10.2}"));
    }
    eprintln!();
}
