//! The perf gates `bench gate` enforces, as data. Each [`Gate`] names a
//! program set and one check over the [`Record`]s of those programs,
//! optionally against the counters pinned in `BENCH_gates.json`.
//! Deterministic counters carry most gates; the wall-clock gates compare
//! group totals of one statistic.

use std::collections::BTreeMap;

use tm_support::Json;

use crate::record::{Config, Record};
use crate::suite::{by_name, BenchProgram, TENANT_REQUESTS};

/// A number a check reads, per program.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// Sum of the named counters of the program's record under a config.
    Count(Config, &'static [&'static str]),
    /// A counter pinned in `BENCH_gates.json`.
    Baseline(Config, &'static str),
    /// The median wall-clock of the program's record, in ms.
    Median(Config),
    /// The fastest run of the program's record, in ms.
    Best(Config),
    /// A constant.
    Const(f64),
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

/// Multiplier on the right-hand side of a comparison.
#[derive(Debug, Clone, Copy)]
enum Scale {
    /// A fixed factor.
    By(f64),
    /// The core-adaptive concurrency floor: `min(4, C/2)` on C ≥ 2 cores,
    /// `0.5` (no regression beyond scheduler slack) on one core.
    CoreFloor,
}

/// Where a comparison applies.
#[derive(Debug, Clone, Copy)]
enum When {
    /// Everywhere.
    Always,
    /// Only where the term is nonzero.
    Nonzero(Term),
    /// Only where the term is zero.
    Zero(Term),
}

/// `lhs op scale × rhs`, where `when` holds.
#[derive(Debug, Clone, Copy)]
struct Cmp {
    lhs: Term,
    op: Op,
    rhs: Term,
    scale: Scale,
    when: When,
}

impl Cmp {
    const fn new(lhs: Term, op: Op, rhs: Term) -> Cmp {
        Cmp { lhs, op, rhs, scale: Scale::By(1.0), when: When::Always }
    }

    const fn times(self, factor: f64) -> Cmp {
        Cmp { scale: Scale::By(factor), ..self }
    }

    const fn when(self, when: When) -> Cmp {
        Cmp { when, ..self }
    }
}

/// What a gate asserts over its program set.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Each program prints the same value, and has the same listed
    /// counters, under both configs.
    Same(Config, Config, &'static [&'static str]),
    /// The comparison holds for each program.
    Each(Cmp),
    /// The comparison holds for the terms summed over the program set.
    Total(Cmp),
}

/// One declarative gate.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Stable identifier, `<family>.<what>`.
    pub id: &'static str,
    /// The programs it reads: suite programs or tenant requests.
    pub programs: &'static [&'static str],
    /// Skipped, with a SKIP line, where the target has no native backend.
    pub native_only: bool,
    /// The assertion.
    check: Check,
}

use Check::{Each, Same, Total};
use Config::{Decoded, Interp, Raw, Single, Tenants, Tracing, Warm};
use Op::{Ge, Gt, Le, Lt};
use Term::{Baseline, Best, Const, Count, Median};

const fn gate(id: &'static str, programs: &'static [&'static str], check: Check) -> Gate {
    Gate { id, programs, native_only: false, check }
}

const fn native(id: &'static str, programs: &'static [&'static str], check: Check) -> Gate {
    Gate { id, programs, native_only: true, check }
}

const FUSION: &[&str] = &["bitops-bits-in-byte", "bitops-bitwise-and", "access-nsieve"];
const COVERAGE: &[&str] =
    &["access-binary-trees", "date-format-tofte", "date-format-xparb", "controlflow-recursive"];
const WARM_START: &[&str] = &[
    "bitops-3bit-bits-in-byte",
    "math-partial-sums",
    "string-unpack-code",
    "date-format-xparb",
    "controlflow-recursive",
];
const TENANTS: &[&str] = &["arith-loop", "branchy", "objects", "strings", "straightline"];
const TRACEABLE_TENANTS: &[&str] = TENANTS.split_at(4).0;
const NATIVE: &[&str] = &[
    "bitops-3bit-bits-in-byte",
    "bitops-bits-in-byte",
    "bitops-bitwise-and",
    "bitops-nsieve-bits",
    "access-nsieve",
    "string-fasta",
];
const BITOPS: &[&str] = NATIVE.split_at(4).0;

const ZERO: Term = Const(0.0);
const INSTS: Term = Count(Tracing, &["native_insts"]);
const FUSED: Term = Count(Tracing, &["native_insts_fused"]);
const RAMP: Term = Count(Warm, &["warmup_bytecodes"]);
const WARM_ENTERS: Term = Count(Warm, &["trace_enters"]);
const EXITS: Term = Count(Tracing, &["native_exits"]);
const FALLBACKS: Term = Count(Tracing, &["native_fallbacks"]);
const TRACING_MS: Term = Median(Tracing);
const UPTAKE: Check =
    Total(Cmp::new(EXITS, Gt, FALLBACKS).when(When::Nonzero(Count(Tracing, &["trace_enters"]))));

/// Every gate `bench gate` checks.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    // Trace dispatch beats the interpreter on the traceable bitops program.
    gate("interp.tracing_not_slower", &["bitops-bits-in-byte"],
        Total(Cmp::new(TRACING_MS, Le, Median(Interp)))),
    // Superinstruction fusion: dispatch within 5% of the baseline, and at
    // least a quarter of raw dispatch removed overall.
    gate("fusion.dispatch_vs_baseline", FUSION,
        Each(Cmp::new(INSTS, Le, Baseline(Tracing, "native_insts")).times(1.05))),
    gate("fusion.reduction", FUSION,
        Total(Cmp::new(INSTS, Le, Count(Raw, &["native_insts"])).times(0.75))),
    // Recursion and string/date builtins trace, nothing that traced in the
    // baseline stops, and the date group keeps interpreter parity.
    gate("coverage.traces", COVERAGE, Each(Cmp::new(FUSED, Gt, ZERO))),
    gate("coverage.stays_traced", COVERAGE,
        Each(Cmp::new(FUSED, Gt, ZERO)
            .when(When::Nonzero(Baseline(Tracing, "native_insts_fused"))))),
    gate("coverage.date_parity", &["date-format-tofte", "date-format-xparb"],
        Total(Cmp::new(TRACING_MS, Le, Median(Interp)).times(1.10))),
    // A fresh process loading a converged `.tmc` cache hits it, records
    // nothing, installs at least what a cold run records, cuts the ramp
    // where it enters traces, and holds the baseline ramp within 5%.
    gate("warm.cache_hit", WARM_START,
        Each(Cmp::new(Count(Warm, &["cache_hits"]), Op::Eq, Const(1.0)))),
    gate("warm.records_nothing", WARM_START,
        Each(Cmp::new(Count(Warm, &["traces_completed", "traces_aborted"]), Op::Eq, ZERO))),
    gate("warm.loads_trees", WARM_START,
        Each(Cmp::new(Count(Warm, &["cache_loaded_trees"]), Ge, Count(Tracing, &["trees"])))),
    gate("warm.loads_fragments", WARM_START,
        Each(Cmp::new(Count(Warm, &["cache_loaded_fragments"]), Ge,
            Count(Tracing, &["fragments"])))),
    gate("warm.ramp_cut", WARM_START,
        Each(Cmp::new(RAMP, Lt, Count(Tracing, &["warmup_bytecodes"]))
            .when(When::Nonzero(WARM_ENTERS)))),
    gate("warm.ramp_vs_baseline", WARM_START,
        Each(Cmp::new(RAMP, Le, Baseline(Warm, "warmup_bytecodes")).times(1.05)
            .when(When::Nonzero(Baseline(Warm, "trace_enters"))))),
    gate("warm.stays_traced", WARM_START,
        Each(Cmp::new(WARM_ENTERS, Gt, ZERO)
            .when(When::Nonzero(Baseline(Warm, "trace_enters"))))),
    // Tenant realms return the interpreter's results, share code, scale
    // with the cores (best-of-runs walls), and keep sharing and compiling
    // in the background wherever the baseline did.
    gate("tenants.results_single", TENANTS, Same(Single, Interp, &[])),
    gate("tenants.results", TENANTS, Same(Tenants, Interp, &[])),
    gate("tenants.publishes", TRACEABLE_TENANTS,
        Each(Cmp::new(Count(Tenants, &["shared_publishes"]), Gt, ZERO))),
    gate("tenants.hits", TRACEABLE_TENANTS,
        Each(Cmp::new(Count(Tenants, &["shared_hits"]), Gt, ZERO))),
    gate("tenants.speedup", TRACEABLE_TENANTS, Total(Cmp {
        scale: Scale::CoreFloor,
        ..Cmp::new(Best(Single), Ge, Best(Tenants))
    })),
    gate("tenants.stays_shared", TENANTS,
        Each(Cmp::new(Count(Tenants, &["shared_hits"]), Gt, ZERO)
            .when(When::Nonzero(Baseline(Tenants, "shared_hits"))))),
    gate("tenants.stays_background", TENANTS,
        Each(Cmp::new(Count(Tenants, &["compile_jobs_installed"]), Gt, ZERO)
            .when(When::Nonzero(Baseline(Tenants, "compile_jobs_installed"))))),
    // The native tier is invisible next to the decoded executor, balances
    // its accounting, runs the object and string groups majority-native,
    // wins on bitops and access, and holds the baseline.
    native("native.identity", NATIVE, Same(Tracing, Decoded,
        &["native_insts", "trace_enters", "side_exits", "bytecodes_native"])),
    native("native.accounting", NATIVE,
        Each(Cmp::new(Count(Tracing, &["native_exits", "native_fallbacks"]), Op::Eq,
            Count(Tracing, &["trace_enters"])))),
    native("native.uptake_access", &["access-nsieve"], UPTAKE),
    native("native.uptake_string", &["string-fasta"], UPTAKE),
    native("native.bitops_faster", BITOPS,
        Total(Cmp::new(TRACING_MS, Lt, Median(Decoded)))),
    native("native.access_faster", &["access-nsieve"],
        Total(Cmp::new(TRACING_MS, Lt, Median(Decoded)))),
    native("native.stays_native", NATIVE,
        Each(Cmp::new(EXITS, Gt, ZERO).when(When::Nonzero(Baseline(Tracing, "native_exits"))))),
    native("native.stays_fallback_free", NATIVE,
        Each(Cmp::new(FALLBACKS, Op::Eq, ZERO)
            .when(When::Zero(Baseline(Tracing, "native_fallbacks"))))),
    native("native.dispatch_vs_baseline", NATIVE,
        Each(Cmp::new(INSTS, Le, Baseline(Tracing, "native_insts")).times(1.05))),
];

/// A suite program or tenant request by name.
pub fn program(name: &str) -> Option<&'static BenchProgram> {
    by_name(name).or_else(|| TENANT_REQUESTS.iter().find(|p| p.name == name))
}

/// Records by (program, config); a runner failure is kept as its message
/// and fails every gate that reads it.
pub type Records = BTreeMap<(String, Config), Result<Record, String>>;

/// The `BENCH_gates.json` document pinning every baseline counter `gates`
/// read, taken from `records`: `{"<config>": {"<program>": {"<counter>": n}}}`
/// after a schema and a provenance note.
///
/// # Errors
///
/// A record or counter a baseline term names is missing.
pub fn baselines(gates: &[&Gate], records: &Records) -> Result<Json, String> {
    let mut pinned: BTreeMap<String, BTreeMap<&str, BTreeMap<&str, Json>>> = BTreeMap::new();
    for g in gates {
        for (&p, term) in g.programs.iter().flat_map(|p| g.check.terms().map(move |t| (p, t))) {
            if let Baseline(c, counter) = term {
                let v = record(records, p, c)?.counter(counter);
                let v = v.ok_or_else(|| format!("{p}/{}: no {counter}", c.name()))?;
                pinned.entry(c.name()).or_default().entry(p).or_default().insert(counter, v.into());
            }
        }
    }
    let configs = pinned.into_iter().map(|(config, programs)| {
        (config, Json::obj(programs.into_iter().map(|(p, c)| (p, Json::obj(c)))))
    });
    let note = "pinned counters; regenerate with `bench gate --refresh`";
    let head = [("schema".into(), Json::from("bench-gates/v1")), ("note".into(), note.into())];
    Ok(Json::Object(head.into_iter().chain(configs).collect()))
}

fn record<'r>(records: &'r Records, program: &str, config: Config) -> Result<&'r Record, String> {
    match records.get(&(program.to_owned(), config)) {
        Some(r) => r.as_ref().map_err(Clone::clone),
        None => Err(format!("{program}: no {} record", config.name())),
    }
}

impl Term {
    fn value(self, program: &str, records: &Records, base: &Json) -> Result<f64, String> {
        let missing = |c: Config, what: &str| format!("{program}/{}: no {what}", c.name());
        Ok(match self {
            Count(c, names) => {
                let r = record(records, program, c)?;
                let counts: Option<Vec<u64>> = names.iter().map(|n| r.counter(n)).collect();
                counts.ok_or_else(|| missing(c, &names.join("+")))?.iter().sum::<u64>() as f64
            }
            Baseline(c, name) => {
                let v = base.get(&c.name()).and_then(|j| j.get(program)?.get(name)?.as_u64());
                v.ok_or_else(|| missing(c, &format!("{name} in BENCH_gates.json")))? as f64
            }
            Median(c) => record(records, program, c)?.wall.median,
            Best(c) => record(records, program, c)?.wall.min,
            Const(x) => x,
        })
    }
}

impl Cmp {
    /// Evaluates with `value` resolving terms; `Ok(None)` where `when`
    /// rules the comparison out.
    fn eval(
        &self,
        value: impl Fn(Term) -> Result<f64, String>,
        cores: usize,
    ) -> Result<Option<String>, String> {
        let applies = match self.when {
            When::Always => true,
            When::Nonzero(t) => value(t)? != 0.0,
            When::Zero(t) => value(t)? == 0.0,
        };
        if !applies {
            return Ok(None);
        }
        let (l, r) = (value(self.lhs)?, value(self.rhs)?);
        let factor = match self.scale {
            Scale::By(f) => f,
            Scale::CoreFloor if cores >= 2 => (cores as f64 / 2.0).min(4.0),
            Scale::CoreFloor => 0.5,
        };
        let holds = match self.op {
            Lt => l < factor * r,
            Le => l <= factor * r,
            Op::Eq => l == factor * r,
            Ge => l >= factor * r,
            Gt => l > factor * r,
        };
        let (l, r) = ((l * 1e3).round() / 1e3, (r * 1e3).round() / 1e3);
        let text = format!("{l} {:?} {factor} x {r}", self.op);
        holds.then(|| Some(text.clone())).ok_or_else(|| format!("{text} fails"))
    }
}

impl Check {
    fn terms(&self) -> impl Iterator<Item = Term> {
        let (a, b, when) = match *self {
            Same(a, b, _) => (Count(a, &[]), Count(b, &[]), When::Always),
            Each(c) | Total(c) => (c.lhs, c.rhs, c.when),
        };
        let when = match when {
            When::Always => None,
            When::Nonzero(t) | When::Zero(t) => Some(t),
        };
        [a, b].into_iter().chain(when)
    }
}

impl Gate {
    /// The (program, config) records the check reads.
    pub fn needs(&self) -> Vec<(&'static str, Config)> {
        let configs: Vec<Config> = self
            .check
            .terms()
            .filter_map(|t| match t {
                Count(c, _) | Median(c) | Best(c) => Some(c),
                Baseline(..) | Const(_) => None,
            })
            .collect();
        self.programs.iter().flat_map(|&p| configs.iter().map(move |&c| (p, c))).collect()
    }

    /// Evaluates the gate on `cores` cores: a one-line summary when it
    /// passes. A missing record, counter or baseline entry is a failure,
    /// never a silent pass.
    ///
    /// # Errors
    ///
    /// The first violation, or what was missing.
    pub fn check(&self, records: &Records, base: &Json, cores: usize) -> Result<String, String> {
        let n = self.programs.len();
        match self.check {
            Same(a, b, counters) => {
                for &p in self.programs {
                    let (ra, rb) = (record(records, p, a)?, record(records, p, b)?);
                    let (an, bn) = (a.name(), b.name());
                    if ra.value != rb.value {
                        let (x, y) = (&ra.value, &rb.value);
                        return Err(format!("{p}: {an} printed {x:?}, {bn} {y:?}"));
                    }
                    for &c in counters {
                        let (x, y) = (ra.counter(c), rb.counter(c));
                        if x != y {
                            return Err(format!("{p}: {c} diverges ({an} {x:?}, {bn} {y:?})"));
                        }
                    }
                }
                Ok(format!("{n} programs agree"))
            }
            Each(cmp) => {
                let mut applied = 0;
                for &p in self.programs {
                    let v = cmp.eval(|t| t.value(p, records, base), cores);
                    applied += usize::from(v.map_err(|e| format!("{p}: {e}"))?.is_some());
                }
                Ok(format!("holds on {applied} of {n} programs"))
            }
            Total(cmp) => {
                let sum = |t: Term| self.programs.iter().map(|p| t.value(p, records, base)).sum();
                Ok(cmp.eval(sum, cores)?.unwrap_or_else(|| "not applicable".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    type Counters<'a> = &'a [(&'a str, u64)];

    /// Gate `id`'s verdict on `cores` cores when every one of its
    /// programs has, per config, the given counters and median, and the
    /// baseline pins the given counters.
    fn passes(
        id: &str,
        runs: &[(Config, Counters, f64)],
        pinned: &[(Config, &str, u64)],
        cores: usize,
    ) -> bool {
        let g = GATES.iter().find(|g| g.id == id).unwrap_or_else(|| panic!("no gate {id}"));
        let mut records = Records::new();
        let base = Json::obj(pinned.iter().map(|&(c, n, v)| {
            (c.name(), Json::obj(g.programs.iter().map(|&p| (p, Json::obj([(n, Json::from(v))])))))
        }));
        for &p in g.programs {
            for &(config, counters, ms) in runs {
                let r = Record {
                    program: p.to_owned(),
                    config,
                    value: "42".into(),
                    counters: counters.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
                    wall: record::Wall { min: ms, q1: ms, median: ms, q3: ms },
                };
                records.insert((p.to_owned(), config), Ok(r));
            }
        }
        g.check(&records, &base, cores).is_ok()
    }

    #[test]
    fn dispatch_ceiling_passes_at_five_percent_and_fails_past_it() {
        for id in ["fusion.dispatch_vs_baseline", "native.dispatch_vs_baseline"] {
            let pinned = [(Tracing, "native_insts", 1_000_000)];
            assert!(passes(id, &[(Tracing, &[("native_insts", 1_050_000)], 1.0)], &pinned, 2));
            assert!(!passes(id, &[(Tracing, &[("native_insts", 1_060_000)], 1.0)], &pinned, 2));
        }
    }

    #[test]
    fn fusion_must_remove_a_quarter_of_dispatch() {
        let run = |fused| [(Raw, &[("native_insts", 1000)][..], 1.0), (Tracing, fused, 1.0)];
        assert!(passes("fusion.reduction", &run(&[("native_insts", 750)]), &[], 2));
        assert!(!passes("fusion.reduction", &run(&[("native_insts", 751)]), &[], 2));
    }

    #[test]
    fn traced_program_dropping_to_zero_fails() {
        let zero = [(Tracing, &[("native_insts_fused", 0)][..], 1.0)];
        let pinned = |v| [(Tracing, "native_insts_fused", v)];
        assert!(!passes("coverage.stays_traced", &zero, &pinned(7), 2));
        assert!(passes("coverage.stays_traced", &zero, &pinned(0), 2), "never traced");
        assert!(!passes("coverage.traces", &zero, &[], 2));
        let one = [(Tracing, &[("native_insts_fused", 1)][..], 1.0)];
        assert!(passes("coverage.stays_traced", &one, &pinned(7), 2));
    }

    #[test]
    fn ramp_cut_applies_only_where_the_warm_run_enters_traces() {
        let cut = |ramp, enters| {
            let warm = [("warmup_bytecodes", ramp), ("trace_enters", enters)];
            let runs = [(Tracing, &[("warmup_bytecodes", 100)][..], 1.0), (Warm, &warm, 1.0)];
            passes("warm.ramp_cut", &runs, &[], 2)
        };
        assert!(!cut(100, 5));
        assert!(cut(100, 0), "converged to the interpreter");
        assert!(cut(99, 5));
    }

    #[test]
    fn counter_sums_and_zero_conditions() {
        let records = |aborted| {
            let c = [("traces_completed", 0), ("traces_aborted", aborted)];
            passes("warm.records_nothing", &[(Warm, &c, 1.0)], &[], 2)
        };
        assert!(records(0), "a warm run that records nothing");
        assert!(!records(1), "a warm run that records");
        let balanced = |exits, fallbacks| {
            let c = [("native_exits", exits), ("native_fallbacks", fallbacks), ("trace_enters", 9)];
            passes("native.accounting", &[(Tracing, &c, 1.0)], &[], 2)
        };
        assert!(balanced(8, 1));
        assert!(!balanced(8, 0), "exits + fallbacks != enters");
        let run = [(Tracing, &[("native_fallbacks", 1)][..], 1.0)];
        let pinned = |v| [(Tracing, "native_fallbacks", v)];
        assert!(!passes("native.stays_fallback_free", &run, &pinned(0), 2));
        assert!(passes("native.stays_fallback_free", &run, &pinned(3), 2));
    }

    #[test]
    fn wall_ratios_pass_at_their_bound() {
        let run = |den, ms| [(den, &[][..], 100.0), (Tracing, &[][..], ms)];
        assert!(passes("coverage.date_parity", &run(Interp, 110.0), &[], 2));
        assert!(!passes("coverage.date_parity", &run(Interp, 111.0), &[], 2));
        assert!(passes("interp.tracing_not_slower", &run(Interp, 100.0), &[], 2), "a tie");
        assert!(!passes("native.bitops_faster", &run(Decoded, 100.0), &[], 2), "a tie");
        assert!(passes("native.bitops_faster", &run(Decoded, 99.9), &[], 2));
    }

    #[test]
    fn tenant_speedup_floor_adapts_to_cores() {
        let run = |ms| [(Single, &[][..], 10.0), (Tenants, &[][..], ms)];
        assert!(passes("tenants.speedup", &run(10.0), &[], 2), "1x on 2 cores");
        assert!(!passes("tenants.speedup", &run(10.0), &[], 4), "4 cores need 2x");
        assert!(!passes("tenants.speedup", &run(10.0), &[], 64), "the floor caps at 4x");
        assert!(passes("tenants.speedup", &run(2.5), &[], 64));
        assert!(passes("tenants.speedup", &run(20.0), &[], 1), "0.5x on one core");
        assert!(!passes("tenants.speedup", &run(20.1), &[], 1));
    }

    #[test]
    fn same_compares_values_and_counters() {
        let names = ["native_insts", "trace_enters", "side_exits", "bytecodes_native"];
        let ok: Vec<(&str, u64)> = names.iter().map(|&n| (n, 5)).collect();
        let mut off = ok.clone();
        off[2].1 = 6;
        assert!(passes("native.identity", &[(Tracing, &ok, 1.0), (Decoded, &ok, 1.0)], &[], 2));
        assert!(!passes("native.identity", &[(Tracing, &ok, 1.0), (Decoded, &off, 1.0)], &[], 2));
        assert!(!passes("native.identity", &[(Tracing, &ok, 1.0)], &[], 2), "no decoded record");
    }

    #[test]
    fn missing_baseline_or_record_is_an_error_not_a_pass() {
        let enters = [(Warm, &[("trace_enters", 3)][..], 1.0)];
        assert!(!passes("warm.stays_traced", &enters, &[], 2), "no baseline entry");
        assert!(!passes("warm.stays_traced", &[], &[(Warm, "trace_enters", 3)], 2), "no record");
        let g = GATES.iter().find(|g| g.id == "warm.records_nothing").unwrap();
        let mut records = Records::new();
        for &p in g.programs {
            records.insert((p.to_owned(), Warm), Err(format!("{p} crashed")));
        }
        assert!(g.check(&records, &Json::Null, 2).unwrap_err().contains("crashed"));
    }

    #[test]
    fn checked_in_baselines_pin_exactly_what_the_gates_read() {
        let base = Json::parse(include_str!("../../../BENCH_gates.json")).unwrap();
        let mut records = Records::new();
        for g in GATES {
            for (&p, t) in g.programs.iter().flat_map(|p| g.check.terms().map(move |t| (p, t))) {
                let Baseline(c, n) = t else { continue };
                let v = Baseline(c, n).value(p, &records, &base).unwrap_or_else(|e| panic!("{e}"));
                let r = records.entry((p.to_owned(), c)).or_insert_with(|| {
                    let (program, value, wall) = (p.to_owned(), String::new(), Default::default());
                    Ok(Record { program, config: c, value, counters: BTreeMap::new(), wall })
                });
                r.as_mut().unwrap().counters.insert(n.to_owned(), v as u64);
            }
        }
        let all: Vec<&Gate> = GATES.iter().collect();
        let refreshed = baselines(&all, &records).unwrap().to_string_pretty() + "\n";
        assert_eq!(refreshed, include_str!("../../../BENCH_gates.json"), "pins what gates read");
        let mut ids: Vec<&str> = GATES.iter().map(|g| g.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), GATES.len(), "gate ids are unique");
        assert!(GATES.iter().flat_map(|g| g.programs).all(|p| program(p).is_some()));
    }
}
