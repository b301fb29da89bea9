//! The four workloads and their seeded inputs.
//!
//! README.md in this directory says why each workload was chosen and
//! which layers it stresses.

use tm_bench::{BenchProgram, SUITE};
use tm_support::TmRng;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Loop-dominated programs: monitor and native execution.
    HotLoops,
    /// Short or branchy programs: interpret, record and compile.
    TraceChurn,
    /// The `TraceChurn` programs, warm-started from converged caches.
    WarmStart,
    /// A closed-loop request stream over four realms sharing code.
    Tenants,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 4] = [
    Workload::HotLoops,
    Workload::TraceChurn,
    Workload::WarmStart,
    Workload::Tenants,
];

/// The programs of `HotLoops`.
pub const HOT_LOOPS: [&str; 16] = [
    "3d-cube",
    "3d-morph",
    "access-fannkuch",
    "access-nbody",
    "access-nsieve",
    "bitops-3bit-bits-in-byte",
    "bitops-bits-in-byte",
    "bitops-bitwise-and",
    "bitops-nsieve-bits",
    "crypto-aes",
    "crypto-md5",
    "math-cordic",
    "math-spectral-norm",
    "string-fasta",
    "string-tagcloud",
    "string-validate-input",
];

/// The programs of `TraceChurn` and `WarmStart`.
pub const TRACE_CHURN: [&str; 10] = [
    "3d-raytrace",
    "access-binary-trees",
    "controlflow-recursive",
    "crypto-sha1",
    "date-format-tofte",
    "date-format-xparb",
    "math-partial-sums",
    "regexp-dna",
    "string-base64",
    "string-unpack-code",
];

/// Realms serving the `Tenants` request stream.
pub const TENANT_REALMS: usize = 4;

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotLoops => "hot_loops",
            Workload::TraceChurn => "trace_churn",
            Workload::WarmStart => "warm_start",
            Workload::Tenants => "tenants",
        }
    }

    /// The suite programs one pass runs (each once).
    pub fn programs(self) -> Vec<&'static BenchProgram> {
        let named = |names: &[&str]| -> Vec<&'static BenchProgram> {
            names
                .iter()
                .map(|n| tm_bench::by_name(n).expect("suite program"))
                .collect()
        };
        match self {
            Workload::HotLoops => named(&HOT_LOOPS),
            Workload::TraceChurn | Workload::WarmStart => named(&TRACE_CHURN),
            Workload::Tenants => SUITE.iter().collect(),
        }
    }

    /// Calibrated time of one pass on the reference machine, in ms.
    pub fn nominal_pass_ms(self) -> f64 {
        match self {
            Workload::HotLoops => 720.0,
            Workload::TraceChurn => 220.0,
            Workload::WarmStart => 175.0,
            Workload::Tenants => 980.0,
        }
    }

    /// How many timed passes take `seconds` on the reference machine
    /// (at least two).
    pub fn passes_for(self, seconds: f64) -> usize {
        ((seconds * 1e3 / self.nominal_pass_ms()).round() as usize).max(2)
    }

    /// Whether the workload runs compiles on a pool thread, so its
    /// counters depend on timing.
    pub fn timing_dependent(self) -> bool {
        self == Workload::Tenants
    }
}

/// One request of a pass: which program, on which realm (always realm 0
/// outside `Tenants`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into the workload's program list.
    pub prog: usize,
    /// Realm the request runs on.
    pub realm: usize,
}

/// The seeded input stream: pass after pass, each a permutation of the
/// workload's programs; on `Tenants` each request also draws its realm.
#[derive(Debug)]
pub struct Stream {
    rng: TmRng,
    nprogs: usize,
    realms: usize,
}

impl Stream {
    /// The stream for `workload` under `seed`.
    pub fn new(workload: Workload, nprogs: usize, seed: u64) -> Stream {
        let realms = if workload == Workload::Tenants {
            TENANT_REALMS
        } else {
            1
        };
        Stream {
            rng: TmRng::seed_from_u64(seed),
            nprogs,
            realms,
        }
    }

    /// The next pass.
    pub fn next_pass(&mut self) -> Vec<Request> {
        let mut order: Vec<usize> = (0..self.nprogs).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
            .into_iter()
            .map(|prog| {
                let realm = if self.realms > 1 {
                    self.rng.below(self.realms as u64) as usize
                } else {
                    0
                };
                Request { prog, realm }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(w: Workload, seed: u64, n: usize) -> Vec<Vec<Request>> {
        let mut s = Stream::new(w, w.programs().len(), seed);
        (0..n).map(|_| s.next_pass()).collect()
    }

    #[test]
    fn workloads_partition_the_suite() {
        let mut all: Vec<&str> = HOT_LOOPS
            .iter()
            .chain(TRACE_CHURN.iter())
            .copied()
            .collect();
        all.sort_unstable();
        let mut suite: Vec<&str> = SUITE.iter().map(|p| p.name).collect();
        suite.sort_unstable();
        assert_eq!(all, suite);
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        for w in ALL {
            assert_eq!(passes(w, 42, 5), passes(w, 42, 5), "{}", w.name());
        }
    }

    #[test]
    fn seeds_change_the_order_but_not_the_mix() {
        let a = passes(Workload::Tenants, 1, 3);
        let b = passes(Workload::Tenants, 2, 3);
        assert_ne!(a, b);
        for pass in a.iter().chain(b.iter()) {
            let mut progs: Vec<usize> = pass.iter().map(|r| r.prog).collect();
            progs.sort_unstable();
            assert_eq!(progs, (0..SUITE.len()).collect::<Vec<_>>());
            assert!(pass.iter().all(|r| r.realm < TENANT_REALMS));
        }
        assert!(a.iter().flatten().any(|r| r.realm != 0));
        let hot = passes(Workload::HotLoops, 9, 2);
        assert!(hot.iter().flatten().all(|r| r.realm == 0));
        assert_ne!(hot[0], hot[1], "each pass draws its own order");
    }

    #[test]
    fn pass_counts_follow_seconds() {
        assert_eq!(Workload::TraceChurn.passes_for(2.2), 10);
        assert_eq!(Workload::Tenants.passes_for(0.1), 2);
        assert!(Workload::HotLoops.passes_for(15.0) > Workload::HotLoops.passes_for(10.0));
    }
}
