//! Ablation studies for the design choices DESIGN.md calls out:
//! trace stitching (§6.2), the oracle (§3.2), nested trees (§4),
//! blacklisting (§3.3), hotness thresholds (§6.3), and the forward filter
//! pipeline (§5.1).
//!
//! For each configuration, runs the full suite under the tracing engine
//! (best of `tm_bench::record::REPEATS` fresh VMs per program) and
//! reports total time relative to the default configuration.

use tm_bench::record::{fresh_vm, Config, REPEATS};
use tm_bench::SUITE;
use tracemonkey::{Engine, JitOptions};

/// A change to the default options.
type Tweak = fn(&mut JitOptions);

fn total_ms(opts: JitOptions) -> f64 {
    SUITE
        .iter()
        .map(|p| {
            fresh_vm(p, Config::Tracing, (Engine::Tracing, opts), None, REPEATS)
                .unwrap_or_else(|e| panic!("{e}"))
                .wall
                .min
        })
        .sum()
}

fn main() {
    let configs: [(&str, Tweak); 13] = [
        ("default", |_| {}),
        ("no stitching (§6.2)", |o| o.enable_stitching = false),
        ("no nesting (§4)", |o| o.enable_nesting = false),
        ("no oracle (§3.2)", |o| o.enable_oracle = false),
        ("no blacklisting (§3.3)", |o| o.blacklist.enabled = false),
        ("no stability linking (Fig 6)", |o| o.enable_stability_linking = false),
        ("no CSE (§5.1)", |o| o.filters.cse = false),
        ("no const folding (§5.1)", |o| o.filters.fold = false),
        ("no INT/DOUBLE demotion (§5.1)", |o| o.filters.demote = false),
        ("soft-float backend (§5.1)", |o| o.filters.softfloat = true),
        ("no branch traces", |o| o.hot_exit_threshold = u32::MAX),
        ("hotness threshold 16 (§6.3)", |o| o.hotness_threshold = 16),
        ("hotness threshold 64 (§6.3)", |o| o.hotness_threshold = 64),
    ];

    let mut base = 0.0;
    println!("{:34} {:>10} {:>10}", "configuration", "total ms", "vs default");
    for (name, f) in configs {
        let mut opts = JitOptions::default();
        f(&mut opts);
        let t = total_ms(opts);
        if name == "default" {
            base = t;
        }
        println!("{:34} {:>10.1} {:>9.2}x", name, t, t / base.max(1e-9));
    }
}
