//! Wall-clock benchmarks (on the in-tree `tm-support` harness): every
//! SunSpider program under every engine (the statistical counterpart of
//! `bench report`'s Figure 10 table). Run a focused subset with
//! `cargo bench -p tm-bench --bench engines -- <program-name>`;
//! `TM_BENCH_SAMPLES`/`TM_BENCH_WARMUP` override the 10-sample default.

use tm_bench::SUITE;
use tm_support::bench::Runner;
use tracemonkey::{Engine, JitOptions, Vm};

fn main() {
    let mut runner = Runner::from_args();
    for prog in SUITE {
        for (label, engine) in [
            ("interp", Engine::Interp),
            ("sfx", Engine::FastInterp),
            ("method", Engine::Method),
            ("tracing", Engine::Tracing),
        ] {
            runner.bench(&format!("{}/{label}", prog.name), || {
                let mut vm = Vm::with_options(engine, JitOptions::default());
                vm.eval(prog.source).expect("benchmark program runs")
            });
        }
    }
}
