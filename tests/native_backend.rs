//! Integration coverage for the native x86-64 tier (`tm-nanojit::x64`)
//! behind `JitOptions::native_backend`: tier selection and fallback
//! accounting, differential identity with the decoded executor, graceful
//! degradation on targets without the backend, and invalidation when a
//! tree grows a branch fragment. The instruction-level differential
//! tests live in `crates/nanojit/src/x64.rs`; these drive the tier
//! through whole programs, the way the monitor uses it.

use tracemonkey::{Engine, JitOptions, Vm};

/// Runs `src` under the tracing JIT with `native_backend` as given and
/// returns the display string plus the profile counters.
fn run_with(
    src: &str,
    native: bool,
) -> (String, tracemonkey::jit::profiler::ProfileStats) {
    let mut opts = JitOptions::default();
    opts.native_backend = native;
    opts.profile = true;
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    let v = vm.eval(src).expect("program runs");
    let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
    (shown, vm.profile().expect("tracing engine profiles").clone())
}

const INT_LOOP: &str = "var s = 0; for (var i = 0; i < 4000; i++) s = (s + (i ^ 3)) | 0; s";

const OBJ_LOOP: &str = "\
    var o = { a: 0, b: 1 };\n\
    for (var i = 0; i < 400; i++) { o.a = (o.a + o.b + i) | 0; }\n\
    o.a";

#[test]
fn supported_tree_runs_native_and_counters_balance() {
    if !tracemonkey::nanojit::native_supported() {
        return; // covered by native_backend_degrades_without_error
    }
    let (shown, stats) = run_with(INT_LOOP, true);
    let (decoded_shown, _) = run_with(INT_LOOP, false);
    assert_eq!(shown, decoded_shown);
    assert!(stats.native_fragments >= 1, "the int loop's tree must emit: {stats:?}");
    assert!(stats.native_exits >= 1, "the int loop must run natively: {stats:?}");
    assert_eq!(
        stats.native_exits + stats.native_fallbacks,
        stats.trace_enters,
        "every trace entry is exactly one native exit or one fallback: {stats:?}"
    );
}

#[test]
fn shape_guarded_trees_run_native() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    // Property access traces to GuardShape/LoadSlot/StoreSlot. Since the
    // full-coverage tier these emit natively: the tree runs through the
    // x86-64 buffer (majority of entries; the emission-countdown entries
    // before the buffer exists still fall back) and agrees with the
    // decoded executor.
    let (shown, stats) = run_with(OBJ_LOOP, true);
    let (decoded_shown, _) = run_with(OBJ_LOOP, false);
    assert_eq!(shown, decoded_shown);
    assert!(stats.trace_enters >= 1, "the loop must trace at all: {stats:?}");
    assert!(stats.native_fragments >= 1, "the shape-guarded tree must emit: {stats:?}");
    assert!(
        stats.native_exits > stats.native_fallbacks,
        "object traces run majority-native now: {stats:?}"
    );
    assert_eq!(stats.native_exits + stats.native_fallbacks, stats.trace_enters);
}

/// With `background_compile` on and a pool attached, native emission runs
/// on the pool's worker threads and never on the request thread — pinned
/// by the two emission counters. The result must still agree with both
/// the sync-emission run and the decoded executor.
#[test]
fn native_emission_runs_off_thread_with_pool() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    // The hot loop sits in a function called many times (nesting off, as
    // in `branch_install_invalidates_and_reemits`) so the monitor keeps
    // entering the tree — each entry polls the emission ticket, and once
    // it resolves the remaining entries run native.
    let int_calls = "\
        function f(n) { var s = 0; for (var i = 0; i < n; i++) s = (s + (i ^ 3)) | 0; return s; }\n\
        var t = 0;\n\
        for (var j = 0; j < 80; j++) { t = (t + f(200)) | 0; }\n\
        t";
    let obj_calls = "\
        function g(n) {\n\
            var o = { a: 0, b: 1 };\n\
            for (var i = 0; i < n; i++) { o.a = (o.a + o.b + i) | 0; }\n\
            return o.a;\n\
        }\n\
        var t = 0;\n\
        for (var j = 0; j < 80; j++) { t = (t + g(200)) | 0; }\n\
        t";
    let run = |src: &str, background: bool| {
        let mut opts = JitOptions::default();
        opts.native_backend = true;
        opts.background_compile = background;
        opts.enable_nesting = false;
        opts.profile = true;
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        if background {
            vm.attach_pool(std::sync::Arc::new(tracemonkey::CompilerPool::new(2)));
        }
        let v = vm.eval(src).expect("program runs");
        let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        (shown, vm.profile().expect("tracing engine profiles").clone())
    };
    for src in [int_calls, obj_calls] {
        let (shown, stats) = run(src, true);
        let (sync_shown, sync_stats) = run(src, false);
        let (decoded_shown, _) = run_with(src, false);
        assert_eq!(shown, sync_shown);
        assert_eq!(shown, decoded_shown);
        assert!(
            stats.native_emissions_offthread >= 1,
            "emission must happen on the pool: {stats:?}"
        );
        assert_eq!(
            stats.native_emissions_sync, 0,
            "zero emissions on the request thread with a pool attached: {stats:?}"
        );
        assert!(
            sync_stats.native_emissions_sync >= 1 && sync_stats.native_emissions_offthread == 0,
            "without a pool the same program emits synchronously: {sync_stats:?}"
        );
        assert!(stats.native_exits >= 1, "the pool-emitted tree must run: {stats:?}");
        assert_eq!(stats.native_exits + stats.native_fallbacks, stats.trace_enters);
    }
}

#[test]
fn disabled_backend_never_emits_or_falls_back() {
    let (_, stats) = run_with(INT_LOOP, false);
    assert!(stats.trace_enters >= 1);
    assert_eq!(stats.native_fragments, 0);
    assert_eq!(stats.native_exits, 0);
    assert_eq!(stats.native_fallbacks, 0, "fallbacks only count when the tier is on");
}

/// `native_backend = true` on a target without the backend must degrade
/// to the decoded executor without error — every entry a fallback. On
/// x86-64 Linux the same program runs natively instead; either way the
/// program completes and the accounting balances, so this test is
/// target-generic (the acceptance criterion for non-x86-64 builds).
#[test]
fn native_backend_degrades_without_error() {
    let (shown, stats) = run_with(INT_LOOP, true);
    let (decoded_shown, decoded_stats) = run_with(INT_LOOP, false);
    assert_eq!(shown, decoded_shown);
    assert_eq!(stats.native_exits + stats.native_fallbacks, stats.trace_enters);
    if !tracemonkey::nanojit::native_supported() {
        assert_eq!(stats.native_fragments, 0);
        assert_eq!(stats.native_exits, 0);
        assert_eq!(stats.native_fallbacks, stats.trace_enters);
    }
    // The tier is invisible to the paper's Figure 11 accounting: both
    // executors report identical per-trace instruction counts.
    assert_eq!(stats.trace_enters, decoded_stats.trace_enters);
    assert_eq!(stats.native_insts, decoded_stats.native_insts);
    assert_eq!(stats.native_insts_fused, decoded_stats.native_insts_fused);
    assert_eq!(stats.bytecodes_native, decoded_stats.bytecodes_native);
    assert_eq!(stats.side_exits, decoded_stats.side_exits);
}

/// A branchy loop grows its tree by stitched branch fragments after the
/// trunk was already emitted natively: the monitor must invalidate,
/// run the tree decoded through the re-emission countdown, then re-emit
/// the whole extended tree (counted again in `native_fragments`), and
/// the result must still agree with the decoded executor. The loop sits
/// in a function called many times so entries keep coming after the
/// tree stops growing; nesting is disabled so the inner tree is the
/// only tree and the static fragment count is directly comparable.
#[test]
fn branch_install_invalidates_and_reemits() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    let src = "\
        function f(n) {\n\
            var s = 0;\n\
            for (var i = 0; i < n; i++) {\n\
                if ((i & 3) == 0) { s = (s + i) | 0; } else { s = (s - 1) | 0; }\n\
            }\n\
            return s;\n\
        }\n\
        var t = 0;\n\
        for (var j = 0; j < 60; j++) { t = (t + f(150)) | 0; }\n\
        t";
    let run = |native: bool| {
        let mut opts = JitOptions::default();
        opts.native_backend = native;
        opts.enable_nesting = false;
        opts.profile = true;
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        let v = vm.eval(src).expect("program runs");
        let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        (shown, vm.profile().expect("tracing engine profiles").clone())
    };
    let (shown, stats) = run(true);
    let (decoded_shown, _) = run(false);
    assert_eq!(shown, decoded_shown);
    assert!(stats.native_exits >= 1, "{stats:?}");
    assert!(
        stats.native_fragments > stats.fragments,
        "re-emission after branch install re-counts the whole tree \
         (native {} vs static {}): {stats:?}",
        stats.native_fragments,
        stats.fragments
    );
    assert_eq!(stats.native_exits + stats.native_fallbacks, stats.trace_enters);
}

/// The `bench report` engine-agreement check, in miniature: a mixed
/// program with doubles, comparisons, and nested loops agrees between
/// tiers and between the tiers and the interpreter.
#[test]
fn mixed_program_agrees_across_tiers_and_interpreter() {
    let src = "\
        var acc = 0.0;\n\
        for (var i = 0; i < 50; i++) {\n\
            var t = 0;\n\
            for (var j = 0; j < 40; j++) {\n\
                t = (t + ((i * j) & 255)) | 0;\n\
                if (t > 4000) { t = t - 4000; }\n\
            }\n\
            acc = acc + t * 0.5;\n\
        }\n\
        acc";
    let (native_shown, _) = run_with(src, true);
    let (decoded_shown, _) = run_with(src, false);
    let mut interp = Vm::new(Engine::Interp);
    let v = interp.eval(src).expect("interpreter runs");
    let interp_shown = tracemonkey::runtime::ops::to_display(&mut interp.realm, v);
    assert_eq!(native_shown, interp_shown);
    assert_eq!(decoded_shown, interp_shown);
}
