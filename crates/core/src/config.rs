//! Tracing JIT configuration.

use tm_lir::FilterOptions;

use crate::blacklist::BlacklistConfig;

/// Tunables of the tracing JIT. Defaults follow the paper's reported
/// constants (hotness 2, side-exit hotness 2, blacklist after 2 failures
/// with a 32-pass backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitOptions {
    /// Loop-edge crossings before a loop is considered hot (paper: 2).
    pub hotness_threshold: u32,
    /// Side-exit passes before a branch trace is recorded (paper-narrative:
    /// the second taking of an exit makes it hot).
    pub hot_exit_threshold: u32,
    /// Blacklisting policy (§3.3).
    pub blacklist: BlacklistConfig,
    /// Forward filter configuration (§5.1).
    pub filters: FilterOptions,
    /// Abort recording beyond this many LIR instructions.
    pub max_trace_len: usize,
    /// Maximum function-inlining depth on trace.
    pub max_inline_depth: usize,
    /// Maximum fragments per tree (bounds code-cache growth).
    pub max_fragments_per_tree: usize,
    /// Disable a tree when, after `useless_probation` entries, its average
    /// native bytecodes per call stays below this (the paper's §3.3
    /// "short loop body" mitigation, proposed there as future work).
    pub min_useful_bytecodes: u64,
    /// Entries before the useless-tree check applies.
    pub useless_probation: u64,
    /// Record nested trace trees (§4); off = the naive behaviour of
    /// aborting on inner loops.
    pub enable_nesting: bool,
    /// Patch side exits to jump directly to branch fragments (§6.2); off =
    /// every exit returns through the monitor.
    pub enable_stitching: bool,
    /// Consult the integer-demotion oracle (§3.2).
    pub enable_oracle: bool,
    /// Link type-unstable sibling trees through the monitor (Figure 6).
    pub enable_stability_linking: bool,
    /// Collect per-activity wall-clock times (Figure 12).
    pub profile: bool,
    /// Record trace events (tests / diagnostics).
    pub log_events: bool,
    /// Statically verify every recorded trace before compiling it
    /// (`tm-verifier`): a malformed trace aborts recording with
    /// `AbortReason::VerifyFailed` instead of being compiled. On by
    /// default in debug/test builds, off in release (hot-path) builds.
    /// When on, compiled fragments are additionally re-verified after the
    /// superinstruction pass (`tm-verifier::verify_fragment`).
    pub verify: bool,
    /// Run the peephole superinstruction pass (`tm-nanojit::fuse`) on
    /// every compiled fragment. On by default; turning it off executes
    /// the raw assembled code (the `raw` configuration of `bench gate`'s
    /// fusion-reduction gate).
    pub enable_fusion: bool,
    /// Hand finished recordings to the attached background compiler pool
    /// (`Vm::attach_pool`) instead of compiling on the execution thread;
    /// the compiled tree is installed at the next anchor hit. Off by
    /// default (and a no-op without an attached pool): single-realm runs
    /// keep the paper's synchronous compile-on-record semantics.
    pub background_compile: bool,
    /// Execute trace trees through the native x86-64 backend
    /// (`tm-nanojit::x64`). Every `MachInst` family is emitted: the only
    /// op that keeps a tree on the decoded executor (the portable
    /// reference) is a `CallHelper` with more than
    /// `x64::MAX_HELPER_ARGS` (8) arguments; otherwise a tree runs
    /// decoded only while its native code is pending (re-)emission. On
    /// by default where the backend exists (x86-64 Linux) so the whole
    /// suite runs the native tier differentially; forced off elsewhere —
    /// enabling it on an unsupported target silently degrades to the
    /// decoded executor.
    pub native_backend: bool,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions {
            hotness_threshold: 2,
            hot_exit_threshold: 2,
            blacklist: BlacklistConfig::default(),
            filters: FilterOptions::default(),
            max_trace_len: 2048,
            max_inline_depth: 8,
            max_fragments_per_tree: 32,
            min_useful_bytecodes: 120,
            useless_probation: 64,
            enable_nesting: true,
            enable_stitching: true,
            enable_oracle: true,
            enable_stability_linking: true,
            profile: false,
            log_events: false,
            verify: cfg!(debug_assertions),
            enable_fusion: true,
            background_compile: false,
            native_backend: cfg!(all(target_arch = "x86_64", target_os = "linux")),
        }
    }
}
