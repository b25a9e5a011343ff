//! The rule set: what `ocin-lint` enforces and where.
//!
//! Every rule is a set of code-channel token patterns plus a path
//! scope. Scopes are workspace-relative path prefixes, so a rule can
//! target the deterministic simulation core (`crates/core`,
//! `crates/sim`, …) while leaving measurement-harness crates
//! (`crates/bench`) alone.
//!
//! Rules are data, not code: the engine owns matching, suppression,
//! and reporting, so adding a rule means adding an entry to
//! [`all_rules`] and a fixture under `tests/fixtures/`.

/// Where, within a file, a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeScope {
    /// The whole file, test modules included (determinism rules: a
    /// test that iterates a `HashMap` is as order-sensitive as
    /// shipping code).
    Everywhere,
    /// Only code before the first `#[cfg(test)]` attribute. The
    /// workspace convention keeps test modules at the end of each
    /// file, which is what makes this line-based cutoff sound.
    OutsideTests,
}

/// How a finding can be suppressed inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suppression {
    /// Only the standard `// ocin-lint: allow(<rule>) — <why>` comment.
    AllowComment,
    /// The standard allow comment, or an `// INVARIANT:` comment
    /// attached to the statement (same line, or above it through at
    /// most three code lines and any run of comment lines) — used by
    /// the hot-path panic rule, where the annotation documents *why*
    /// the panic cannot fire rather than excusing it.
    AllowOrInvariant,
}

/// One static-analysis rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable kebab-case name, used in reports and allow comments.
    pub name: &'static str,
    /// One-line description for `ocin-lint rules` and the docs table.
    pub summary: &'static str,
    /// Code-channel tokens that fire the rule (word-boundary matched).
    pub patterns: &'static [&'static str],
    /// Path prefixes the rule applies to (empty = the whole tree).
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule.
    pub exclude: &'static [&'static str],
    /// Whether test modules are scanned.
    pub scope: CodeScope,
    /// Accepted suppression mechanisms.
    pub suppression: Suppression,
    /// Explanation attached to findings: what to do instead.
    pub advice: &'static str,
}

impl Rule {
    /// Whether this rule applies to the workspace-relative `path`
    /// (forward-slash separated).
    pub fn applies_to(&self, path: &str) -> bool {
        let included = self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p));
        included && !self.exclude.iter().any(|p| path.starts_with(p))
    }
}

/// The three router cores plus their shared route-resolution helper:
/// code evaluated every cycle for every flit in flight.
const ROUTER_HOT_PATHS: &[&str] = &[
    "crates/core/src/router/vc.rs",
    "crates/core/src/router/dropping.rs",
    "crates/core/src/router/deflection.rs",
    "crates/core/src/router/mod.rs",
];

/// The shipped rule set, in report order.
pub fn all_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "nondeterministic-iteration",
            summary: "HashMap/HashSet in simulation-facing crates",
            patterns: &["HashMap", "HashSet"],
            include: &[
                "crates/core/",
                "crates/sim/",
                "crates/services/",
                "crates/traffic/",
            ],
            exclude: &[],
            scope: CodeScope::Everywhere,
            suppression: Suppression::AllowComment,
            advice: "iteration order feeds reports and scheduling; use \
                     BTreeMap/BTreeSet, or justify why order can never escape",
        },
        Rule {
            name: "wall-clock-in-sim",
            summary: "Instant::now/SystemTime::now outside the bench harness",
            patterns: &["Instant::now", "SystemTime::now"],
            include: &[],
            exclude: &["crates/bench/"],
            scope: CodeScope::Everywhere,
            suppression: Suppression::AllowComment,
            advice: "simulation results must depend only on (config, seed); \
                     wall-clock reads belong in crates/bench",
        },
        Rule {
            name: "unseeded-rng",
            summary: "thread_rng/from_entropy/OsRng anywhere",
            patterns: &["thread_rng", "from_entropy", "OsRng"],
            include: &[],
            exclude: &[],
            scope: CodeScope::Everywhere,
            suppression: Suppression::AllowComment,
            advice: "every RNG must be seeded from the run's SimConfig seed \
                     (see ocin_sim::pool::derive_seed)",
        },
        Rule {
            name: "env-read-outside-config",
            summary: "std::env::var/var_os anywhere",
            patterns: &["env::var", "env::var_os"],
            include: &[],
            exclude: &[],
            scope: CodeScope::Everywhere,
            suppression: Suppression::AllowComment,
            advice: "a run must be a function of its command line, config and \
                     seed, never of ambient process state; take a flag and \
                     thread the value through NetworkConfig/SimConfig",
        },
        Rule {
            name: "panic-in-router-hot-path",
            summary: "unannotated unwrap/expect/panic in the router cores",
            patterns: &["unwrap", "expect", "panic!", "unreachable!", "assert!"],
            include: ROUTER_HOT_PATHS,
            exclude: &[],
            scope: CodeScope::OutsideTests,
            suppression: Suppression::AllowOrInvariant,
            advice: "a panic in the per-cycle router paths must encode a \
                     protocol invariant; state it in an // INVARIANT: comment \
                     or handle the case",
        },
        Rule {
            name: "unannotated-wake-site",
            summary:
                "wake-up calls and calendar filings in the gated engine without an INVARIANT note",
            patterns: &["wake_router", "wake_injector", "schedule"],
            include: &["crates/core/src/network.rs", "crates/core/src/shard.rs"],
            exclude: &[],
            scope: CodeScope::OutsideTests,
            suppression: Suppression::AllowOrInvariant,
            advice: "every wake-up site and every calendar filing \
                     (`Calendar::schedule`) is load-bearing for the \
                     activity-gated engine, whose per-cycle wake audit fails \
                     debug builds on a missed wake (DESIGN.md \u{a7}3.13); \
                     state the wake rule it implements, or why its (index, \
                     due) cell is free, in an // INVARIANT: comment",
        },
        Rule {
            name: "println-in-core",
            summary: "println!/eprintln!/dbg! in library crates",
            patterns: &["println!", "eprintln!", "dbg!"],
            include: &[
                "crates/core/",
                "crates/sim/",
                "crates/services/",
                "crates/traffic/",
            ],
            exclude: &[],
            scope: CodeScope::OutsideTests,
            suppression: Suppression::AllowComment,
            advice: "library crates report through probes, reports, and \
                     exporters, not stdout; rendering belongs in crates/bench \
                     binaries (or return the string to the caller)",
        },
        Rule {
            name: "raw-thread-spawn",
            summary: "std::thread::spawn/scope outside the sanctioned parallel seams",
            patterns: &["thread::spawn", "thread::scope"],
            include: &["crates/", "src/", "tests/", "examples/"],
            exclude: &["crates/sim/src/exec.rs"],
            scope: CodeScope::OutsideTests,
            suppression: Suppression::AllowComment,
            advice: "all parallelism must flow through the executor seam \
                     (crates/sim/src/exec.rs, DESIGN.md \u{a7}3.18): SimPool \
                     batches and threaded ShardedSimulation runs borrow its \
                     scoped workers; ad-hoc threads reintroduce \
                     scheduling-dependent behaviour",
        },
        Rule {
            name: "ungated-telemetry-record",
            summary: "journey or telemetry collectors named in the engine or router cores",
            patterns: &["TelemetryCollector", "JourneyCollector"],
            include: &[
                "crates/core/src/network.rs",
                "crates/core/src/shard.rs",
                "crates/core/src/interface.rs",
                "crates/core/src/router/vc.rs",
                "crates/core/src/router/dropping.rs",
                "crates/core/src/router/deflection.rs",
                "crates/core/src/router/mod.rs",
            ],
            exclude: &[],
            scope: CodeScope::OutsideTests,
            suppression: Suppression::AllowComment,
            advice: "journeys and telemetry must be fed through the Probe \
                     seam (crates/core/src/probe.rs), whose presence check is \
                     the only gate keeping unprobed runs free; record an Event \
                     on the probe and let NetworkProbe forward it to the \
                     collectors",
        },
        Rule {
            name: "todo-in-shipping-code",
            summary: "todo!/unimplemented! outside tests",
            patterns: &["todo!", "unimplemented!"],
            include: &[],
            exclude: &["tests/"],
            scope: CodeScope::OutsideTests,
            suppression: Suppression::AllowComment,
            advice: "shipping code paths must be complete; finish the \
                     implementation or return an Error",
        },
    ]
}

/// Looks a rule up by name (for allow-comment validation).
pub fn rule_named(name: &str) -> Option<Rule> {
    all_rules().into_iter().find(|r| r.name == name)
}
