//! The workspace policy: which rule families apply to which modules, and
//! the driver that parses every file once, runs the per-file scanners, the
//! interprocedural passes, and the audits, then reconciles the allowlist.
//!
//! The mapping is deliberately explicit — the gate protects *named*
//! load-bearing modules (the congestion cycle loop, the routing kernels,
//! the BFS scratch, the exhaustive verifier) rather than aspiring to a
//! workspace-wide ban it would then have to allowlist into uselessness.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::analyze::{apply_allows, parse_unit, scan_unit, FileUnit, Finding};
use crate::audit::{differential_coverage, AuditSpec};
use crate::rules::{RuleId, RuleSet};
use crate::{callgraph, concurrency, interproc};

/// Maps workspace-relative paths to rule sets.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Files under panic-freedom rules (the hot-path modules). These are
    /// also the *entry points* of the transitive panic-freedom pass:
    /// every function reachable from them inherits the panic rules.
    pub panic_files: Vec<String>,
    /// Path prefixes under determinism rules (report-producing crates).
    pub determinism_prefixes: Vec<String>,
    /// Files under the sharded-concurrency protocol rules.
    pub concurrency_files: Vec<String>,
    /// Directories walked for `.rs` files (directives and `alloc-free`
    /// annotations are honored everywhere scanned).
    pub scan_roots: Vec<String>,
    /// Path prefixes never scanned (seeded-violation fixture corpora).
    pub exclude_prefixes: Vec<String>,
    /// Differential-coverage audits (report struct ↔ equivalence suites).
    pub audits: Vec<AuditSpec>,
}

impl Policy {
    /// The committed policy for this workspace.
    pub fn workspace() -> Policy {
        Policy {
            panic_files: vec![
                "crates/sim/src/congestion/mod.rs".into(),
                "crates/sim/src/congestion/engine.rs".into(),
                "crates/sim/src/congestion/implicit_route.rs".into(),
                "crates/sim/src/congestion/shard.rs".into(),
                "crates/sim/src/congestion/boundary.rs".into(),
                "crates/sim/src/routing.rs".into(),
                "crates/graph/src/traversal.rs".into(),
                "crates/graph/src/search.rs".into(),
                "crates/core/src/verify.rs".into(),
                "crates/core/src/parallel.rs".into(),
            ],
            determinism_prefixes: vec!["crates/sim/src/".into(), "crates/analysis/src/".into()],
            concurrency_files: vec![
                "crates/sim/src/congestion/shard.rs".into(),
                "crates/sim/src/congestion/boundary.rs".into(),
                "crates/core/src/parallel.rs".into(),
            ],
            scan_roots: vec!["crates".into(), "examples".into(), "tests".into()],
            exclude_prefixes: vec!["crates/analyzer/fixtures".into()],
            audits: vec![AuditSpec {
                struct_file: "crates/sim/src/congestion/engine.rs".into(),
                struct_name: "CongestionReport".into(),
                test_files: vec![
                    "tests/tests/wakelist_differential.rs".into(),
                    "crates/sim/src/congestion/shard.rs".into(),
                ],
            }],
        }
    }

    /// The rule families active for one workspace-relative path.
    pub fn rule_set_for(&self, rel: &str) -> RuleSet {
        RuleSet {
            panic_free: self.panic_files.iter().any(|p| p == rel),
            determinism: self
                .determinism_prefixes
                .iter()
                .any(|p| rel.starts_with(p.as_str())),
        }
    }

    fn excluded(&self, rel: &str) -> bool {
        self.exclude_prefixes
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }
}

/// One `// analyzer: allow` site, as inventoried by `ftdb-analyzer
/// allows`.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Workspace-relative file.
    pub file: String,
    /// Line of the directive.
    pub directive_line: usize,
    /// The rule it suppresses.
    pub rule: RuleId,
    /// Its justification text.
    pub justification: String,
    /// How many findings it suppressed in this run.
    pub uses: usize,
}

/// The full result of a workspace run: diagnostics plus the allowlist
/// inventory.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by path, line, rule.
    pub findings: Vec<Finding>,
    /// Every `allow` site, sorted by path and directive line.
    pub allows: Vec<AllowRecord>,
}

/// Runs the full policy over the workspace at `root`: per-file scanners,
/// the interprocedural passes over the extracted call graph, the
/// concurrency protocol checker, every configured audit, and allowlist
/// reconciliation.
pub fn run(root: &Path, policy: &Policy) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for scan_root in &policy.scan_roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut units: Vec<FileUnit> = Vec::new();
    for path in &files {
        let rel = relative_label(root, path);
        if policy.excluded(&rel) {
            continue;
        }
        let source = fs::read_to_string(path)?;
        units.push(parse_unit(&rel, &source));
    }
    let mut raw = Vec::new();
    for unit in &units {
        raw.extend(scan_unit(unit, policy.rule_set_for(&unit.rel)));
    }
    let graph = callgraph::build(&units);
    raw.extend(interproc::transitive_panic(&units, &graph, policy));
    raw.extend(interproc::alloc_propagation(&units, &graph));
    raw.extend(interproc::alloc_recursion(&units, &graph));
    raw.extend(concurrency::check(&units, policy));
    let mut findings = apply_allows(&mut units, raw);
    for audit in &policy.audits {
        findings.extend(differential_coverage(root, audit)?);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    let mut allows: Vec<AllowRecord> = units
        .iter()
        .flat_map(|u| {
            u.allows.iter().map(|a| AllowRecord {
                file: u.rel.clone(),
                directive_line: a.directive_line,
                rule: a.rule,
                justification: a.justification.clone(),
                uses: a.uses,
            })
        })
        .collect();
    allows.sort_by(|a, b| {
        (a.file.as_str(), a.directive_line, a.rule).cmp(&(
            b.file.as_str(),
            b.directive_line,
            b.rule,
        ))
    });
    Ok(Analysis { findings, allows })
}

/// Runs the full policy and returns just the findings.
pub fn check(root: &Path, policy: &Policy) -> io::Result<Vec<Finding>> {
    Ok(run(root, policy)?.findings)
}

/// Workspace-relative, `/`-separated label for diagnostics.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_policy_names_the_hot_paths() {
        let p = Policy::workspace();
        let set = p.rule_set_for("crates/sim/src/congestion/engine.rs");
        assert!(set.panic_free && set.determinism);
        let set = p.rule_set_for("crates/sim/src/congestion/shard.rs");
        assert!(set.panic_free && set.determinism);
        let set = p.rule_set_for("crates/sim/src/metrics.rs");
        assert!(!set.panic_free && set.determinism);
        let set = p.rule_set_for("crates/graph/src/traversal.rs");
        assert!(set.panic_free && !set.determinism);
        let set = p.rule_set_for("crates/topology/src/debruijn.rs");
        assert_eq!(set, RuleSet::default());
        assert!(p.excluded("crates/analyzer/fixtures/panic_violations.rs"));
        assert!(p
            .concurrency_files
            .contains(&"crates/sim/src/congestion/boundary.rs".to_string()));
        // The fan-out spawns the shard workers, so the thread and lock
        // rules and the panic denylist follow it out of `congestion/`.
        let set = p.rule_set_for("crates/core/src/parallel.rs");
        assert!(set.panic_free && !set.determinism);
        assert!(p
            .concurrency_files
            .contains(&"crates/core/src/parallel.rs".to_string()));
    }
}
