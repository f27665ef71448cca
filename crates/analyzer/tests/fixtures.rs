//! Fixture-based integration tests: seeded-violation corpora with exact
//! expected `(line, rule)` diagnostics, allowlist staleness, the
//! differential-coverage audit, CLI exit codes, and the meta-test that the
//! committed workspace itself passes with zero findings.

use std::path::PathBuf;
use std::process::Command;

use ftdb_analyzer::audit::{differential_coverage, AuditSpec};
use ftdb_analyzer::{analyze_source, check_workspace, Finding, RuleId, RuleSet};

const PANIC_ONLY: RuleSet = RuleSet {
    panic_free: true,
    determinism: false,
};
const DET_ONLY: RuleSet = RuleSet {
    panic_free: false,
    determinism: true,
};
const FULL: RuleSet = RuleSet {
    panic_free: true,
    determinism: true,
};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    let path = manifest_dir().join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lines_and_rules(findings: &[Finding]) -> Vec<(usize, RuleId)> {
    findings.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn panic_fixture_yields_exact_diagnostics() {
    let src = fixture("panic_violations.rs");
    let f = analyze_source("panic_violations.rs", &src, PANIC_ONLY);
    assert_eq!(
        lines_and_rules(&f),
        vec![
            (5, RuleId::Unwrap),
            (6, RuleId::Expect),
            (8, RuleId::Panic),
            (11, RuleId::Unreachable),
            (12, RuleId::Todo),
            (13, RuleId::Unimplemented),
            (16, RuleId::IndexLiteral),
        ],
        "{f:#?}"
    );
    assert!(
        f[0].to_string()
            .starts_with("panic_violations.rs:5: [unwrap]"),
        "{}",
        f[0]
    );
}

#[test]
fn alloc_fixture_flags_only_the_annotated_function() {
    let src = fixture("alloc_violations.rs");
    let f = analyze_source("alloc_violations.rs", &src, RuleSet::default());
    assert_eq!(
        lines_and_rules(&f),
        (6..=12).map(|l| (l, RuleId::Alloc)).collect::<Vec<_>>(),
        "{f:#?}"
    );
}

#[test]
fn determinism_fixture_yields_exact_diagnostics() {
    let src = fixture("determinism_violations.rs");
    let f = analyze_source("determinism_violations.rs", &src, DET_ONLY);
    assert_eq!(
        lines_and_rules(&f),
        vec![
            (3, RuleId::HashCollections),
            (4, RuleId::WallClock),
            (7, RuleId::HashCollections),
            (9, RuleId::WallClock),
            (10, RuleId::AmbientRng),
            (12, RuleId::FloatEq),
        ],
        "{f:#?}"
    );
}

#[test]
fn allowlist_staleness_and_malformed_directives_are_findings() {
    let src = fixture("stale_allow.rs");
    let f = analyze_source("stale_allow.rs", &src, PANIC_ONLY);
    assert_eq!(
        lines_and_rules(&f),
        vec![
            (6, RuleId::StaleAllow),
            (10, RuleId::BadDirective),
            (14, RuleId::Unwrap),
            (14, RuleId::BadDirective),
        ],
        "{f:#?}"
    );
}

#[test]
fn clean_fixture_passes_every_rule_family() {
    let src = fixture("clean.rs");
    let f = analyze_source("clean.rs", &src, FULL);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn audit_flags_an_uncovered_field_at_its_declaration_line() {
    let spec = AuditSpec {
        struct_file: "fixtures/audit_report.rs".into(),
        struct_name: "MiniReport".into(),
        test_files: vec!["fixtures/audit_suite.rs".into()],
    };
    let f = differential_coverage(&manifest_dir(), &spec).expect("audit i/o");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!((f[0].line, f[0].rule), (10, RuleId::DiffCoverage));
    assert!(f[0].message.contains("dropped"), "{}", f[0].message);
}

#[test]
fn audit_cannot_be_disabled_by_renaming_the_struct() {
    let spec = AuditSpec {
        struct_file: "fixtures/audit_report.rs".into(),
        struct_name: "GhostReport".into(),
        test_files: vec!["fixtures/audit_suite.rs".into()],
    };
    let f = differential_coverage(&manifest_dir(), &spec).expect("audit i/o");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, RuleId::DiffCoverage);
    assert!(f[0].message.contains("not found"), "{}", f[0].message);
}

#[test]
fn committed_workspace_passes_with_zero_findings() {
    let root = manifest_dir().join("..").join("..");
    let findings = check_workspace(&root).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "workspace regressions:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn analyzer_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftdb-analyzer"))
}

#[test]
fn cli_exits_one_on_the_seeded_tree() {
    let root = manifest_dir().join("fixtures").join("tree");
    let out = analyzer_bin()
        .arg("check")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.contains("crates/sim/src/congestion/engine.rs:14: [unwrap]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/congestion/engine.rs:15: [hash-collections]"),
        "{stdout}"
    );
    assert!(stdout.contains("[diff-coverage]"), "{stdout}");
    // One seed per interprocedural / concurrency rule family, each at its
    // exact line.
    assert!(
        stdout.contains("crates/sim/src/congestion/engine.rs:27: [alloc-propagation]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/congestion/engine.rs:35: [alloc-recursion]"),
        "{stdout}"
    );
    // A `self` call split by rustfmt onto a continuation line is still a
    // precise `self` edge out of the alloc-free subgraph.
    assert!(
        stdout.contains("crates/sim/src/congestion/engine.rs:52: [alloc-propagation]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/congestion/shard.rs:6: [thread-spawn]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/congestion/shard.rs:7: [shard-lock]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/congestion/shard.rs:8: [channel-protocol]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/sim/src/congestion/shard.rs:10: [unsorted-merge]"),
        "{stdout}"
    );
    // The cross-file panic reachability diagnostic names the concrete
    // entry→sink call chain.
    assert!(
        stdout.contains("crates/sim/src/metrics.rs:6: [transitive-panic]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("engine.rs::report → metrics.rs::summarize"),
        "{stdout}"
    );
}

#[test]
fn cli_github_format_emits_error_annotations() {
    let root = manifest_dir().join("fixtures").join("tree");
    let out = analyzer_bin()
        .args(["check", "--format", "github", "--root"])
        .arg(&root)
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.contains(
            "::error file=crates/sim/src/congestion/engine.rs,line=14,\
             title=ftdb-analyzer [unwrap]::"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "::error file=crates/sim/src/metrics.rs,line=6,\
             title=ftdb-analyzer [transitive-panic]::"
        ),
        "{stdout}"
    );
    // Annotation values must stay on one line per finding.
    assert!(
        stdout
            .lines()
            .all(|l| l.is_empty() || l.starts_with("::error ")),
        "{stdout}"
    );
}

#[test]
fn cli_json_format_has_the_stable_schema() {
    let root = manifest_dir().join("fixtures").join("tree");
    let out = analyzer_bin()
        .args(["check", "--format", "json", "--root"])
        .arg(&root)
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.contains(r#""file":"crates/sim/src/metrics.rs","line":6,"rule":"transitive-panic""#),
        "{stdout}"
    );
    assert!(
        stdout.contains(r#""chain":["engine.rs::report","metrics.rs::summarize"]"#),
        "{stdout}"
    );
    assert!(stdout.contains(r#""justification":null"#), "{stdout}");
}

#[test]
fn allows_inventory_lists_every_site_with_justification() {
    let root = manifest_dir().join("..").join("..");
    let out = analyzer_bin()
        .arg("allows")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn analyzer");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    // The burned-down Knuth Algorithm T sites are inventoried with their
    // rule, use count, and justification.
    assert!(
        stdout.contains("crates/core/src/fault.rs:297: allow(transitive-panic) [1 use(s)] -- "),
        "{stdout}"
    );
    assert!(stdout.contains("allow site(s)"), "{stdout}");
    // Every committed allow earns its keep: the inventory never shows a
    // zero-use site (those are stale-allow findings and fail `check`).
    assert!(!stdout.contains("[0 use(s)]"), "{stdout}");
}

#[test]
fn cli_exits_zero_on_this_workspace() {
    let root = manifest_dir().join("..").join("..");
    let out = analyzer_bin()
        .arg("check")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn analyzer");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("ftdb-analyzer: clean"), "{stdout}");
}

#[test]
fn cli_usage_errors_exit_two() {
    let out = analyzer_bin()
        .arg("bogus")
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(2));
    let out = analyzer_bin()
        .args(["check", "--root"])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(2));
}
