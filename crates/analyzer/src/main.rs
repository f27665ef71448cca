//! CLI for the workspace static-analysis gate.
//!
//! ```text
//! ftdb-analyzer check [--root DIR] [--format text|json|github]
//!                                    # scan the workspace; exit 1 on findings
//! ftdb-analyzer allows [--root DIR]  # inventory every `allow` site
//! ftdb-analyzer rules                # print the rule table
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ftdb_analyzer::analyze::Finding;
use ftdb_analyzer::policy::{run, Analysis};
use ftdb_analyzer::rules::ALL_RULES;
use ftdb_analyzer::{Policy, RuleId};

/// Output format for `check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// `file:line: [rule] message` lines (default).
    Text,
    /// A stable JSON array: `{file, line, rule, message, chain,
    /// justification}` per finding.
    Json,
    /// GitHub Actions `::error file=…,line=…::…` annotations.
    Github,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("allows") => run_allows(&args[1..]),
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            usage();
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("ftdb-analyzer: unknown subcommand `{other}`");
            usage();
            ExitCode::from(2)
        }
    }
}

/// Parses `--root`/`--format` flags shared by `check` and `allows`.
fn parse_flags(args: &[String], allow_format: bool) -> Result<(PathBuf, Format), ExitCode> {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("ftdb-analyzer: `--root` needs a directory");
                    return Err(ExitCode::from(2));
                }
            },
            "--format" if allow_format => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                _ => {
                    eprintln!("ftdb-analyzer: `--format` needs one of text|json|github");
                    return Err(ExitCode::from(2));
                }
            },
            other => {
                eprintln!("ftdb-analyzer: unknown flag `{other}`");
                usage();
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok((root, format))
}

fn analyze(root: &Path) -> Result<Analysis, ExitCode> {
    run(root, &Policy::workspace()).map_err(|e| {
        eprintln!("ftdb-analyzer: i/o error scanning {}: {e}", root.display());
        ExitCode::from(2)
    })
}

fn run_check(args: &[String]) -> ExitCode {
    let (root, format) = match parse_flags(args, true) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let analysis = match analyze(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let findings = &analysis.findings;
    match format {
        Format::Json => println!("{}", json_findings(findings)),
        Format::Github => {
            for f in findings {
                // `::error` annotation values must stay on one line.
                println!(
                    "::error file={},line={},title=ftdb-analyzer [{}]::{}",
                    f.file,
                    f.line,
                    f.rule.name(),
                    escape_github(&f.message)
                );
            }
        }
        Format::Text => {
            for f in findings {
                println!("{f}");
            }
        }
    }
    if findings.is_empty() {
        if format == Format::Text {
            let policy = Policy::workspace();
            println!(
                "ftdb-analyzer: clean ({} hot-path file(s), {} concurrency file(s), {} \
                 determinism prefix(es), {} audit(s), {} allow site(s))",
                policy.panic_files.len(),
                policy.concurrency_files.len(),
                policy.determinism_prefixes.len(),
                policy.audits.len(),
                analysis.allows.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("ftdb-analyzer: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn run_allows(args: &[String]) -> ExitCode {
    let (root, _) = match parse_flags(args, false) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let analysis = match analyze(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    for a in &analysis.allows {
        println!(
            "{}:{}: allow({}) [{} use(s)] -- {}",
            a.file,
            a.directive_line,
            a.rule.name(),
            a.uses,
            a.justification
        );
    }
    println!("ftdb-analyzer: {} allow site(s)", analysis.allows.len());
    ExitCode::SUCCESS
}

/// Renders findings as a stable JSON array (schema: `file`, `line`,
/// `rule`, `message`, `chain`, `justification`).
fn json_findings(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"file\":{},", json_str(&f.file)));
        out.push_str(&format!("\"line\":{},", f.line));
        out.push_str(&format!("\"rule\":{},", json_str(f.rule.name())));
        out.push_str(&format!("\"message\":{},", json_str(&f.message)));
        out.push_str("\"chain\":[");
        for (j, link) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_str(link));
        }
        out.push_str("],");
        match &f.justification {
            Some(j) => out.push_str(&format!("\"justification\":{}", json_str(j))),
            None => out.push_str("\"justification\":null"),
        }
        out.push('}');
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// GitHub annotation messages: `%`, `\r`, `\n` are the only escapes.
fn escape_github(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn print_rules() {
    println!("{:<18} description", "rule");
    for rule in ALL_RULES {
        println!("{:<18} {}", rule.name(), describe(rule));
    }
    println!();
    println!("allow syntax:  // analyzer: allow(<rule>[, <rule>]) -- <justification>");
    println!("annotations:   // analyzer: alloc-free   (own line, above a fn)");
    println!("               // analyzer: trusted-call -- <justification>");
}

fn describe(rule: RuleId) -> &'static str {
    match rule {
        RuleId::Unwrap => "`.unwrap()` in a panic-free hot-path module",
        RuleId::Expect => "`.expect(..)` in a panic-free hot-path module",
        RuleId::Panic => "`panic!` in a panic-free hot-path module",
        RuleId::Unreachable => "`unreachable!` in a panic-free hot-path module",
        RuleId::Todo => "`todo!` in a panic-free hot-path module",
        RuleId::Unimplemented => "`unimplemented!` in a panic-free hot-path module",
        RuleId::IndexLiteral => "integer-literal indexing (`xs[0]`) in a hot-path module",
        RuleId::Alloc => "allocating call inside a `// analyzer: alloc-free` function",
        RuleId::HashCollections => "HashMap/HashSet in a determinism-critical module",
        RuleId::WallClock => "Instant/SystemTime in a determinism-critical module",
        RuleId::AmbientRng => "thread_rng/from_entropy in a determinism-critical module",
        RuleId::FloatEq => "float ==/!= in a determinism-critical module",
        RuleId::DiffCoverage => "report field missing from a differential equivalence suite",
        RuleId::TransitivePanic => "panic-capable code reachable from a hot-path entry point",
        RuleId::AllocPropagation => "alloc-free function calling a non-alloc-free function",
        RuleId::AllocRecursion => "recursion (unbounded stack) inside the alloc-free subgraph",
        RuleId::ShardLock => "Mutex/RwLock/Relaxed atomics in the sharded hot path",
        RuleId::ThreadSpawn => "`std::thread::spawn` instead of the scoped worker entry points",
        RuleId::OverloadedAllow => "one `analyzer: allow` suppressing multiple findings",
        RuleId::StaleAllow => "`analyzer: allow` that suppresses nothing",
        RuleId::BadDirective => "malformed or unknown `analyzer:` directive",
    }
}

fn usage() {
    eprintln!(
        "usage: ftdb-analyzer <check [--root DIR] [--format text|json|github] | \
         allows [--root DIR] | rules>"
    );
}
