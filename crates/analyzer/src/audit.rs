//! Differential-coverage audit: every public field of a report struct must
//! be compared somewhere in the differential equivalence suite.
//!
//! The congestion engine's headline guarantee — `CongestionReport`s equal
//! to those of the reference model of its cycle rules (`tests/model.rs`),
//! at every shard count — is only as strong as the test that states it. This audit closes the loophole where a *new* report
//! field compiles, ships, and silently never participates in the
//! equivalence check: it parses the struct's public fields from source and
//! requires each field name to appear as a code token (comments don't
//! count) in the differential suite.

use std::fs;
use std::io;
use std::path::Path;

use crate::analyze::Finding;
use crate::lexer::{is_ident_char, mask};
use crate::rules::RuleId;

/// One audit: `struct_name` in `struct_file` versus the comparisons in
/// each of `test_files` (all paths workspace-relative). *Every* listed
/// suite must compare every public field — the engine-vs-model suite and
/// the sharded determinism suite each make an independent byte-identical
/// claim, and a field absent from either one escapes that claim.
#[derive(Debug, Clone)]
pub struct AuditSpec {
    /// File declaring the report struct.
    pub struct_file: String,
    /// The struct whose public fields are load-bearing.
    pub struct_name: String,
    /// The differential suites that must each compare every field.
    pub test_files: Vec<String>,
}

/// Runs one audit, returning `diff-coverage` findings for uncovered fields
/// (or for a missing/renamed struct or suite, so the audit cannot be
/// disabled by accident).
pub fn differential_coverage(root: &Path, spec: &AuditSpec) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let struct_path = root.join(&spec.struct_file);
    let struct_src = match fs::read_to_string(&struct_path) {
        Ok(s) => s,
        Err(_) => {
            findings.push(audit_finding(
                &spec.struct_file,
                1,
                format!(
                    "audit target file is missing (wanted `{}`)",
                    spec.struct_file
                ),
            ));
            return Ok(findings);
        }
    };
    let fields = public_fields(&struct_src, &spec.struct_name);
    let Some(fields) = fields else {
        findings.push(audit_finding(
            &spec.struct_file,
            1,
            format!(
                "audit target `pub struct {}` not found — update the analyzer policy if it moved",
                spec.struct_name
            ),
        ));
        return Ok(findings);
    };
    for test_file in &spec.test_files {
        let test_path = root.join(test_file);
        let test_src = match fs::read_to_string(&test_path) {
            Ok(s) => s,
            Err(_) => {
                findings.push(audit_finding(
                    test_file,
                    1,
                    format!(
                        "differential suite `{test_file}` is missing — the equivalence claim \
                         is untested"
                    ),
                ));
                continue;
            }
        };
        let test_code: Vec<String> = mask(&test_src).into_iter().map(|l| l.code).collect();
        for (line, field) in &fields {
            let covered = test_code.iter().any(|code| contains_word(code, field));
            if !covered {
                findings.push(audit_finding(
                    &spec.struct_file,
                    *line,
                    format!(
                        "`{}::{}` is never compared in `{}`; a divergence in it would ship \
                         silently",
                        spec.struct_name, field, test_file
                    ),
                ));
            }
        }
    }
    Ok(findings)
}

fn audit_finding(file: &str, line: usize, message: String) -> Finding {
    Finding::new(file, line, RuleId::DiffCoverage, message)
}

/// Parses `pub struct <name> { ... }` from masked source, returning each
/// public field as `(1-based line, name)`. `None` when the struct is not
/// found.
fn public_fields(source: &str, name: &str) -> Option<Vec<(usize, String)>> {
    let lines = mask(source);
    let header = format!("pub struct {name}");
    let start = lines.iter().position(|l| {
        if let Some(at) = l.code.find(&header) {
            let after = l.code[at + header.len()..].chars().next().unwrap_or(' ');
            !is_ident_char(after)
        } else {
            false
        }
    })?;
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return Some(fields);
                    }
                }
                _ => {}
            }
        }
        if opened && depth == 1 && j > start {
            let code = line.code.trim();
            if let Some(rest) = code.strip_prefix("pub ") {
                let ident: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
                if !ident.is_empty() && rest[ident.len()..].trim_start().starts_with(':') {
                    fields.push((j + 1, ident));
                }
            }
        }
    }
    // Unterminated struct (truncated file): report what was parsed.
    opened.then_some(fields)
}

fn contains_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let after = code[at + word.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            return true;
        }
        from = at + word.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_parsed_with_lines() {
        let src = "/// Doc.\npub struct R {\n    /// A.\n    pub cycles: u32,\n    /// B.\n    pub delivered: u64,\n    private_scratch: u64,\n}\n";
        let fields = public_fields(src, "R").unwrap();
        assert_eq!(
            fields,
            vec![(4, "cycles".to_string()), (6, "delivered".to_string())]
        );
    }

    #[test]
    fn comments_do_not_count_as_coverage() {
        assert!(contains_word("assert_eq!(a.cycles, b.cycles);", "cycles"));
        assert!(!contains_word("let recycles = 1;", "cycles"));
        let masked = mask("// compares cycles\nlet x = 1;\n");
        assert!(!masked.iter().any(|l| contains_word(&l.code, "cycles")));
    }

    #[test]
    fn missing_struct_is_none() {
        assert!(public_fields("pub struct Other { pub x: u32 }", "R").is_none());
    }
}
