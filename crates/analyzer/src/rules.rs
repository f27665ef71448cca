//! Rule identifiers and token-level pattern scanners.
//!
//! Every scanner operates on a *masked* code line ([`crate::lexer::mask`]):
//! comments and literal contents have already been blanked, so plain
//! substring/boundary matching is sound.

use crate::lexer::is_ident_char;

/// Identifies one analyzer rule. The `name()` string is what appears in
/// diagnostics and in `// analyzer: allow(<rule>)` directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `.unwrap()` in a panic-free module.
    Unwrap,
    /// `.expect(..)` in a panic-free module.
    Expect,
    /// `panic!` in a panic-free module.
    Panic,
    /// `unreachable!` in a panic-free module.
    Unreachable,
    /// `todo!` in a panic-free module.
    Todo,
    /// `unimplemented!` in a panic-free module.
    Unimplemented,
    /// Indexing with an integer literal (`xs[0]`) — the slice-index cousin
    /// of `.unwrap()` — in a panic-free module.
    IndexLiteral,
    /// An allocating call inside a function annotated
    /// `// analyzer: alloc-free`.
    Alloc,
    /// `HashMap`/`HashSet` in a determinism-critical module (iteration
    /// order feeds reports).
    HashCollections,
    /// `std::time::Instant`/`SystemTime` in a determinism-critical module.
    WallClock,
    /// Ambient entropy (`thread_rng`, `from_entropy`) in a
    /// determinism-critical module.
    AmbientRng,
    /// `==`/`!=` against a floating-point literal in a determinism-critical
    /// module.
    FloatEq,
    /// A public report field that the differential equivalence suite never
    /// compares.
    DiffCoverage,
    /// A panic-capable construct in a function *reachable* from a hot-path
    /// module through the call graph (diagnosed with the offending chain).
    TransitivePanic,
    /// An `alloc-free` function calling a workspace function that is not
    /// itself annotated `alloc-free` (or excused by `trusted-call`).
    AllocPropagation,
    /// Recursion inside the `alloc-free` subgraph — an unbounded stack is
    /// an unbounded allocation.
    AllocRecursion,
    /// `Mutex`/`RwLock`/`Relaxed` atomics in the shard hot path — shard
    /// state must be owned, not shared.
    ShardLock,
    /// `std::thread::spawn` in the sharded engine; only the scoped-worker
    /// entry points may create threads.
    ThreadSpawn,
    /// A single `analyzer: allow` suppressing more than one finding
    /// (one-allow-per-violation granularity).
    OverloadedAllow,
    /// An `analyzer: allow(...)` that suppresses nothing.
    StaleAllow,
    /// A malformed or unknown `analyzer:` directive.
    BadDirective,
}

impl RuleId {
    /// The stable rule name used in diagnostics and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Unwrap => "unwrap",
            RuleId::Expect => "expect",
            RuleId::Panic => "panic",
            RuleId::Unreachable => "unreachable",
            RuleId::Todo => "todo",
            RuleId::Unimplemented => "unimplemented",
            RuleId::IndexLiteral => "index-literal",
            RuleId::Alloc => "alloc",
            RuleId::HashCollections => "hash-collections",
            RuleId::WallClock => "wall-clock",
            RuleId::AmbientRng => "ambient-rng",
            RuleId::FloatEq => "float-eq",
            RuleId::DiffCoverage => "diff-coverage",
            RuleId::TransitivePanic => "transitive-panic",
            RuleId::AllocPropagation => "alloc-propagation",
            RuleId::AllocRecursion => "alloc-recursion",
            RuleId::ShardLock => "shard-lock",
            RuleId::ThreadSpawn => "thread-spawn",
            RuleId::OverloadedAllow => "overloaded-allow",
            RuleId::StaleAllow => "stale-allow",
            RuleId::BadDirective => "bad-directive",
        }
    }

    /// Parses a rule name as written inside `allow(...)`.
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// Every rule, in diagnostic order.
pub const ALL_RULES: [RuleId; 21] = [
    RuleId::Unwrap,
    RuleId::Expect,
    RuleId::Panic,
    RuleId::Unreachable,
    RuleId::Todo,
    RuleId::Unimplemented,
    RuleId::IndexLiteral,
    RuleId::Alloc,
    RuleId::HashCollections,
    RuleId::WallClock,
    RuleId::AmbientRng,
    RuleId::FloatEq,
    RuleId::DiffCoverage,
    RuleId::TransitivePanic,
    RuleId::AllocPropagation,
    RuleId::AllocRecursion,
    RuleId::ShardLock,
    RuleId::ThreadSpawn,
    RuleId::OverloadedAllow,
    RuleId::StaleAllow,
    RuleId::BadDirective,
];

/// Which rule families apply to a file (alloc discipline is annotation-
/// driven and directive validation is universal, so neither needs a flag).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// Panic-freedom rules (`unwrap`/`expect`/macros/index-literal).
    pub panic_free: bool,
    /// Determinism rules (hash collections, wall clock, ambient RNG,
    /// float equality).
    pub determinism: bool,
}

/// One rule hit on one line, before allowlist filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable description of the offending token.
    pub message: String,
}

/// Returns the byte offsets at which `word` occurs in `code` with
/// identifier boundaries on both sides.
pub(crate) fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let after = code[at + word.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

fn next_nonspace(code: &str, from: usize) -> Option<char> {
    code[from..].chars().find(|c| !c.is_whitespace())
}

fn prev_nonspace(code: &str, to: usize) -> Option<char> {
    code[..to].chars().rev().find(|c| !c.is_whitespace())
}

/// True when `word` occurs as a method call: `.word(` (or `.word::<` when
/// `turbofish` is set, for `collect::<...>()`).
fn method_call(code: &str, word: &str, turbofish: bool) -> bool {
    word_positions(code, word).into_iter().any(|at| {
        let dotted = prev_nonspace(code, at) == Some('.');
        let nxt = next_nonspace(code, at + word.len());
        dotted && (nxt == Some('(') || (turbofish && nxt == Some(':')))
    })
}

/// True when `name!` occurs as a macro invocation.
fn macro_call(code: &str, name: &str) -> bool {
    word_positions(code, name)
        .into_iter()
        .any(|at| next_nonspace(code, at + name.len()) == Some('!'))
}

/// True when the literal path `path` (e.g. `Vec::new`) occurs with
/// identifier boundaries at both ends.
pub(crate) fn path_token(code: &str, path: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(path) {
        let at = from + rel;
        let before = code[..at].chars().next_back().unwrap_or(' ');
        let after = code[at + path.len()..].chars().next().unwrap_or(' ');
        if !is_ident_char(before) && before != ':' && !is_ident_char(after) {
            return true;
        }
        from = at + path.len();
    }
    false
}

/// True when `code` contains `expr[<int literal>]` indexing.
fn has_literal_index(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (at, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        // Indexing, not an array/slice type, literal or attribute: the
        // previous non-space char ends an expression.
        match prev_nonspace(code, at) {
            Some(c) if is_ident_char(c) || c == ')' || c == ']' => {}
            _ => continue,
        }
        let rest = code[at + 1..].trim_start();
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.is_empty() {
            continue;
        }
        let tail = &rest[digits.len()..];
        let tail = tail.trim_start_matches(|c: char| is_ident_char(c));
        if tail.trim_start().starts_with(']') {
            return true;
        }
    }
    false
}

/// True when `tok` spells a floating-point literal (`0.5`, `1.`, `1e-9`,
/// `2f64`, ...), with an optional sign.
fn is_float_literal(tok: &str) -> bool {
    let tok = tok.trim_start_matches(['-', '+']);
    let t = tok.trim_end_matches("f64").trim_end_matches("f32");
    let mut chars = t.chars();
    match chars.next() {
        Some(c) if c.is_ascii_digit() => {}
        _ => return false,
    }
    let has_dot = t.contains('.');
    let has_exp = t.contains('e') || t.contains('E');
    let body_ok = t
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-' | '_'));
    (has_dot || has_exp || t.len() < tok.len()) && body_ok
}

fn is_operand_char(c: char) -> bool {
    is_ident_char(c) || matches!(c, '.' | ':' | '-' | '+')
}

/// Extracts the operand token immediately left of byte offset `at`.
fn left_token(code: &str, at: usize) -> String {
    let s = code[..at].trim_end();
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_operand_char(c))
        .last()
        .map(|(p, _)| p)
        .unwrap_or(s.len());
    s[start..].to_string()
}

/// Extracts the operand token immediately right of byte offset `from`.
fn right_token(code: &str, from: usize) -> String {
    let s = code[from..].trim_start();
    let end = s.find(|c: char| !is_operand_char(c)).unwrap_or(s.len());
    s[..end].to_string()
}

/// True when the line compares (`==`/`!=`) against a float literal.
fn has_float_eq(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==";
        let is_ne = two == b"!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Skip `<=`, `>=`, `!==`-ish neighbourhoods and pattern arms.
        let prev = if i == 0 { b' ' } else { bytes[i - 1] };
        let next = bytes.get(i + 2).copied().unwrap_or(b' ');
        if is_eq && matches!(prev, b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/') {
            i += 2;
            continue;
        }
        if next == b'=' {
            i += 2;
            continue;
        }
        if is_float_literal(&left_token(code, i)) || is_float_literal(&right_token(code, i + 2)) {
            return true;
        }
        i += 2;
    }
    false
}

/// Panic-freedom scan of one masked line.
pub fn panic_hits(code: &str, out: &mut Vec<Hit>) {
    if method_call(code, "unwrap", false) {
        out.push(Hit {
            rule: RuleId::Unwrap,
            message: "`.unwrap()` can panic; return a typed error or use `unwrap_or*`".into(),
        });
    }
    if method_call(code, "expect", false) {
        out.push(Hit {
            rule: RuleId::Expect,
            message: "`.expect(..)` can panic; return a typed error".into(),
        });
    }
    for (mac, rule) in [
        ("panic", RuleId::Panic),
        ("unreachable", RuleId::Unreachable),
        ("todo", RuleId::Todo),
        ("unimplemented", RuleId::Unimplemented),
    ] {
        if macro_call(code, mac) {
            out.push(Hit {
                rule,
                message: format!("`{mac}!` aborts the hot path; return a typed error"),
            });
        }
    }
    if has_literal_index(code) {
        out.push(Hit {
            rule: RuleId::IndexLiteral,
            message: "integer-literal indexing can panic; use `.get(..)` or destructure".into(),
        });
    }
}

/// Method names that allocate (or may reallocate) when called in an
/// `alloc-free` function.
const ALLOC_METHODS: [&str; 9] = [
    "push",
    "to_vec",
    "clone",
    "to_string",
    "to_owned",
    "extend",
    "reserve",
    "insert",
    "with_capacity",
];

/// Paths and macros that allocate.
const ALLOC_PATHS: [&str; 4] = ["Vec::new", "Box::new", "String::new", "String::from"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Allocation-discipline scan of one masked line (inside an annotated
/// function).
pub fn alloc_hits(code: &str, out: &mut Vec<Hit>) {
    for m in ALLOC_METHODS {
        if method_call(code, m, false) {
            out.push(Hit {
                rule: RuleId::Alloc,
                message: format!("`.{m}(..)` allocates inside an `alloc-free` function"),
            });
        }
    }
    if method_call(code, "collect", true) {
        out.push(Hit {
            rule: RuleId::Alloc,
            message: "`.collect()` allocates inside an `alloc-free` function".into(),
        });
    }
    for p in ALLOC_PATHS {
        if path_token(code, p) {
            out.push(Hit {
                rule: RuleId::Alloc,
                message: format!("`{p}` allocates inside an `alloc-free` function"),
            });
        }
    }
    for m in ALLOC_MACROS {
        if macro_call(code, m) {
            out.push(Hit {
                rule: RuleId::Alloc,
                message: format!("`{m}!` allocates inside an `alloc-free` function"),
            });
        }
    }
}

/// Determinism scan of one masked line.
pub fn determinism_hits(code: &str, out: &mut Vec<Hit>) {
    for ty in ["HashMap", "HashSet"] {
        if !word_positions(code, ty).is_empty() {
            out.push(Hit {
                rule: RuleId::HashCollections,
                message: format!(
                    "`{ty}` has nondeterministic iteration order; use `BTreeMap`/sorted `Vec`"
                ),
            });
        }
    }
    for ty in ["Instant", "SystemTime"] {
        if !word_positions(code, ty).is_empty() {
            out.push(Hit {
                rule: RuleId::WallClock,
                message: format!("`{ty}` reads the wall clock; reports must be replayable"),
            });
        }
    }
    for f in ["thread_rng", "from_entropy"] {
        if !word_positions(code, f).is_empty() {
            out.push(Hit {
                rule: RuleId::AmbientRng,
                message: format!("`{f}` draws ambient entropy; thread a seeded RNG instead"),
            });
        }
    }
    if has_float_eq(code) {
        out.push(Hit {
            rule: RuleId::FloatEq,
            message: "float `==`/`!=` is representation-fragile; compare with a tolerance".into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_rules(code: &str) -> Vec<RuleId> {
        let mut v = Vec::new();
        panic_hits(code, &mut v);
        v.into_iter().map(|h| h.rule).collect()
    }

    fn det_rules(code: &str) -> Vec<RuleId> {
        let mut v = Vec::new();
        determinism_hits(code, &mut v);
        v.into_iter().map(|h| h.rule).collect()
    }

    fn alloc_count(code: &str) -> usize {
        let mut v = Vec::new();
        alloc_hits(code, &mut v);
        v.len()
    }

    #[test]
    fn unwrap_matches_the_call_not_relatives() {
        assert_eq!(panic_rules("x.unwrap();"), vec![RuleId::Unwrap]);
        assert!(panic_rules("x.unwrap_or(0);").is_empty());
        assert!(panic_rules("x.unwrap_or_else(f);").is_empty());
        assert!(panic_rules("let unwrap = 3;").is_empty());
    }

    #[test]
    fn macros_match_with_bang_only() {
        assert_eq!(panic_rules("panic!(\"x\")"), vec![RuleId::Panic]);
        assert!(panic_rules("self.panic_count += 1;").is_empty());
        assert_eq!(panic_rules("unreachable!()"), vec![RuleId::Unreachable]);
    }

    #[test]
    fn literal_indexing_flags_expressions_not_types() {
        assert_eq!(panic_rules("let a = xs[0];"), vec![RuleId::IndexLiteral]);
        assert_eq!(panic_rules("w[1].0"), vec![RuleId::IndexLiteral]);
        assert!(panic_rules("let a: [u32; 4] = make();").is_empty());
        assert!(panic_rules("let a = [0, 1];").is_empty());
        assert!(panic_rules("xs[i]").is_empty());
    }

    #[test]
    fn float_eq_catches_literal_comparisons() {
        assert_eq!(det_rules("if x == 0.0 {"), vec![RuleId::FloatEq]);
        assert_eq!(det_rules("if 1e-9 != y {"), vec![RuleId::FloatEq]);
        assert!(det_rules("if x == 0 {").is_empty());
        assert!(det_rules("if x <= 0.5 {").is_empty());
        assert!(det_rules("let z = x / 2.0;").is_empty());
    }

    #[test]
    fn determinism_types_match_as_words() {
        assert_eq!(
            det_rules("use std::collections::HashMap;"),
            vec![RuleId::HashCollections]
        );
        assert!(det_rules("let my_hash_map_like = 1;").is_empty());
        assert_eq!(
            det_rules("let t = Instant::now();"),
            vec![RuleId::WallClock]
        );
    }

    #[test]
    fn alloc_patterns_cover_the_policy_list() {
        assert_eq!(alloc_count("self.buf.push(x);"), 1);
        assert_eq!(alloc_count("let v: Vec<u32> = it.collect();"), 1);
        assert_eq!(alloc_count("let v = it.collect::<Vec<_>>();"), 1);
        assert_eq!(alloc_count("let s = format!(\"{x}\");"), 1);
        assert_eq!(alloc_count("let b = Box::new(x);"), 1);
        assert_eq!(alloc_count("let v = Vec::new();"), 1);
        assert_eq!(alloc_count("let c = x.clone();"), 1);
        assert_eq!(alloc_count("let n = x.count();"), 0);
    }
}
