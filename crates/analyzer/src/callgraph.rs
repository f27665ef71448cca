//! Workspace call-graph extraction on masked source.
//!
//! The interprocedural rules ([`crate::interproc`]) need to know, for every
//! workspace function, *which other workspace functions it may call*. This
//! module recovers that from the same masked lines the per-file scanners
//! use — no `syn`, no type inference — with a soundness posture tuned for a
//! gate rather than a compiler:
//!
//! * **Function discovery** is brace-depth exact: a `fn` item at module or
//!   `impl`/`trait` depth opens a body span that is matched to its closing
//!   brace, so every body line belongs to exactly one discovered function
//!   (nested `fn`s fold into their parent, which only widens the analysis).
//! * **Call sites** are `ident(`-shaped tokens (plus `ident::<…>(` turbofish
//!   and multi-segment paths), excluding keywords, macro invocations
//!   (`ident!`), declarations, and capitalized tuple-struct/variant
//!   constructors (which have no user code to analyze).
//! * **Resolution** is name-based and *over-approximate*: a method call
//!   resolves to every workspace method of that name; a free call resolves
//!   within its file, then its crate, then through its file's `use`
//!   imports of `ftdb_*` crates; a path call resolves through its
//!   qualifier (`Self`, a type, a module stem, `crate`, or an `ftdb_*`
//!   crate). Extra candidate edges can only make the gate stricter, never
//!   blinder.
//! * Anything that resolves to **no** workspace candidate is recorded as an
//!   **opaque edge** — explicitly present in the graph, never silently
//!   dropped. Opaque edges are not traversed (the callee's source is
//!   outside the workspace, e.g. `std`); what leaks through them is
//!   exactly what the per-line textual rules already police (`unwrap`,
//!   literal indexing, the allocation denylist). The
//!   `// analyzer: trusted-call -- <why>` directive marks a call site whose
//!   resolved edges should be treated like vetted opaque ones.

use std::collections::BTreeMap;

use crate::analyze::{has_fn_keyword, FileUnit};
use crate::lexer::is_ident_char;

/// One discovered function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the declaring [`FileUnit`] in the slice passed to
    /// [`build`].
    pub unit: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, when the function is an
    /// associated item.
    pub qual: Option<String>,
    /// Declaring crate (`ftdb_sim`, …), empty outside `crates/`.
    pub krate: String,
    /// Module stem used for `module::f()` resolution — the file stem, or
    /// the directory name for `mod.rs`.
    pub module: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based inclusive last line of the item (closing brace, or the
    /// `;` of a body-less trait signature).
    pub end_line: usize,
    /// Whether the function carries the `// analyzer: alloc-free`
    /// annotation.
    pub alloc_free: bool,
}

/// One call site inside a discovered function.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line in the calling file.
    pub line: usize,
    /// The callee as written (`from_sorted`, `metrics::merge`, `.push`).
    pub callee: String,
    /// Indices into [`CallGraph::fns`] of every workspace function this
    /// site may call. Empty means the edge is *opaque* (callee outside
    /// the workspace).
    pub candidates: Vec<usize>,
    /// Whether the line carries a `trusted-call` directive.
    pub trusted: bool,
    /// For method calls: the receiver is literally `self`, so the
    /// candidates come from the caller's own `impl` block (precise)
    /// rather than the workspace-wide method-name index
    /// (over-approximate). Alloc-free propagation only trusts precise
    /// method edges; the wide ones exist for panic reachability.
    pub self_receiver: bool,
}

/// The extracted workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every discovered (non-test) function under `crates/`.
    pub fns: Vec<FnItem>,
    /// Call sites per function, parallel to [`CallGraph::fns`].
    pub calls: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Renders `fns[idx]` as `file.rs::name` for call-chain diagnostics.
    pub fn label(&self, units: &[FileUnit], idx: usize) -> String {
        let f = &self.fns[idx];
        let file = units[f.unit]
            .rel
            .rsplit('/')
            .next()
            .unwrap_or(units[f.unit].rel.as_str());
        format!("{}::{}", file, f.name)
    }
}

/// Extracts the call graph for every unit whose path is under `crates/`
/// (test-exempt functions are skipped on both ends: they are neither
/// callers nor resolution candidates).
pub fn build(units: &[FileUnit]) -> CallGraph {
    let mut graph = CallGraph::default();
    for (u, unit) in units.iter().enumerate() {
        if !unit.rel.starts_with("crates/") {
            continue;
        }
        discover_fns(u, unit, &mut graph.fns);
    }
    let resolver = Resolver::new(units, &graph.fns);
    for f in &graph.fns {
        graph
            .calls
            .push(collect_calls(f, &units[f.unit], &resolver));
    }
    graph
}

/// Crate name (`ftdb_<dir>`) for a `crates/<dir>/...` path; empty
/// otherwise.
fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(|d| format!("ftdb_{d}"))
        .unwrap_or_default()
}

/// Module stem for `module::f()` resolution.
fn module_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    if stem == "mod" || stem == "lib" || stem == "main" {
        parts
            .get(parts.len().saturating_sub(2))
            .copied()
            .unwrap_or(stem)
            .to_string()
    } else {
        stem.to_string()
    }
}

/// Scans one unit for function items, appending to `fns`.
fn discover_fns(u: usize, unit: &FileUnit, fns: &mut Vec<FnItem>) {
    let krate = crate_of(&unit.rel);
    let module = module_of(&unit.rel);
    let mut depth = 0usize;
    // Stack of `impl`/`trait` contexts: (depth just after their `{`, type
    // name). The innermost entry whose depth equals the current `fn`'s
    // declaration depth supplies the qualifier.
    let mut quals: Vec<(usize, String)> = Vec::new();
    let mut pending_qual: Option<String> = None;
    // An open `fn`: (index into fns, depth at its declaration, whether its
    // body brace has been seen).
    let mut open_fn: Option<(usize, usize, bool)> = None;

    for (idx, line) in unit.lines.iter().enumerate() {
        let code = line.code.as_str();
        let trimmed = code.trim_start();
        let lineno = idx + 1;
        if open_fn.is_none() && pending_qual.is_none() {
            if let Some(q) = impl_header_qual(trimmed) {
                pending_qual = Some(q);
            }
        }
        if open_fn.is_none() && !unit.exempt[idx] && has_fn_keyword(code) {
            if let Some(name) = fn_name(code) {
                let qual = quals
                    .iter()
                    .rev()
                    .find(|(d, _)| *d == depth)
                    .map(|(_, q)| q.clone());
                fns.push(FnItem {
                    unit: u,
                    name,
                    qual,
                    krate: krate.clone(),
                    module: module.clone(),
                    sig_line: lineno,
                    end_line: lineno,
                    alloc_free: unit.alloc_spans.iter().any(|&(s, _)| s == lineno),
                });
                open_fn = Some((fns.len() - 1, depth, false));
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some((_, _, opened @ false)) = &mut open_fn {
                        *opened = true;
                    } else if let Some(q) = pending_qual.take() {
                        quals.push((depth, q));
                    }
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if let Some((fi, fd, true)) = open_fn {
                        if depth <= fd {
                            fns[fi].end_line = lineno;
                            open_fn = None;
                        }
                    }
                    while quals.last().is_some_and(|(d, _)| *d > depth) {
                        quals.pop();
                    }
                }
                ';' => {
                    if let Some((fi, fd, false)) = open_fn {
                        if depth == fd {
                            // Body-less trait signature.
                            fns[fi].end_line = lineno;
                            open_fn = None;
                        }
                    }
                    pending_qual = None;
                }
                _ => {}
            }
        }
    }
    if let Some((fi, _, true)) = open_fn {
        fns[fi].end_line = unit.lines.len();
    }
}

/// Parses the type name an `impl`/`trait` header introduces: the type
/// after `for` in `impl Trait for Type`, the type in `impl Type`, or the
/// trait name in `trait Name`.
fn impl_header_qual(trimmed: &str) -> Option<String> {
    let after = if let Some(rest) = trimmed
        .strip_prefix("impl")
        .filter(|r| r.starts_with(['<', ' ']))
    {
        let rest = skip_generics(rest);
        match rest.find(" for ") {
            Some(at) => &rest[at + 5..],
            None => rest,
        }
    } else {
        let t = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
        t.strip_prefix("trait ")?
    };
    let name: String = after
        .trim_start()
        .chars()
        .take_while(|&c| is_ident_char(c))
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Skips a leading `<...>` generic parameter list.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    s
}

/// The identifier following the `fn` keyword.
fn fn_name(code: &str) -> Option<String> {
    for at in crate::rules::word_positions(code, "fn") {
        let name: String = code[at + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    None
}

/// Reserved words that look like `ident(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "for", "while", "loop", "return", "let", "fn", "pub", "use", "mod",
    "impl", "in", "move", "ref", "mut", "where", "as", "break", "continue", "unsafe", "dyn",
    "crate", "super", "self", "box", "const", "static", "type", "trait", "enum", "struct",
];

/// How a call site names its callee.
enum CallKind {
    /// `.name(...)` — dynamic receiver; the flag records a literal
    /// `self` receiver.
    Method(bool),
    /// `qual::name(...)` — path-qualified; the qualifier is the
    /// second-to-last segment.
    Path(Vec<String>),
    /// `name(...)` — unqualified.
    Free,
}

/// Collects and resolves the call sites inside one function's span.
fn collect_calls(f: &FnItem, unit: &FileUnit, resolver: &Resolver<'_>) -> Vec<CallSite> {
    let mut sites = Vec::new();
    // The last non-blank code line: a rustfmt continuation line's
    // receiver ends it.
    let mut prev = "";
    for idx in f.sig_line - 1..f.end_line.min(unit.lines.len()) {
        if unit.exempt[idx] {
            continue;
        }
        let code = unit.lines[idx].code.as_str();
        let trimmed = code.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        let above = std::mem::replace(&mut prev, code);
        if trimmed.starts_with("use ") || trimmed.starts_with("#[") {
            continue;
        }
        let lineno = idx + 1;
        for (name, kind) in call_tokens(code, above) {
            let candidates = resolver.resolve(f, &name, &kind);
            let callee = match &kind {
                CallKind::Method(_) => format!(".{name}"),
                CallKind::Path(segs) => {
                    let mut s = segs.join("::");
                    s.push_str("::");
                    s.push_str(&name);
                    s
                }
                CallKind::Free => name.clone(),
            };
            sites.push(CallSite {
                line: lineno,
                callee,
                candidates,
                trusted: unit.is_trusted_line(lineno),
                self_receiver: matches!(kind, CallKind::Method(true)),
            });
        }
    }
    sites
}

/// Extracts `(callee name, kind)` for every call-shaped token on a masked
/// line. `above` is the previous non-blank code line: a `.name(` that opens
/// the line continues a call chain from there, so its receiver is the
/// token that line ends with (`let slot = self` / `.edge_slot(..)` is a
/// `self` method call).
fn call_tokens(code: &str, above: &str) -> Vec<(String, CallKind)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (open, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Walk left over an optional turbofish, then the callee ident.
        let mut end = open;
        if end > 0 && bytes[end - 1] == b'>' {
            match turbofish_start(bytes, end - 1) {
                Some(s) => end = s,
                None => continue,
            }
        }
        let start = ident_start(code, end);
        if start == end {
            continue;
        }
        let name = &code[start..end];
        if name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            || name.chars().all(|c| c.is_ascii_digit())
            || NON_CALL_KEYWORDS.contains(&name)
        {
            continue;
        }
        let before = code[..start].chars().next_back();
        let kind = match before {
            Some('!') => continue, // negated call — shape is receiver-less anyway
            Some('.') => {
                let dot = start - 1;
                let (text, recv_end) = if code[..dot].trim().is_empty() {
                    let above = above.trim_end();
                    (above, above.len())
                } else {
                    (code, dot)
                };
                let recv_start = ident_start(text, recv_end);
                let receiver = &text[recv_start..recv_end];
                let self_recv = receiver == "self"
                    && !text[..recv_start].ends_with('.')
                    && !text[..recv_start].ends_with(is_ident_char);
                CallKind::Method(self_recv)
            }
            Some(':') if code[..start].ends_with("::") => {
                match path_segments(code, start - 2) {
                    Some(segs) => CallKind::Path(segs),
                    None => continue, // `::<` turbofish on a method, already shaped
                }
            }
            _ => {
                // `fn name(` is a declaration, not a call.
                let head = code[..start].trim_end();
                if head.ends_with("fn") || name.starts_with("r#") {
                    continue;
                }
                CallKind::Free
            }
        };
        out.push((name.to_string(), kind));
    }
    out
}

/// Byte offset where the identifier ending at `end` begins.
fn ident_start(code: &str, end: usize) -> usize {
    code[..end]
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map(|(p, _)| p)
        .unwrap_or(end)
}

/// For a `>` at byte `gt` closing a `::<...>` turbofish, the offset of the
/// ident's end (just before the `::`).
fn turbofish_start(bytes: &[u8], gt: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = gt;
    loop {
        match bytes[i] {
            b'>' => depth += 1,
            b'<' => {
                depth -= 1;
                if depth == 0 {
                    return (i >= 2 && bytes[i - 1] == b':' && bytes[i - 2] == b':')
                        .then_some(i - 2);
                }
            }
            _ => {}
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// The `::`-separated segments to the left of byte `upto` (exclusive),
/// innermost last: for `ftdb_sim::metrics::f(` with `upto` at the final
/// `::`, returns `["ftdb_sim", "metrics"]`.
fn path_segments(code: &str, upto: usize) -> Option<Vec<String>> {
    let mut segs = Vec::new();
    let mut end = upto;
    loop {
        let start = ident_start(code, end);
        if start == end {
            break;
        }
        segs.push(code[start..end].to_string());
        if code[..start].ends_with("::") {
            end = start - 2;
        } else {
            break;
        }
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    Some(segs)
}

/// Name-resolution indexes over the discovered functions.
struct Resolver<'a> {
    /// Method name → all associated fns of that name, workspace-wide.
    by_method: BTreeMap<&'a str, Vec<usize>>,
    /// (unit, name) → free fns declared in that file.
    by_free_unit: BTreeMap<(usize, &'a str), Vec<usize>>,
    /// (crate, name) → free fns declared in that crate.
    by_free_crate: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// (type name, fn name) → associated fns.
    by_qual: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// (module stem, name) → fns declared in that module.
    by_module: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// Per unit: imported leaf ident → source crate (from `use` lines).
    imports: BTreeMap<(usize, String), String>,
}

impl<'a> Resolver<'a> {
    fn new(units: &'a [FileUnit], fns: &'a [FnItem]) -> Resolver<'a> {
        let mut r = Resolver {
            by_method: BTreeMap::new(),
            by_free_unit: BTreeMap::new(),
            by_free_crate: BTreeMap::new(),
            by_qual: BTreeMap::new(),
            by_module: BTreeMap::new(),
            imports: BTreeMap::new(),
        };
        for (i, f) in fns.iter().enumerate() {
            let name = f.name.as_str();
            match &f.qual {
                Some(q) => {
                    r.by_method.entry(name).or_default().push(i);
                    r.by_qual.entry((q.as_str(), name)).or_default().push(i);
                }
                None => {
                    r.by_free_unit.entry((f.unit, name)).or_default().push(i);
                    if !f.krate.is_empty() {
                        r.by_free_crate
                            .entry((f.krate.as_str(), name))
                            .or_default()
                            .push(i);
                    }
                }
            }
            r.by_module
                .entry((f.module.as_str(), name))
                .or_default()
                .push(i);
        }
        for (u, unit) in units.iter().enumerate() {
            if unit.rel.starts_with("crates/") {
                collect_imports(u, unit, &mut r.imports);
            }
        }
        r
    }

    /// Every workspace function `name` may refer to at this call site.
    fn resolve(&self, caller: &FnItem, name: &str, kind: &CallKind) -> Vec<usize> {
        match kind {
            CallKind::Method(true) => match &caller.qual {
                // `self.name(...)`: the callee lives in the caller's own
                // impl; a miss (derived/deref'd method) is opaque.
                Some(qual) => self
                    .by_qual
                    .get(&(qual.as_str(), name))
                    .cloned()
                    .unwrap_or_default(),
                None => Vec::new(),
            },
            CallKind::Method(false) => self.by_method.get(name).cloned().unwrap_or_default(),
            CallKind::Free => {
                if let Some(v) = self.by_free_unit.get(&(caller.unit, name)) {
                    return v.clone();
                }
                if let Some(v) = self.by_free_crate.get(&(caller.krate.as_str(), name)) {
                    return v.clone();
                }
                if let Some(krate) = self.imports.get(&(caller.unit, name.to_string())) {
                    if let Some(v) = self.by_free_crate.get(&(krate.as_str(), name)) {
                        return v.clone();
                    }
                }
                Vec::new()
            }
            CallKind::Path(segs) => {
                let q = segs.last().map(String::as_str).unwrap_or("");
                if q == "Self" {
                    if let Some(qual) = &caller.qual {
                        return self
                            .by_qual
                            .get(&(qual.as_str(), name))
                            .cloned()
                            .unwrap_or_default();
                    }
                    return Vec::new();
                }
                if q == "crate" {
                    return self
                        .by_free_crate
                        .get(&(caller.krate.as_str(), name))
                        .cloned()
                        .unwrap_or_default();
                }
                if q.starts_with("ftdb_") {
                    return self
                        .by_free_crate
                        .get(&(q, name))
                        .cloned()
                        .unwrap_or_default();
                }
                if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    // A type: the global (type name, fn name) index is
                    // precise enough in practice; a miss (type alias, std
                    // type) leaves the edge opaque.
                    self.by_qual.get(&(q, name)).cloned().unwrap_or_default()
                } else {
                    // A module stem (`metrics::merge`, `super::helper`).
                    self.by_module.get(&(q, name)).cloned().unwrap_or_default()
                }
            }
        }
    }
}

/// Parses the `use` lines of a unit into leaf-ident → crate mappings.
/// Handles `use a::b::c;`, brace groups `use a::{b, c as d};`, and maps
/// `crate::` to the unit's own crate. Only `ftdb_*`-rooted (or
/// `crate`-rooted) imports are recorded; `std`/vendored roots resolve to
/// nothing and stay opaque.
fn collect_imports(u: usize, unit: &FileUnit, out: &mut BTreeMap<(usize, String), String>) {
    let own = crate_of(&unit.rel);
    for line in &unit.lines {
        let code = line.code.trim();
        let Some(rest) = code.strip_prefix("use ") else {
            continue;
        };
        let rest = rest.trim_end_matches(';').trim();
        let root = rest.split("::").next().unwrap_or("").trim();
        let krate = if root == "crate" || root == "super" || root == "self" {
            own.clone()
        } else if root.starts_with("ftdb_") {
            root.to_string()
        } else {
            continue;
        };
        // Leaves: the idents at the end of each path in the (possibly
        // braced) tail, honoring `as` aliases.
        let tail = match rest.find('{') {
            Some(at) => rest[at + 1..].trim_end_matches(['}', ';']),
            None => rest,
        };
        for item in tail.split(',') {
            let item = item.trim();
            if item.is_empty() || item == "*" {
                continue;
            }
            let leaf = match item.rsplit_once(" as ") {
                Some((_, alias)) => alias.trim(),
                None => item.rsplit("::").next().unwrap_or(item).trim(),
            };
            if leaf.is_empty() || leaf == "*" {
                continue;
            }
            out.insert((u, leaf.to_string()), krate.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parse_unit;

    fn graph_of(files: &[(&str, &str)]) -> (Vec<FileUnit>, CallGraph) {
        let units: Vec<FileUnit> = files
            .iter()
            .map(|(rel, src)| parse_unit(rel, src))
            .collect();
        let graph = build(&units);
        (units, graph)
    }

    fn find<'g>(graph: &'g CallGraph, name: &str) -> (usize, &'g FnItem) {
        graph
            .fns
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` not discovered"))
    }

    #[test]
    fn discovers_free_fns_methods_and_spans() {
        let src = "pub fn top() {\n    helper();\n}\n\nfn helper() {}\n\nimpl Widget {\n    pub fn poke(&self) {\n        self.count();\n    }\n    fn count(&self) -> u32 {\n        0\n    }\n}\n";
        let (_, g) = graph_of(&[("crates/sim/src/w.rs", src)]);
        let (_, top) = find(&g, "top");
        assert_eq!((top.sig_line, top.end_line), (1, 3));
        assert_eq!(top.qual, None);
        assert_eq!(top.krate, "ftdb_sim");
        let (_, poke) = find(&g, "poke");
        assert_eq!(poke.qual.as_deref(), Some("Widget"));
        let (_, count) = find(&g, "count");
        assert_eq!((count.sig_line, count.end_line), (11, 13));
    }

    #[test]
    fn impl_trait_for_type_quals_to_the_type() {
        let src =
            "impl Default for Widget {\n    fn default() -> Self {\n        Widget\n    }\n}\n";
        let (_, g) = graph_of(&[("crates/sim/src/w.rs", src)]);
        let (_, f) = find(&g, "default");
        assert_eq!(f.qual.as_deref(), Some("Widget"));
    }

    #[test]
    fn free_calls_resolve_within_file_then_crate() {
        let a = "pub fn caller() {\n    same_file();\n    other_file();\n    nowhere();\n}\nfn same_file() {}\n";
        let b = "pub fn other_file() {}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", a), ("crates/sim/src/b.rs", b)]);
        let (ci, _) = find(&g, "caller");
        let calls = &g.calls[ci];
        assert_eq!(calls.len(), 3);
        let by_name = |n: &str| calls.iter().find(|c| c.callee == n).unwrap();
        assert_eq!(by_name("same_file").candidates.len(), 1);
        assert_eq!(by_name("other_file").candidates.len(), 1);
        assert!(by_name("nowhere").candidates.is_empty(), "opaque edge");
    }

    #[test]
    fn cross_crate_calls_resolve_via_use_imports_and_paths() {
        let caller = "use ftdb_graph::walk;\npub fn go() {\n    walk();\n    ftdb_graph::stride();\n    traversal::hop();\n}\n";
        let callee = "pub fn walk() {}\npub fn stride() {}\npub fn hop() {}\n";
        let (_, g) = graph_of(&[
            ("crates/sim/src/go.rs", caller),
            ("crates/graph/src/traversal.rs", callee),
        ]);
        let (ci, _) = find(&g, "go");
        for call in &g.calls[ci] {
            assert_eq!(call.candidates.len(), 1, "unresolved: {}", call.callee);
        }
    }

    #[test]
    fn method_and_type_path_calls_resolve_globally() {
        let a = "pub fn caller(s: Summary) {\n    s.merge();\n    Summary::from_sorted();\n    s.len();\n}\n";
        let b = "impl Summary {\n    pub fn merge(&self) {}\n    pub fn from_sorted() {}\n}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", a), ("crates/sim/src/m.rs", b)]);
        let (ci, _) = find(&g, "caller");
        let by_name = |n: &str| g.calls[ci].iter().find(|c| c.callee == n).unwrap();
        assert_eq!(by_name(".merge").candidates.len(), 1);
        assert_eq!(by_name("Summary::from_sorted").candidates.len(), 1);
        assert!(
            by_name(".len").candidates.is_empty(),
            "std method is opaque"
        );
    }

    #[test]
    fn macros_keywords_and_constructors_are_not_calls() {
        let src = "pub fn f(x: u32) -> Option<u32> {\n    if x > 0 {\n        println!(\"{x}\");\n        return Some(x);\n    }\n    while x == 0 {}\n    None\n}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", src)]);
        let (ci, _) = find(&g, "f");
        assert!(g.calls[ci].is_empty(), "{:?}", g.calls[ci]);
    }

    #[test]
    fn turbofish_method_calls_are_sites() {
        let src =
            "pub fn f(v: Vec<u32>) -> Vec<u32> {\n    v.iter().copied().collect::<Vec<u32>>()\n}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", src)]);
        let (ci, _) = find(&g, "f");
        let names: Vec<&str> = g.calls[ci].iter().map(|c| c.callee.as_str()).collect();
        assert!(names.contains(&".collect"), "{names:?}");
    }

    #[test]
    fn trusted_call_lines_are_flagged() {
        let src =
            "pub fn f() {\n    helper(); // analyzer: trusted-call -- vetted\n}\nfn helper() {}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", src)]);
        let (ci, _) = find(&g, "f");
        assert!(g.calls[ci][0].trusted);
    }

    #[test]
    fn test_modules_are_invisible_to_the_graph() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper_in_tests() {\n        super::f();\n    }\n}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", src)]);
        assert!(g.fns.iter().all(|f| f.name != "helper_in_tests"));
    }

    #[test]
    fn continuation_lines_carry_the_previous_lines_receiver() {
        // rustfmt breaks `let slot = self.edge_slot(u, v)` before the dot:
        // the continuation's receiver is the token the line above ends
        // with, so the call is a `self` method edge into the caller's impl.
        // A continuation after a field access or a call is not.
        let src = "impl Sim {\n    pub fn hop(&self) {\n        let slot = self\n            .edge_slot(1)\n            // a comment between links of the chain\n            .expect();\n        let n = self.links\n            .first();\n    }\n    fn edge_slot(&self, v: u32) -> Option<u32> {\n        Some(v)\n    }\n}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", src)]);
        let (ci, _) = find(&g, "hop");
        let site = |n: &str| g.calls[ci].iter().find(|c| c.callee == n).unwrap();
        let edge_slot = site(".edge_slot");
        assert!(edge_slot.self_receiver, "continuation lost its receiver");
        assert_eq!(edge_slot.line, 4);
        assert_eq!(edge_slot.candidates, vec![find(&g, "edge_slot").0]);
        assert!(!site(".expect").self_receiver, "receiver is a call result");
        assert!(!site(".first").self_receiver, "receiver is a field");
    }

    #[test]
    fn alloc_free_annotation_is_carried() {
        let src = "// analyzer: alloc-free\npub fn hot() {}\npub fn cold() {}\n";
        let (_, g) = graph_of(&[("crates/sim/src/a.rs", src)]);
        assert!(find(&g, "hot").1.alloc_free);
        assert!(!find(&g, "cold").1.alloc_free);
    }
}
