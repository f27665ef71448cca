//! Sharded-concurrency checker, scoped to the engine's shard/boundary
//! modules and the fan-out that spawns their workers
//! ([`crate::policy::Policy::concurrency_files`]).
//!
//! The sharded engine's determinism claim — byte-identical reports for any
//! shard count and any thread count — rests on a narrow discipline: each
//! cycle's per-shard work fans out over scoped workers that own disjoint
//! groups of cores and join before anything crosses shards, and the
//! barrier's buffer swap runs on one thread in a fixed order. Nothing may
//! block on a lock or read a
//! `Relaxed` atomic (both would admit interleaving-dependent states), and
//! no thread may outlive the join. Two static rules hold that line:
//!
//! * **shard-lock** — `Mutex`, `RwLock`, and `Relaxed` atomics are banned
//!   outright in the scoped files.
//! * **thread-spawn** — `std::thread::spawn` is banned; workers must go
//!   through the scoped (joining) entry points so no thread outlives the
//!   cycle barrier.

use crate::analyze::{FileUnit, Finding};
use crate::lexer::is_ident_char;
use crate::policy::Policy;
use crate::rules::{word_positions, RuleId};

/// Runs every concurrency rule over the scoped units.
pub fn check(units: &[FileUnit], policy: &Policy) -> Vec<Finding> {
    let mut findings = Vec::new();
    for unit in units
        .iter()
        .filter(|u| policy.concurrency_files.iter().any(|p| p == &u.rel))
    {
        for (idx, line) in unit.lines.iter().enumerate() {
            if unit.exempt[idx] {
                continue;
            }
            let code = line.code.as_str();
            let lineno = idx + 1;
            for _ in word_positions(code, "Mutex")
                .iter()
                .chain(&word_positions(code, "RwLock"))
                .chain(&word_positions(code, "Relaxed"))
            {
                findings.push(Finding::new(
                    &unit.rel,
                    lineno,
                    RuleId::ShardLock,
                    "locks and `Relaxed` atomics are banned in the shard hot path — each \
                     worker owns its cores outright and hands them back at the scope join"
                        .to_string(),
                ));
            }
            if has_thread_spawn(code) {
                findings.push(Finding::new(
                    &unit.rel,
                    lineno,
                    RuleId::ThreadSpawn,
                    "`std::thread::spawn` is banned in the sharded engine — use the scoped \
                     worker entry points so every thread joins at the cycle barrier"
                        .to_string(),
                ));
            }
        }
    }
    findings
}

/// True when the line invokes `thread::spawn` (optionally `std::`-
/// qualified — which is why [`path_token`] alone doesn't fit: it rejects
/// any `::` before the path).
fn has_thread_spawn(code: &str) -> bool {
    const NEEDLE: &str = "thread::spawn";
    let mut from = 0;
    while let Some(rel) = code[from..].find(NEEDLE) {
        let at = from + rel;
        let before = code[..at].chars().next_back().unwrap_or(' ');
        let after = code[at + NEEDLE.len()..].chars().next().unwrap_or(' ');
        if !is_ident_char(before) && !is_ident_char(after) {
            return true;
        }
        from = at + NEEDLE.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parse_unit;

    const SHARD: &str = "crates/sim/src/congestion/shard.rs";

    fn run(src: &str) -> Vec<Finding> {
        check(&[parse_unit(SHARD, src)], &Policy::workspace())
    }

    fn rules_of(f: &[Finding]) -> Vec<(usize, RuleId)> {
        f.iter().map(|x| (x.line, x.rule)).collect()
    }

    #[test]
    fn locks_and_spawn_are_banned() {
        let src = "use std::sync::Mutex;\npub fn f() {\n    std::thread::spawn(|| {});\n}\n";
        let f = run(src);
        assert_eq!(
            rules_of(&f),
            vec![(1, RuleId::ShardLock), (3, RuleId::ThreadSpawn)]
        );
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let units = vec![parse_unit(
            "crates/sim/src/metrics.rs",
            "pub fn f() {\n    std::thread::spawn(|| {});\n}\n",
        )];
        assert_eq!(check(&units, &Policy::workspace()), vec![]);
    }
}
