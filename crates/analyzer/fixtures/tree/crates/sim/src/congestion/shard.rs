// Seeded sharded-engine concurrency violations: an unjoined spawn and a
// lock.

/// Drives one worker round; both `let` lines below break a rule.
pub fn drive(cores: &mut [u64]) -> u64 {
    let worker = std::thread::spawn(move || 1u64);
    let guard = std::sync::Mutex::new(0u64);
    let mut cycles = 0u64;
    for core in cores.iter() {
        cycles += *core;
    }
    let _ = (worker, guard);
    cycles
}
