//! Cycle-level congestion engine with dynamic fault injection.
//!
//! The static routing kernels in [`crate::routing`] answer *feasibility*
//! questions — can this packet reach its target, and over how many hops? The
//! paper's slowdown claims (SIM1/SIM2, the Section V "factor of 2" port
//! argument) are about *time under contention*, which feasibility cannot
//! see. This module adds the missing time dimension:
//!
//! * Packets advance **one hop per cycle** along a precomputed physical
//!   route (oblivious de Bruijn, or a BFS re-route after a fault).
//! * Each **directed link carries at most one flit per cycle**.
//! * Per-node output arbitration follows the machine's
//!   [`PortModel`](crate::machine::PortModel):
//!   `SinglePort` processors send at most one flit per cycle in total
//!   (injection or forwarding), `MultiPort` processors send one per incident
//!   link — exactly the distinction Section V prices at "a factor of 2".
//! * Blocked packets wait in store-and-forward buffers. Under the default
//!   [`FlowControl::Infinite`] those buffers are unbounded FIFO queues;
//!   under [`FlowControl::CreditBased`] every directed link owns a bounded
//!   downstream input buffer guarded by a credit counter — a flit advances
//!   only when the downstream buffer has a free slot, and the credit
//!   returns one cycle after the slot drains. Bounded buffers are what let
//!   the engine reproduce saturation *collapse* (tree saturation,
//!   head-of-line blocking, and — on a single channel — genuine buffer
//!   deadlock, reported via [`CongestionReport::deadlocked`]), not just
//!   saturation throughput.
//! * [`FlowControl::VirtualChannel`] multiplexes `vcs` independent
//!   dateline-ordered virtual channels over each directed link (each with
//!   its own credit-guarded buffer). They rule deadlock out when `vcs`
//!   exceeds the most non-final descents of any route (`vcs ≥ h` on the
//!   identity-placed `B(2,h)`); with fewer the channel dependencies can
//!   form a cycle and a run can deadlock, which the detector reports.
//!   [`Switching::Wormhole`] streams multi-flit packets cut-through with
//!   the link held for the whole flit train. The full design — dateline
//!   deadlock-freedom argument and its bound included — is written up in
//!   `docs/CONGESTION.md`.
//!
//! Arbitration is deterministic oldest-first: packets are visited in age
//! order every cycle, and a packet claims its output port and link for the
//! cycle when it moves. Since the first examined packet always finds all
//! resources free, at least one flit moves per cycle and every run
//! terminates within `total-remaining-hops` cycles (or proves a deadlock).
//!
//! **Event-driven wake-list core.** Near saturation — where the offered-load
//! sweeps spend almost all their cycles — most live packets are blocked on a
//! full downstream buffer, and rescanning them every cycle is wasted work.
//! The engine therefore only examines packets whose gating resources could
//! have changed since their last examination:
//!
//! * A packet that fails on a **multi-cycle resource** (zero credits on its
//!   next link's buffer) parks on that link slot's blocked queue (an
//!   intrusive list over `blocked_head`/`blocked_next`) and is woken only
//!   when a credit returns to the slot — on ordinary credit return, on a
//!   fault kill releasing a dead processor's buffers, or on a drop/delivery
//!   draining the slot.
//! * A packet that fails on a **per-cycle resource** (output port taken
//!   under `SinglePort`, link claimed by an older packet) is re-examined
//!   the next cycle, when that claim expires — the cycle boundary *is* the
//!   release event for per-cycle resources, so their "blocked queue" is the
//!   next cycle's examination list.
//! * Rare whole-network events (a fault firing, a recovery driver
//!   re-targeting in-flight packets) wake every parked packet, because they
//!   can invalidate any packet's next hop.
//!
//! Because parked packets provably cannot move (credits only decrease within
//! a cycle), skipping them leaves every claim decision — and therefore every
//! report — what a full rescan of every live packet would produce. The
//! oracle for that is a reference model of the cycle rules in the test
//! crate (`tests/model.rs`), a plain rescan with materialized paths; a
//! differential property suite (`tests/tests/wakelist_differential.rs`)
//! holds the engine to it report by report, packet by packet and cycle by
//! cycle. Wake-list bookkeeping aside, every packet's cached entry carries its next
//! hop's CSR link slot next to the node (one packed `u64`): materialized
//! paths store them from load, and implicit routes read them from a per-load
//! successor-slot table, so no move runs a neighbour search.
//!
//! **Dynamic faults.** A fault schedule ([`ShardedSim::schedule_fault`])
//! kills processors *mid-run*. The engine holds it once, whatever the shard
//! count, and a cycle's kills fire first, before any credit, injection or
//! move of that cycle. A packet sitting on a dying node is lost with it.
//! A packet that later tries to enter a dead node reacts according to the
//! configured [`FaultResponse`]: dropped, or re-routed in place by a BFS
//! through the surviving machine. On a fault-tolerant machine the driver
//! [`run_recovery`] goes further: it performs the paper's online
//! reconfiguration (`reconfigure_verified`) the cycle the fault fires,
//! re-targets every in-flight packet at the logical target's new physical
//! image, and drains — measuring *recovery latency*, not just post-hoc
//! embeddability.
//!
//! A second schedule kills individual **directed links** (CSR edge slots)
//! mid-run — [`ShardedSim::schedule_link_faults`] over an
//! [`ftdb_core::LinkFaultSet`] (`LinkFaultSet::from_links` names single
//! links). A link kill is a *local* wake event: only the packets
//! parked on the dead slot's gates are flushed to re-examination (every
//! other packet's movability is untouched), the hazard check extends to
//! `dead_link[slot]`, and re-route BFS avoids dead slots via an edge
//! filter. Packets buffered downstream of a dead link keep flying — the
//! link died, not the receiving buffer — so credit conservation holds per
//! gate with no eviction scan. For traffic injected before the kill,
//! killing every slot incident to a node is report-identical to killing
//! the node itself (a differential test pins this; the models differ only
//! for *later* injections at that node, whose processor stays alive under
//! link faults), and node-fault-only schedules take exactly the
//! pre-link-fault code path. The reliability story — correlated bursts, Monte-Carlo
//! delivery/slowdown curves — is written up in `docs/RELIABILITY.md`.
//!
//! The steady-state cycle loop is allocation-free after loading: claims
//! are epoch-stamped arrays indexed by CSR edge slot, the examination
//! lists and blocked queues are sized at load, and
//! [`ShardedSim::clear_workload`] lets one warmed engine serve a whole
//! sweep of different workloads without growing again.
//!
//! **Implicit O(1) routing.** Oblivious de Bruijn routes are shift-register
//! walks: hop `i` of the route from `s` to `t` is computable in O(1) from
//! the current label and the remaining target bits, so the engine does not
//! need to materialize paths at all. [`implicit_route`] holds the de Bruijn
//! digit-shift next-hop generator and the implicit context every shard core
//! shares: the load's placement plus a successor-slot table naming the link
//! of every logical shift edge. A packet carries O(1) route state (a packed
//! current entry plus a two-word shift register) instead of O(h) path
//! entries, which is what makes million-node runs fit in memory. Mid-run
//! re-routes, and a second load through a different placement, fall back to
//! materialized segments in the path arena of the shard core hosting the
//! packet.
//!
//! **One kernel, any shard count.** [`ShardedSim`] partitions the CSR
//! graph along the de Bruijn label-prefix cut, gives each shard its own
//! wake-list core, and exchanges boundary flits/credits at cycle barriers
//! with a deterministic (shard-id, packet-age) merge. The single-table
//! engine [`CongestionSim`] is that kernel with one shard (so no barrier
//! traffic), and the [`CongestionReport`] is byte-identical for any shard
//! and thread count. See [`shard`] and the private `boundary` module.

mod boundary;
mod engine;
pub mod implicit_route;
pub mod shard;

pub use engine::{
    measure_open_loop, run_recovery, CongestionConfig, CongestionReport, CongestionSim,
    CycleEvents, FaultResponse, FlowControl, OpenLoopReport, RecoveryOutcome, Switching,
};
pub use shard::ShardedSim;
