//! Boundary-exchange messages for the sharded congestion engine.
//!
//! [`super::shard::ShardedSim`] partitions nodes (and therefore CSR link
//! slots) into contiguous ranges, one per shard. Within a cycle every
//! arbitration resource a packet contends for — its node's output port, its
//! outgoing link's claim stamp, that link's downstream buffer credits — is
//! owned by the shard hosting the packet's *current* node, so shards run
//! their cycle phases without synchronisation. The only cross-shard effects
//! are deferred to the cycle barrier, carried by the two message kinds
//! here:
//!
//! * a [`Flit`]: a packet crossed a shard boundary and its O(1) route state
//!   (plus, for the rare re-routed packet, its remaining path, carried in
//!   the batch's path words) must move to the destination shard before the
//!   next cycle's examination pass;
//! * a credit return: a packet vacated (or drained) an input buffer whose
//!   link slot belongs to another shard. Every core already defers each
//!   credit return by `packet_flits` cycles (its timed credit FIFO — at
//!   least one full cycle), so shipping a return at the barrier
//!   and re-enqueuing it at the owner with the same due cycle changes
//!   nothing observable.
//!
//! Every shard core keeps one [`BoundaryBatch`] per peer shard. At the
//! barrier each sender's batch for a destination is swapped with the
//! destination's batch for that sender, which the destination adopts in
//! ascending source order and empties in place: nothing is copied, and
//! nothing is allocated once the buffers have grown. The merge order is
//! fixed, which makes the report byte-identical for any shard count and
//! any thread count. Flits within a batch are already in examination order
//! (ascending packet id = age), so the merge gives a total (shard-id,
//! packet-age) order.

/// A packet mid-migration: everything the destination shard needs to host
/// it. `entry` is already advanced to the node it just arrived on (the
/// source shard computes the O(1) shift-register step before sending, since
/// the graph is global).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Flit {
    /// Global packet id (ids are global across shards; age order = id
    /// order everywhere).
    pub id: u32,
    /// Packed route entry at the arrival node (node, next-hop CSR slot,
    /// DELIVERS flag).
    pub entry: u64,
    /// Shift-register position after the pending hop (implicit packets).
    pub pos: u32,
    /// Sentinel-encoded remaining target bits (implicit packets).
    pub rem: u32,
    /// Global gate id (`slot * vcs + vc`) of the input buffer the packet
    /// occupies (owned by the *source* shard; it drains back there when the
    /// packet next moves), or `u32::MAX` when flow control is infinite.
    pub occupied_slot: u32,
    /// The packet's current virtual channel (0 outside VC flow control).
    pub vc: u8,
    /// Length of the remaining packed path of a materialized (re-routed)
    /// packet, starting at the arrival node; the words follow the previous
    /// flits' words in [`BoundaryBatch::path_words`]. 0 for implicit
    /// packets, which need no path at all.
    pub path_len: u32,
}

/// One shard's cycle output destined for one other shard, adopted by that
/// shard at the cycle barrier.
#[derive(Debug, Default)]
pub(crate) struct BoundaryBatch {
    /// Packets that crossed into the destination shard this cycle, in age
    /// order.
    pub flits: Vec<Flit>,
    /// The remaining paths of the materialized flits, concatenated in flit
    /// order (`Flit::path_len` words each).
    pub path_words: Vec<u64>,
    /// Global gate ids (`slot * vcs + vc`) owned by the destination shard
    /// whose buffers drained this cycle (one entry per returned credit; a
    /// gate may repeat).
    pub credits: Vec<u32>,
}

impl BoundaryBatch {
    /// Empties the batch, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.flits.clear();
        self.path_words.clear();
        self.credits.clear();
    }
}

/// The contiguous node partition: `node`'s shard among `shards` shards of
/// an `n`-node machine. With `shards = 2^k`, contiguous label ranges are
/// exactly the de Bruijn label-prefix cut: shard `s` owns the labels whose
/// top `k` digits spell `s`. The cut does not keep hops local. Routing
/// shifts left (`implicit_route::shift_step`), so every hop drops the top
/// digit, and a `k`-digit prefix survives a hop only when the label's top
/// `k + 1` digits are equal: half the labels at 2 shards, a quarter at 4.
/// On the `reliability_grid` benchmark grid, 45% of moved flits cross a
/// shard boundary at 2 shards and 67% at 4.
#[inline]
// analyzer: alloc-free
pub(crate) fn shard_of(node: usize, n: usize, shards: usize) -> usize {
    debug_assert!(node < n);
    node * shards / n
}

/// First node of `shard` under the same partition (the range is
/// `[shard_floor(s), shard_floor(s + 1))`).
#[inline]
pub(crate) fn shard_floor(shard: usize, n: usize, shards: usize) -> usize {
    // Smallest `node` with `node * shards >= shard * n`.
    (shard * n).div_ceil(shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_exhaustive() {
        for n in [1usize, 2, 7, 64, 1 << 10] {
            for shards in [1usize, 2, 3, 4, 7] {
                let mut seen = 0;
                for s in 0..shards {
                    let lo = shard_floor(s, n, shards);
                    let hi = shard_floor(s + 1, n, shards);
                    assert!(lo <= hi);
                    for node in lo..hi {
                        assert_eq!(shard_of(node, n, shards), s, "n={n} shards={shards}");
                        seen += 1;
                    }
                }
                assert_eq!(seen, n, "every node in exactly one shard");
                assert_eq!(shard_floor(shards, n, shards), n);
            }
        }
    }
}
