//! The sharded home-agent fleet's shard directory.
//!
//! The paper runs one home agent per home network; A2 measures that
//! agent saturating at ~675 registrations/second (1.48 ms of serialized
//! service time). To serve orders of magnitude more mobile hosts, the
//! binding table is partitioned across a *fleet* of home-agent shards —
//! each shard an (active, standby) pair wired together with the
//! existing `replicate_to` binding-replica stream — and every party
//! that touches a registration resolves the owning shard through the
//! [`ShardDirectory`] defined here.
//!
//! Ownership uses rendezvous (highest-random-weight) hashing: the owner
//! of a home address is the shard whose mixed `(address, shard)` weight
//! is largest. This gives the two properties the fleet leans on:
//!
//! * **Total** — any non-empty directory resolves every IPv4 address to
//!   exactly one shard; there are no unassigned gaps and no overlap.
//! * **Stable under resize** — growing the fleet from N to N+1 shards
//!   moves *only* the addresses whose new maximum lands on the added
//!   shard; every other address keeps its owner (no global reshuffle,
//!   unlike modulo hashing). Shrinking reassigns only the removed
//!   shard's addresses. The `directory_*` proptests pin both.
//!
//! The directory is configuration, not a message: each home agent gets
//! it through `HomeAgentConfig::fleet` and denies registrations it
//! assigns elsewhere. A sender learns nothing from the wire but that
//! denial; it re-sends to its own shard's active agent.

use std::net::Ipv4Addr;

use mosquitonet_sim::rng::mix64;

/// One fleet shard's row in the directory: its stable id and the
/// (active, standby) home-agent pair serving it.
///
/// # Examples
///
/// ```
/// use mosquitonet_core::DirectoryEntry;
/// use std::net::Ipv4Addr;
///
/// let entry = DirectoryEntry {
///     shard: 0,
///     active: Ipv4Addr::new(36, 135, 0, 2),
///     standby: Ipv4Addr::new(36, 135, 0, 3),
/// };
/// assert_eq!(entry.shard, 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirectoryEntry {
    /// Stable shard id (never reused across resizes within an epoch).
    pub shard: u16,
    /// The shard's active home agent — where registrations go.
    pub active: Ipv4Addr,
    /// The shard's standby, fed by the active's binding-replica stream.
    pub standby: Ipv4Addr,
}

/// The fleet shard map: resolves any home address to its owning shard
/// deterministically, on every host, with no coordination.
///
/// # Examples
///
/// ```
/// use mosquitonet_core::{DirectoryEntry, ShardDirectory};
/// use std::net::Ipv4Addr;
///
/// let dir = ShardDirectory::new(
///     1,
///     (0..4).map(|s| DirectoryEntry {
///         shard: s,
///         active: Ipv4Addr::new(10, s as u8, 0, 2),
///         standby: Ipv4Addr::new(10, s as u8, 0, 3),
///     }),
/// );
/// let home = Ipv4Addr::new(36, 135, 0, 9);
/// // Resolution is total and deterministic: same answer everywhere.
/// let owner = dir.resolve(home);
/// assert!(dir.entry(owner).is_some());
/// assert_eq!(dir.resolve(home), owner);
/// // The active agent for a home address is the owner's active row.
/// assert_eq!(dir.active_for(home), dir.entry(owner).unwrap().active);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardDirectory {
    epoch: u16,
    entries: Vec<DirectoryEntry>,
}

/// Rendezvous weight of `(home, shard)`: a SplitMix64-style finalizer
/// over the packed pair. Depends only on the address and the stable
/// shard id — never on the directory's size or order — which is what
/// makes resolution stable under resize.
#[inline]
fn weight(home: Ipv4Addr, shard: u16) -> u64 {
    mix64((u64::from(u32::from(home)) << 16 | u64::from(shard)) ^ 0x9E37_79B9_7F4A_7C15u64)
}

impl ShardDirectory {
    /// Builds a directory at `epoch` from `entries`.
    ///
    /// Panics when `entries` is empty (an empty fleet cannot own
    /// anything) or when two entries claim the same shard id.
    pub fn new(epoch: u16, entries: impl IntoIterator<Item = DirectoryEntry>) -> ShardDirectory {
        let entries: Vec<DirectoryEntry> = entries.into_iter().collect();
        assert!(!entries.is_empty(), "a fleet needs at least one shard");
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                assert_ne!(a.shard, b.shard, "duplicate shard id {}", a.shard);
            }
        }
        ShardDirectory { epoch, entries }
    }

    /// The directory's epoch: bumped by the operator on every fleet
    /// resize, so stale configurations are recognizable.
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Never true — construction rejects empty fleets — but clippy
    /// (and callers) like `len` to come with it.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The row for shard `shard`, if it is part of the fleet.
    pub fn entry(&self, shard: u16) -> Option<&DirectoryEntry> {
        self.entries.iter().find(|e| e.shard == shard)
    }

    /// Resolves `home` to its owning shard id: the highest-weight shard,
    /// ties broken toward the smaller id (ties are astronomically rare
    /// but the rule must still be deterministic).
    #[inline]
    pub fn resolve(&self, home: Ipv4Addr) -> u16 {
        self.entries
            .iter()
            .map(|e| (weight(home, e.shard), e.shard))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .expect("directory is never empty")
            .1
    }

    /// The active home agent serving `home`'s shard.
    pub fn active_for(&self, home: Ipv4Addr) -> Ipv4Addr {
        let shard = self.resolve(home);
        self.entry(shard).expect("resolved shard exists").active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: u16) -> ShardDirectory {
        ShardDirectory::new(
            1,
            (0..n).map(|s| DirectoryEntry {
                shard: s,
                active: Ipv4Addr::new(10, s as u8, 0, 2),
                standby: Ipv4Addr::new(10, s as u8, 0, 3),
            }),
        )
    }

    /// Ownership of every home in the S2 goldens hangs off the rendezvous
    /// weights, so the shared `mix64` must keep resolving exactly so.
    #[test]
    fn resolution_is_pinned() {
        let dir = fleet(4);
        let owners: Vec<u16> = (0..16u32)
            .map(|i| dir.resolve(Ipv4Addr::from(u32::from(Ipv4Addr::new(36, 0, 0, 1)) + i)))
            .collect();
        assert_eq!(owners, [3, 2, 1, 3, 0, 1, 1, 0, 2, 3, 2, 2, 0, 0, 3, 2]);
    }

    #[test]
    fn resolution_is_total_and_within_the_fleet() {
        let dir = fleet(4);
        for i in 0..10_000u32 {
            let home = Ipv4Addr::from(0x2487_0000 + i);
            let owner = dir.resolve(home);
            assert!(dir.entry(owner).is_some(), "{home} resolved off-fleet");
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        let dir = fleet(8);
        let mut counts = [0u32; 8];
        for i in 0..80_000u32 {
            counts[dir.resolve(Ipv4Addr::from(0x2400_0000 + i)) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (7_000..13_000).contains(&c),
                "shard {s} owns {c} of 80000 — rendezvous spread broken"
            );
        }
    }

    #[test]
    fn growing_the_fleet_moves_addresses_only_to_the_new_shard() {
        let small = fleet(4);
        let big = fleet(5);
        for i in 0..20_000u32 {
            let home = Ipv4Addr::from(0x2487_0000 + i);
            let (before, after) = (small.resolve(home), big.resolve(home));
            assert!(
                before == after || after == 4,
                "{home} moved {before} -> {after}: resize reshuffled an unrelated shard"
            );
        }
    }

    #[test]
    fn shrinking_reassigns_only_the_removed_shards_addresses() {
        let big = fleet(5);
        let small = fleet(4);
        for i in 0..20_000u32 {
            let home = Ipv4Addr::from(0x2487_0000 + i);
            let before = big.resolve(home);
            if before != 4 {
                assert_eq!(small.resolve(home), before);
            }
        }
    }

    #[test]
    fn lookup_helpers_agree_with_resolve() {
        let dir = fleet(3);
        let home = Ipv4Addr::new(36, 135, 0, 9);
        let e = dir.entry(dir.resolve(home)).unwrap();
        assert_eq!(dir.active_for(home), e.active);
        assert_eq!(dir.len(), 3);
        assert!(!dir.is_empty());
        assert_eq!(dir.epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_fleet_rejected() {
        let _ = ShardDirectory::new(0, []);
    }

    #[test]
    #[should_panic(expected = "duplicate shard id")]
    fn duplicate_ids_rejected() {
        let e = DirectoryEntry {
            shard: 1,
            active: Ipv4Addr::UNSPECIFIED,
            standby: Ipv4Addr::UNSPECIFIED,
        };
        let _ = ShardDirectory::new(0, [e, e]);
    }
}
