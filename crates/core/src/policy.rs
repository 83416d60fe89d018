//! The Mobile Policy Table (§3.2–3.3).
//!
//! "Our modified `ip_rt_route()` uses its Mobile Policy Table combined with
//! the usual routing table lookup to determine how the packet should be
//! treated." The table maps destination prefixes to one of the paper's
//! four send modes, answering the three questions of §3.2: tunnel or
//! direct, encapsulate or not, home or local source address.
//!
//! The table also caches probe results: "If we find that we cannot use the
//! optimization, through failed attempts to 'ping' a correspondent host,
//! then we can revert to using the unoptimized route. We can cache this
//! information for further use in the Mobile Policy Table."

use std::net::Ipv4Addr;

use mosquitonet_sim::{Counter, IdHashMap};
use mosquitonet_wire::{Cidr, LpmTrie};

/// How to send a mobile-IP-subject packet while away from home.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendMode {
    /// The basic protocol: home source address, encapsulated, through the
    /// home agent. "Simple and always works" (§3.2).
    ReverseTunnel,
    /// The triangle-route optimization: home source address, sent directly
    /// to the correspondent. Fails through transit-traffic filters.
    Triangle,
    /// Direct to the correspondent but encapsulated with the local source
    /// address on the outer header — filter-safe, requires the
    /// correspondent to decapsulate IP-in-IP.
    DirectEncap,
    /// The mobile host's *local role*: local source address, no mobility
    /// support at all (web fetches, network-management replies).
    DirectLocal,
}

mosquitonet_sim::counters! {
    /// Per-send-mode lookup counters for the Mobile Policy Table,
    /// conventionally under `{host}/policy`.
    ///
    /// One counter per [`SendMode`], bumped on every
    /// [`MobilePolicyTable::lookup`] according to the mode the lookup
    /// resolved to. Cells are shared: cloning the table (or these stats)
    /// duplicates the handles, not the values, so a registry binding stays
    /// live across table clones.
    pub struct PolicyStats {
        /// Lookups resolved to [`SendMode::ReverseTunnel`].
        pub reverse_tunnel => "lookup.reverse_tunnel",
        /// Lookups resolved to [`SendMode::Triangle`].
        pub triangle => "lookup.triangle",
        /// Lookups resolved to [`SendMode::DirectEncap`].
        pub direct_encap => "lookup.direct_encap",
        /// Lookups resolved to [`SendMode::DirectLocal`].
        pub direct_local => "lookup.direct_local",
    }
}

impl PolicyStats {
    /// The counter bumped when a lookup resolves to `mode`.
    ///
    /// Public so the fast-path decision cache can keep bumping the exact
    /// same cell on cache hits, keeping per-mode totals identical whether
    /// or not a lookup was served from cache.
    pub fn counter_for(&self, mode: SendMode) -> &Counter {
        match mode {
            SendMode::ReverseTunnel => &self.reverse_tunnel,
            SendMode::Triangle => &self.triangle,
            SendMode::DirectEncap => &self.direct_encap,
            SendMode::DirectLocal => &self.direct_local,
        }
    }
}

/// One policy entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyEntry {
    /// Destinations it covers.
    pub dest: Cidr,
    /// How to send to them.
    pub mode: SendMode,
    /// True when this entry was learned dynamically (probe result) rather
    /// than configured; dynamic entries are replaced freely.
    pub learned: bool,
}

/// The Mobile Policy Table: longest-prefix-match over [`PolicyEntry`]s
/// with a configurable default mode.
///
/// Configured prefixes live in a trie; probe-learned policies live in a
/// host map beside it, so a move forgets them with one `clear`. A learned
/// entry is a /32 — the longest possible match — and `set`/`learn` keep
/// at most one entry per prefix across both, so a lookup that finds the
/// destination in the map needs no trie walk.
///
/// # Examples
///
/// ```
/// use mosquitonet_core::{MobilePolicyTable, SendMode};
/// use std::net::Ipv4Addr;
///
/// let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
/// mpt.set("36.8.0.0/24".parse().unwrap(), SendMode::Triangle);
/// assert_eq!(mpt.lookup(Ipv4Addr::new(36, 8, 0, 7)), SendMode::Triangle);
/// assert_eq!(mpt.lookup(Ipv4Addr::new(192, 0, 2, 1)), SendMode::ReverseTunnel);
/// ```
#[derive(Clone, Debug)]
pub struct MobilePolicyTable {
    /// Configured entries in insertion order (diagnostics dumps).
    entries: Vec<PolicyEntry>,
    /// Longest-prefix-match index over the configured entries.
    trie: LpmTrie<SendMode>,
    /// Probe-learned policies, one per host. Never holds a host that the
    /// trie holds as a configured /32.
    learned: IdHashMap<Ipv4Addr, SendMode>,
    default_mode: SendMode,
    generation: u64,
    /// Per-mode lookup counters (shared cells; see [`PolicyStats`]).
    pub stats: PolicyStats,
}

impl MobilePolicyTable {
    /// Creates a table whose default is `default_mode`.
    pub fn new(default_mode: SendMode) -> MobilePolicyTable {
        MobilePolicyTable {
            entries: Vec::new(),
            trie: LpmTrie::new(),
            learned: IdHashMap::default(),
            default_mode,
            generation: 0,
            stats: PolicyStats::default(),
        }
    }

    /// A counter bumped on every mutation — insert, probe-learned update,
    /// forget, remove, or default-mode change. The fast-path decision
    /// cache compares it to invalidate stale per-destination decisions.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The default mode for unmatched destinations.
    pub fn default_mode(&self) -> SendMode {
        self.default_mode
    }

    /// Changes the default mode.
    pub fn set_default(&mut self, mode: SendMode) {
        self.default_mode = mode;
        self.generation += 1;
    }

    /// Installs a configured policy for a prefix (replacing any previous
    /// entry for the same prefix, learned or configured).
    pub fn set(&mut self, dest: Cidr, mode: SendMode) {
        if self.trie.insert(dest, mode).is_some() {
            self.entries.retain(|e| e.dest != dest);
        }
        if dest.prefix_len() == 32 {
            self.learned.remove(&dest.network());
        }
        self.entries.push(PolicyEntry {
            dest,
            mode,
            learned: false,
        });
        self.generation += 1;
    }

    /// Caches a probe-learned policy for one host (replacing any previous
    /// entry for the host, learned or configured).
    pub fn learn(&mut self, host: Ipv4Addr, mode: SendMode) {
        let dest = Cidr::host(host);
        if self.trie.remove(dest).is_some() {
            self.entries.retain(|e| e.dest != dest);
        }
        self.learned.insert(host, mode);
        self.generation += 1;
    }

    /// Drops all learned entries (e.g. after moving to a new network,
    /// where the old probe results no longer apply).
    pub fn forget_learned(&mut self) {
        if self.learned.is_empty() {
            return;
        }
        self.learned.clear();
        self.generation += 1;
    }

    /// Removes the entry for a prefix; returns whether one existed.
    pub fn remove(&mut self, dest: Cidr) -> bool {
        let removed = if dest.prefix_len() == 32 && self.learned.remove(&dest.network()).is_some() {
            true
        } else if self.trie.remove(dest).is_some() {
            self.entries.retain(|e| e.dest != dest);
            true
        } else {
            false
        };
        if removed {
            self.generation += 1;
        }
        removed
    }

    /// Longest-prefix-match lookup, falling back to the default mode.
    ///
    /// Every lookup bumps the per-mode counter in [`MobilePolicyTable::stats`];
    /// the `route_policy_lookup` bench bounds that overhead at <10 ns.
    pub fn lookup(&self, dst: Ipv4Addr) -> SendMode {
        let mode = self.peek(dst);
        self.stats.counter_for(mode).inc();
        mode
    }

    /// The mode a lookup would resolve to, **without** bumping the per-mode
    /// counters. The fast-path cache uses this to derive which counter a
    /// cached decision must keep charging; traffic accounting must go
    /// through [`MobilePolicyTable::lookup`].
    pub fn peek(&self, dst: Ipv4Addr) -> SendMode {
        if let Some(&mode) = self.learned.get(&dst) {
            return mode;
        }
        self.trie
            .lookup(dst)
            .map_or(self.default_mode, |(_, &mode)| mode)
    }

    /// All entries (diagnostics): the configured ones in insertion order,
    /// then the learned ones in ascending address order.
    pub fn entries(&self) -> Vec<PolicyEntry> {
        let mut learned: Vec<PolicyEntry> = self
            .learned
            .iter()
            .map(|(&host, &mode)| PolicyEntry {
                dest: Cidr::host(host),
                mode,
                learned: true,
            })
            .collect();
        learned.sort_unstable_by_key(|e| e.dest.network());
        self.entries.iter().copied().chain(learned).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Cidr {
        s.parse().unwrap()
    }

    #[test]
    fn default_applies_when_no_entry_matches() {
        let mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        assert_eq!(
            mpt.lookup(Ipv4Addr::new(1, 2, 3, 4)),
            SendMode::ReverseTunnel
        );
    }

    #[test]
    fn longest_prefix_wins() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        mpt.set(c("36.0.0.0/8"), SendMode::Triangle);
        mpt.set(c("36.8.0.0/24"), SendMode::DirectEncap);
        mpt.learn(Ipv4Addr::new(36, 8, 0, 7), SendMode::ReverseTunnel);
        assert_eq!(mpt.lookup(Ipv4Addr::new(36, 1, 1, 1)), SendMode::Triangle);
        assert_eq!(
            mpt.lookup(Ipv4Addr::new(36, 8, 0, 100)),
            SendMode::DirectEncap
        );
        assert_eq!(
            mpt.lookup(Ipv4Addr::new(36, 8, 0, 7)),
            SendMode::ReverseTunnel
        );
    }

    #[test]
    fn learned_entries_forgettable_configured_stay() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        mpt.set(c("36.8.0.0/24"), SendMode::Triangle);
        mpt.learn(Ipv4Addr::new(36, 8, 0, 7), SendMode::ReverseTunnel);
        assert_eq!(mpt.entries().len(), 2);
        mpt.forget_learned();
        assert_eq!(mpt.entries().len(), 1);
        assert_eq!(mpt.lookup(Ipv4Addr::new(36, 8, 0, 7)), SendMode::Triangle);
    }

    #[test]
    fn set_replaces_same_prefix() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        mpt.set(c("36.8.0.0/24"), SendMode::Triangle);
        mpt.set(c("36.8.0.0/24"), SendMode::DirectLocal);
        assert_eq!(mpt.entries().len(), 1);
        assert_eq!(
            mpt.lookup(Ipv4Addr::new(36, 8, 0, 1)),
            SendMode::DirectLocal
        );
    }

    #[test]
    fn learn_replaces_previous_learning() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        let ch = Ipv4Addr::new(36, 8, 0, 7);
        mpt.learn(ch, SendMode::Triangle);
        mpt.learn(ch, SendMode::ReverseTunnel);
        assert_eq!(mpt.entries().len(), 1);
        assert_eq!(mpt.lookup(ch), SendMode::ReverseTunnel);
    }

    #[test]
    fn remove_entry() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        mpt.set(c("36.8.0.0/24"), SendMode::Triangle);
        assert!(mpt.remove(c("36.8.0.0/24")));
        assert!(!mpt.remove(c("36.8.0.0/24")));
        assert_eq!(
            mpt.lookup(Ipv4Addr::new(36, 8, 0, 1)),
            SendMode::ReverseTunnel
        );
    }

    #[test]
    fn peek_resolves_without_charging_counters() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        mpt.set(c("36.8.0.0/24"), SendMode::Triangle);
        assert_eq!(mpt.peek(Ipv4Addr::new(36, 8, 0, 7)), SendMode::Triangle);
        assert_eq!(mpt.stats.triangle.get(), 0, "peek must not count");
        assert_eq!(mpt.lookup(Ipv4Addr::new(36, 8, 0, 7)), SendMode::Triangle);
        assert_eq!(mpt.stats.triangle.get(), 1);
    }

    #[test]
    fn generation_tracks_every_mutation() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        let mut last = mpt.generation();
        let mut assert_bumped = |mpt: &MobilePolicyTable, what: &str| {
            assert!(mpt.generation() > last, "{what} must bump generation");
            last = mpt.generation();
        };
        mpt.set(c("36.8.0.0/24"), SendMode::Triangle);
        assert_bumped(&mpt, "set");
        mpt.learn(Ipv4Addr::new(36, 8, 0, 7), SendMode::DirectEncap);
        assert_bumped(&mpt, "learn");
        mpt.forget_learned();
        assert_bumped(&mpt, "forget_learned");
        mpt.set_default(SendMode::DirectLocal);
        assert_bumped(&mpt, "set_default");
        assert!(mpt.remove(c("36.8.0.0/24")));
        assert_bumped(&mpt, "remove");
        // No-ops leave the generation alone.
        mpt.forget_learned();
        assert!(!mpt.remove(c("36.8.0.0/24")));
        assert_eq!(mpt.generation(), last);
    }

    #[test]
    fn trie_lookup_agrees_with_linear_reference() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        let mut x: u32 = 0x4d6f_1996;
        let mut step = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        };
        let modes = [
            SendMode::ReverseTunnel,
            SendMode::Triangle,
            SendMode::DirectEncap,
            SendMode::DirectLocal,
        ];
        for _ in 0..512 {
            let addr = Ipv4Addr::from(step());
            let mode = modes[(step() % 4) as usize];
            if step() % 3 == 0 {
                mpt.learn(addr, mode);
            } else {
                mpt.set(Cidr::new(addr, (step() % 33) as u8), mode);
            }
        }
        for _ in 0..2048 {
            let dst = Ipv4Addr::from(step());
            let reference = mpt
                .entries()
                .iter()
                .filter(|e| e.dest.contains(dst))
                .max_by_key(|e| e.dest.prefix_len())
                .map(|e| e.mode)
                .unwrap_or(mpt.default_mode());
            assert_eq!(mpt.peek(dst), reference, "disagree on {dst}");
        }
    }

    #[test]
    fn set_default_changes_fallback() {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        mpt.set_default(SendMode::Triangle);
        assert_eq!(mpt.default_mode(), SendMode::Triangle);
        assert_eq!(mpt.lookup(Ipv4Addr::new(9, 9, 9, 9)), SendMode::Triangle);
    }
}
