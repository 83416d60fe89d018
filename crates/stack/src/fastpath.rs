//! The fast-path decision cache in front of the `ip_rt_route()`
//! reproduction.
//!
//! Resolving a locally-originated send walks every module's
//! `route_override` hook and then the kernel routing table — for a mobile
//! host that means a Mobile Policy Table lookup, a route lookup for the
//! chosen target, a source-address choice and possibly an encapsulation
//! decision, all per packet. This cache memoizes the *complete* decision
//! (egress interface + source address + next hop + encapsulation) keyed by
//! `(destination, source selection, forced interface)`, so steady-state
//! traffic to a correspondent pays one hash probe instead.
//!
//! # Invalidation
//!
//! Entries carry no lifetime of their own. Instead every lookup presents a
//! **validity token** — a plain wrapping sum of generation counters over
//! the inputs that may feed any decision (kernel routes, each interface's
//! addresses and power, per-module `route_generation()`s; see
//! `ip::fastpath_token`). A token mismatch flushes the whole cache before
//! the lookup proceeds. Because re-registration, care-of address changes,
//! policy updates, probe feedback and route changes each bump a component
//! of the token, any of them invalidates instantly — without the mutating
//! code needing a handle on the cache.
//!
//! A VIF tunnel binding feeds the decision for its own home address only,
//! so a binding change does not move the token: `host::set_tunnel`, the
//! one setter, hands the home to [`FastPath::forget`] as it changes it. A
//! home agent's cache thus survives registration churn.
//!
//! # Statistics coherence
//!
//! The Mobile Policy Table charges a per-mode counter on every lookup, and
//! those counters appear in every experiment's metrics sidecar. A cached
//! entry therefore carries the exact counter cell its decision charged
//! ([`CacheEntry::on_hit`]), bumped on every replay — per-mode totals are
//! identical whether the cache is hot or cold.
//!
//! # Layout
//!
//! The table is one [`IdHashMap`]: the workspace's unkeyed hasher, which
//! the policy table and the ARP cache use too. It replaced a
//! struct-of-arrays table of packed 128-bit keys with its own multiply
//! hash and linear probing, built when `HashMap`'s SipHash made a hit
//! cost 26 ns. Under `IdHasher`, with [`FastPath::lookup`] inlined, a
//! warm resolution is no slower through the map than it was through that
//! table, and a flush resets one control byte per bucket where the table
//! rewrote every key and payload slot.

use std::net::Ipv4Addr;

use mosquitonet_sim::{Counter, IdHashMap};

use crate::iface::IfaceId;
use crate::proto::{RouteDecision, SourceSel};

/// Everything that distinguishes one route resolution from another:
/// destination, the application's source selection, and a forced egress
/// interface if the application pinned one.
pub type CacheKey = (Ipv4Addr, SourceSel, Option<IfaceId>);

/// Entries beyond this count flush the cache (a safety valve against
/// pathological workloads, not a tuning knob — the s1 scale experiment's
/// ~10k correspondents fit comfortably).
const MAX_ENTRIES: usize = 65_536;

/// One memoized resolution.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The complete decision to replay.
    pub decision: RouteDecision,
    /// Counter charged on every replay (per-mode policy statistics).
    pub on_hit: Option<Counter>,
}

mosquitonet_sim::counters! {
    /// Counters the cache exposes under `{host}/fastpath/`.
    pub struct FastPathStats {
        /// Lookups answered from the cache.
        pub hit => "hit",
        /// Lookups that fell through to full resolution.
        pub miss => "miss",
        /// Whole-cache flushes (validity-token changes and overflows).
        pub invalidate => "invalidate",
    }
}

/// The per-host decision cache. Lives on `Host` beside the module list;
/// consulted and filled by `ip::resolve_route`.
#[derive(Debug, Default)]
pub struct FastPath {
    /// The memoized decisions, all resolved under `token`.
    entries: IdHashMap<CacheKey, CacheEntry>,
    /// The validity token the current entries were resolved under.
    token: u64,
    /// Hit/miss/invalidate counters, bound into the registry per host.
    pub stats: FastPathStats,
}

impl FastPath {
    /// Creates an empty cache.
    pub fn new() -> FastPath {
        FastPath::default()
    }

    /// Looks up `key` under validity token `token`. A token change flushes
    /// the cache first. Charges `hit` or `miss`, and on a hit replays the
    /// entry's `on_hit` counter charge.
    ///
    /// Inlined so that `ip::resolve_route` hashes the key from registers:
    /// through a call, the derived `Hash` reads the tuple back from the
    /// caller's stack, and a warm resolution took 36 ns instead of 11.
    #[inline]
    pub fn lookup(&mut self, token: u64, key: &CacheKey) -> Option<RouteDecision> {
        if token != self.token {
            self.flush();
            self.token = token;
        }
        let Some(entry) = self.entries.get(key) else {
            self.stats.miss.inc();
            return None;
        };
        self.stats.hit.inc();
        if let Some(counter) = &entry.on_hit {
            counter.inc();
        }
        Some(entry.decision)
    }

    /// Memoizes a freshly-resolved decision under `token`, unless that
    /// differs from the last [`FastPath::lookup`]'s (`ip::resolve_route`
    /// never does that; the check guards outside callers). Overflow past
    /// the size cap flushes everything first.
    pub fn insert(
        &mut self,
        token: u64,
        key: CacheKey,
        decision: RouteDecision,
        on_hit: Option<Counter>,
    ) {
        if token != self.token {
            return;
        }
        if self.entries.len() >= MAX_ENTRIES {
            self.flush();
        }
        self.entries.insert(key, CacheEntry { decision, on_hit });
    }

    /// Drops every entry whose destination is `dst`, whatever its source
    /// selection. Counts nothing: `invalidate` counts whole-cache flushes.
    pub fn forget(&mut self, dst: Ipv4Addr) {
        self.entries.retain(|key, _| key.0 != dst);
    }

    /// Drops every entry, keeping the map's capacity, and counts one
    /// `invalidate` if there was anything to drop.
    pub fn flush(&mut self) {
        if !self.entries.is_empty() {
            self.entries.clear();
            self.stats.invalidate.inc();
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no decisions are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(iface: usize) -> RouteDecision {
        RouteDecision {
            iface: IfaceId(iface),
            src: Ipv4Addr::new(36, 8, 0, 42),
            next_hop: Ipv4Addr::new(36, 8, 0, 1),
            encap: None,
        }
    }

    /// Correspondent `i` of the 36.22.0.0/16 block.
    fn key(i: u32) -> CacheKey {
        (
            Ipv4Addr::from(0x2416_0000 + i),
            SourceSel::Unspecified,
            None,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut fp = FastPath::new();
        assert_eq!(fp.lookup(7, &key(1)), None);
        fp.insert(7, key(1), decision(0), None);
        assert_eq!(fp.lookup(7, &key(1)), Some(decision(0)));
        assert_eq!(fp.stats.miss.get(), 1);
        assert_eq!(fp.stats.hit.get(), 1);
        assert_eq!(fp.stats.invalidate.get(), 0);
    }

    #[test]
    fn token_change_flushes() {
        let mut fp = FastPath::new();
        fp.lookup(7, &key(1));
        fp.insert(7, key(1), decision(0), None);
        assert_eq!(fp.lookup(8, &key(1)), None, "new token invalidates");
        assert_eq!(fp.stats.invalidate.get(), 1);
        assert!(fp.is_empty());
    }

    #[test]
    fn stale_insert_is_dropped() {
        let mut fp = FastPath::new();
        fp.lookup(7, &key(1));
        fp.insert(6, key(1), decision(0), None);
        assert!(fp.is_empty(), "insert under an old token is ignored");
    }

    #[test]
    fn hit_replays_the_on_hit_counter() {
        let mut fp = FastPath::new();
        let charged = Counter::new();
        fp.lookup(7, &key(1));
        fp.insert(7, key(1), decision(0), Some(charged.clone()));
        fp.lookup(7, &key(1));
        fp.lookup(7, &key(1));
        assert_eq!(charged.get(), 2, "one charge per hit");
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut fp = FastPath::new();
        fp.lookup(7, &key(1));
        fp.insert(7, key(1), decision(0), None);
        let pinned = (
            Ipv4Addr::new(36, 22, 0, 1),
            SourceSel::Addr(Ipv4Addr::new(36, 135, 0, 9)),
            None,
        );
        assert_eq!(fp.lookup(7, &pinned), None, "source selection is keyed");
        let forced = (
            Ipv4Addr::new(36, 22, 0, 1),
            SourceSel::Unspecified,
            Some(IfaceId(2)),
        );
        assert_eq!(fp.lookup(7, &forced), None, "forced iface is keyed");
        assert_eq!(fp.lookup(7, &key(1)), Some(decision(0)));
    }

    #[test]
    fn resizing_keeps_entries_and_replaces_in_place() {
        let mut fp = FastPath::new();
        for i in 0..1000 {
            fp.lookup(7, &key(i));
            fp.insert(7, key(i), decision((i % 7) as usize), None);
        }
        assert_eq!(fp.len(), 1000);
        for i in 0..1000 {
            assert_eq!(fp.lookup(7, &key(i)), Some(decision((i % 7) as usize)));
        }
        // Re-inserting an existing key replaces its payload in place.
        fp.insert(7, key(0), decision(5), None);
        assert_eq!(fp.len(), 1000);
        assert_eq!(fp.lookup(7, &key(0)), Some(decision(5)));
        assert_eq!(fp.stats.invalidate.get(), 0, "growth is not invalidation");
    }

    #[test]
    fn the_size_cap_flushes_before_the_next_insert() {
        let mut fp = FastPath::new();
        let cap = MAX_ENTRIES as u32;
        fp.lookup(7, &key(0));
        for i in 0..cap {
            fp.insert(7, key(i), decision(0), None);
        }
        assert_eq!(fp.len(), MAX_ENTRIES);
        assert_eq!(fp.stats.invalidate.get(), 0);
        fp.insert(7, key(cap), decision(1), None);
        assert_eq!(fp.len(), 1, "the bound flushes, then the insert lands");
        assert_eq!(fp.stats.invalidate.get(), 1);
        assert_eq!(fp.lookup(7, &key(cap)), Some(decision(1)));
    }

    #[test]
    fn forget_drops_one_destination_under_every_source_selection() {
        let mut fp = FastPath::new();
        let pinned = (
            key(1).0,
            SourceSel::Addr(Ipv4Addr::new(36, 135, 0, 9)),
            None,
        );
        fp.lookup(7, &key(1));
        for k in [key(1), pinned, key(2)] {
            fp.insert(7, k, decision(0), None);
        }
        fp.forget(key(1).0);
        assert_eq!(fp.len(), 1);
        assert_eq!(fp.lookup(7, &key(1)), None);
        assert_eq!(fp.lookup(7, &pinned), None);
        assert_eq!(fp.lookup(7, &key(2)), Some(decision(0)));
        assert_eq!(fp.stats.invalidate.get(), 0, "forgetting is not a flush");
    }

    #[test]
    fn explicit_flush_counts_once() {
        let mut fp = FastPath::new();
        fp.lookup(7, &key(1));
        fp.insert(7, key(1), decision(0), None);
        fp.flush();
        fp.flush();
        assert_eq!(fp.stats.invalidate.get(), 1, "empty flush is free");
    }
}
