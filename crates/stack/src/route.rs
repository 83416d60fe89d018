//! The kernel routing table.
//!
//! Deliberately unchanged by mobility: "To keep the implementation simple,
//! we have separated out routing decisions and mobility decisions. This
//! allows us to leave the routing tables unchanged and merely add our
//! Mobile Policy Table" (§3.3). The Mobile Policy Table lives in
//! `mosquitonet-core`; this table is plain longest-prefix-match routing.

use std::cell::Cell;
use std::net::Ipv4Addr;

use mosquitonet_wire::{Cidr, LpmTrie};

use crate::iface::IfaceId;

/// One routing table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteEntry {
    /// Destination prefix.
    pub dest: Cidr,
    /// Next-hop gateway; `None` for directly-connected destinations.
    pub gateway: Option<Ipv4Addr>,
    /// Egress interface.
    pub iface: IfaceId,
    /// Tie-breaker among equal-length prefixes (lower wins).
    pub metric: u32,
}

/// A longest-prefix-match routing table.
///
/// # Examples
///
/// ```
/// use mosquitonet_stack::{RouteTable, RouteEntry, IfaceId};
/// use std::net::Ipv4Addr;
///
/// let mut rt = RouteTable::new();
/// rt.add(RouteEntry {
///     dest: "36.135.0.0/24".parse().unwrap(),
///     gateway: None,
///     iface: IfaceId(0),
///     metric: 0,
/// });
/// rt.add(RouteEntry {
///     dest: "0.0.0.0/0".parse().unwrap(),
///     gateway: Some(Ipv4Addr::new(36, 135, 0, 1)),
///     iface: IfaceId(0),
///     metric: 0,
/// });
/// let local = rt.lookup(Ipv4Addr::new(36, 135, 0, 50)).unwrap();
/// assert_eq!(local.gateway, None);
/// let far = rt.lookup(Ipv4Addr::new(192, 0, 2, 1)).unwrap();
/// assert_eq!(far.gateway, Some(Ipv4Addr::new(36, 135, 0, 1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// Insertion-ordered entries, the source of truth for dumps and for
    /// tie-break order within a prefix.
    entries: Vec<RouteEntry>,
    /// Longest-prefix-match index: one bucket per distinct prefix, each
    /// bucket holding that prefix's entries in insertion order.
    trie: LpmTrie<Vec<RouteEntry>>,
    generation: u64,
    /// Recent answers of [`RouteTable::lookup`].
    memo: Memo,
}

/// Slots in a table's lookup memo (a power of two): the most that keep
/// `Host` under 1 024 bytes (`docs/limits.md`).
const ROUTE_MEMO_SLOTS: usize = 4;

/// One remembered lookup: `dst`'s answer while the table was at
/// `generation`.
#[derive(Clone, Copy, Debug, Default)]
struct MemoSlot {
    generation: u64,
    dst: u32,
    route: Option<RouteEntry>,
}

/// A direct-mapped memo of recent lookups, one slot per destination hash.
/// A slot answers only while its generation is the table's, so a mutation
/// forgets every slot by bumping the generation. The default slots claim
/// "`0.0.0.0` has no route" at generation 0, which is true: the table is
/// empty until its first `add` moves the generation on.
#[derive(Clone, Debug, Default)]
struct Memo([Cell<MemoSlot>; ROUTE_MEMO_SLOTS]);

impl Memo {
    #[inline]
    fn slot(&self, dst: u32) -> &Cell<MemoSlot> {
        let hash = dst.wrapping_mul(0x9E37_79B9);
        &self.0[(hash >> (32 - ROUTE_MEMO_SLOTS.trailing_zeros())) as usize]
    }
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// A counter bumped on every mutation; the fast-path decision cache
    /// compares it to detect route changes without per-call hooks.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Adds an entry. An entry with the same prefix and interface replaces
    /// the previous one (like `route add` after `route del`).
    pub fn add(&mut self, entry: RouteEntry) {
        self.entries
            .retain(|e| !(e.dest == entry.dest && e.iface == entry.iface));
        self.entries.push(entry);
        match self.trie.get_mut(entry.dest) {
            Some(bucket) => {
                bucket.retain(|e| !(e.dest == entry.dest && e.iface == entry.iface));
                bucket.push(entry);
            }
            None => {
                self.trie.insert(entry.dest, vec![entry]);
            }
        }
        self.generation += 1;
    }

    /// Removes all entries for `dest`; returns how many were removed.
    pub fn remove(&mut self, dest: Cidr) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.dest != dest);
        let removed = before - self.entries.len();
        if removed > 0 {
            self.drop_from_bucket(dest, |e| e.dest != dest);
            self.generation += 1;
        }
        removed
    }

    /// Removes the entry for `dest` through `iface` specifically (other
    /// interfaces' routes to the same prefix stay); returns whether one
    /// was removed.
    pub fn remove_for_iface(&mut self, dest: Cidr, iface: IfaceId) -> bool {
        let before = self.entries.len();
        self.entries
            .retain(|e| !(e.dest == dest && e.iface == iface));
        let removed = self.entries.len() != before;
        if removed {
            self.drop_from_bucket(dest, |e| !(e.dest == dest && e.iface == iface));
            self.generation += 1;
        }
        removed
    }

    /// Removes all entries through `iface` (interface going away); returns
    /// how many were removed.
    pub fn remove_iface(&mut self, iface: IfaceId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.iface != iface);
        let removed = before - self.entries.len();
        if removed > 0 {
            self.rebuild_trie();
            self.generation += 1;
        }
        removed
    }

    /// Longest-prefix-match lookup with metric tie-break, O(32) in the
    /// number of address bits regardless of table size. A destination
    /// asked for again before the table changes is answered from a
    /// four-slot direct-mapped memo without the walk.
    #[inline]
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<RouteEntry> {
        let key = u32::from(dst);
        let slot = self.memo.slot(key);
        let seen = slot.get();
        if seen.generation == self.generation && seen.dst == key {
            return seen.route;
        }
        let route = self.lookup_trie(dst);
        slot.set(MemoSlot {
            generation: self.generation,
            dst: key,
            route,
        });
        route
    }

    fn lookup_trie(&self, dst: Ipv4Addr) -> Option<RouteEntry> {
        self.trie.lookup(dst).and_then(|(_, bucket)| {
            bucket
                .iter()
                // Within the longest matching prefix, the lower metric wins.
                .max_by(|a, b| b.metric.cmp(&a.metric))
                .copied()
        })
    }

    /// All entries (diagnostics, `netstat -r` style dumps).
    pub fn entries(&self) -> &[RouteEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn drop_from_bucket(&mut self, prefix: Cidr, keep: impl Fn(&RouteEntry) -> bool) {
        if let Some(bucket) = self.trie.get_mut(prefix) {
            bucket.retain(|e| keep(e));
            if bucket.is_empty() {
                self.trie.remove(prefix);
            }
        }
    }

    fn rebuild_trie(&mut self) {
        let mut trie: LpmTrie<Vec<RouteEntry>> = LpmTrie::new();
        for &e in &self.entries {
            match trie.get_mut(e.dest) {
                Some(bucket) => bucket.push(e),
                None => {
                    trie.insert(e.dest, vec![e]);
                }
            }
        }
        self.trie = trie;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dest: &str, gw: Option<Ipv4Addr>, iface: usize, metric: u32) -> RouteEntry {
        RouteEntry {
            dest: dest.parse().unwrap(),
            gateway: gw,
            iface: IfaceId(iface),
            metric,
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let mut rt = RouteTable::new();
        rt.add(entry("0.0.0.0/0", Some(Ipv4Addr::new(10, 0, 0, 1)), 0, 0));
        rt.add(entry("36.0.0.0/8", Some(Ipv4Addr::new(10, 0, 0, 2)), 0, 0));
        rt.add(entry("36.135.0.0/24", None, 1, 0));
        rt.add(entry(
            "36.135.0.9/32",
            Some(Ipv4Addr::new(10, 0, 0, 3)),
            0,
            0,
        ));

        assert_eq!(
            rt.lookup(Ipv4Addr::new(36, 135, 0, 9)).unwrap().gateway,
            Some(Ipv4Addr::new(10, 0, 0, 3))
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(36, 135, 0, 10)).unwrap().iface,
            IfaceId(1)
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(36, 1, 2, 3)).unwrap().gateway,
            Some(Ipv4Addr::new(10, 0, 0, 2))
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(8, 8, 8, 8)).unwrap().gateway,
            Some(Ipv4Addr::new(10, 0, 0, 1))
        );
    }

    #[test]
    fn lower_metric_breaks_ties() {
        let mut rt = RouteTable::new();
        rt.add(entry("36.135.0.0/24", None, 0, 10));
        rt.add(entry("36.135.0.0/24", None, 1, 1));
        assert_eq!(
            rt.lookup(Ipv4Addr::new(36, 135, 0, 5)).unwrap().iface,
            IfaceId(1)
        );
    }

    #[test]
    fn no_route_returns_none() {
        let rt = RouteTable::new();
        assert!(rt.lookup(Ipv4Addr::new(1, 2, 3, 4)).is_none());
    }

    #[test]
    fn same_prefix_same_iface_replaces() {
        let mut rt = RouteTable::new();
        rt.add(entry("36.135.0.0/24", None, 0, 0));
        rt.add(entry(
            "36.135.0.0/24",
            Some(Ipv4Addr::new(10, 0, 0, 9)),
            0,
            0,
        ));
        assert_eq!(rt.len(), 1);
        assert_eq!(
            rt.lookup(Ipv4Addr::new(36, 135, 0, 5)).unwrap().gateway,
            Some(Ipv4Addr::new(10, 0, 0, 9))
        );
    }

    #[test]
    fn remove_by_prefix_and_by_iface() {
        let mut rt = RouteTable::new();
        rt.add(entry("36.135.0.0/24", None, 0, 0));
        rt.add(entry("36.8.0.0/24", None, 1, 0));
        rt.add(entry("0.0.0.0/0", Some(Ipv4Addr::new(36, 8, 0, 1)), 1, 0));
        assert_eq!(rt.remove("36.135.0.0/24".parse().unwrap()), 1);
        assert_eq!(rt.remove_iface(IfaceId(1)), 2);
        assert!(rt.is_empty());
    }

    #[test]
    fn generation_bumps_only_on_real_changes() {
        let mut rt = RouteTable::new();
        let g0 = rt.generation();
        rt.add(entry("36.135.0.0/24", None, 0, 0));
        let g1 = rt.generation();
        assert!(g1 > g0);
        assert_eq!(rt.remove("10.0.0.0/8".parse().unwrap()), 0);
        assert_eq!(rt.generation(), g1, "no-op remove leaves generation");
        assert_eq!(rt.remove("36.135.0.0/24".parse().unwrap()), 1);
        assert!(rt.generation() > g1);
    }

    #[test]
    fn trie_lookup_agrees_with_linear_reference() {
        // Deterministic LCG-driven table; the trie-backed lookup must match
        // the original linear scan (filter + max_by) on every probe.
        let mut rt = RouteTable::new();
        let mut x: u32 = 0x1996_0001;
        let mut step = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        };
        for _ in 0..512 {
            let addr = Ipv4Addr::from(step());
            let len = (step() % 33) as u8;
            let metric = step() % 4;
            let iface = (step() % 3) as usize;
            rt.add(RouteEntry {
                dest: Cidr::new(addr, len),
                gateway: None,
                iface: IfaceId(iface),
                metric,
            });
        }
        for _ in 0..2048 {
            let dst = Ipv4Addr::from(step());
            let reference = rt
                .entries()
                .iter()
                .filter(|e| e.dest.contains(dst))
                .max_by(|a, b| {
                    a.dest
                        .prefix_len()
                        .cmp(&b.dest.prefix_len())
                        .then(b.metric.cmp(&a.metric))
                })
                .copied();
            assert_eq!(rt.lookup(dst), reference, "disagree on {dst}");
        }
    }

    #[test]
    fn trie_stays_consistent_after_removals() {
        let mut rt = RouteTable::new();
        rt.add(entry("36.135.0.0/24", None, 0, 0));
        rt.add(entry("36.135.0.0/24", None, 1, 1));
        rt.add(entry("36.0.0.0/8", None, 2, 0));
        assert!(rt.remove_for_iface("36.135.0.0/24".parse().unwrap(), IfaceId(0)));
        assert_eq!(
            rt.lookup(Ipv4Addr::new(36, 135, 0, 1)).unwrap().iface,
            IfaceId(1)
        );
        rt.remove_iface(IfaceId(1));
        assert_eq!(
            rt.lookup(Ipv4Addr::new(36, 135, 0, 1)).unwrap().iface,
            IfaceId(2),
            "falls back to /8 after bucket removal"
        );
        assert_eq!(rt.remove("36.0.0.0/8".parse().unwrap()), 1);
        assert!(rt.lookup(Ipv4Addr::new(36, 135, 0, 1)).is_none());
    }

    #[test]
    fn default_route_is_a_fallback_not_a_shadow() {
        let mut rt = RouteTable::new();
        rt.add(entry("0.0.0.0/0", Some(Ipv4Addr::new(36, 134, 0, 1)), 2, 0));
        rt.add(entry("36.134.0.0/16", None, 2, 0));
        let on_link = rt.lookup(Ipv4Addr::new(36, 134, 3, 3)).unwrap();
        assert_eq!(on_link.gateway, None, "on-link beats default");
    }
}
