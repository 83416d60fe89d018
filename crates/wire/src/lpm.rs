//! A binary longest-prefix-match trie over [`Cidr`] prefixes.
//!
//! Both lookup tables on the packet fast path — the kernel routing table
//! reproduction (`mosquitonet_stack::RouteTable`) and the Mobile Policy
//! Table's configured prefixes (`mosquitonet_core::MobilePolicyTable`) —
//! are longest-prefix-match structures. Their original `Vec` scans cost
//! O(entries) per packet; this trie walks at most 32 bits of the
//! destination address, so a cold lookup is O(32) regardless of table
//! size (the benchmark's `wire.lpm.lookup_ns` times it at 4 096 prefixes).
//!
//! The trie maps each *prefix* to exactly one value `T`; tables that keep
//! several entries per prefix (the routing table holds one per interface)
//! store a small `Vec` as `T` and apply their own tie-break inside the
//! bucket. The trie keeps no change counter: the tables that wrap it
//! count their own changes for the per-destination decision caches.

use std::net::Ipv4Addr;

use crate::addr::Cidr;

/// One trie node: two children (bit 0 / bit 1) and an optional value for
/// the prefix ending at this depth.
#[derive(Clone, Debug)]
struct Node<T> {
    children: [Option<Box<Node<T>>>; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Node<T> {
        Node {
            children: [None, None],
            value: None,
        }
    }

    fn is_empty_leaf(&self) -> bool {
        self.value.is_none() && self.children[0].is_none() && self.children[1].is_none()
    }
}

/// A longest-prefix-match trie mapping [`Cidr`] prefixes to values.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::LpmTrie;
/// use std::net::Ipv4Addr;
///
/// let mut trie: LpmTrie<&str> = LpmTrie::new();
/// trie.insert("0.0.0.0/0".parse().unwrap(), "default");
/// trie.insert("36.135.0.0/24".parse().unwrap(), "home");
/// let (prefix, v) = trie.lookup(Ipv4Addr::new(36, 135, 0, 9)).unwrap();
/// assert_eq!(*v, "home");
/// assert_eq!(prefix.prefix_len(), 24);
/// let (_, v) = trie.lookup(Ipv4Addr::new(192, 0, 2, 1)).unwrap();
/// assert_eq!(*v, "default");
/// ```
#[derive(Clone, Debug)]
pub struct LpmTrie<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for LpmTrie<T> {
    fn default() -> LpmTrie<T> {
        LpmTrie::new()
    }
}

/// Yields the prefix bits of `cidr` from most significant down.
fn bits(cidr: Cidr) -> impl Iterator<Item = usize> {
    let word = u32::from(cidr.network());
    (0..cidr.prefix_len()).map(move |i| ((word >> (31 - i)) & 1) as usize)
}

impl<T> LpmTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> LpmTrie<T> {
        LpmTrie {
            root: Node::new(),
            len: 0,
        }
    }

    /// Number of prefixes holding a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefix holds a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts (or replaces) the value for `prefix`, returning the
    /// previous value if one existed.
    pub fn insert(&mut self, prefix: Cidr, value: T) -> Option<T> {
        let mut node = &mut self.root;
        for bit in bits(prefix) {
            node = node.children[bit].get_or_insert_with(|| Box::new(Node::new()));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value stored for exactly `prefix`, if any.
    pub fn get(&self, prefix: Cidr) -> Option<&T> {
        let mut node = &self.root;
        for bit in bits(prefix) {
            node = node.children[bit].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Mutable access to the value stored for exactly `prefix`. The trie
    /// does not see what the caller changes through it: a table that
    /// counts its changes counts these itself.
    pub fn get_mut(&mut self, prefix: Cidr) -> Option<&mut T> {
        let mut node = &mut self.root;
        for bit in bits(prefix) {
            node = node.children[bit].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// Removes and returns the value for exactly `prefix`. Empty branches
    /// left behind are pruned so repeated insert/remove cycles do not leak
    /// nodes.
    pub fn remove(&mut self, prefix: Cidr) -> Option<T> {
        let removed = Self::remove_rec(&mut self.root, &mut bits(prefix));
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(node: &mut Node<T>, path: &mut impl Iterator<Item = usize>) -> Option<T> {
        match path.next() {
            None => node.value.take(),
            Some(bit) => {
                let child = node.children[bit].as_deref_mut()?;
                let removed = Self::remove_rec(child, path);
                if child.is_empty_leaf() {
                    node.children[bit] = None;
                }
                removed
            }
        }
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.root = Node::new();
        self.len = 0;
    }

    /// Longest-prefix-match: the value whose prefix contains `addr` and is
    /// longest, together with that prefix. O(32) — the walk follows the
    /// address bits and remembers the deepest node holding a value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Cidr, &T)> {
        let word = u32::from(addr);
        let mut node = &self.root;
        let mut best: Option<(u8, &T)> = node.value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            let bit = ((word >> (31 - depth)) & 1) as usize;
            match node.children[bit].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Cidr::new(addr, len), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Cidr {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = LpmTrie::new();
        t.insert(c("0.0.0.0/0"), 0u32);
        t.insert(c("36.0.0.0/8"), 8);
        t.insert(c("36.135.0.0/24"), 24);
        t.insert(c("36.135.0.9/32"), 32);
        assert_eq!(t.lookup(ip("36.135.0.9")).unwrap().1, &32);
        assert_eq!(t.lookup(ip("36.135.0.10")).unwrap().1, &24);
        assert_eq!(t.lookup(ip("36.1.2.3")).unwrap().1, &8);
        assert_eq!(t.lookup(ip("8.8.8.8")).unwrap().1, &0);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn lookup_reports_the_matching_prefix() {
        let mut t = LpmTrie::new();
        t.insert(c("36.8.0.0/24"), ());
        let (prefix, _) = t.lookup(ip("36.8.0.77")).unwrap();
        assert_eq!(prefix, c("36.8.0.0/24"));
    }

    #[test]
    fn empty_trie_and_missing_match() {
        let t: LpmTrie<u8> = LpmTrie::new();
        assert!(t.is_empty());
        assert!(t.lookup(ip("1.2.3.4")).is_none());
        let mut t = t;
        t.insert(c("10.0.0.0/8"), 1);
        assert!(t.lookup(ip("11.0.0.1")).is_none());
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut t = LpmTrie::new();
        assert_eq!(t.insert(c("36.8.0.0/24"), 1), None);
        assert_eq!(t.insert(c("36.8.0.0/24"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(c("36.8.0.0/24")), Some(&2));
    }

    #[test]
    fn remove_prunes_and_reports() {
        let mut t = LpmTrie::new();
        t.insert(c("36.8.0.0/24"), 1);
        t.insert(c("36.8.0.7/32"), 2);
        assert_eq!(t.remove(c("36.8.0.7/32")), Some(2));
        assert_eq!(t.remove(c("36.8.0.7/32")), None);
        assert_eq!(t.lookup(ip("36.8.0.7")).unwrap().1, &1);
        assert_eq!(t.remove(c("36.8.0.0/24")), Some(1));
        assert!(t.is_empty());
        assert!(t.root.is_empty_leaf(), "branches pruned");
    }

    #[test]
    fn default_route_is_a_fallback_not_a_shadow() {
        let mut t = LpmTrie::new();
        t.insert(c("0.0.0.0/0"), "default");
        t.insert(c("36.134.0.0/16"), "on-link");
        assert_eq!(t.lookup(ip("36.134.3.3")).unwrap().1, &"on-link");
        assert_eq!(t.lookup(ip("4.4.4.4")).unwrap().1, &"default");
    }

    #[test]
    fn host_routes_at_full_depth() {
        let mut t = LpmTrie::new();
        t.insert(Cidr::host(ip("255.255.255.255")), 1);
        t.insert(Cidr::host(ip("0.0.0.0")), 2);
        assert_eq!(t.lookup(ip("255.255.255.255")).unwrap().1, &1);
        assert_eq!(t.lookup(ip("0.0.0.0")).unwrap().1, &2);
    }

    #[test]
    fn agrees_with_linear_scan_on_many_random_prefixes() {
        // Deterministic pseudo-random coverage: the trie must agree with
        // the obvious max_by_key linear scan for every probed address.
        let mut entries: Vec<(Cidr, u32)> = Vec::new();
        let mut t = LpmTrie::new();
        let mut x = 0x1996_4d6fu32;
        for i in 0..512u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let len = (x >> 28) as u8 % 33;
            let prefix = Cidr::new(Ipv4Addr::from(x), len);
            entries.retain(|(p, _)| *p != prefix);
            entries.push((prefix, i));
            t.insert(prefix, i);
        }
        assert_eq!(t.len(), entries.len());
        for probe in 0..2048u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let addr = Ipv4Addr::from(x ^ probe);
            let linear = entries
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|(p, _)| p.prefix_len())
                .map(|(_, v)| *v);
            assert_eq!(t.lookup(addr).map(|(_, v)| *v), linear, "addr {addr}");
        }
    }
}
