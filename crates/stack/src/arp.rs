//! Per-interface ARP state: cache, proxy entries, and pending resolution.
//!
//! Two paper-critical behaviours live here. First, **proxy ARP**: "the home
//! agent must function as the ARP proxy for the mobile host upon receiving
//! its registration request" (§3.1) — [`ArpState::add_proxy`] makes this
//! host answer requests for an address that is not its own. Second,
//! **gratuitous ARP** handling: a gratuitous announcement overwrites
//! existing cache entries, which is how the home agent "voids any stale ARP
//! cache entries on hosts in the same subnet" when a mobile host leaves,
//! and how the mobile host reclaims its address when it returns.

use std::net::Ipv4Addr;

use mosquitonet_sim::{IdHashMap, IdHashSet, SimTime};
use mosquitonet_wire::{ArpOp, ArpPacket, MacAddr, PacketBuf};

/// How many times an unanswered ARP request is retried.
pub const ARP_MAX_TRIES: u32 = 3;

/// Queued packets waiting on one unresolved address.
const ARP_QUEUE_DEPTH: usize = 3;

/// An in-progress resolution.
#[derive(Debug)]
struct PendingArp {
    /// Requests sent so far.
    tries: u32,
    /// Distinguishes this resolution from earlier ones for the same
    /// address, so a stale retry timer from a finished resolution cannot
    /// advance this one's try counter.
    generation: u64,
    /// Packets parked until the address resolves (bounded, like the
    /// kernel's single-packet ARP queue but a little more generous): each
    /// is the IP packet as the output path assembled it, frame headroom
    /// still free, its flight id riding in the buffer.
    queue: Vec<PacketBuf>,
}

mosquitonet_sim::counters! {
    /// ARP activity counters (detached cells; the world binds them per
    /// interface under `{host}/if{n}.{dev}/arp.*`).
    pub struct ArpStats {
        /// Pending resolutions completed by a learned mapping.
        pub resolutions => "arp.resolutions",
        /// Resolutions abandoned after [`ARP_MAX_TRIES`] unanswered requests.
        pub failures => "arp.failures",
        /// Requests answered on behalf of a proxied address (the home
        /// agent's proxy-ARP duty, §3.1).
        pub proxy_replies => "arp.proxy_replies",
    }
}

/// Per-interface ARP state.
#[derive(Debug, Default)]
pub struct ArpState {
    cache: IdHashMap<Ipv4Addr, MacAddr>,
    proxies: IdHashSet<Ipv4Addr>,
    pending: IdHashMap<Ipv4Addr, PendingArp>,
    next_generation: u64,
    /// Activity counters.
    pub stats: ArpStats,
}

/// What the ARP layer wants done in response to an input.
#[derive(Debug, PartialEq, Eq)]
pub enum ArpAction {
    /// Nothing to do.
    None,
    /// Transmit this reply (unicast to the requester).
    Reply(ArpPacket),
}

impl ArpState {
    /// Creates empty state.
    pub fn new() -> ArpState {
        ArpState::default()
    }

    /// Looks up a resolved mapping.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.cache.get(&ip).copied()
    }

    /// Inserts/overwrites a mapping. Entries never age, so the time is
    /// ignored: frozen until ROADMAP [bench-v2] because `benchmark/`
    /// passes it.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr, _now: SimTime) {
        self.cache.insert(ip, mac);
    }

    /// Removes a mapping (e.g. when a registration ends).
    pub fn remove(&mut self, ip: Ipv4Addr) -> bool {
        self.cache.remove(&ip).is_some()
    }

    /// Forgets every resolved mapping (the interface joined a different
    /// network, where old IP-to-MAC bindings are meaningless and — worse —
    /// may silently black-hole traffic to a reused gateway address).
    /// Proxy entries and in-progress resolutions are kept.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Wipes *all* volatile ARP state — cache, proxy entries, and
    /// in-progress resolutions (parked packets die with them). This is a
    /// node crash, not a roam: unlike [`ArpState::clear_cache`], proxy
    /// duties are forgotten too and must be re-installed by whatever
    /// recovers (e.g. the home agent's journal replay).
    pub fn crash_wipe(&mut self) {
        self.cache.clear();
        self.proxies.clear();
        self.pending.clear();
    }

    /// Starts answering requests for `ip` with our MAC (proxy ARP).
    pub fn add_proxy(&mut self, ip: Ipv4Addr) {
        self.proxies.insert(ip);
    }

    /// Stops proxying for `ip`; returns whether we were.
    pub fn remove_proxy(&mut self, ip: Ipv4Addr) -> bool {
        self.proxies.remove(&ip)
    }

    /// True if we proxy for `ip`.
    pub fn is_proxying(&self, ip: Ipv4Addr) -> bool {
        self.proxies.contains(&ip)
    }

    /// Parks a packet awaiting resolution of `ip`. The first return value
    /// is the new resolution's generation if this is a *new* resolution
    /// (the caller should transmit an ARP request and arm a retry timer
    /// carrying that generation), or `None` if one is already in progress.
    ///
    /// The queue is bounded; the oldest parked packet is dropped on
    /// overflow, matching kernel behaviour under ARP backlog — the second
    /// return value is the evicted packet, so the caller can record the
    /// silent casualty under its flight id.
    pub fn park(&mut self, ip: Ipv4Addr, packet: PacketBuf) -> (Option<u64>, Option<PacketBuf>) {
        let entry = self.pending.entry(ip);
        match entry {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let p = o.get_mut();
                let evicted = if p.queue.len() >= ARP_QUEUE_DEPTH {
                    Some(p.queue.remove(0))
                } else {
                    None
                };
                p.queue.push(packet);
                (None, evicted)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.next_generation += 1;
                v.insert(PendingArp {
                    tries: 1,
                    generation: self.next_generation,
                    queue: vec![packet],
                });
                (Some(self.next_generation), None)
            }
        }
    }

    /// Called when the retry timer of resolution `generation` for `ip`
    /// fires. Returns `true` if another request should be transmitted,
    /// `false` if the resolution completed or was superseded (a stale
    /// timer), or the parked packets if resolution has now failed.
    pub fn retry(&mut self, ip: Ipv4Addr, generation: u64) -> Result<bool, Vec<PacketBuf>> {
        match self.pending.get_mut(&ip) {
            None => Ok(false),                                  // resolved meanwhile
            Some(p) if p.generation != generation => Ok(false), // stale timer
            Some(p) if p.tries < ARP_MAX_TRIES => {
                p.tries += 1;
                Ok(true)
            }
            Some(_) => {
                let p = self.pending.remove(&ip).expect("entry just matched");
                self.stats.failures.inc();
                Err(p.queue)
            }
        }
    }

    /// Processes a received ARP packet.
    ///
    /// `my_mac` is this interface's MAC and `is_mine` says whether an
    /// address is configured on it; returns parked packets now sendable
    /// plus any reply to transmit.
    pub fn input(
        &mut self,
        arp: &ArpPacket,
        my_mac: MacAddr,
        is_mine: impl Fn(Ipv4Addr) -> bool,
    ) -> (Vec<PacketBuf>, ArpAction) {
        // Learn / refresh from the sender fields. A gratuitous ARP also
        // lands here, overwriting stale entries — the paper's mechanism for
        // voiding caches after (de)registration.
        let mut released = Vec::new();
        if !arp.sender_ip.is_unspecified() {
            let update_existing = self.cache.contains_key(&arp.sender_ip)
                || self.pending.contains_key(&arp.sender_ip)
                || (arp.op == ArpOp::Request && is_mine(arp.target_ip))
                || arp.op == ArpOp::Reply
                || arp.is_gratuitous();
            if update_existing {
                self.cache.insert(arp.sender_ip, arp.sender_mac);
                if let Some(p) = self.pending.remove(&arp.sender_ip) {
                    self.stats.resolutions.inc();
                    released = p.queue;
                }
            }
        }
        // Answer requests for our own or proxied addresses.
        if arp.op == ArpOp::Request && !arp.is_gratuitous() {
            let ours = is_mine(arp.target_ip);
            let proxied = self.proxies.contains(&arp.target_ip);
            if ours || proxied {
                if proxied && !ours {
                    self.stats.proxy_replies.inc();
                }
                return (released, ArpAction::Reply(ArpPacket::reply_to(arp, my_mac)));
            }
        }
        (released, ArpAction::None)
    }

    /// Number of resolved entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Whether a resolution for `ip` is in progress.
    pub fn is_pending(&self, ip: Ipv4Addr) -> bool {
        self.pending.contains_key(&ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 5);
    const MH: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    const OTHER: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 7);

    fn my_mac() -> MacAddr {
        MacAddr::from_index(5)
    }

    /// A parked packet: an empty buffer carrying its flight id.
    fn pkt(flight: u64) -> PacketBuf {
        let mut buf = PacketBuf::with_headroom(0);
        buf.set_flight(flight);
        buf
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn request_for_our_address_is_answered_and_learned() {
        let mut arp = ArpState::new();
        let req = ArpPacket::request(MacAddr::from_index(7), OTHER, ME);
        let (released, action) = arp.input(&req, my_mac(), |a| a == ME);
        assert!(released.is_empty());
        match action {
            ArpAction::Reply(r) => {
                assert_eq!(r.sender_ip, ME);
                assert_eq!(r.sender_mac, my_mac());
                assert_eq!(r.target_mac, MacAddr::from_index(7));
            }
            ArpAction::None => panic!("expected reply"),
        }
        // Requester was learned opportunistically.
        assert_eq!(arp.lookup(OTHER), Some(MacAddr::from_index(7)));
    }

    #[test]
    fn request_for_other_address_is_ignored() {
        let mut arp = ArpState::new();
        let req = ArpPacket::request(MacAddr::from_index(7), OTHER, MH);
        let (_, action) = arp.input(&req, my_mac(), |a| a == ME);
        assert_eq!(action, ArpAction::None);
        // And we do NOT learn from requests that aren't for us (classic
        // BSD/Linux behaviour avoids cache pollution).
        assert_eq!(arp.lookup(OTHER), None);
    }

    #[test]
    fn proxy_arp_answers_for_the_mobile_host() {
        let mut arp = ArpState::new();
        arp.add_proxy(MH);
        let req = ArpPacket::request(MacAddr::from_index(7), OTHER, MH);
        let (_, action) = arp.input(&req, my_mac(), |a| a == ME);
        match action {
            ArpAction::Reply(r) => {
                assert_eq!(r.sender_ip, MH, "claims the MH's address");
                assert_eq!(r.sender_mac, my_mac(), "with our MAC");
            }
            ArpAction::None => panic!("proxy should answer"),
        }
        assert!(arp.remove_proxy(MH));
        let (_, action) = arp.input(&req, my_mac(), |a| a == ME);
        assert_eq!(action, ArpAction::None, "stops after deregistration");
    }

    #[test]
    fn gratuitous_arp_overwrites_stale_entry() {
        let mut arp = ArpState::new();
        arp.insert(MH, MacAddr::from_index(9), t0());
        let ha_mac = MacAddr::from_index(1);
        let g = ArpPacket::gratuitous(ha_mac, MH);
        let (_, action) = arp.input(&g, my_mac(), |a| a == ME);
        assert_eq!(action, ArpAction::None, "gratuitous ARP is not answered");
        assert_eq!(arp.lookup(MH), Some(ha_mac), "stale entry voided");
    }

    #[test]
    fn replies_resolve_pending_and_release_queue() {
        let mut arp = ArpState::new();
        let generation = arp
            .park(MH, pkt(1))
            .0
            .expect("first park starts a resolution");
        assert!(arp.park(MH, pkt(2)).0.is_none(), "second does not");
        let _ = generation;
        assert!(arp.is_pending(MH));
        let reply = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::from_index(9),
            sender_ip: MH,
            target_mac: my_mac(),
            target_ip: ME,
        };
        let (released, action) = arp.input(&reply, my_mac(), |a| a == ME);
        assert_eq!(action, ArpAction::None);
        assert_eq!(released.len(), 2);
        assert_eq!(arp.lookup(MH), Some(MacAddr::from_index(9)));
        assert!(!arp.is_pending(MH));
    }

    #[test]
    fn park_queue_is_bounded() {
        let mut arp = ArpState::new();
        let mut evicted = Vec::new();
        for flight in 1..=10u64 {
            if let (_, Some(victim)) = arp.park(MH, pkt(flight)) {
                evicted.push(victim.flight());
            }
        }
        assert_eq!(
            evicted,
            vec![1, 2, 3, 4, 5, 6, 7],
            "oldest flights evicted first, each reported exactly once"
        );
        let reply = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::from_index(9),
            sender_ip: MH,
            target_mac: my_mac(),
            target_ip: ME,
        };
        let (released, _) = arp.input(&reply, my_mac(), |a| a == ME);
        assert_eq!(released.len(), ARP_QUEUE_DEPTH);
        let survivors: Vec<u64> = released.iter().map(PacketBuf::flight).collect();
        assert_eq!(survivors, vec![8, 9, 10], "newest parked flights survive");
    }

    #[test]
    fn retry_gives_up_after_max_tries() {
        let mut arp = ArpState::new();
        let (generation, _) = arp.park(MH, pkt(0));
        let generation = generation.expect("new resolution");
        assert!(arp.retry(MH, generation).unwrap()); // try 2
        assert!(arp.retry(MH, generation).unwrap()); // try 3
        let failed = arp.retry(MH, generation).unwrap_err();
        assert_eq!(failed.len(), 1, "parked packets returned for ICMP errors");
        assert!(!arp.is_pending(MH));
        assert!(
            matches!(arp.retry(MH, generation), Ok(false)),
            "nothing pending anymore"
        );
    }

    #[test]
    fn stale_generation_timer_cannot_advance_a_new_resolution() {
        let mut arp = ArpState::new();
        let gen1 = arp.park(MH, pkt(0)).0.expect("resolution 1");
        // Resolution 1 completes via a reply...
        let reply = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::from_index(9),
            sender_ip: MH,
            target_mac: my_mac(),
            target_ip: ME,
        };
        arp.input(&reply, my_mac(), |a| a == ME);
        // ...the cache entry is later removed, and a NEW resolution starts.
        arp.remove(MH);
        let gen2 = arp.park(MH, pkt(0)).0.expect("resolution 2");
        assert_ne!(gen1, gen2);
        // The stale timer from resolution 1 fires: it must be a no-op.
        assert!(matches!(arp.retry(MH, gen1), Ok(false)));
        // Resolution 2's own counter is untouched: still 3 tries total.
        assert!(arp.retry(MH, gen2).unwrap());
        assert!(arp.retry(MH, gen2).unwrap());
        assert!(
            arp.retry(MH, gen2).is_err(),
            "fails only after ITS OWN tries"
        );
    }

    #[test]
    fn remove_forgets_mapping() {
        let mut arp = ArpState::new();
        arp.insert(MH, MacAddr::from_index(9), t0());
        assert!(arp.remove(MH));
        assert!(!arp.remove(MH));
        assert_eq!(arp.lookup(MH), None);
    }
}
