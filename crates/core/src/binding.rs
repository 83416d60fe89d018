//! The home agent's mobility binding table.
//!
//! "It adds a *mobility binding* to an internal table to record the mobile
//! host's care-of address and other information such as the lifetime of
//! the registration and any authentication information" (§3.1).

use std::net::Ipv4Addr;

use mosquitonet_sim::{IdHashMap, SimDuration, SimTime};

/// One mobility binding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Binding {
    /// Current care-of address.
    pub care_of: Ipv4Addr,
    /// When the binding lapses unless refreshed.
    pub expires: SimTime,
    /// Highest identification seen from this mobile host (replay guard).
    pub last_ident: u64,
}

/// The binding table. The highest identification ever accepted for a
/// home address is retained even after deregistration, so a captured old
/// registration cannot be replayed once the host has gone home.
///
/// # Examples
///
/// ```
/// use mosquitonet_core::{BindingTable, BindOutcome};
/// use mosquitonet_sim::{SimDuration, SimTime};
/// use std::net::Ipv4Addr;
///
/// let mut bt = BindingTable::new();
/// let home = Ipv4Addr::new(36, 135, 0, 9);
/// let coa = Ipv4Addr::new(36, 8, 0, 42);
/// let life = SimDuration::from_secs(300);
/// assert_eq!(bt.bind(home, coa, life, 1, SimTime::ZERO), BindOutcome::Created);
/// // A replayed identification is refused.
/// assert_eq!(bt.bind(home, coa, life, 1, SimTime::ZERO), BindOutcome::ReplayRejected);
/// assert_eq!(bt.get(home, SimTime::ZERO).unwrap().care_of, coa);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BindingTable {
    bindings: IdHashMap<Ipv4Addr, Binding>,
    /// Replay floor for hosts with no live binding.
    retired_idents: IdHashMap<Ipv4Addr, u64>,
}

/// Result of attempting to install/refresh a binding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BindOutcome {
    /// New binding created (host just left home).
    Created,
    /// Existing binding moved to a new care-of address.
    Moved {
        /// The care-of address the host had before.
        previous: Ipv4Addr,
    },
    /// Same care-of address, lifetime refreshed.
    Refreshed,
    /// Rejected: identification did not advance.
    ReplayRejected,
}

impl BindingTable {
    /// Creates an empty table.
    pub fn new() -> BindingTable {
        BindingTable::default()
    }

    /// Installs or refreshes a binding. The identification must strictly
    /// exceed the last accepted one (replay protection).
    #[inline]
    pub fn bind(
        &mut self,
        home: Ipv4Addr,
        care_of: Ipv4Addr,
        lifetime: SimDuration,
        ident: u64,
        now: SimTime,
    ) -> BindOutcome {
        match self.bindings.get_mut(&home) {
            Some(b) => {
                if ident <= b.last_ident {
                    return BindOutcome::ReplayRejected;
                }
                b.last_ident = ident;
                b.expires = now + lifetime;
                if b.care_of == care_of {
                    BindOutcome::Refreshed
                } else {
                    let previous = b.care_of;
                    b.care_of = care_of;
                    BindOutcome::Moved { previous }
                }
            }
            None => {
                // A host that deregistered (or expired) still has a replay
                // floor: a captured old registration must not resurrect a
                // binding.
                if ident <= self.retired_idents.get(&home).copied().unwrap_or(0) {
                    return BindOutcome::ReplayRejected;
                }
                self.bindings.insert(
                    home,
                    Binding {
                        care_of,
                        expires: now + lifetime,
                        last_ident: ident,
                    },
                );
                BindOutcome::Created
            }
        }
    }

    /// Removes a binding (deregistration). The identification must still
    /// advance; returns the removed binding or `None` on replay/absence.
    pub fn unbind(&mut self, home: Ipv4Addr, ident: u64) -> Option<Binding> {
        match self.bindings.get(&home) {
            Some(b) if ident > b.last_ident => {
                self.retired_idents.insert(home, ident);
                self.bindings.remove(&home)
            }
            _ => None,
        }
    }

    /// The live binding for `home`, if any.
    #[inline]
    pub fn get(&self, home: Ipv4Addr, now: SimTime) -> Option<Binding> {
        self.bindings
            .get(&home)
            .copied()
            .filter(|b| b.expires > now)
    }

    /// The last identification accepted for `home` (0 if never bound),
    /// including the retired floor of deregistered hosts.
    #[inline]
    pub fn last_ident(&self, home: Ipv4Addr) -> u64 {
        self.bindings
            .get(&home)
            .map(|b| b.last_ident)
            .or_else(|| self.retired_idents.get(&home).copied())
            .unwrap_or(0)
    }

    /// Removes and returns every binding that expired by `now`.
    pub fn sweep_expired(&mut self, now: SimTime) -> Vec<(Ipv4Addr, Binding)> {
        let mut expired: Vec<Ipv4Addr> = self
            .bindings
            .iter()
            .filter(|(_, b)| b.expires <= now)
            .map(|(h, _)| *h)
            .collect();
        // Address order, so per-binding expiry effects are deterministic.
        expired.sort_unstable_by_key(|&h| u32::from(h));
        expired
            .into_iter()
            .map(|h| {
                let b = self.bindings.remove(&h).expect("listed");
                self.retired_idents.insert(h, b.last_ident);
                (h, b)
            })
            .collect()
    }

    /// The bindings still live at `now`, in home-address order — sorted
    /// so callers that emit effects per binding (restart re-serving)
    /// stay deterministic despite the hash map underneath.
    pub fn live(&self, now: SimTime) -> Vec<(Ipv4Addr, Binding)> {
        let mut live: Vec<(Ipv4Addr, Binding)> = self
            .bindings
            .iter()
            .filter(|(_, b)| b.expires > now)
            .map(|(h, b)| (*h, *b))
            .collect();
        live.sort_unstable_by_key(|&(h, _)| u32::from(h));
        live
    }

    /// Count of bindings (including expired, pre-sweep).
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MH: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    const COA1: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 42);
    const COA2: Ipv4Addr = Ipv4Addr::new(36, 40, 0, 3);

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn life() -> SimDuration {
        SimDuration::from_secs(300)
    }

    #[test]
    fn create_move_refresh() {
        let mut bt = BindingTable::new();
        assert_eq!(bt.bind(MH, COA1, life(), 1, t(0)), BindOutcome::Created);
        assert_eq!(bt.bind(MH, COA1, life(), 2, t(1)), BindOutcome::Refreshed);
        assert_eq!(
            bt.bind(MH, COA2, life(), 3, t(2)),
            BindOutcome::Moved { previous: COA1 }
        );
        assert_eq!(bt.get(MH, t(3)).unwrap().care_of, COA2);
    }

    #[test]
    fn replayed_ident_rejected() {
        let mut bt = BindingTable::new();
        bt.bind(MH, COA1, life(), 5, t(0));
        assert_eq!(
            bt.bind(MH, COA2, life(), 5, t(1)),
            BindOutcome::ReplayRejected
        );
        assert_eq!(
            bt.bind(MH, COA2, life(), 4, t(1)),
            BindOutcome::ReplayRejected
        );
        assert_eq!(bt.get(MH, t(1)).unwrap().care_of, COA1, "binding unchanged");
    }

    #[test]
    fn expiry_hides_and_sweep_removes() {
        let mut bt = BindingTable::new();
        bt.bind(MH, COA1, SimDuration::from_secs(10), 1, t(0));
        assert!(bt.get(MH, t(5)).is_some());
        assert!(bt.get(MH, t(10)).is_none(), "expired binding invisible");
        let swept = bt.sweep_expired(t(10));
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, MH);
        assert!(bt.is_empty());
    }

    #[test]
    fn unbind_respects_replay_guard() {
        let mut bt = BindingTable::new();
        bt.bind(MH, COA1, life(), 7, t(0));
        assert!(bt.unbind(MH, 7).is_none(), "stale ident refused");
        assert!(bt.unbind(MH, 8).is_some());
        assert!(bt.unbind(MH, 9).is_none(), "already gone");
        assert!(bt.is_empty());
    }

    #[test]
    fn replay_after_deregistration_is_rejected() {
        let mut bt = BindingTable::new();
        bt.bind(MH, COA1, life(), 10, t(0));
        assert!(bt.unbind(MH, 11).is_some(), "clean deregistration");
        // An attacker replays the captured original registration.
        assert_eq!(
            bt.bind(MH, COA2, life(), 10, t(5)),
            BindOutcome::ReplayRejected,
            "the replay floor survives deregistration"
        );
        // A legitimately newer registration still works.
        assert_eq!(bt.bind(MH, COA2, life(), 12, t(6)), BindOutcome::Created);
    }

    #[test]
    fn replay_after_expiry_is_rejected() {
        let mut bt = BindingTable::new();
        bt.bind(MH, COA1, SimDuration::from_secs(5), 20, t(0));
        let swept = bt.sweep_expired(t(10));
        assert_eq!(swept.len(), 1);
        assert_eq!(
            bt.bind(MH, COA2, life(), 20, t(11)),
            BindOutcome::ReplayRejected
        );
        assert_eq!(bt.bind(MH, COA2, life(), 21, t(12)), BindOutcome::Created);
    }

    #[test]
    fn last_ident_survives_for_table_lifetime() {
        let mut bt = BindingTable::new();
        assert_eq!(bt.last_ident(MH), 0);
        bt.bind(MH, COA1, life(), 41, t(0));
        assert_eq!(bt.last_ident(MH), 41);
    }

    #[test]
    fn many_hosts_coexist() {
        let mut bt = BindingTable::new();
        for i in 0..100u32 {
            let home = Ipv4Addr::from(u32::from(Ipv4Addr::new(36, 135, 0, 0)) + i);
            let coa = Ipv4Addr::from(u32::from(Ipv4Addr::new(36, 8, 0, 0)) + i);
            assert_eq!(bt.bind(home, coa, life(), 1, t(0)), BindOutcome::Created);
        }
        assert_eq!(bt.len(), 100);
    }
}
