//! Write-ahead journal for the home agent's binding table.
//!
//! The paper's home agent keeps its mobility bindings only in memory, so
//! a crash silently forgets every registered mobile host until each one
//! happens to re-register. This journal records every *accepted* binding
//! mutation before it is applied; after a restart the agent replays the
//! journal and comes back up with the exact table (including the replay
//! floors of deregistered hosts) it had when it died. Fault injection can
//! also declare the journal lost, in which case the agent boots empty and
//! relies on the boot epoch in its replies to make mobile hosts
//! re-register from scratch.
//!
//! Records carry absolute sim times, so replay is a pure fold over the
//! record sequence: replaying any prefix and then the remainder reaches
//! the same state as a straight run (see the `journal_replay_*` proptests).
//!
//! The journal is also what makes the registration protocol's anti-replay
//! window (docs/security.md) survive a crash: every accepted record
//! carries its identification, so replay restores each host's
//! identification floor — live bindings' `last_ident` and the retired
//! floors of deregistered or expired hosts alike. A captured registration
//! replayed against a freshly restarted agent is rejected exactly as it
//! would have been before the crash.

use std::net::Ipv4Addr;

use mosquitonet_sim::{SimDuration, SimTime};

use crate::binding::{BindOutcome, Binding, BindingTable};
use crate::messages::{BindingReplica, ReplicaOp};

/// One durable record: an accepted binding mutation, applied to a table by
/// `JournalRecord::apply_to` alone — from a request, a replica or replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JournalRecord {
    /// An accepted registration (create, move, or refresh).
    Bind {
        /// The mobile host's home address.
        home: Ipv4Addr,
        /// The care-of address granted.
        care_of: Ipv4Addr,
        /// The granted lifetime.
        lifetime: SimDuration,
        /// The accepted identification.
        ident: u64,
        /// When the registration was accepted.
        at: SimTime,
    },
    /// An accepted deregistration.
    Unbind {
        /// The mobile host's home address.
        home: Ipv4Addr,
        /// The identification that authorized the deregistration.
        ident: u64,
    },
    /// An expiry sweep that removed at least one binding.
    Sweep {
        /// When the sweep ran.
        at: SimTime,
    },
}

/// What applying one record did to a table.
#[derive(Debug)]
pub(crate) enum Applied {
    /// A bind: created, moved or refreshed — or refused as a replay.
    Bind(BindOutcome),
    /// An unbind: the binding removed (`None`: absent, or a stale ident).
    Unbind(Option<Binding>),
    /// A sweep: every binding it expired, in address order.
    Sweep(Vec<(Ipv4Addr, Binding)>),
}

impl Applied {
    /// True when the table changed — the condition for journaling.
    pub(crate) fn took_effect(&self) -> bool {
        match self {
            Applied::Bind(outcome) => *outcome != BindOutcome::ReplayRejected,
            Applied::Unbind(removed) => removed.is_some(),
            Applied::Sweep(expired) => !expired.is_empty(),
        }
    }
}

impl JournalRecord {
    /// Applies the mutation to `table`.
    pub(crate) fn apply_to(&self, table: &mut BindingTable) -> Applied {
        match *self {
            JournalRecord::Bind {
                home,
                care_of,
                lifetime,
                ident,
                at,
            } => Applied::Bind(table.bind(home, care_of, lifetime, ident, at)),
            JournalRecord::Unbind { home, ident } => Applied::Unbind(table.unbind(home, ident)),
            JournalRecord::Sweep { at } => Applied::Sweep(table.sweep_expired(at)),
        }
    }

    /// The record a standby journals for `replica`, received at `at`.
    pub(crate) fn from_replica(replica: &BindingReplica, at: SimTime) -> JournalRecord {
        let (home, ident) = (replica.home_addr, replica.ident);
        match replica.op {
            ReplicaOp::Bind => JournalRecord::Bind {
                home,
                care_of: replica.care_of,
                lifetime: SimDuration::from_secs(replica.lifetime.into()),
                ident,
                at,
            },
            ReplicaOp::Unbind => JournalRecord::Unbind { home, ident },
        }
    }

    /// The replica a primary streams for this record (a sweep is not
    /// replicated: the standby runs its own).
    pub(crate) fn replica(&self) -> Option<BindingReplica> {
        let (op, lifetime, home_addr, care_of, ident) = match *self {
            JournalRecord::Bind {
                home,
                care_of,
                lifetime,
                ident,
                ..
            } => {
                let secs = u16::try_from(lifetime.as_millis() / 1_000).unwrap_or(u16::MAX);
                (ReplicaOp::Bind, secs, home, care_of, ident)
            }
            JournalRecord::Unbind { home, ident } => {
                (ReplicaOp::Unbind, 0, home, Ipv4Addr::UNSPECIFIED, ident)
            }
            JournalRecord::Sweep { .. } => return None,
        };
        Some(BindingReplica {
            op,
            lifetime,
            home_addr,
            care_of,
            ident,
        })
    }
}

/// Counts of the operations a replay applied.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReplayStats {
    /// Accepted bind records applied.
    pub binds: u64,
    /// Accepted unbind records applied.
    pub unbinds: u64,
    /// Bindings removed by replayed sweeps.
    pub expiries: u64,
}

/// The append-only journal.
///
/// # Examples
///
/// Journal an accepted binding, "crash", and replay — the rebuilt table
/// holds the binding *and* its anti-replay floor:
///
/// ```
/// use mosquitonet_core::{BindOutcome, BindingJournal, JournalRecord};
/// use mosquitonet_sim::{SimDuration, SimTime};
/// use std::net::Ipv4Addr;
///
/// let home = Ipv4Addr::new(36, 135, 0, 9);
/// let care_of = Ipv4Addr::new(36, 8, 0, 42);
/// let mut journal = BindingJournal::new();
/// journal.append(JournalRecord::Bind {
///     home,
///     care_of,
///     lifetime: SimDuration::from_secs(300),
///     ident: 7,
///     at: SimTime::ZERO,
/// });
///
/// let (mut table, stats) = journal.replay();
/// assert_eq!(stats.binds, 1);
/// assert_eq!(table.get(home, SimTime::ZERO).unwrap().care_of, care_of);
/// // The replay floor survived: a captured ident-7 registration stays dead.
/// let again = table.bind(home, care_of, SimDuration::from_secs(300), 7, SimTime::ZERO);
/// assert_eq!(again, BindOutcome::ReplayRejected);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BindingJournal {
    records: Vec<JournalRecord>,
}

impl BindingJournal {
    /// Creates an empty journal.
    pub fn new() -> BindingJournal {
        BindingJournal::default()
    }

    /// Appends one record. Called *before* the mutation is applied to the
    /// live table (write-ahead), though with single-threaded deterministic
    /// execution the distinction is only about crash semantics.
    pub fn append(&mut self, record: JournalRecord) {
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record sequence.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Discards every record — the "journal lost with the node" fault.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Replays the whole journal into a fresh table.
    pub fn replay(&self) -> (BindingTable, ReplayStats) {
        let mut table = BindingTable::new();
        let mut stats = ReplayStats::default();
        replay_into(&mut table, &mut stats, &self.records);
        (table, stats)
    }
}

/// Applies `records` in order to `table`, accumulating `stats`. Replay is
/// incremental: applying a prefix and then the remainder is identical to
/// applying the whole sequence at once.
///
/// # Examples
///
/// ```
/// use mosquitonet_core::{replay_into, BindingJournal, BindingTable, JournalRecord, ReplayStats};
///
/// let mut journal = BindingJournal::new();
/// let home = "36.135.0.9".parse().unwrap();
/// journal.append(JournalRecord::Unbind { home, ident: 3 });
///
/// let mut table = BindingTable::new();
/// let mut stats = ReplayStats::default();
/// replay_into(&mut table, &mut stats, journal.records());
/// // Unbinding a host that was never bound applies nothing.
/// assert_eq!(stats, ReplayStats::default());
/// assert!(table.is_empty());
/// ```
pub fn replay_into(table: &mut BindingTable, stats: &mut ReplayStats, records: &[JournalRecord]) {
    for record in records {
        // Journaled operations were accepted when recorded, so a refusal
        // here can only mean a corrupted record order; it is counted by
        // omission rather than panicking.
        let applied = record.apply_to(table);
        let took_effect = u64::from(applied.took_effect());
        match applied {
            Applied::Bind(_) => stats.binds += took_effect,
            Applied::Unbind(_) => stats.unbinds += took_effect,
            Applied::Sweep(expired) => stats.expiries += expired.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MH: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    const COA1: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 42);
    const COA2: Ipv4Addr = Ipv4Addr::new(36, 134, 0, 42);

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn life() -> SimDuration {
        SimDuration::from_secs(300)
    }

    /// A journal mirrored beside a live table replays to the same state.
    #[test]
    fn replay_reconstructs_live_table() {
        let mut live = BindingTable::new();
        let mut journal = BindingJournal::new();
        let ops: &[(Ipv4Addr, u64, u64)] = &[(COA1, 1, 0), (COA1, 2, 10), (COA2, 3, 20)];
        for &(coa, ident, secs) in ops {
            journal.append(JournalRecord::Bind {
                home: MH,
                care_of: coa,
                lifetime: life(),
                ident,
                at: t(secs),
            });
            live.bind(MH, coa, life(), ident, t(secs));
        }
        journal.append(JournalRecord::Unbind { home: MH, ident: 4 });
        live.unbind(MH, 4);
        let (replayed, stats) = journal.replay();
        assert_eq!(replayed, live);
        assert_eq!(
            stats,
            ReplayStats {
                binds: 3,
                unbinds: 1,
                expiries: 0
            }
        );
        // The replay floor survives: the captured ident-3 registration
        // cannot resurrect a binding on the replayed table either.
        let mut replayed = replayed;
        assert_eq!(
            replayed.bind(MH, COA1, life(), 3, t(30)),
            BindOutcome::ReplayRejected
        );
    }

    /// Sweeps replay with their original timestamps, so expiry-derived
    /// replay floors are reconstructed too.
    #[test]
    fn replayed_sweep_restores_retired_floor() {
        let mut journal = BindingJournal::new();
        journal.append(JournalRecord::Bind {
            home: MH,
            care_of: COA1,
            lifetime: SimDuration::from_secs(5),
            ident: 9,
            at: t(0),
        });
        journal.append(JournalRecord::Sweep { at: t(10) });
        let (mut table, stats) = journal.replay();
        assert!(table.is_empty());
        assert_eq!(stats.expiries, 1);
        assert_eq!(
            table.bind(MH, COA2, life(), 9, t(11)),
            BindOutcome::ReplayRejected,
            "expiry floor survives replay"
        );
        assert_eq!(
            table.bind(MH, COA2, life(), 10, t(12)),
            BindOutcome::Created
        );
    }

    /// Prefix + remainder replay equals a straight run (the unit-sized
    /// version of the `journal_replay_splits_agree` proptest).
    #[test]
    fn split_replay_matches_straight_run() {
        let mut journal = BindingJournal::new();
        for i in 1..=6u64 {
            journal.append(JournalRecord::Bind {
                home: MH,
                care_of: if i % 2 == 0 { COA1 } else { COA2 },
                lifetime: life(),
                ident: i,
                at: t(i),
            });
        }
        let (straight, straight_stats) = journal.replay();
        for split in 0..=journal.len() {
            let mut table = BindingTable::new();
            let mut stats = ReplayStats::default();
            replay_into(&mut table, &mut stats, &journal.records()[..split]);
            replay_into(&mut table, &mut stats, &journal.records()[split..]);
            assert_eq!(table, straight, "split at {split}");
            assert_eq!(stats, straight_stats, "split at {split}");
        }
    }

    /// The anti-replay window of a *live* binding survives replay: the
    /// restarted agent's `last_ident` floor equals the pre-crash one, so
    /// a captured registration stays dead across the restart.
    #[test]
    fn replay_restores_live_binding_replay_floor() {
        let mut journal = BindingJournal::new();
        for ident in 1..=4u64 {
            journal.append(JournalRecord::Bind {
                home: MH,
                care_of: COA1,
                lifetime: life(),
                ident,
                at: t(ident),
            });
        }
        let (mut table, _) = journal.replay();
        assert_eq!(table.last_ident(MH), 4);
        assert_eq!(
            table.bind(MH, COA2, life(), 4, t(10)),
            BindOutcome::ReplayRejected,
            "replayed capture rejected after restart"
        );
        assert!(matches!(
            table.bind(MH, COA2, life(), 5, t(10)),
            BindOutcome::Moved { .. }
        ));
    }

    #[test]
    fn clear_models_lost_storage() {
        let mut journal = BindingJournal::new();
        journal.append(JournalRecord::Unbind { home: MH, ident: 1 });
        assert_eq!(journal.len(), 1);
        journal.clear();
        assert!(journal.is_empty());
        let (table, stats) = journal.replay();
        assert!(table.is_empty());
        assert_eq!(stats, ReplayStats::default());
    }
}
