//! Property-based tests for the mobile-IP data structures: the binding
//! table's replay discipline, the Mobile Policy Table against a naive
//! model, and registration-message robustness.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use mosquitonet_core::{
    classify, replay_into, AgentAdvertisement, BindOutcome, BindingJournal, BindingReplica,
    BindingTable, BindingUpdate, DirectoryEntry, JournalRecord, MessageKind, MobilePolicyTable,
    PolicyEntry, RegistrationReply, RegistrationRequest, ReplayStats, ReplyCode, SendMode,
    ShardDirectory, IDENT_WIRE_BITS, REPLY_IDENT_WIRE_BITS,
};
use mosquitonet_sim::{SimDuration, SimTime};
use mosquitonet_wire::Cidr;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..4, 0u8..8).prop_map(|(c, d)| Ipv4Addr::new(10, 0, c, d))
}

fn arb_mode() -> impl Strategy<Value = SendMode> {
    prop_oneof![
        Just(SendMode::ReverseTunnel),
        Just(SendMode::Triangle),
        Just(SendMode::DirectEncap),
        Just(SendMode::DirectLocal),
    ]
}

/// One step of a Mobile Policy Table history.
#[derive(Clone, Copy, Debug)]
enum PolicyOp {
    Set(Cidr, SendMode),
    Learn(Ipv4Addr, SendMode),
    Remove(Cidr),
    ForgetLearned,
    Lookup(Ipv4Addr),
}

/// Policy-table steps. Per-host steps draw from four hosts, so that a
/// configured /32 and a learned host collide often, in both orders;
/// prefixes and lookups range over `arb_addr`'s 32.
fn arb_policy_op() -> impl Strategy<Value = PolicyOp> {
    let host = || (0u8..4).prop_map(|d| Ipv4Addr::new(10, 0, 0, d));
    prop_oneof![
        (arb_addr(), 8u8..=32, arb_mode()).prop_map(|(a, l, m)| PolicyOp::Set(Cidr::new(a, l), m)),
        (host(), arb_mode()).prop_map(|(a, m)| PolicyOp::Set(Cidr::host(a), m)),
        (host(), arb_mode()).prop_map(|(a, m)| PolicyOp::Learn(a, m)),
        (host(), arb_mode()).prop_map(|(a, m)| PolicyOp::Learn(a, m)),
        (arb_addr(), 8u8..=32).prop_map(|(a, l)| PolicyOp::Remove(Cidr::new(a, l))),
        host().prop_map(|a| PolicyOp::Remove(Cidr::host(a))),
        Just(PolicyOp::ForgetLearned),
        host().prop_map(PolicyOp::Lookup),
        arb_addr().prop_map(PolicyOp::Lookup),
    ]
}

proptest! {
    /// For any sequence of bind attempts on one home address, the accepted
    /// identification sequence is strictly increasing, and the binding's
    /// care-of address always reflects the latest *accepted* bind.
    #[test]
    fn binding_idents_strictly_increase(
        ops in proptest::collection::vec((any::<u64>(), arb_addr()), 1..60),
    ) {
        let home = Ipv4Addr::new(36, 135, 0, 9);
        let mut bt = BindingTable::new();
        let mut model_last: u64 = 0;
        let mut model_coa: Option<Ipv4Addr> = None;
        let life = SimDuration::from_secs(1_000);
        for (i, (ident, coa)) in ops.into_iter().enumerate() {
            let now = SimTime::from_nanos(i as u64);
            let outcome = bt.bind(home, coa, life, ident, now);
            let should_accept = model_coa.is_none() || ident > model_last;
            match outcome {
                BindOutcome::ReplayRejected => prop_assert!(!should_accept),
                _ => {
                    prop_assert!(should_accept, "accepted non-advancing ident");
                    model_last = ident;
                    model_coa = Some(coa);
                }
            }
            prop_assert_eq!(bt.get(home, now).map(|b| b.care_of), model_coa);
            prop_assert_eq!(bt.last_ident(home), model_last.max(
                if model_coa.is_some() { model_last } else { 0 }
            ));
        }
    }

    /// Sweeping at time T removes exactly the bindings with expiry <= T.
    #[test]
    fn sweep_is_exact(
        hosts in proptest::collection::vec((arb_addr(), 1u64..100), 1..30),
        sweep_at in 0u64..120,
    ) {
        let mut bt = BindingTable::new();
        let coa = Ipv4Addr::new(36, 8, 0, 42);
        let mut expiries = std::collections::HashMap::new();
        for (home, life_secs) in hosts {
            bt.bind(home, coa, SimDuration::from_secs(life_secs), 1, SimTime::ZERO);
            // Later duplicates overwrite in the model the same way bind
            // refreshes (same ident -> rejected; so only first counts).
            expiries.entry(home).or_insert(life_secs);
        }
        let t = SimTime::ZERO + SimDuration::from_secs(sweep_at);
        let swept = bt.sweep_expired(t);
        for (home, _) in &swept {
            prop_assert!(expiries[home] <= sweep_at);
        }
        let swept_set: std::collections::HashSet<_> =
            swept.iter().map(|(h, _)| *h).collect();
        for (home, life) in &expiries {
            prop_assert_eq!(swept_set.contains(home), *life <= sweep_at);
        }
    }

    /// The policy table agrees with a naive model — one insertion-ordered
    /// list of entries, scanned linearly — under any interleaving of
    /// mutations and lookups: every lookup resolves alike, every mutation
    /// bumps the generation exactly when it changes the table, and the
    /// final `entries()` lists the configured rows in insertion order, then
    /// the learned ones by address.
    #[test]
    fn policy_table_matches_model(
        ops in proptest::collection::vec(arb_policy_op(), 1..60),
    ) {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        let mut model: Vec<PolicyEntry> = Vec::new();
        for op in ops {
            let before = mpt.generation();
            let changed = match op {
                PolicyOp::Set(dest, mode) => {
                    model.retain(|e| e.dest != dest);
                    model.push(PolicyEntry { dest, mode, learned: false });
                    mpt.set(dest, mode);
                    true
                }
                PolicyOp::Learn(host, mode) => {
                    let dest = Cidr::host(host);
                    model.retain(|e| e.dest != dest);
                    model.push(PolicyEntry { dest, mode, learned: true });
                    mpt.learn(host, mode);
                    true
                }
                PolicyOp::Remove(dest) => {
                    let held = model.iter().any(|e| e.dest == dest);
                    model.retain(|e| e.dest != dest);
                    prop_assert_eq!(mpt.remove(dest), held, "remove {}", dest);
                    held
                }
                PolicyOp::ForgetLearned => {
                    let any = model.iter().any(|e| e.learned);
                    model.retain(|e| !e.learned);
                    mpt.forget_learned();
                    any
                }
                PolicyOp::Lookup(dst) => {
                    let want = model
                        .iter()
                        .filter(|e| e.dest.contains(dst))
                        .max_by_key(|e| e.dest.prefix_len())
                        .map_or(SendMode::ReverseTunnel, |e| e.mode);
                    prop_assert_eq!(mpt.lookup(dst), want, "lookup {}", dst);
                    false
                }
            };
            prop_assert_eq!(mpt.generation() > before, changed, "generation after {:?}", op);
        }
        let (configured, mut learned): (Vec<PolicyEntry>, Vec<PolicyEntry>) =
            model.into_iter().partition(|e| !e.learned);
        learned.sort_by_key(|e| e.dest.network());
        prop_assert_eq!(mpt.entries(), [configured, learned].concat());
    }

    /// forget_learned leaves configured entries untouched.
    #[test]
    fn forget_learned_spares_configured(
        sets in proptest::collection::vec((arb_addr(), 8u8..=32, arb_mode()), 0..15),
        learns in proptest::collection::vec((arb_addr(), arb_mode()), 0..15),
    ) {
        let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
        for (addr, len, mode) in &sets {
            mpt.set(Cidr::new(*addr, *len), *mode);
        }
        for (host, mode) in &learns {
            mpt.learn(*host, *mode);
        }
        mpt.forget_learned();
        prop_assert!(mpt.entries().iter().all(|e| !e.learned));
        // Every surviving entry was configured.
        for e in mpt.entries() {
            prop_assert!(sets.iter().any(|(a, l, _)| Cidr::new(*a, *l) == e.dest));
        }
    }

    /// Registration requests round-trip for arbitrary field values, signed
    /// or not; verification accepts exactly the signing key.
    #[test]
    fn request_round_trip_and_auth(
        lifetime in any::<u16>(),
        home in arb_addr(),
        ha in arb_addr(),
        coa in arb_addr(),
        ident in 0u64..(1 << IDENT_WIRE_BITS),
        spi in any::<u32>(),
        key in any::<u64>(),
        wrong in any::<u64>(),
    ) {
        let plain = RegistrationRequest {
            lifetime, home_addr: home, home_agent: ha, care_of: coa, ident, auth: None,
        };
        prop_assert_eq!(RegistrationRequest::parse(&plain.to_bytes()).unwrap(), plain);
        let signed = plain.sign(spi, key);
        let back = RegistrationRequest::parse(&signed.to_bytes()).unwrap();
        prop_assert_eq!(back, signed);
        prop_assert!(back.verify(key));
        if wrong != key {
            prop_assert!(!back.verify(wrong));
        }
    }

    /// All message parsers tolerate arbitrary bytes without panicking, and
    /// classify() agrees with whichever parser succeeds.
    #[test]
    fn parsers_never_panic_and_classify_is_consistent(
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let parsed = [
            (MessageKind::Request, RegistrationRequest::parse(&data).is_ok()),
            (MessageKind::Reply, RegistrationReply::parse(&data).is_ok()),
            (MessageKind::Update, BindingUpdate::parse(&data).is_ok()),
            (MessageKind::Replica, BindingReplica::parse(&data).is_ok()),
            (MessageKind::Advertisement, AgentAdvertisement::parse(&data).is_ok()),
        ];
        for (kind, ok) in parsed {
            prop_assert!(!ok || classify(&data) == Some(kind), "{:?} parses {:02x?}", kind, data);
        }
    }

    /// Reply round-trips for every code.
    #[test]
    fn reply_round_trip(
        code_idx in 0usize..5,
        lifetime in any::<u16>(),
        home in arb_addr(),
        ha in arb_addr(),
        epoch in any::<u16>(),
        ident in 0u64..(1 << REPLY_IDENT_WIRE_BITS),
    ) {
        let code = [
            ReplyCode::Accepted,
            ReplyCode::DeniedIdent,
            ReplyCode::DeniedAuth,
            ReplyCode::DeniedUnknownHome,
            ReplyCode::DeniedLifetime,
        ][code_idx];
        let r = RegistrationReply {
            code, lifetime, home_addr: home, home_agent: ha, epoch, ident, auth: None,
        };
        prop_assert_eq!(RegistrationReply::parse(&r.to_bytes()).unwrap(), r);
    }

    /// Signed replies round-trip and verify under exactly the signing key.
    #[test]
    fn reply_round_trip_signed(
        lifetime in any::<u16>(),
        home in arb_addr(),
        ha in arb_addr(),
        epoch in any::<u16>(),
        ident in 0u64..(1 << REPLY_IDENT_WIRE_BITS),
        spi in any::<u32>(),
        key in any::<u64>(),
        wrong in any::<u64>(),
    ) {
        let r = RegistrationReply {
            code: ReplyCode::Accepted,
            lifetime, home_addr: home, home_agent: ha, epoch, ident, auth: None,
        }
        .sign(spi, key);
        let back = RegistrationReply::parse(&r.to_bytes()).unwrap();
        prop_assert_eq!(back, r);
        prop_assert!(back.verify(key));
        if wrong != key {
            prop_assert!(!back.verify(wrong));
        }
    }

    /// Any single bit-flip anywhere in a signed registration request —
    /// header, payload, checksum, or auth TLV — is rejected: either the
    /// parse fails outright, or the keyed digest refuses to verify. Even a
    /// tamperer who repairs the wire checksum after flipping a body bit
    /// cannot make the message verify without the key.
    #[test]
    fn signed_request_any_bitflip_rejected(
        lifetime in any::<u16>(),
        home in arb_addr(),
        ha in arb_addr(),
        coa in arb_addr(),
        ident in 0u64..(1 << IDENT_WIRE_BITS),
        spi in any::<u32>(),
        key in any::<u64>(),
        flip_bit in any::<proptest::sample::Index>(),
    ) {
        use mosquitonet_core::REQUEST_LEN;
        let signed = RegistrationRequest {
            lifetime, home_addr: home, home_agent: ha, care_of: coa, ident, auth: None,
        }
        .sign(spi, key);
        let clean = signed.to_bytes().to_vec();
        let bit = flip_bit.index(clean.len() * 8);
        let (byte, shift) = (bit / 8, bit % 8);

        // A raw in-flight flip: the parse (checksum / TLV framing) or the
        // digest must refuse it.
        let mut flipped = clean.clone();
        flipped[byte] ^= 1 << shift;
        match RegistrationRequest::parse(&flipped) {
            Err(_) => {}
            Ok(back) => prop_assert!(!back.verify(key), "bit {bit} verified"),
        }

        // A deliberate tamperer repairs the wire checksum too; any flip
        // that changes the *parsed message* must still fail the keyed
        // digest (a flip in the reserved flags byte parses back to the
        // identical message — harmless, and allowed to verify).
        if byte < REQUEST_LEN - 2 {
            let ck = mosquitonet_wire::internet_checksum(&flipped[..REQUEST_LEN - 2], 0);
            flipped[REQUEST_LEN - 2..REQUEST_LEN].copy_from_slice(&ck.to_be_bytes());
            match RegistrationRequest::parse(&flipped) {
                Err(_) => {} // e.g. the type byte was flipped
                Ok(back) => prop_assert!(
                    !back.verify(key) || back == signed,
                    "fixed-up bit {bit} altered the message yet verified"
                ),
            }
        }
    }

    /// Journal replay is a pure fold: replaying any prefix and then the
    /// remainder reaches exactly the state (table AND counters) of a
    /// straight replay — the property crash recovery leans on when it
    /// resumes from whatever the journal holds.
    #[test]
    fn journal_replay_splits_agree(
        ops in proptest::collection::vec(
            (0u8..3, arb_addr(), arb_addr(), any::<u64>(), 0u64..2_000, 1u64..600),
            1..40,
        ),
        split_pct in 0usize..=100,
    ) {
        let mut journal = BindingJournal::new();
        for (kind, home, coa, ident, at_secs, life_secs) in ops {
            let at = SimTime::ZERO + SimDuration::from_secs(at_secs);
            journal.append(match kind {
                0 => JournalRecord::Bind {
                    home,
                    care_of: coa,
                    lifetime: SimDuration::from_secs(life_secs),
                    ident,
                    at,
                },
                1 => JournalRecord::Unbind { home, ident },
                _ => JournalRecord::Sweep { at },
            });
        }
        let (straight, straight_stats) = journal.replay();
        let split = (journal.len() * split_pct / 100).min(journal.len());
        let mut table = BindingTable::new();
        let mut stats = ReplayStats::default();
        replay_into(&mut table, &mut stats, &journal.records()[..split]);
        replay_into(&mut table, &mut stats, &journal.records()[split..]);
        prop_assert_eq!(table, straight, "table diverged at split {}", split);
        prop_assert_eq!(stats, straight_stats, "stats diverged at split {}", split);
    }

    /// The anti-replay window accepts strictly increasing identifications
    /// only, and a crash/restart (journal replay into a fresh table) does
    /// not widen it: after replay, every identification at or below the
    /// accepted maximum stays rejected and the next strictly greater one
    /// is accepted.
    #[test]
    fn replay_window_strictly_increasing_across_restart(
        idents in proptest::collection::vec(1u64..1_000, 1..30),
        probe in 0u64..1_001,
    ) {
        let home = Ipv4Addr::new(36, 135, 0, 9);
        let coa = Ipv4Addr::new(36, 8, 0, 42);
        let life = SimDuration::from_secs(10_000);
        let mut live = BindingTable::new();
        let mut journal = BindingJournal::new();
        let mut max_accepted = 0u64;
        for (i, ident) in idents.into_iter().enumerate() {
            let now = SimTime::from_nanos(i as u64);
            if live.bind(home, coa, life, ident, now) != BindOutcome::ReplayRejected {
                // Mirror the home agent: only accepted binds are journaled.
                journal.append(JournalRecord::Bind {
                    home, care_of: coa, lifetime: life, ident, at: now,
                });
                prop_assert!(ident > max_accepted, "window accepted a non-advancing ident");
                max_accepted = ident;
            }
        }
        // Crash: volatile table lost, journal survives, replay restores
        // the window floor exactly.
        let (mut restarted, _) = journal.replay();
        prop_assert_eq!(restarted.last_ident(home), max_accepted);
        let now = SimTime::from_nanos(1_000_000);
        let outcome = restarted.bind(home, coa, life, probe, now);
        prop_assert_eq!(
            outcome == BindOutcome::ReplayRejected,
            probe <= max_accepted,
            "probe {} vs floor {}", probe, max_accepted
        );
    }

    /// Shard-directory resolution is total (every address resolves to a
    /// live shard) and deterministic, for any fleet size and any epoch.
    #[test]
    fn directory_resolution_is_total(
        shards in 1u16..32,
        epoch in any::<u16>(),
        homes in proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr::from), 1..200),
    ) {
        let dir = fleet(epoch, shards);
        for home in homes {
            let owner = dir.resolve(home);
            prop_assert!(owner < shards, "resolved to a shard outside the fleet");
            prop_assert_eq!(dir.resolve(home), owner, "resolution not deterministic");
            prop_assert_eq!(
                dir.active_for(home),
                dir.entry(owner).unwrap().active,
                "active_for disagrees with resolve"
            );
        }
    }

    /// Resizing the fleet is stable: growing from N to N+1 shards moves an
    /// address only if it moves *to the new shard*; every other address
    /// keeps its owner. (Shrinking is the mirror image — checked too.)
    #[test]
    fn directory_resize_moves_only_to_or_from_changed_shard(
        shards in 1u16..24,
        homes in proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr::from), 1..200),
    ) {
        let small = fleet(1, shards);
        let big = fleet(1, shards + 1);
        for home in homes {
            let before = small.resolve(home);
            let after = big.resolve(home);
            // Grow: either unchanged, or adopted by the new shard.
            prop_assert!(
                after == before || after == shards,
                "{home}: grow moved {before} -> {after} (new shard is {shards})"
            );
            // Shrink (big -> small): only the removed shard's addresses move.
            if after != shards {
                prop_assert_eq!(before, after, "{}: shrink reassigned a surviving owner", home);
            }
        }
    }

    /// Per-shard journals never resurrect a foreign binding. Each shard
    /// journals only registrations the directory assigns to it, so after a
    /// crash+replay on *both* shards of a pair, no home address appears in
    /// a table whose shard does not own it — and a captured foreign
    /// registration replayed at the wrong shard finds no floor to attack
    /// because it is never applied there at all.
    #[test]
    fn replayed_journals_never_resurrect_foreign_bindings(
        shards in 2u16..16,
        ops in proptest::collection::vec(
            (any::<u32>().prop_map(Ipv4Addr::from), 1u64..1_000, 0u64..2_000),
            1..80,
        ),
    ) {
        let dir = fleet(1, shards);
        // The two shards under test: wherever the first op's home lives,
        // and its successor in the fleet.
        let a = dir.resolve(ops[0].0);
        let b = (a + 1) % shards;
        let coa = Ipv4Addr::new(36, 8, 0, 42);
        let mut journal_a = BindingJournal::new();
        let mut journal_b = BindingJournal::new();
        let mut table_a = BindingTable::new();
        let mut table_b = BindingTable::new();
        for (home, ident, at_secs) in ops {
            let owner = dir.resolve(home);
            let at = SimTime::ZERO + SimDuration::from_secs(at_secs);
            let life = SimDuration::from_secs(600);
            // Mirror the fleet home agent: the ownership check runs before
            // the table is touched, so only the owner journals the bind.
            let (journal, table) = if owner == a {
                (&mut journal_a, &mut table_a)
            } else if owner == b {
                (&mut journal_b, &mut table_b)
            } else {
                continue;
            };
            if table.bind(home, coa, life, ident, at) != BindOutcome::ReplayRejected {
                journal.append(JournalRecord::Bind { home, care_of: coa, lifetime: life, ident, at });
            }
        }
        // Both shards crash and replay independently. Probe before the
        // earliest possible expiry so every applied bind is still visible.
        let (replayed_a, _) = journal_a.replay();
        let (replayed_b, _) = journal_b.replay();
        let now = SimTime::ZERO;
        for (table, shard) in [(&replayed_a, a), (&replayed_b, b)] {
            for (home, _) in table.live(now) {
                prop_assert_eq!(
                    dir.resolve(home), shard,
                    "shard {} resurrected foreign binding {}", shard, home
                );
            }
        }
    }
}

/// A directory whose shard `s` pairs live at 10.s.0.2 (active) and
/// 10.s.0.3 (standby) — the S2 fleet's address plan.
fn fleet(epoch: u16, shards: u16) -> ShardDirectory {
    ShardDirectory::new(
        epoch,
        (0..shards)
            .map(|s| DirectoryEntry {
                shard: s,
                active: Ipv4Addr::new(10, s as u8, 0, 2),
                standby: Ipv4Addr::new(10, s as u8, 0, 3),
            })
            .collect::<Vec<_>>(),
    )
}
