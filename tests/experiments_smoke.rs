//! Shape checks for every reproduced table and figure, at reduced scale so
//! they run in CI: each claim calls its runner and reads the members of
//! the documents it returns — the numbers its sidecars hold. The
//! full-scale numbers live in `EXPERIMENTS.md` (regenerated by the
//! `experiment` runner); the pinned runs' bytes are held by
//! `crates/testbed/tests/goldens.rs`.

use mosquitonet::sim::{Histogram, Json};
use mosquitonet::testbed::experiments::{
    run_a1, run_a2, run_a3, run_c1, run_c2, run_c3, run_c4, run_c5, run_c6, run_c7,
    run_fig6_scenario, run_fig7, run_s1, run_s2, run_s3_mode, run_s3_sharded, run_tab1,
    run_tab1_far, A1Mode, Fig6Scenario, S2Config, S3Config, S3Mode,
};

const SEED: u64 = 1996;

#[test]
fn tab1_shape_mostly_zero_never_two() {
    let r = run_tab1(10, SEED);
    let histogram = Histogram::from_json(r.at("result.histogram"));
    assert_eq!(histogram.total(), 10);
    assert!(
        r.at::<u64>("result.max_loss") <= 1,
        "the switch interval is under one packet gap"
    );
    assert!(
        histogram.count(0) >= 5,
        "a majority of switches lose nothing"
    );
}

#[test]
fn tab1_far_correspondent_gives_similar_results() {
    // §4: "we received similar results for a correspondent host located
    // on a campus network outside the department."
    let r = run_tab1_far(10, SEED);
    assert!(r.at::<u64>("result.max_loss") <= 1);
    assert!(Histogram::from_json(r.at("result.histogram")).count(0) >= 5);
}

#[test]
fn fig6_cold_wired_to_wireless_loses_about_a_second() {
    let (h, _) = run_fig6_scenario(Fig6Scenario::ColdWiredToWireless, 4, SEED);
    // "generally less than 1.25 seconds" at 250 ms spacing = ~5 packets;
    // radio retransmission outliers may add one interval.
    assert!(h.mean() >= 3.0, "cold radio bring-up costs packets");
    assert!(h.mean() <= 6.5, "but stays near the paper's 1.25 s bound");
}

#[test]
fn fig6_cold_wireless_to_wired_is_faster() {
    let (cold_to_radio, _) = run_fig6_scenario(Fig6Scenario::ColdWiredToWireless, 4, SEED);
    let (cold_to_wire, _) = run_fig6_scenario(Fig6Scenario::ColdWirelessToWired, 4, SEED);
    assert!(
        cold_to_wire.mean() < cold_to_radio.mean(),
        "Ethernet bring-up + registration beats the radio's"
    );
}

#[test]
fn fig6_hot_switches_lose_essentially_nothing() {
    for sc in [
        Fig6Scenario::HotWiredToWireless,
        Fig6Scenario::HotWirelessToWired,
    ] {
        let (h, _) = run_fig6_scenario(sc, 4, SEED);
        assert!(
            h.mean() <= 0.5,
            "{sc:?}: hot switching usually sees no packet loss (mean {})",
            h.mean()
        );
    }
}

#[test]
fn fig7_matches_paper_within_15_percent() {
    let r = run_fig7(5, SEED);
    let phase = |path: &str| r.at::<f64>(&format!("result.{path}"));
    let total = phase("total_us.mean");
    let rr = phase("request_reply_us.mean");
    assert!(
        (6_300.0..=8_500.0).contains(&total),
        "total {total}us vs 7390us"
    );
    assert!(
        (4_100.0..=5_500.0).contains(&rr),
        "req->reply {rr}us vs 4790us"
    );
    // The breakdown must sum to the total.
    let sum = phase("configure_us.mean") + phase("route_us.mean") + rr + phase("post_us.mean");
    assert!((sum - total).abs() < 50.0, "steps sum to the total");
    // One sample per measured run in every phase (runs + 1 switches,
    // minus the settle and ARP warm-up timelines).
    for name in ["configure", "route", "request_reply", "post", "total"] {
        let count = r.at::<u64>(&format!("result.{name}_us.count"));
        assert_eq!(count, 5, "{name} samples");
    }
}

#[test]
fn c1_overhead_is_exactly_twenty_bytes() {
    for row in run_c1().at::<&[Json]>("") {
        let n = |key: &str| row.at::<u64>(key);
        assert_eq!(n("overhead"), 20, "payload {}", n("payload"));
        assert_eq!(n("encapsulated"), n("plain") + 20);
    }
}

#[test]
fn c2_radio_bands_match_the_paper() {
    let r = run_c2(20, SEED);
    let mean = r.at::<f64>("result.rtt_ms.mean");
    assert!(
        (200.0..=250.0).contains(&mean),
        "radio RTT mean {mean}ms vs the paper's 200-250ms"
    );
    let goodput = r.at::<f64>("result.goodput_kbps");
    assert!(
        (25.0..=40.0).contains(&goodput),
        "goodput {goodput} kb/s vs the paper's 30-40 kb/s"
    );
}

#[test]
fn c3_triangle_wins_and_fallback_holds() {
    let r = run_c3(SEED);
    assert!(
        r.at::<f64>("result.triangle_rtt_ms.mean") < r.at::<f64>("result.tunnel_rtt_ms.mean"),
        "the triangle route strictly improves the path"
    );
    assert!(
        r.at::<bool>("result.fallback_triggered"),
        "probe detected the transit filter"
    );
    assert!(
        r.at::<bool>("result.post_fallback_delivery"),
        "tunnel carried traffic after fallback"
    );
}

#[test]
fn c4_switches_complete_at_up_to_20_percent_loss() {
    let result = run_c4(2, SEED);

    // The acceptance bar: at 20 % uniform loss on the care-of link every
    // commanded switch still completes its registration.
    for row in result.at::<&[Json]>("rows") {
        let n = |key: &str| row.at::<u64>(key);
        let (loss_pct, completed, switches) = (n("loss_pct"), n("completed"), n("switches"));
        if loss_pct <= 20 {
            assert_eq!(
                completed, switches,
                "at {loss_pct} % loss only {completed}/{switches} switches completed"
            );
        }
        // Loss rates above 0 must actually have injected faults.
        if loss_pct > 0 {
            assert!(
                n("drops_injected") > 0,
                "{loss_pct} % loss injected nothing"
            );
        } else {
            assert_eq!(n("drops_injected"), 0, "0 % loss must inject nothing");
            assert_eq!(n("retries"), 0, "lossless switches should not retry");
        }
    }
}

#[test]
fn c5_session_survives_the_crash() {
    let metrics = run_c5(SEED).metrics;
    let n = |path: &str| metrics.at::<u64>(path);

    // The acceptance bar: the in-flight correspondent session survives
    // the crash+restart. The settled window before the crash is clean,
    // the outage costs packets, and after the MH reconverges (epoch
    // change seen, re-registered) not one more probe is lost.
    assert_eq!(n("echo.lost_before"), 0, "pre-crash window must be clean");
    assert!(n("echo.lost_during") > 0, "the outage must actually bite");
    assert_eq!(
        n("echo.lost_after"),
        0,
        "post-reconvergence probes must all complete"
    );
    // The restart really went through the journal and the epoch machinery.
    assert_eq!(n("recovery.ha_epoch"), 1, "one restart, one epoch bump");
    assert_eq!(
        n("recovery.epoch_changes"),
        1,
        "MH saw exactly one epoch change"
    );
    assert!(
        n("recovery.journal_replayed") >= 1,
        "the restarted agent must replay the MH's binding"
    );
}

/// The flight recorder's reconstruction of the outage must agree exactly
/// with the sender's own bookkeeping: during the home-agent downtime the
/// correspondent's probes all die inside the network, so the number of
/// dropped correspondent-origin flights equals the probes the sender
/// counted lost in the crash-to-reconvergence window, and the blackout
/// edges equal the first and last lost send times.
#[test]
fn c5_blackout_from_flights_equals_the_loss_window() {
    let result = run_c5(SEED);
    let n = |path: &str| result.metrics.at::<u64>(path);
    assert_eq!(n("echo.lost_before"), 0, "pre-crash window must be clean");
    assert_eq!(
        n("echo.lost_after"),
        0,
        "post-reconvergence window must be clean"
    );
    let blackout = result.journeys.at::<&Json>("blackout");
    assert_ne!(
        *blackout,
        Json::Null,
        "the outage drops probes, so a blackout must be derivable"
    );
    let [lost, first_us, last_us] =
        ["lost", "first_us", "last_us"].map(|key| blackout.at::<u64>(key));
    assert_eq!(
        lost,
        n("echo.lost_during"),
        "dropped correspondent flights must equal the sender's loss count"
    );
    assert_eq!(
        lost as usize,
        result.lost_during_times_us.len(),
        "sender bookkeeping is self-consistent"
    );
    assert_eq!(
        Some(first_us),
        result.lost_during_times_us.first().copied(),
        "blackout start must be the first lost probe's send time"
    );
    assert_eq!(
        Some(last_us),
        result.lost_during_times_us.last().copied(),
        "blackout end must be the last lost probe's send time"
    );
}

#[test]
fn c6_standby_takes_over() {
    let (metrics, _) = run_c6(SEED);
    let n = |path: &str| metrics.at::<u64>(path);

    // The acceptance bar: exactly one failover, entered through the
    // degradation ladder, landing on a standby that had absorbed the
    // primary's replicas — and once it takes over, traffic is clean in
    // both directions via the standby's tunnel.
    assert_eq!(n("failover.ha_failovers"), 1, "one rotation to the standby");
    assert_eq!(
        n("failover.degradations"),
        1,
        "one entry into degraded mode"
    );
    assert!(
        n("failover.direct_encap_lookups") > 0,
        "degraded reverse tunnels must have resolved as direct encap"
    );
    assert!(
        n("failover.replicas_applied") >= 1,
        "the standby must have applied the primary's replicas"
    );
    assert!(
        n("failover.standby_accepted") >= 1,
        "the standby must accept the MH's direct registration"
    );
    assert!(
        n("failover.standby_encapsulated") > 0,
        "post-failover inbound traffic must flow via the standby's tunnel"
    );
    assert!(
        n("echo.in_lost_during") > 0,
        "the outage must actually bite"
    );
    assert_eq!(n("echo.in_lost_after"), 0, "inbound clean after failover");
    assert_eq!(n("echo.out_lost_after"), 0, "outbound clean after failover");
}

#[test]
fn c7_binding_never_moves() {
    let (metrics, _) = run_c7(SEED);
    let n = |path: &str| metrics.at::<u64>(path);

    // The acceptance bar: the attack accomplishes nothing. No injection
    // is accepted, the binding stays at the genuine care-of address, and
    // the echo session doesn't notice the attack at all (the crash
    // window is the only loss).
    assert_eq!(
        n("attack.attacker_accepted"),
        0,
        "no injection may be accepted"
    );
    assert!(
        metrics.at::<bool>("attack.binding_intact"),
        "the binding must never move"
    );
    assert_eq!(
        n("echo.lost_attack"),
        0,
        "the attack must not disturb traffic"
    );
    assert_eq!(
        n("echo.lost_after"),
        0,
        "post-recovery probes must complete"
    );
    // Every injection is accounted for on both ends: the forgeries die
    // at the authentication check, the replays (including the one sent
    // after the restart, against the journal-restored floor) die at the
    // identification window.
    let (spoofs, replays) = (n("attack.spoofs"), n("attack.replays"));
    assert_eq!(n("attack.auth_failures"), spoofs, "each forgery denied");
    assert_eq!(n("attack.auth_replays"), replays, "each replay denied");
    assert_eq!(
        n("attack.attacker_denied"),
        spoofs + replays,
        "the attacker saw a denial for every injection"
    );
    assert_eq!(n("attack.ha_epoch"), 1, "one restart, one epoch bump");
}

#[test]
fn a1_forwarding_beats_agentless_beats_nothing() {
    let r = run_a1(4, SEED);
    let mean = |mode: A1Mode| {
        let rows = r.at::<&[Json]>("result.per_mode");
        let row = rows.iter().find(|row| row.at::<&str>("mode") == mode.key());
        Histogram::from_json(row.expect("mode present").at("histogram")).mean()
    };
    let fwd = mean(A1Mode::FaForwarding);
    let agentless = mean(A1Mode::Agentless);
    let plain_fa = mean(A1Mode::FaNoForwarding);
    assert!(
        fwd < agentless.min(plain_fa),
        "previous-FA forwarding rescues in-flight packets \
         (fwd {fwd}, agentless {agentless}, plain FA {plain_fa})"
    );
    assert!(
        (agentless - plain_fa).abs() <= 1.0,
        "without forwarding, agents do not help loss"
    );
}

#[test]
fn a2_latency_grows_linearly_with_burst_size() {
    let body = run_a2(&[1, 32, 128], SEED);
    let rows = body.at::<&[Json]>("result");
    assert!(rows
        .iter()
        .all(|r| r.at::<u64>("completed") == r.at::<u64>("mobile_hosts")));
    // Service is serialized at 1.48 ms: a burst of n completes in about
    // n × 1.48 ms, so the mean waits scale linearly.
    let r1_mean = rows[0].at::<f64>("mean_reply_ms");
    let r128 = &rows[2];
    assert!(
        (4.0..=6.0).contains(&r1_mean),
        "single registration ≈ 4.79ms"
    );
    assert!(
        r128.at::<f64>("mean_reply_ms") > 30.0 * r1_mean / 2.0,
        "queueing dominates large bursts"
    );
    assert!(
        (r128.at::<f64>("span_ms") - 128.0 * 1.48).abs() < 0.25 * 128.0 * 1.48,
        "completion span ≈ n × service time"
    );
}

#[test]
fn a3_reuse_policy_controls_misdelivery() {
    let r = run_a3(SEED);
    assert!(
        r.at::<u64>("result.first_available_misdelivered") > 0,
        "aggressive reuse leaks the departed host's traffic"
    );
    assert_eq!(
        r.at::<u64>("result.lru_misdelivered"),
        0,
        "LRU avoids the reassignment"
    );
    assert!(r.at::<bool>("result.lru_gave_different_address"));
}

#[test]
fn s1_cache_misses_cold_and_replays_warm() {
    let result = run_s1(512, SEED);
    let n = 512;
    let rows = result.at::<&[Json]>("rows");
    let s1_row = |phase| {
        let row = rows.iter().find(|r| r.at::<&str>("phase") == phase);
        let row = row.expect(phase);
        move |key: &str| row.at::<u64>(key)
    };

    // The acceptance bar, phase by phase. The sends in each round happen
    // back to back with no intervening control traffic, so the deltas are
    // exact, not approximate.
    let cold = s1_row("cold");
    assert_eq!(cold("misses"), n, "first contact must fully resolve");
    assert_eq!(cold("hits"), 0, "nothing can hit an empty cache");
    assert!(
        cold("cache_entries") >= n,
        "every correspondent decision must be cached"
    );

    let warm = s1_row("warm");
    assert_eq!(warm("hits"), n, "steady state must be pure cache replay");
    assert_eq!(warm("misses"), 0, "a warm-phase miss means a bogus flush");

    // Re-registration moves the validity token: the flush lands either on
    // the registration's own lookups or on the first rewarm probe.
    let rereg = s1_row("reregister");
    let rewarm = s1_row("rewarm");
    assert!(
        rereg("invalidations") + rewarm("invalidations") >= 1,
        "the care-of move must invalidate the cache"
    );
    assert_eq!(
        rewarm("misses"),
        n,
        "after invalidation every correspondent re-resolves"
    );

    let steady = s1_row("steady");
    assert_eq!(steady("hits"), n, "the refilled cache must replay again");
    assert_eq!(steady("misses"), 0);
}

#[test]
fn s2_fleet_stays_in_lock_step() {
    let cfg = S2Config {
        shards: 4,
        mobile_hosts: 200,
        burst: 4,
        ticks: 20,
        seed: SEED,
        batching: true,
    };
    let result = run_s2(&cfg, 1);
    let row = &result.row;

    assert_eq!(
        row.accepted, row.sent,
        "every churned registration must eventually be accepted"
    );
    assert_eq!(row.denied, 0, "no terminal denials in a healthy fleet");
    assert_eq!(
        row.redirected, row.misdirected,
        "every misdirect must bounce exactly once and be redirected"
    );
    assert_eq!(
        row.wrong_shard, row.misdirected,
        "each misdirect is denied by exactly one wrong shard"
    );
    assert_eq!(
        row.replicas_applied, row.replicas_sent,
        "the standby replica stream must not lose mutations"
    );
    assert_eq!(
        row.standby_bindings, row.live_bindings,
        "standby binding tables must stay in lock-step with the actives"
    );
    assert_eq!(
        row.journal_records, row.ha_accepted,
        "every accepted mutation is journaled write-ahead"
    );
    assert!(row.regs_per_sec > 0, "a registration rate must be measured");
    assert!(
        row.p99_latency_ns > 0,
        "a p99 registration latency must be measured"
    );
    assert!(
        result.arena_resets > 0,
        "wrong-shard detours must cross the backbone"
    );
}

const S3_SMOKE: S3Config = S3Config {
    pairs: 2,
    burst: 8,
    ticks: 10,
    seed: SEED,
    batching: true,
};

#[test]
fn s3_saturates_cleanly() {
    let rows = S3Mode::all().map(|mode| run_s3_mode(mode, &S3_SMOKE));

    assert_eq!(rows.len(), 3, "tunnel, direct, and fa rows");
    for row in &rows {
        let expected =
            u64::from(S3_SMOKE.pairs) * u64::from(S3_SMOKE.burst) * u64::from(S3_SMOKE.ticks);
        assert_eq!(
            row.sent, expected,
            "{}: senders must pump every tick",
            row.mode
        );
        assert_eq!(
            row.delivered, row.sent,
            "{}: the drain window must land every queued frame",
            row.mode
        );
        assert!(
            row.pps > 0,
            "{}: a delivery rate must be measured",
            row.mode
        );
        assert!(
            row.batches <= row.events,
            "{}: a batch executes at least one event",
            row.mode
        );
        assert_ne!(row.wall_ns, 0, "{}: wall clock must advance", row.mode);
    }
    let tunnel = &rows[0];
    assert!(
        tunnel.ha_decapsulated >= tunnel.sent,
        "reverse tunnel must route every datagram through the home agent"
    );
    let direct = &rows[1];
    assert_eq!(
        direct.ha_forwarded, 0,
        "direct encapsulation must bypass the home agent"
    );
}

#[test]
fn s3_sharded_saturates_cleanly() {
    let result = run_s3_sharded(&S3_SMOKE, 4, 1);

    let per_shard =
        u64::from(S3_SMOKE.pairs) * u64::from(S3_SMOKE.burst) * u64::from(S3_SMOKE.ticks);
    assert_eq!(
        result.row.sent,
        per_shard * 4,
        "every campus pumps every tick"
    );
    assert_eq!(
        result.row.delivered, result.row.sent,
        "the drain window must land every queued frame, local and cross-shard"
    );
    assert!(
        result.arena_resets > 0,
        "cross-shard flows must send envelopes over the backbone"
    );
}
