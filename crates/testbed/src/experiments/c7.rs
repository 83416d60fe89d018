//! Claim C7: forged and replayed registrations against an authenticating
//! home agent, before and after it crashes and restarts.

use mosquitonet_core::RegistrationRequest;
use mosquitonet_sim::{Json, SimDuration};
use mosquitonet_stack as stack;

use super::common::uints;
use super::crash::{CrashRun, C5_LIFETIME_SECS, C5_TAIL_MARGIN};
use super::{with_journeys, Experiment, SEED};
use crate::report;
use crate::topology::{Testbed, TestbedConfig, ATTACKER_DEPT, COA_DEPT, HA_SEPARATE, MH_HOME};
use crate::workload::RegistrationAttacker;

/// Result of the spoofed/replayed-registration chaos experiment (claim
/// C7): with registration authentication required, an on-subnet attacker
/// injecting forged and byte-exact replayed registrations — before and
/// after a home-agent crash/restart — never moves the binding, never
/// gets a registration accepted, and never perturbs the mobile host's
/// traffic outside the crash window itself.
#[derive(Debug)]
pub struct C7Result {
    /// Echo probes the correspondent sent over the whole run.
    pub sent: u64,
    /// Echo replies it got back.
    pub received: u64,
    /// Probes lost across the spoof + replay phases (acceptance: 0 — the
    /// attack must not disturb the session).
    pub lost_attack: u64,
    /// Probes lost after the post-crash reconvergence (acceptance: 0).
    pub lost_after: u64,
    /// Forged registrations injected (unsigned and wrong-key).
    pub spoofs: u64,
    /// Byte-exact replayed registrations injected (incl. post-restart).
    pub replays: u64,
    /// Injections the home agent accepted (acceptance: 0).
    pub attacker_accepted: u64,
    /// Denial replies the attacker collected (expect = injections).
    pub attacker_denied: u64,
    /// Home-agent `reg/auth_fail` count (expect = spoofs).
    pub auth_failures: u64,
    /// Home-agent `reg/auth_replay` count (expect = replays).
    pub auth_replays: u64,
    /// True when the binding pointed at the genuine care-of address at
    /// every checkpoint (acceptance: true).
    pub binding_intact: bool,
    /// The agent's boot epoch at the end of the run (expect 1).
    pub ha_epoch: u64,
    /// The metrics sidecar document.
    pub metrics: Json,
    /// The flight-recorder journeys sidecar document.
    pub journeys: Json,
}

/// SPI provisioned for the MH/HA pair in the keyed topology.
const C7_SPI: u32 = 0x100;
/// The shared key. In a real deployment this comes from out-of-band
/// provisioning; in the testbed it is part of the topology (the attacker
/// does not have it — that is the point).
const C7_KEY: u64 = 0x6d6f_7371_7569_746f;
/// Identification the forger guesses. Far above anything the MH will
/// use, proving the upfront auth check (not the replay window) stops it.
const C7_SPOOF_IDENT: u64 = 1 << 40;
/// Observation window after each injection batch.
const C7_PHASE: SimDuration = SimDuration::from_secs(2);
/// How long the agent stays down.
const C7_DOWNTIME: SimDuration = SimDuration::from_secs(4);
/// Post-reconvergence observation window.
const C7_POST: SimDuration = SimDuration::from_secs(6);

/// Runs claim C7: spoof and replay registrations at a home agent that
/// requires authentication, crash/restart the agent in between, and
/// verify the binding never moves and the replay floor survives the
/// restart. Everything derives from `seed`.
pub fn run_c7(seed: u64) -> C7Result {
    let cfg = TestbedConfig {
        seed,
        mh_auth: Some((C7_SPI, C7_KEY)),
        ha_auth_key: Some((C7_SPI, C7_KEY)),
        with_attacker: true,
        ..TestbedConfig::default()
    };
    let (mut run, (attacker_host, att_mid)) = CrashRun::start("c7", cfg, |tb| {
        let attacker_host = tb.attacker_host.expect("attacker host");
        let attacker = Box::new(RegistrationAttacker::new(HA_SEPARATE));
        (
            attacker_host,
            stack::add_module(&mut tb.sim, attacker_host, attacker),
        )
    });
    let settled = run.settled;
    let binding_at = |tb: &mut Testbed| {
        let now = tb.sim.now();
        tb.ha_module().bindings.get(MH_HOME, now).map(|b| b.care_of)
    };
    let mut binding_intact = binding_at(&mut run.tb) == Some(COA_DEPT);

    // Phase A — forgery. The attacker knows the protocol and the MH's
    // home address but not the key: one unsigned request, one signed
    // with a guessed key, both pointing the binding at the attacker.
    let forged = RegistrationRequest {
        lifetime: 600,
        home_addr: MH_HOME,
        home_agent: HA_SEPARATE,
        care_of: ATTACKER_DEPT,
        ident: C7_SPOOF_IDENT,
        auth: None,
    };
    let wrong_key = forged.sign(C7_SPI, 0x4141_4141_4141_4141);
    let a = run
        .tb
        .module::<RegistrationAttacker>(attacker_host, att_mid);
    a.inject(forged.to_bytes(), "attacker injects unsigned forgery");
    a.inject(wrong_key.to_bytes(), "attacker injects wrong-key forgery");
    run.tb.run_for(C7_PHASE);
    binding_intact &= binding_at(&mut run.tb) == Some(COA_DEPT);

    // Phase B — replay. Being on the visited LAN, the attacker could
    // capture the MH's registration off the wire; the MAC is over the
    // message, so the capture carries a valid signature. Reconstruct the
    // byte-exact capture from the agent's accepted state (signing is
    // deterministic) and play it back twice: verbatim and one older.
    let floor = run.tb.ha_module().bindings.last_ident(MH_HOME);
    assert!(floor > 0, "MH never registered");
    let captured = |ident: u64| {
        RegistrationRequest {
            lifetime: C5_LIFETIME_SECS,
            home_addr: MH_HOME,
            home_agent: HA_SEPARATE,
            care_of: COA_DEPT,
            ident,
            auth: None,
        }
        .sign(C7_SPI, C7_KEY)
        .to_bytes()
    };
    let a = run
        .tb
        .module::<RegistrationAttacker>(attacker_host, att_mid);
    a.inject(captured(floor), "attacker injects verbatim replay");
    a.inject(
        captured(floor.saturating_sub(1)),
        "attacker injects stale replay",
    );
    run.tb.run_for(C7_PHASE);
    binding_intact &= binding_at(&mut run.tb) == Some(COA_DEPT);
    let attack_end = run.tb.sim.now();

    // Phase C — the restart path. Crash the agent (journal intact), let
    // the MH reconverge, then replay the pre-crash capture again: the
    // journal-restored floor must still refuse it.
    let crash_at = attack_end;
    run.crash("ha", crash_at, C7_DOWNTIME);

    run.tb.run_for(C7_DOWNTIME);
    let reconverged = run.await_reconvergence();
    run.tb
        .module::<RegistrationAttacker>(attacker_host, att_mid)
        .inject(captured(floor), "attacker injects post-restart replay");
    run.tb.run_for(C7_POST);
    let end = run.tb.sim.now();
    binding_intact &= binding_at(&mut run.tb) == Some(COA_DEPT);

    let (auth_failures, auth_replays, ha_epoch) = {
        let ha = run.tb.ha_module();
        (
            ha.stats.auth_fail.get(),
            ha.stats.auth_replay.get(),
            u64::from(ha.epoch()),
        )
    };
    run.register("ha", Testbed::ha_module);
    let scope = run.scope("attacker");
    let a = run
        .tb
        .module::<RegistrationAttacker>(attacker_host, att_mid);
    stack::Module::register_metrics(a, &scope);
    let (injected, attacker_accepted, attacker_denied) =
        (a.injected.get(), a.accepted.get(), a.denied.get());
    let spoofs = 2;
    let replays = injected - spoofs;

    let s = run.echo();
    let sent = s.sent();
    let received = s.received();
    let lost_attack = s.lost_in_window(settled, attack_end);
    let lost_during = s.lost_in_window(crash_at, reconverged);
    let lost_after = s.lost_in_window(reconverged, end - C5_TAIL_MARGIN);

    let timeline_ms = uints([
        ("settled", settled.as_millis()),
        ("attack_end", attack_end.as_millis()),
        ("crash", crash_at.as_millis()),
        ("restart", (crash_at + C7_DOWNTIME).as_millis()),
        ("reconverged", reconverged.as_millis()),
        ("end", end.as_millis()),
    ]);
    let echo = uints([
        ("sent", sent),
        ("received", received),
        ("lost_attack", lost_attack),
        ("lost_during_crash", lost_during),
        ("lost_after", lost_after),
    ]);
    let attack = Json::obj([
        ("spoofs", Json::UInt(spoofs)),
        ("replays", Json::UInt(replays)),
        ("injected", Json::UInt(injected)),
        ("attacker_accepted", Json::UInt(attacker_accepted)),
        ("attacker_denied", Json::UInt(attacker_denied)),
        ("auth_failures", Json::UInt(auth_failures)),
        ("auth_replays", Json::UInt(auth_replays)),
        ("replay_floor", Json::UInt(floor)),
        ("binding_intact", Json::Bool(binding_intact)),
        ("ha_epoch", Json::UInt(ha_epoch)),
    ]);
    let (metrics, journeys) = run.sidecars(
        seed,
        [
            ("timeline_ms", timeline_ms),
            ("echo", echo),
            ("attack", attack),
        ],
    );
    C7Result {
        sent,
        received,
        lost_attack,
        lost_after,
        spoofs,
        replays,
        attacker_accepted,
        attacker_denied,
        auth_failures,
        auth_replays,
        binding_intact,
        ha_epoch,
        metrics,
        journeys,
    }
}

pub(super) const C7: Experiment = Experiment {
    name: "c7_spoofed_registration",
    about: "C7: forged and replayed registrations against an authenticating agent",
    params: &[SEED],
    artifacts: &[
        "c7_spoofed_registration.metrics",
        "c7_spoofed_registration.journeys",
    ],
    run: |p| {
        let r = run_c7(p.get("seed"));
        let name = "c7_spoofed_registration";
        with_journeys(report::render_c7(&r), name, r.metrics, r.journeys)
    },
};
