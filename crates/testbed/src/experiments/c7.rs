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
/// restart. An on-subnet attacker injecting forged and byte-exact
/// replayed registrations never moves the binding, never gets a
/// registration accepted, and never perturbs the mobile host's traffic
/// outside the crash window itself. Everything derives from `seed`.
///
/// Returns the `(metrics, journeys)` sidecar bodies. The metrics body
/// holds `seed`, `timeline_ms`, `echo` (probes sent and received, lost
/// during the attack, the crash and after recovery), `attack` (forgeries
/// and replays injected, what the attacker saw accepted and denied, the
/// agent's auth-failure and replay denials, the replay floor, whether the
/// binding stayed at the genuine care-of address at every checkpoint,
/// and the agent's final boot epoch) and `registry`.
pub fn run_c7(seed: u64) -> (Json, Json) {
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
            ha.auth_fail.get(),
            ha.auth_replay.get(),
            u64::from(ha.epoch()),
        )
    };
    run.register("ha", Testbed::ha_module);
    let scope = run.scope("attacker");
    let a = run
        .tb
        .module::<RegistrationAttacker>(attacker_host, att_mid);
    stack::Module::register_metrics(a, &scope);
    let s = &a.stats;
    let (injected, attacker_accepted, attacker_denied) =
        (s.injected.get(), s.accepted.get(), s.denied.get());
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
    run.sidecars(
        seed,
        [
            ("timeline_ms", timeline_ms),
            ("echo", echo),
            ("attack", attack),
        ],
    )
}

pub(super) const C7: Experiment = Experiment {
    name: "c7_spoofed_registration",
    about: "C7: forged and replayed registrations against an authenticating agent",
    params: &[SEED],
    artifacts: &[
        "c7_spoofed_registration.metrics",
        "c7_spoofed_registration.journeys",
    ],
    run: |p| with_journeys("c7_spoofed_registration", run_c7(p.get("seed"))),
    render: report::render_c7,
};
