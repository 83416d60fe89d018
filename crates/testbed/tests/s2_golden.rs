//! Golden-file test for the S2 home-agent-fleet benchmark's
//! deterministic sidecar.
//!
//! Every quantity in the `mosquitonet.bench/v1` sidecar is an exact
//! counter or a virtual-time delta — wall-clock rates are kept out of it
//! by construction — so the export must be byte-stable for a fixed
//! config. CI runs `experiment s2_ha_fleet` at these same smoke-scale
//! parameters across worker-thread counts {1, 2, 4} and diffs every
//! sidecar against the goldens kept here. If a deliberate change to the
//! fleet moves the export, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test s2_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_testbed::experiments::{run_s2, S2Config};
use mosquitonet_testbed::report::{sidecar, SidecarKind};

/// CI's smoke-scale parameters: `experiment s2_ha_fleet shards=4
/// mobile_hosts=200 burst=4 ticks=20 seed=1996`.
const SMOKE: S2Config = S2Config {
    shards: 4,
    mobile_hosts: 200,
    burst: 4,
    ticks: 20,
    seed: 1996,
    batching: true,
};

#[test]
fn s2_exports_match_goldens_and_fleet_stays_in_lock_step() {
    let result = run_s2(&SMOKE, 1);
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
        "wrong-shard detours must cross the backbone staging arena"
    );

    for (name, rendered) in [
        (
            "s2_fleet.bench.json",
            sidecar(SidecarKind::Bench, "s2_fleet", &result.to_json()).render_pretty(),
        ),
        (
            "s2_fleet.journeys.json",
            sidecar(SidecarKind::Journeys, "s2_fleet", &result.journeys).render_pretty(),
        ),
        (
            "s2_fleet.metrics.json",
            sidecar(SidecarKind::Metrics, "s2_fleet", &result.metrics).render_pretty(),
        ),
    ] {
        assert_golden(name, &rendered);
    }
}

/// Thread count must not leak into any deterministic output: the smoke
/// fleet stepped by two workers is byte-identical to the single-thread
/// run the goldens pin (CI extends this to 4 via the `golden` matrix).
#[test]
fn s2_two_worker_run_is_byte_identical_to_single_thread() {
    let one = run_s2(&SMOKE, 1);
    let two = run_s2(&SMOKE, 2);
    assert_eq!(one.to_json().render_pretty(), two.to_json().render_pretty());
    assert_eq!(one.journeys.render_pretty(), two.journeys.render_pretty());
    assert_eq!(one.metrics.render_pretty(), two.metrics.render_pretty());
}

/// Two same-seed runs must produce byte-identical bench sidecars.
#[test]
fn s2_same_seed_runs_are_byte_identical() {
    let cfg = S2Config {
        shards: 2,
        mobile_hosts: 50,
        burst: 2,
        ticks: 5,
        seed: 7,
        batching: true,
    };
    let a = run_s2(&cfg, 1).to_json().render_pretty();
    let b = run_s2(&cfg, 1).to_json().render_pretty();
    assert_eq!(a, b);
}
