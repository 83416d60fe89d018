//! The home agent dies: claim C5 (crash, then recovery from the journal)
//! and C6 (no restart: failover to the standby). Their scaffold,
//! [`CrashRun`], which builds each crash run's test-bed and writes its
//! sidecars, also serves C7 (`c7.rs`).

use mosquitonet_core::{HomeAgentMachine, SendMode};
use mosquitonet_link::{HostFaultEvent, HostFaultPlan};
use mosquitonet_sim::{CapturedFrame, Json, MetricsRegistry, MetricsScope, SimDuration, SimTime};
use mosquitonet_stack::{self as stack, ModuleId};

use super::common::{install_echo, journeys_json, poll_until, settle_on_dept, uints, ECHO_PORT};
use super::{with_journeys, Artifact, Experiment, SEED};
use crate::report;
use crate::topology::{build, Testbed, TestbedConfig, CH_DEPT, STANDBY_HA};
use crate::workload::{UdpEchoResponder, UdpEchoSender};

/// Echo probe spacing for the crash experiments.
const C5_ECHO_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Quiet, settled time before the crash fires.
const C5_CRASH_AFTER: SimDuration = SimDuration::from_secs(10);
/// How long the agent stays down.
const C5_DOWNTIME: SimDuration = SimDuration::from_secs(6);
/// Post-reconvergence observation window.
const C5_POST: SimDuration = SimDuration::from_secs(10);
/// Loss windows stop this far before the run end so in-flight probes
/// are not miscounted as lost.
pub(super) const C5_TAIL_MARGIN: SimDuration = SimDuration::from_secs(1);
/// Reconvergence poll cap; well past the worst backoff schedule.
const C5_RECONVERGE_CAP: SimDuration = SimDuration::from_secs(120);
/// Short binding lifetime so renewals land inside the run.
pub(super) const C5_LIFETIME_SECS: u16 = 30;

/// One crash experiment in progress: a test-bed with a separate-host home
/// agent and short binding lifetimes, the correspondent's echo stream
/// toward the MH, and the run's own registry — every metric under
/// `{exp}/…` — that the sidecar dumps.
pub(super) struct CrashRun {
    pub(super) tb: Testbed,
    /// `c5`, `c6` or `c7`.
    exp: &'static str,
    reg: MetricsRegistry,
    /// The correspondent's echo sender.
    echo: ModuleId,
    /// When the MH had settled on the department net.
    pub(super) settled: SimTime,
}

impl CrashRun {
    /// Builds `cfg` with the home agent on its own host and
    /// [`C5_LIFETIME_SECS`] bindings, installs the echo probe and then
    /// whatever `extra` adds, and settles the MH on the department net.
    pub(super) fn start<E>(
        exp: &'static str,
        cfg: TestbedConfig,
        extra: impl FnOnce(&mut Testbed) -> E,
    ) -> (CrashRun, E) {
        let reg = MetricsRegistry::new();
        let mut tb = build(TestbedConfig {
            ha_on_router: false,
            mh_lifetime: C5_LIFETIME_SECS,
            ..cfg
        });
        let echo = install_echo(&mut tb, C5_ECHO_INTERVAL);
        let extra = extra(&mut tb);
        settle_on_dept(&mut tb);
        let settled = tb.sim.now();
        let run = CrashRun {
            tb,
            exp,
            reg,
            echo,
            settled,
        };
        (run, extra)
    }

    /// The run registry's scope `{exp}/{part}`.
    pub(super) fn scope(&self, part: &str) -> MetricsScope {
        self.reg.scope(format!("{}/{part}", self.exp))
    }

    /// Scripts one crash of the home-agent host at `at` (journal intact,
    /// back after `restart_after`), the plan's counters under
    /// `{exp}/{part}`.
    pub(super) fn crash(&mut self, part: &str, at: SimTime, restart_after: SimDuration) {
        let plan = HostFaultPlan::scripted(vec![HostFaultEvent {
            at,
            restart_after,
            lose_journal: false,
        }]);
        plan.counters.register_into(&self.scope(part));
        let ha_host = self.tb.ha_host;
        self.tb.sim.world_mut().host_mut(ha_host).fault = Some(plan);
        stack::install_host_faults(&mut self.tb.sim, ha_host);
        // Rebind host metrics so the plan's counters also appear in the run
        // registry under `{host}/fault.*`.
        stack::register_metrics(&mut self.tb.sim);
    }

    /// Polls until the MH has seen the restarted agent's new boot epoch
    /// and holds an accepted registration again; returns that instant.
    pub(super) fn await_reconvergence(&mut self) -> SimTime {
        let reconverged = poll_until(&mut self.tb, C5_RECONVERGE_CAP, |tb| {
            let m = tb.mh_module();
            m.reg.stats.epoch_changes.get() >= 1 && m.away_status().map(|s| s.2).unwrap_or(false)
        });
        assert!(
            reconverged,
            "MH failed to reconverge after the home agent restart"
        );
        self.tb.sim.now()
    }

    /// Registers the MH's metrics under `{exp}/mh` and those of the agent
    /// `machine` picks under `{exp}/{part}`.
    pub(super) fn register(
        &mut self,
        part: &str,
        machine: fn(&mut Testbed) -> &mut HomeAgentMachine,
    ) {
        let (mh, agent) = (self.scope("mh"), self.scope(part));
        stack::Module::register_metrics(self.tb.mh_module(), &mh);
        machine(&mut self.tb).register_metrics(&agent);
    }

    /// The correspondent's echo sender.
    pub(super) fn echo(&mut self) -> &mut UdpEchoSender {
        self.tb.module(self.tb.ch_dept, self.echo)
    }

    /// The two sidecar bodies: metrics `{seed, …sections…, registry}`
    /// (plus the engine profile when `MOSQUITONET_PROFILE` enabled it —
    /// otherwise nothing, so the goldens stay byte-identical) and the
    /// journeys export, blackout derived for correspondent-born flights.
    pub(super) fn sidecars(&self, seed: u64, sections: [(&'static str, Json); 3]) -> (Json, Json) {
        let CrashRun { tb, reg, .. } = self;
        let mut members = vec![("seed", Json::UInt(seed))];
        members.extend(sections);
        members.push(("registry", reg.to_json()));
        if tb.sim.profiler().is_enabled() {
            members.push(("profile", tb.sim.profiler().to_json()));
        }
        (Json::obj(members), journeys_json(tb, Some("ch-dept")))
    }
}

// ---------------------------------------------------------------- C5

/// What a C5 run returns: its two sidecar documents, and beside them what
/// no document may hold.
#[derive(Debug)]
pub struct C5Run {
    /// The metrics sidecar body: `seed`, `timeline_ms`, `echo` (probes
    /// sent, received, and lost before the crash, during the outage and
    /// after reconvergence), `recovery` (crash-to-reconvergence ms, the
    /// epoch changes the MH saw, journal records replayed, the agent's
    /// final boot epoch, …) and the run `registry`.
    pub metrics: Json,
    /// The journeys sidecar body, its `blackout` reconstructed purely from
    /// correspondent-origin flights.
    pub journeys: Json,
    /// Send times (µs) of the probes the sender itself counted lost in
    /// the crash-to-reconvergence window — the independent ground truth
    /// the journeys' blackout must match exactly.
    pub lost_during_times_us: Vec<u64>,
    /// Wire frames captured at the router for pcap export, over the same
    /// window as the journeys.
    pub captures: Vec<CapturedFrame>,
}

/// Runs claim C5: crash the (separate-host) home agent mid-session with
/// its journal intact, restart it, and measure the correspondent's echo
/// stream around the outage. A correspondent's in-flight echo session
/// rides out the crash because the restarted agent replays its binding
/// journal and resumes proxying/tunneling, and the mobile host notices
/// the new boot epoch in the next registration reply and re-registers
/// from scratch. Everything derives from `seed`.
pub fn run_c5(seed: u64) -> C5Run {
    let cfg = TestbedConfig {
        seed,
        ..TestbedConfig::default()
    };
    let (mut run, ()) = CrashRun::start("c5", cfg, |_| ());
    let settled = run.settled;
    // Reset the flight recorder at the settled mark so the journeys
    // export — and the blackout derived from it — covers exactly the
    // window the loss accounting does. Probes dropped while the MH was
    // still switching onto the department net are setup noise, not part
    // of the measured outage. Tap the router first (every inter-net frame
    // crosses it), so the capture covers that window too.
    let router = run.tb.router;
    run.tb.sim.world_mut().host_mut(router).core.capture = true;
    run.tb.sim.flights_mut().clear();

    let crash_at = settled + C5_CRASH_AFTER;
    run.crash("ha", crash_at, C5_DOWNTIME);

    // Ride through the crash and the restart, then wait for the MH to
    // register with the new boot epoch.
    run.tb.run_for(C5_CRASH_AFTER + C5_DOWNTIME);
    let reconverged = run.await_reconvergence();
    run.tb.run_for(C5_POST);
    let end = run.tb.sim.now();

    let (epoch_changes, requests, retries) = {
        let m = run.tb.mh_module();
        (
            m.reg.stats.epoch_changes.get(),
            m.reg.stats.requests_sent.get(),
            m.reg.stats.retries.get(),
        )
    };
    let (ha_epoch, journal_replayed, journal_len) = {
        let ha = run.tb.ha_module();
        (
            u64::from(ha.epoch()),
            ha.stats.journal_replayed.get(),
            ha.journal.len() as u64,
        )
    };
    run.register("ha", Testbed::ha_module);

    let s = run.echo();
    let sent = s.sent();
    let received = s.received();
    let lost_before = s.lost_in_window(settled, crash_at);
    let lost_during = s.lost_in_window(crash_at, reconverged);
    let lost_after = s.lost_in_window(reconverged, end - C5_TAIL_MARGIN);
    let lost_during_times_us: Vec<u64> = s
        .lost_sent_times(crash_at, reconverged)
        .into_iter()
        .map(|t| t.as_micros())
        .collect();
    let reconverged_ms = reconverged.saturating_since(crash_at).as_millis();

    let timeline_ms = uints([
        ("settled", settled.as_millis()),
        ("crash", crash_at.as_millis()),
        ("restart", (crash_at + C5_DOWNTIME).as_millis()),
        ("reconverged", reconverged.as_millis()),
        ("end", end.as_millis()),
    ]);
    let echo = uints([
        ("sent", sent),
        ("received", received),
        ("lost_before", lost_before),
        ("lost_during", lost_during),
        ("lost_after", lost_after),
    ]);
    let recovery = uints([
        ("reconverged_ms", reconverged_ms),
        ("epoch_changes", epoch_changes),
        ("journal_replayed", journal_replayed),
        ("journal_len", journal_len),
        ("ha_epoch", ha_epoch),
        ("requests_sent", requests),
        ("retries", retries),
    ]);
    let (metrics, journeys) = run.sidecars(
        seed,
        [
            ("timeline_ms", timeline_ms),
            ("echo", echo),
            ("recovery", recovery),
        ],
    );
    C5Run {
        metrics,
        journeys,
        lost_during_times_us,
        captures: run.tb.sim.flights().captures().to_vec(),
    }
}

pub(super) const C5: Experiment = Experiment {
    name: "c5_ha_crash_recovery",
    about: "C5: the home agent crashes mid-session and restarts from its journal",
    params: &[SEED],
    artifacts: &[
        "c5_ha_crash_recovery.metrics",
        "c5_ha_crash_recovery.journeys",
        "c5_ha_crash_recovery.pcap",
    ],
    run: |p| {
        let r = run_c5(p.get("seed"));
        let name = "c5_ha_crash_recovery";
        let mut out = with_journeys(name, (r.metrics, r.journeys));
        out.push(Artifact::Pcap(name, r.captures));
        out
    },
    render: report::render_c5,
};

// ---------------------------------------------------------------- C6

/// Settled time before the primary dies.
const C6_CRASH_AFTER: SimDuration = SimDuration::from_secs(5);
/// The primary never comes back inside the run.
const C6_NO_RESTART: SimDuration = SimDuration::from_secs(600);
/// Post-failover observation window.
const C6_POST: SimDuration = SimDuration::from_secs(15);
/// Failover poll cap: renewal loss, a full retry budget, the binding
/// lapse, and a second budget all fit well inside this.
const C6_FAILOVER_CAP: SimDuration = SimDuration::from_secs(180);

/// Runs claim C6: kill the primary home agent permanently and measure
/// the failover to the replica-fed standby. The mobile host — after its
/// retry budget exhausts and a brief agent-less degradation — fails over
/// to the standby, which has been absorbing binding replicas and takes
/// over proxy ARP and tunneling. Everything derives from `seed`.
///
/// Returns the `(metrics, journeys)` sidecar bodies. The metrics body
/// holds `seed`, `timeline_ms`, `echo` (inbound CH→MH probes sent,
/// received and lost during the outage and after failover; outbound
/// MH→CH probes lost), `failover` (crash-to-failover ms, MH failovers and
/// degradations, the policy lookups resolved as direct encapsulation in
/// the degraded window, and the standby's accepted registrations,
/// applied replicas and packets tunneled after takeover) and `registry`.
pub fn run_c6(seed: u64) -> (Json, Json) {
    let cfg = TestbedConfig {
        seed,
        with_standby_ha: true,
        ..TestbedConfig::default()
    };
    let (mut run, out_mid) = CrashRun::start("c6", cfg, |tb| {
        // An outbound stream too: MH → department correspondent. During
        // the degraded window its packets leave as direct encapsulation,
        // so the correspondent must decapsulate.
        let ch = tb.ch_dept;
        stack::add_module(&mut tb.sim, ch, Box::new(UdpEchoResponder::new(ECHO_PORT)));
        tb.sim.world_mut().host_mut(ch).core.ipip_decap = true;
        let mh = tb.mh;
        stack::add_module(
            &mut tb.sim,
            mh,
            Box::new(UdpEchoSender::new((CH_DEPT, ECHO_PORT), C5_ECHO_INTERVAL)),
        )
    });
    let settled = run.settled;
    let standby_host = run.tb.standby_host.expect("standby built");
    let standby_encap = |tb: &Testbed| {
        tb.sim
            .world()
            .host(standby_host)
            .core
            .stats
            .encapsulated
            .get()
    };
    let encap0 = standby_encap(&run.tb);

    let crash_at = settled + C6_CRASH_AFTER;
    run.crash("primary", crash_at, C6_NO_RESTART);

    run.tb.run_for(C6_CRASH_AFTER);
    // Poll until the MH holds an accepted registration *at the standby*.
    let at_standby = poll_until(&mut run.tb, C6_FAILOVER_CAP, |tb| {
        let m = tb.mh_module();
        m.reg.home_agent() == STANDBY_HA && m.away_status().map(|s| s.2).unwrap_or(false)
    });
    assert!(
        at_standby,
        "MH failed to fail over to the standby home agent"
    );
    let failover = run.tb.sim.now();
    run.tb.run_for(C6_POST);
    let end = run.tb.sim.now();

    let (ha_failovers, degradations, exhausted, lapses, direct_encap_lookups) = {
        let m = run.tb.mh_module();
        (
            m.reg.stats.ha_failovers.get(),
            m.reg.stats.degradations.get(),
            m.reg.stats.backoff_exhausted.get(),
            m.reg.stats.binding_lapses.get(),
            m.policy.stats.counter_for(SendMode::DirectEncap).get(),
        )
    };
    let (standby_accepted, replicas_applied) = {
        let sb = run.tb.standby_module();
        (sb.stats.accepted.get(), sb.stats.replicas_applied.get())
    };
    let standby_encapsulated = standby_encap(&run.tb) - encap0;
    run.register("standby", Testbed::standby_module);

    let (in_sent, in_received, in_lost_during, in_lost_after) = {
        let s = run.echo();
        (
            s.sent(),
            s.received(),
            s.lost_in_window(crash_at, failover),
            s.lost_in_window(failover, end - C5_TAIL_MARGIN),
        )
    };
    let (out_lost_during, out_lost_after) = {
        let mh = run.tb.mh;
        let s: &mut UdpEchoSender = run.tb.module(mh, out_mid);
        (
            s.lost_in_window(crash_at, failover),
            s.lost_in_window(failover, end - C5_TAIL_MARGIN),
        )
    };
    let failover_ms = failover.saturating_since(crash_at).as_millis();

    let timeline_ms = uints([
        ("settled", settled.as_millis()),
        ("crash", crash_at.as_millis()),
        ("failover", failover.as_millis()),
        ("end", end.as_millis()),
    ]);
    let echo = uints([
        ("in_sent", in_sent),
        ("in_received", in_received),
        ("in_lost_during", in_lost_during),
        ("in_lost_after", in_lost_after),
        ("out_lost_during", out_lost_during),
        ("out_lost_after", out_lost_after),
    ]);
    let failover = uints([
        ("failover_ms", failover_ms),
        ("ha_failovers", ha_failovers),
        ("degradations", degradations),
        ("backoff_exhausted", exhausted),
        ("binding_lapses", lapses),
        ("direct_encap_lookups", direct_encap_lookups),
        ("standby_accepted", standby_accepted),
        ("replicas_applied", replicas_applied),
        ("standby_encapsulated", standby_encapsulated),
    ]);
    run.sidecars(
        seed,
        [
            ("timeline_ms", timeline_ms),
            ("echo", echo),
            ("failover", failover),
        ],
    )
}

pub(super) const C6: Experiment = Experiment {
    name: "c6_standby_failover",
    about: "C6: the primary dies for good; the MH fails over to the standby",
    params: &[SEED],
    artifacts: &[
        "c6_standby_failover.metrics",
        "c6_standby_failover.journeys",
    ],
    run: |p| with_journeys("c6_standby_failover", run_c6(p.get("seed"))),
    render: report::render_c6,
};
