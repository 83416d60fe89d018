//! Scale run S2: a sharded home-agent fleet under Zipf registration
//! churn, stepped by the parallel engine.

use std::net::Ipv4Addr;

use mosquitonet_core::{
    DirectoryEntry, HomeAgent, HomeAgentConfig, ShardDirectory, REPLICA_LEN, REPLY_LEN, REQUEST_LEN,
};
use mosquitonet_sim::{shard_seed, Json, Sim, SimDuration, SimTime};
use mosquitonet_stack::{self as stack, ModuleId, Network};
use mosquitonet_wire::Cidr;

use super::common::{percentile, rate_per_sec, result_row, run_fleet, Fleet, Span};
use super::{Artifact, Experiment, Param, SEED};
use crate::report::{self, SidecarKind};
use crate::topology::ShardedCampus;
use crate::workload::FleetChurn;

/// Virtual gap between churn ticks, milliseconds.
const S2_TICK_MS: u64 = 10;

/// Settle window before the churn starts (interfaces up, sockets bound).
const S2_PRIME: SimDuration = SimDuration::from_millis(600);

/// Drain window after the last churn tick: long enough for every queued
/// registration (the home agent serializes at 1.48 ms each) plus the
/// wrong-shard detours to complete. Idle virtual time costs no events,
/// so this is generous by design.
const S2_DRAIN: SimDuration = SimDuration::from_secs(12);

/// The home network every fleet shard stands in for: one wide prefix,
/// partitioned across shards by the rendezvous directory rather than by
/// sub-prefix, so hot spots cannot pin themselves to one shard.
fn s2_home_prefix() -> Cidr {
    "36.0.0.0/8".parse().expect("cidr")
}

/// Home address of global mobile host `i`.
fn s2_home(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(36, 0, 0, 1)) + i)
}

/// Campus host numbers of a fleet shard: the active home agent doubles
/// as the shard's backbone gateway at `.1`, the standby sits at `.2`, and
/// the churn host (this shard's slice of the MH population) at `.3`.
const S2_ACTIVE: u8 = 1;
const S2_STANDBY: u8 = 2;
const S2_CHURN: u8 = 3;

/// The fleet's shard directory: epoch 1, one (active, standby) pair per
/// shard. Every host in the experiment derives routing from this one
/// deterministic table.
pub fn s2_directory(shards: u32) -> ShardDirectory {
    ShardDirectory::new(
        1,
        (0..shards)
            .map(|s| DirectoryEntry {
                shard: s as u16,
                active: ShardedCampus::addr(s, S2_ACTIVE),
                standby: ShardedCampus::addr(s, S2_STANDBY),
            })
            .collect::<Vec<_>>(),
    )
}

/// Configuration of one S2 fleet run.
#[derive(Clone, Copy, Debug)]
pub struct S2Config {
    /// Home-agent shards (each an active+standby pair in its own domain).
    pub shards: u32,
    /// Mobile hosts across the whole fleet (directory-partitioned).
    pub mobile_hosts: u32,
    /// Zipf draws per churn tick per shard.
    pub burst: u32,
    /// Churn ticks (run length = `ticks` × 10 ms of virtual time).
    pub ticks: u32,
    /// RNG seed.
    pub seed: u64,
    /// Always `true`: the engine has one loop, the per-instant drain.
    /// Frozen until ROADMAP [bench-v2] because `benchmark/` constructs it,
    /// and echoed as the bench sidecar's `"batching": true` member.
    pub batching: bool,
}

result_row! {
    /// The aggregated S2 measurement row. Every field except `wall_ns` is a
    /// deterministic virtual-time quantity; `wall_ns` is real elapsed time
    /// and is excluded from [`S2Row::to_json`] so the sidecar stays
    /// byte-stable.
    #[derive(Debug, Default)]
    pub struct S2Row {
        /// First-attempt registrations the churn sources sent.
        pub sent: u64,
        /// First attempts deliberately misdirected to a neighbour shard.
        pub misdirected: u64,
        /// Re-sends to the true owner after a wrong-shard denial.
        pub redirected: u64,
        /// Accepted completions observed by the churn sources.
        pub accepted: u64,
        /// Terminal denials observed by the churn sources (expected 0).
        pub denied: u64,
        /// Requests the active agents processed (replies sent).
        pub ha_processed: u64,
        /// Registrations the active agents accepted.
        pub ha_accepted: u64,
        /// Wrong-shard denials at the fleet (one per misdirect).
        pub wrong_shard: u64,
        /// Binding replicas the actives streamed to their standbys.
        pub replicas_sent: u64,
        /// Replicas the standbys applied.
        pub replicas_applied: u64,
        /// Live bindings across the active agents at the deadline.
        pub live_bindings: u64,
        /// Live bindings across the standby agents (lock-step: must equal
        /// `live_bindings`).
        pub standby_bindings: u64,
        /// Write-ahead journal records across the active agents.
        pub journal_records: u64,
        /// Engine events executed, summed over shards.
        pub events: u64,
        /// Engine batches drained, summed over shards.
        pub batches: u64,
        /// Virtual span from first to last accepted reply, nanoseconds.
        pub span_ns: u64,
        /// Accepted registrations per second of virtual time.
        pub regs_per_sec: u64,
        /// 99th-percentile registration latency (first send → accepted
        /// reply, wrong-shard detours included), nanoseconds.
        pub p99_latency_ns: u64,
        /// Registration-request bytes on the wire (first sends + redirects).
        pub request_bytes: u64,
        /// Registration-reply bytes on the wire.
        pub reply_bytes: u64,
        /// Binding-replica bytes on the wire.
        pub replica_bytes: u64,
        /// Steady-state protocol bytes per live binding.
        pub bytes_per_binding: u64,
        ;
        /// Real elapsed nanoseconds. Never golden-pinned or printed; its one
        /// reader is `benchmark/`'s adapter (`reg_churn`).
        pub wall_ns: u64,
    }
}

/// The S2 result: the aggregated row plus the merged sidecar documents.
/// Everything except `row.wall_ns` is deterministic: the same config
/// gives the same bytes. `benchmark/`'s adapter
/// reads the row's wall clock beside the documents; the report reads
/// the documents alone.
#[derive(Debug)]
pub struct S2Result {
    /// The configuration measured.
    pub cfg: S2Config,
    /// Aggregated measurement row.
    pub row: S2Row,
    /// Merged flight-recorder journeys document.
    pub journeys: Json,
    /// Merged metrics snapshot document.
    pub metrics: Json,
    /// Barrier rounds in which a shard sent cross-shard frames, summed
    /// over shards.
    pub arena_resets: u64,
}

impl S2Result {
    /// The deterministic bench-sidecar body: parameters, the aggregated
    /// row, and the cross-shard round counter. Byte-identical for a fixed
    /// config (the golden table diffs exactly this).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shards", Json::from(self.cfg.shards)),
            ("mobile_hosts", Json::from(self.cfg.mobile_hosts)),
            ("burst", Json::from(self.cfg.burst)),
            ("ticks", Json::from(self.cfg.ticks)),
            ("tick_ms", Json::UInt(S2_TICK_MS)),
            ("seed", Json::UInt(self.cfg.seed)),
            ("batching", Json::from(self.cfg.batching)),
            ("arena_resets", Json::UInt(self.arena_resets)),
            ("row", self.row.to_json()),
        ])
    }
}

/// Runs the S2 sharded home-agent fleet experiment: `cfg.shards` LAN
/// domains joined by a backbone trunk, each holding one (active,
/// standby) home-agent pair and a churn host standing in for the
/// shard's slice of a `cfg.mobile_hosts`-wide population. The binding
/// table is partitioned by the rendezvous [`ShardDirectory`]; churn
/// registrations arrive in Zipf-distributed bursts, a deterministic
/// 1/32 of them misdirected to a neighbour shard first (denied
/// `wrong_shard`, then redirected).
///
/// `threads` is ignored: the shards step on the caller's thread. It is
/// frozen until ROADMAP [bench-v2] because `benchmark/` passes it.
pub fn run_s2(cfg: &S2Config, _threads: usize) -> S2Result {
    ShardedCampus::check_shards(cfg.shards);
    assert!(cfg.mobile_hosts >= cfg.shards, "every shard needs homes");
    assert!(cfg.batching, "the engine has no unbatched loop");
    let deadline = SimTime::ZERO
        + S2_PRIME
        + SimDuration::from_millis(S2_TICK_MS * cfg.ticks as u64)
        + S2_DRAIN;
    let shards = cfg.shards;

    // The population partitioned once into per-shard slices, each in Zipf
    // rank order. Part of the build, so inside the measured window.
    let wall_start = std::time::Instant::now();
    let directory = s2_directory(shards);
    let mut homes_of = vec![Vec::new(); shards as usize];
    for home in (0..cfg.mobile_hosts).map(s2_home) {
        homes_of[directory.resolve(home) as usize].push(home);
    }

    let build = |s: u32| -> Sim<Network> {
        let addr = move |host: u8| ShardedCampus::addr(s, host);
        let mac = |host: u8| ShardedCampus::mac(s, host);
        let mut campus = ShardedCampus::wire(s, shards, cfg.seed, ["ha", "sb", "churn"]);
        let (ha, ha_campus_if, ha_bb_if) = (campus.gw, campus.gw_campus_if, campus.gw_backbone_if);
        let [(sb, sb_if), (churn, churn_if)] = campus.leaves;

        // The agents must be installed before bring-up: they are modules
        // of the world the stack starts, not late joiners.
        let mut ha_cfg = HomeAgentConfig::new(addr(S2_ACTIVE), ha_campus_if, s2_home_prefix());
        ha_cfg.replicate_to = Some(addr(S2_STANDBY));
        ha_cfg.fleet = Some((s as u16, directory.clone()));
        let mut sb_cfg = HomeAgentConfig::new(addr(S2_STANDBY), sb_if, s2_home_prefix());
        sb_cfg.fleet = Some((s as u16, directory.clone()));
        for (host, agent_cfg) in [(ha, ha_cfg), (sb, sb_cfg)] {
            campus
                .sim
                .world_mut()
                .host_mut(host)
                .add_module(Box::new(HomeAgent::new(agent_cfg)));
        }
        campus.power_up();
        let mut sim = campus.sim;

        // Warm every ARP path the churn exercises, so the measured window
        // starts with neighbor discovery already settled (as A2 does).
        let t0 = sim.now();
        {
            let w = sim.world_mut();
            w.hosts[churn.0].core.arp[churn_if.0].insert(addr(S2_ACTIVE), mac(S2_ACTIVE), t0);
            w.hosts[ha.0].core.arp[ha_campus_if.0].insert(addr(S2_CHURN), mac(S2_CHURN), t0);
            w.hosts[ha.0].core.arp[ha_campus_if.0].insert(addr(S2_STANDBY), mac(S2_STANDBY), t0);
            w.hosts[sb.0].core.arp[sb_if.0].insert(addr(S2_ACTIVE), mac(S2_ACTIVE), t0);
            for t in (0..shards).filter(|&t| t != s) {
                w.hosts[ha.0].core.arp[ha_bb_if.0].insert(
                    ShardedCampus::backbone_addr(t),
                    ShardedCampus::backbone_mac(t),
                    t0,
                );
            }
        }
        stack::start(&mut sim);

        let homes = homes_of[s as usize].clone();
        let next_active = ShardedCampus::addr((s + 1) % shards, S2_ACTIVE);
        let (burst, ticks) = (cfg.burst, cfg.ticks);
        let churn_seed = shard_seed(cfg.seed, s) ^ 0x5A5A_5A5A_5A5A_5A5A;
        sim.schedule_at(SimTime::ZERO + S2_PRIME, move |sim| {
            stack::add_module(
                sim,
                churn,
                Box::new(FleetChurn::new(
                    addr(S2_ACTIVE),
                    next_active,
                    homes,
                    burst,
                    SimDuration::from_millis(S2_TICK_MS),
                    ticks,
                    churn_seed,
                )),
            );
        });
        sim
    };

    // Each shard's agents and churn source add their counts straight into
    // the one row, and their latencies into the one list.
    let tally = |w: &mut Network, now: SimTime, acc: &mut (S2Row, Vec<u64>), span: &mut Span| {
        let (row, latencies_ns) = acc;
        for h in 0..w.hosts.len() {
            let host = &mut w.hosts[h];
            for m in 0..host.module_count() {
                let mid = ModuleId(m);
                if let Some(HomeAgent { machine: agent }) = host.module_mut::<HomeAgent>(mid) {
                    // Host order per shard is fixed: ha, sb, churn.
                    if h == 0 {
                        row.ha_processed += agent.stats.processed.get();
                        row.ha_accepted += agent.stats.accepted.get();
                        row.wrong_shard += agent.wrong_shard.get();
                        row.replicas_sent += agent.stats.replicas_sent.get();
                        row.live_bindings += agent.bindings.live(now).len() as u64;
                        row.journal_records += agent.journal.len() as u64;
                    } else {
                        row.replicas_applied += agent.stats.replicas_applied.get();
                        row.standby_bindings += agent.bindings.live(now).len() as u64;
                    }
                } else if let Some(churn) = host.module_mut::<FleetChurn>(mid) {
                    row.sent += churn.sent;
                    row.misdirected += churn.misdirected;
                    row.redirected += churn.redirected;
                    row.accepted += churn.accepted;
                    row.denied += churn.denied;
                    latencies_ns.append(&mut churn.latencies_ns);
                    span.widen(churn.first_accept, churn.last_accept);
                }
            }
        }
    };

    let Fleet {
        row: (mut row, mut latencies),
        span,
        events,
        batches,
        arena_resets,
        wall_ns,
        journeys,
        metrics,
    } = run_fleet(shards, wall_start, deadline, build, tally);
    row.wall_ns = wall_ns;
    row.events = events;
    row.batches = batches;
    row.span_ns = span.ns();
    row.regs_per_sec = rate_per_sec(row.accepted, row.span_ns);
    latencies.sort_unstable();
    row.p99_latency_ns = percentile(&latencies, 99);
    row.request_bytes = (row.sent + row.redirected) * REQUEST_LEN as u64;
    // `ha_processed` already counts the wrong-shard denial replies: the
    // denying agent is just another shard's active.
    row.reply_bytes = row.ha_processed * REPLY_LEN as u64;
    row.replica_bytes = row.replicas_sent * REPLICA_LEN as u64;
    row.bytes_per_binding = (row.request_bytes + row.reply_bytes + row.replica_bytes)
        .checked_div(row.live_bindings)
        .unwrap_or(0);

    S2Result {
        cfg: *cfg,
        row,
        journeys,
        metrics,
        arena_resets,
    }
}

pub(super) const S2: Experiment = Experiment {
    name: "s2_ha_fleet",
    about: "S2: a sharded home-agent fleet serving 100k mobile hosts under Zipf churn",
    params: &[
        Param {
            key: "shards",
            default: 16,
            min: ShardedCampus::MIN_SHARDS as u64,
            max: ShardedCampus::MAX_SHARDS as u64,
        },
        Param {
            key: "mobile_hosts",
            default: 100_000,
            min: ShardedCampus::MIN_SHARDS as u64,
            // Homes count up from 36.0.0.1 inside 36.0.0.0/8.
            max: (1 << 24) - 2,
        },
        Param::count("burst", 16),
        Param::count("ticks", 600),
        SEED,
    ],
    artifacts: &["s2_fleet.bench", "s2_fleet.journeys", "s2_fleet.metrics"],
    run: |p| {
        let cfg = S2Config {
            shards: p.get_u32("shards"),
            mobile_hosts: p.get_u32("mobile_hosts"),
            burst: p.get_u32("burst"),
            ticks: p.get_u32("ticks"),
            seed: p.get("seed"),
            batching: true,
        };
        let r = run_s2(&cfg, 1);
        vec![
            Artifact::Sidecar(SidecarKind::Bench, "s2_fleet", r.to_json()),
            Artifact::Sidecar(SidecarKind::Journeys, "s2_fleet", r.journeys),
            Artifact::Sidecar(SidecarKind::Metrics, "s2_fleet", r.metrics),
        ]
    },
    render: report::render_s2,
};
