//! Test-bed helpers more than one experiment uses: building and settling
//! the Figure 5 test-bed, the loss probe, polling, the tables' percentile
//! and rate rules, and the harness of the sharded runs.

use std::net::Ipv4Addr;
use std::time::Instant;

use mosquitonet_core::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet_sim::{
    run_sharded, FlightDump, Json, Sim, SimDuration, SimTime, Snapshot, Summary,
};
use mosquitonet_stack::{self as stack, ModuleId, Network};

use crate::topology::{
    self, build, ShardedCampus, Testbed, TestbedConfig, COA_DEPT, COA_FOREIGN, COA_RADIO,
    FOREIGN_ROUTER, MH_HOME, ROUTER_DEPT, ROUTER_RADIO,
};
use crate::workload::{UdpEchoResponder, UdpEchoSender};

/// Echo port used by all loss experiments.
pub const ECHO_PORT: u16 = 7;

/// The plain Figure-5 test-bed under `seed`.
pub(super) fn default_testbed(seed: u64) -> Testbed {
    build(TestbedConfig {
        seed,
        ..TestbedConfig::default()
    })
}

/// Starts the standard loss probe: an echo responder on the MH and, on
/// correspondent `ch`, a sender toward the MH's home address.
pub(super) fn install_echo_from(
    tb: &mut Testbed,
    ch: stack::HostId,
    interval: SimDuration,
) -> ModuleId {
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new((MH_HOME, ECHO_PORT), interval)),
    )
}

/// The standard loss probe, sent from the department correspondent.
pub(super) fn install_echo(tb: &mut Testbed, interval: SimDuration) -> ModuleId {
    install_echo_from(tb, tb.ch_dept, interval)
}

/// Host index → display-name table for the journey export.
fn host_names(net: &Network) -> Vec<String> {
    net.hosts.iter().map(|h| h.core.name.clone()).collect()
}

/// Exports the run's flight-recorder document, naming hosts and (when
/// `origin` is set) deriving the blackout window for flights born there.
pub(super) fn journeys_json(tb: &Testbed, origin: Option<&str>) -> Json {
    tb.sim.flights().export(&host_names(tb.sim.world()), origin)
}

/// The static plan for care-of address `addr` on the department net.
fn dept_address(addr: Ipv4Addr) -> AddressPlan {
    AddressPlan::Static {
        addr,
        subnet: topology::dept_subnet(),
        router: ROUTER_DEPT,
    }
}

/// Commands a same-subnet switch to `addr` on the department net.
pub(super) fn switch_dept_address(tb: &mut Testbed, addr: Ipv4Addr) {
    tb.with_mh(|mh, ctx| mh.switch_address(ctx, dept_address(addr)));
}

/// A switch onto the radio cell's static care-of address.
pub(super) fn radio_plan(iface: stack::IfaceId, style: SwitchStyle) -> SwitchPlan {
    SwitchPlan {
        iface,
        address: AddressPlan::Static {
            addr: COA_RADIO,
            subnet: topology::radio_subnet(),
            router: ROUTER_RADIO,
        },
        style,
    }
}

/// A switch onto the department net's static care-of address.
pub(super) fn eth_plan(iface: stack::IfaceId, style: SwitchStyle) -> SwitchPlan {
    SwitchPlan {
        iface,
        address: dept_address(COA_DEPT),
        style,
    }
}

/// Carries the MH to the department net and registers `COA_DEPT` (cold).
pub(super) fn settle_on_dept(tb: &mut Testbed) {
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = eth_plan(tb.mh_eth, SwitchStyle::Cold);
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(
        tb.mh_module().away_status().map(|s| s.2).unwrap_or(false),
        "failed to settle on the department net"
    );
}

/// The static plan for `COA_FOREIGN` in the foreign site's first cell.
pub(super) fn foreign_address() -> AddressPlan {
    AddressPlan::Static {
        addr: COA_FOREIGN,
        subnet: topology::foreign_subnet(),
        router: FOREIGN_ROUTER,
    }
}

/// Moves the MH to the foreign site and registers `COA_FOREIGN` (cold).
pub(super) fn settle_on_foreign(tb: &mut Testbed) {
    tb.move_mh_eth(tb.lan_foreign);
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: foreign_address(),
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
}

/// Moves the FA-mode MH to the foreign site's first cell and registers
/// through that cell's foreign agent.
pub(super) fn settle_fa_mh_on_foreign(tb: &mut Testbed) {
    tb.move_mh_eth(tb.lan_foreign);
    let (mh, eth) = (tb.mh, tb.mh_eth);
    stack::bring_iface_up(&mut tb.sim, mh, eth);
    tb.run_for(SimDuration::from_secs(1));
    tb.with_fa_mh(|m, ctx| m.moved(ctx));
    tb.run_for(SimDuration::from_secs(3));
    assert!(
        tb.fa_mh_module().current_fa().is_some(),
        "FA-mode MH failed to register"
    );
}

/// Steps the test-bed in 100 ms slices until `done` holds. Returns false
/// when `cap` of virtual time went by first.
pub(super) fn poll_until(
    tb: &mut Testbed,
    cap: SimDuration,
    mut done: impl FnMut(&mut Testbed) -> bool,
) -> bool {
    let slice = SimDuration::from_millis(100);
    let mut waited = SimDuration::ZERO;
    while !done(tb) {
        if waited >= cap {
            return false;
        }
        tb.run_for(slice);
        waited += slice;
    }
    true
}

/// The `p`-th percentile of an ascending slice by the nearest-rank rule
/// every table here uses (the type's zero for an empty slice).
pub(super) fn percentile<T: Copy + Default>(sorted: &[T], p: usize) -> T {
    match sorted.len() {
        0 => T::default(),
        n => sorted[(n - 1) * p / 100],
    }
}

/// Summary statistics of a set of durations, in milliseconds.
pub(super) fn summary_ms(samples: &[SimDuration]) -> Summary {
    let mut summary = Summary::new();
    for d in samples {
        summary.add(d.as_millis_f64());
    }
    summary
}

/// A JSON object of unsigned integers, members in the given order.
pub(super) fn uints<const N: usize>(members: [(&'static str, u64); N]) -> Json {
    Json::obj(members.map(|(key, value)| (key, Json::UInt(value))))
}

/// Declares a result row and its `to_json` from one field list: each
/// field is named once, and `to_json` renders every field before the `;`
/// under its own name, in declaration order. Fields after the `;` stay out
/// of the JSON (a wall-clock reading would break a sidecar's byte-stability).
macro_rules! result_row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* pub $field:ident: $ty:ty,)*
            $(; $($(#[$xdoc:meta])* pub $xfield:ident: $xty:ty,)*)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
            $($($(#[$xdoc])* pub $xfield: $xty,)*)?
        }

        impl $name {
            /// Renders the row as a JSON object, fields in declaration order.
            pub fn to_json(&self) -> mosquitonet_sim::Json {
                mosquitonet_sim::Json::obj([
                    $((stringify!($field), mosquitonet_sim::Json::from(self.$field)),)*
                ])
            }
        }
    };
}
pub(super) use result_row;

/// First-to-last arrival window of a measured stream.
#[derive(Clone, Copy, Default, Debug)]
pub(super) struct Span {
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl Span {
    /// Widens the window to cover another observer's first/last instants.
    pub(super) fn widen(&mut self, first: Option<SimTime>, last: Option<SimTime>) {
        self.first = [self.first, first].into_iter().flatten().min();
        self.last = [self.last, last].into_iter().flatten().max();
    }

    /// The window's length in virtual nanoseconds (0 when empty).
    pub(super) fn ns(&self) -> u64 {
        match (self.first, self.last) {
            (Some(f), Some(l)) if l > f => (l - f).as_nanos(),
            _ => 0,
        }
    }
}

/// `count` per second over a window of `ns` nanoseconds, in integer math
/// (0 for an empty window).
pub(super) fn rate_per_sec(count: u64, ns: u64) -> u64 {
    (count as u128 * 1_000_000_000)
        .checked_div(ns as u128)
        .unwrap_or(0) as u64
}

/// What [`run_fleet`] hands back: the row and span every shard's `tally`
/// filled, the engine's totals over all shards, and the run-wide
/// documents.
pub(super) struct Fleet<R> {
    pub(super) row: R,
    /// First-to-last instant of whatever the experiment measures.
    pub(super) span: Span,
    pub(super) events: u64,
    pub(super) batches: u64,
    pub(super) arena_resets: u64,
    /// Real nanoseconds from `started` until the last shard finished; the
    /// documents are built after it stops.
    pub(super) wall_ns: u64,
    /// Each flight's hops in (time, shard, seq) order across the shards.
    pub(super) journeys: Json,
    /// The shards' metrics snapshots, union-and-sum.
    pub(super) metrics: Json,
}

/// The harness of every sharded run (S2 and S3): steps the shards `build`
/// makes over the backbone trunk until `deadline`, by
/// [`ShardedCampus::LOOKAHEAD`] (each built shard is checked against it),
/// then lets `tally` add each finished shard's world, in shard order, to
/// the one row and span. The documents fold the shards in shard order
/// too, so host names line up with the `host_base` offsets of the flight
/// dumps.
pub(super) fn run_fleet<R: Default>(
    shards: u32,
    started: Instant,
    deadline: SimTime,
    build: impl Fn(u32) -> Sim<Network>,
    tally: impl Fn(&mut Network, SimTime, &mut R, &mut Span),
) -> Fleet<R> {
    let (mut row, mut span) = (R::default(), Span::default());
    // Everything the documents need from a shard.
    let finish = |s: u32, mut sim: Sim<Network>| {
        let now = sim.now();
        let names = host_names(sim.world());
        let snapshot = sim.metrics().snapshot();
        let dump = sim.flights_mut().dump(s, s * ShardedCampus::HOSTS);
        let engine = [sim.events_executed(), sim.batches_executed()];
        let arena_resets = sim.world().arena_resets();
        tally(sim.world_mut(), now, &mut row, &mut span);
        (names, snapshot, dump, engine, arena_resets)
    };
    // A device on the backbone that transmits faster than the constant
    // assumes could stage an envelope inside the window it was sent in.
    let build = |s: u32| {
        let sim = build(s);
        if let Some(bound) = sim.world().portal_lookahead() {
            assert!(
                bound >= ShardedCampus::LOOKAHEAD,
                "shard {s}'s portal lookahead {bound:?} is below the {:?} the runner steps by",
                ShardedCampus::LOOKAHEAD
            );
        }
        sim
    };
    let outs = run_sharded(shards, 1, ShardedCampus::LOOKAHEAD, deadline, build, finish);
    let wall_ns = started.elapsed().as_nanos() as u64;

    let (mut names, mut snapshots, mut dumps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut batches, mut arena_resets) = (0, 0, 0);
    for (shard_names, snapshot, dump, [e, b], resets) in outs {
        names.extend(shard_names);
        snapshots.push(snapshot);
        dumps.push(dump);
        events += e;
        batches += b;
        arena_resets += resets;
    }
    Fleet {
        row,
        span,
        events,
        batches,
        arena_resets,
        wall_ns,
        journeys: FlightDump::export(&dumps, &names, None),
        metrics: Snapshot::merged(snapshots).to_json(),
    }
}

#[cfg(test)]
mod tests {
    use mosquitonet_link::presets;
    use mosquitonet_stack::LanId;
    use mosquitonet_wire::MacAddr;

    use super::*;

    /// Shard `s` of a two-shard campus. On shard 1 the gateway has a second
    /// backbone port whose fixed transmit cost is 100 µs, not 800.
    fn campus_with_a_fast_port(s: u32) -> Sim<Network> {
        let mut campus = ShardedCampus::wire(s, 2, 1996, ["gw", "a", "b"]);
        let gw = campus.gw;
        let net = campus.sim.world_mut();
        assert_eq!(net.portal_lookahead(), Some(ShardedCampus::LOOKAHEAD));
        if s == 1 {
            let backbone = net.lans.iter().position(|lan| lan.name() == "backbone");
            let mut port = presets::wired_ethernet("eth2", MacAddr::from_index(99));
            port.tx_fixed_overhead = SimDuration::from_micros(100);
            let port = net.host_mut(gw).core.add_iface(port);
            net.attach(gw, port, LanId(backbone.expect("a backbone")));
            assert_eq!(
                net.portal_lookahead(),
                Some(SimDuration::from_micros(100) + presets::TRUNK_ONE_WAY),
                "the fast port sets the bound"
            );
        }
        campus.sim
    }

    #[test]
    #[should_panic(expected = "shard 1's portal lookahead 150us is below the 850us")]
    fn a_shard_whose_portal_undercuts_the_lookahead_is_refused() {
        let deadline = SimTime::ZERO + SimDuration::from_millis(10);
        let tally = |_: &mut Network, _: SimTime, _: &mut (), _: &mut Span| {};
        run_fleet(2, Instant::now(), deadline, campus_with_a_fast_port, tally);
    }
}
