//! Every pinned run, declared once: each [`PINNED`] row runs as the
//! `experiment` binary runs it, and each sidecar it writes must equal its
//! `tests/golden/` copy; its report, rendered from those goldens alone,
//! must equal what the run prints. Beside the table: `inspect` over the C5 row, and a
//! drop-heavy run whose control-plane notes are pinned. After a deliberate change, regenerate:
//! `UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test goldens`.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::path::Path;
use std::process::Command;

use bytes::Bytes;
use mosquitonet_core::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet_link::{FaultPlan, FaultRates};
use mosquitonet_sim::{Json, SimDuration, SimTime};
use mosquitonet_stack::{self as stack, DropReason, HostId, IfaceId, RouteEntry, SendOptions};
use mosquitonet_testbed::experiments::{Artifact, Experiment, Params};
use mosquitonet_testbed::topology::{
    self, build, Testbed, TestbedConfig, CH_DEPT, CH_FAR, COA_DEPT, COA_RADIO, MH_HOME,
    ROUTER_DEPT, ROUTER_RADIO,
};
use mosquitonet_testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet_wire::{Cidr, IcmpMessage, IpProto, Ipv4Header, Ipv4Packet, UdpDatagram};

/// One row per pinned run: a registry name and its `key=value` arguments.
const PINNED: &[&str] = &[
    "fig7_registration runs=4 seed=1996",
    "c4_lossy_registration switches=2 seed=1996",
    "c5_ha_crash_recovery seed=1996",
    "c6_standby_failover seed=1996",
    "c7_spoofed_registration seed=1996",
    "a1_foreign_agent_ablation iterations=4 seed=1996",
    "s1_many_correspondents correspondents=512 seed=1996",
    "s2_ha_fleet shards=4 mobile_hosts=200 burst=4 ticks=20 seed=1996",
    "s3_saturation pairs=2 burst=8 ticks=10 seed=1996",
];

/// `inspect` over the C5 row's artifacts, and the golden its stdout must
/// equal (`None`: it need only exit 0).
const INSPECTED: &[(&str, Option<&str>)] = &[
    ("blackout c5", Some("c5_blackout.txt")),
    ("blackout --json c5", Some("c5_blackout.json")),
    ("top-hops --json c5", Some("c5_top_hops.json")),
    ("journeys --dropped c5", None),
    ("top-hops c5", None),
];

const DROP_HEAVY: &str = "drop_heavy.trace.txt";
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const ARTIFACTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../target/test-metrics/goldens"
);

/// The registry entry a row names.
fn entry(row: &str) -> &'static Experiment {
    let name = row.split(' ').next().expect("a name");
    Experiment::find(name).unwrap_or_else(|| panic!("{name} is not registered"))
}

/// The checked parameters of `run`.
fn params(run: &str) -> Params {
    let args: Vec<&str> = run.split(' ').skip(1).collect();
    Params::parse(entry(run), &args).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `run` as the `experiment` binary does, into a fresh `dir`, and
/// returns each sidecar it wrote: (file name, contents).
fn run_into(run: &str, dir: &Path) -> Vec<(String, String)> {
    let exp = entry(run);
    let artifacts = (exp.run)(&params(run));
    let stems: Vec<String> = artifacts.iter().map(Artifact::stem).collect();
    assert_eq!(stems, exp.artifacts, "{run} must write what it declares");
    let _ = std::fs::remove_dir_all(dir);
    let mut files = Vec::new();
    for artifact in &artifacts {
        let path = artifact.write_in(dir).expect("write artifact");
        if let Artifact::Sidecar(..) = artifact {
            let got = std::fs::read_to_string(path).expect("read back");
            files.push((format!("{}.json", artifact.stem()), got));
        }
    }
    files
}

/// Asserts `got` equals the golden `file`; with `UPDATE_GOLDEN` set in the
/// environment the golden is (re)written first.
fn assert_golden(file: &str, got: &str, run: &str) {
    let path = Path::new(GOLDEN).join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("update golden");
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file}: {e}; run with UPDATE_GOLDEN=1 to create it"));
    assert!(got == want, "{run}: {file} differs from its golden");
}

/// Every row against its goldens, then twice at another seed: same seed,
/// same bytes.
#[test]
fn pinned_runs_match_their_goldens_and_repeat_byte_for_byte() {
    for row in PINNED {
        let exp = entry(row);
        for (file, got) in run_into(row, &Path::new(ARTIFACTS).join(exp.name)) {
            assert_golden(&file, &got, row);
        }
        let run = row.replace("seed=1996", "seed=7");
        let dir = Path::new(ARTIFACTS).join(format!("{}-seed7", exp.name));
        let (a, b) = (run_into(&run, &dir), run_into(&run, &dir));
        for ((file, x), (_, y)) in a.iter().zip(&b) {
            assert!(x == y, "{run}: two runs wrote different {file}");
        }
    }
    let c5 = Path::new(ARTIFACTS).join("c5_ha_crash_recovery");
    for &(args, golden) in INSPECTED {
        let out = Command::new(env!("CARGO_BIN_EXE_inspect"))
            .args(args.split(' '))
            .env("MOSQUITONET_METRICS_DIR", &c5)
            .output()
            .expect("spawn inspect");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "inspect {args}: {stderr}");
        if let Some(file) = golden {
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            assert_golden(file, &stdout, &format!("inspect {args}"));
        }
    }
}

/// The report is a view of the sidecars: each row's golden files, parsed
/// from disk, render through the registry's `render` into exactly the
/// text the run itself prints.
#[test]
fn every_pinned_report_renders_from_its_golden_documents() {
    for &run in PINNED {
        let (exp, params) = (entry(run), params(run));
        let printed = exp.report(&(exp.run)(&params));
        let sidecars = exp.artifacts.iter().filter(|stem| !stem.ends_with(".pcap"));
        let docs: Vec<Json> = sidecars
            .map(|stem| {
                let path = Path::new(GOLDEN).join(format!("{stem}.json"));
                let text = std::fs::read_to_string(&path).expect("a golden per sidecar");
                let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
                let (_, key) = stem.rsplit_once('.').expect("{name}.{kind}");
                doc.at::<&Json>(key).clone()
            })
            .collect();
        let docs: Vec<&Json> = docs.iter().collect();
        assert_eq!(
            (exp.render)(&docs),
            printed,
            "{run}: the report rendered from the goldens differs from the run's"
        );
    }
}

/// `inspect` reads a document strictly: a journeys sidecar that lost a
/// member the export always writes exits 1 naming it, never printing a
/// plausible zero in its place.
#[test]
fn inspect_names_a_missing_member_and_exits_1() {
    let golden = Path::new(GOLDEN).join("c5_ha_crash_recovery.journeys.json");
    let text = std::fs::read_to_string(golden).expect("the C5 journeys golden");
    let Json::Obj(mut doc) = Json::parse(&text).expect("parse") else {
        panic!("a sidecar is an object");
    };
    let (_, Json::Obj(journeys)) = doc.iter_mut().find(|(k, _)| k == "journeys").expect("body")
    else {
        panic!("a journeys body is an object");
    };
    journeys.retain(|(key, _)| key != "flights");
    let dir = Path::new(ARTIFACTS).join("inspect-missing-member");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("c5_ha_crash_recovery.journeys.json");
    std::fs::write(&path, Json::Obj(doc).render_pretty()).expect("write the copy");
    let out = Command::new(env!("CARGO_BIN_EXE_inspect"))
        .arg("journeys")
        .arg(&path)
        .output()
        .expect("spawn inspect");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "inspect journeys: {stderr}");
    assert!(
        stderr.contains("`flights`"),
        "stderr names the member: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing printed for a broken document"
    );
}

#[test]
fn every_golden_file_is_read() {
    let mut read = BTreeSet::from([DROP_HEAVY.to_string()]);
    read.extend(INSPECTED.iter().filter_map(|(_, g)| g.map(String::from)));
    for stem in PINNED.iter().flat_map(|row| entry(row).artifacts) {
        read.insert(format!("{stem}.json")); // a pcap stem names no golden
    }
    let files = std::fs::read_dir(GOLDEN).expect("tests/golden");
    let names = files.map(|f| f.expect("entry").file_name().to_string_lossy().into_owned());
    let unread: Vec<String> = names.filter(|f| !read.contains(f)).collect();
    assert!(unread.is_empty(), "unread goldens: {unread:?}");
}

// The drop-heavy run: the `tests/telemetry_drops.rs` cold Ethernet → radio
// switch plus a fault plan, a carried-away cable, an IGMP join, a capture
// tap, a crashed host and one probe per drop reason, so every reason
// fires. Metrics and journeys say how many packets died and where; the
// trace golden pins that the flight recorder's notes hold the control
// plane's lines (devices, hand-offs, the crash) and no packet's. With the
// recorder off the run must change nothing but what it records.

const ECHO_PORT: u16 = 7;
const GROUP: Ipv4Addr = Ipv4Addr::new(224, 0, 1, 9);
const NOWHERE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
const SPOOFED: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
const ABSENT_DEPT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 99);
const BOUNCED: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

/// What one run leaves behind.
struct Outcome {
    notes: String,
    metrics: String,
    journeys: Json,
    events: u64,
    now: SimTime,
}

fn send(tb: &mut Testbed, host: HostId, header: Ipv4Header, payload: Bytes) {
    let packet = Ipv4Packet::new(header, payload);
    stack::ip_send_packet(&mut tb.sim, host, packet, SendOptions::default());
}

/// An echo request of `len` payload bytes; an unspecified `src` engages
/// source selection, a concrete one is carried as-is (the spoofing probe).
fn ping(tb: &mut Testbed, host: HostId, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, len: usize) {
    let mut header = Ipv4Header::new(src, dst, IpProto::Icmp);
    header.ttl = ttl;
    let echo = IcmpMessage::EchoRequest {
        ident: 1,
        seq: 1,
        payload: Bytes::from(vec![0; len]),
    };
    send(tb, host, header, echo.to_bytes());
}

fn cold_switch(tb: &mut Testbed, iface: IfaceId, addr: Ipv4Addr, subnet: Cidr, router: Ipv4Addr) {
    let address = AddressPlan::Static {
        addr,
        subnet,
        router,
    };
    let plan = SwitchPlan {
        iface,
        address,
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(tb.mh_module().away_status().map(|s| s.2).unwrap_or(false));
}

fn run(recorder_on: bool) -> Outcome {
    let mut tb = build(TestbedConfig {
        seed: 1996,
        with_far_ch: true,
        transit_filter: true,
        ..TestbedConfig::default()
    });
    if !recorder_on {
        // Bring-up hops and notes were recorded while `build` ran.
        tb.sim.flights_mut().set_enabled(false);
        tb.sim.flights_mut().clear();
    }
    let (mh, ch, router, lan_dept) = (tb.mh, tb.ch_dept, tb.router, tb.lan_dept);
    let (eth, radio, router_dept_if) = (tb.mh_eth, tb.mh_radio, tb.router_dept_if);
    let ch_far = tb.ch_far.expect("built with a far correspondent");
    let unspec = Ipv4Addr::UNSPECIFIED;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    let echo = UdpEchoSender::new((MH_HOME, ECHO_PORT), SimDuration::from_millis(50));
    let sender = stack::add_module(&mut tb.sim, ch, Box::new(echo));

    // Settle on the department Ethernet (registered, echoes tunneled).
    tb.move_mh_eth(Some(lan_dept));
    cold_switch(&mut tb, eth, COA_DEPT, topology::dept_subnet(), ROUTER_DEPT);

    // Every kind of injected fault on the department wire until the probes.
    let rates = FaultRates {
        drop: 0.05,
        duplicate: 0.05,
        reorder: 0.05,
        corrupt: 0.05,
        delay: 0.05,
    };
    let now = tb.sim.now();
    let plan = FaultPlan::new(rates, 1996).with_window(now, now + SimDuration::from_secs(6));
    tb.sim.world_mut().lans[lan_dept.0].set_fault_plan(Some(plan));
    stack::register_metrics(&mut tb.sim);
    tb.run_for(SimDuration::from_secs(1));

    // The router's ARP cache is warm for the care-of address: a frame is
    // on the wire when the cable is carried away, then plugged back in.
    ping(&mut tb, router, unspec, COA_DEPT, 64, 0);
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_millis(5));
    tb.move_mh_eth(Some(lan_dept));

    // A group member hears a neighbour's IGMP report.
    let router_core = &mut tb.sim.world_mut().host_mut(router).core;
    router_core.join_multicast(router_dept_if, GROUP);
    stack::dispatch(&mut tb.sim, ch, sender, |_, ctx| {
        ctx.join_multicast(IfaceId(0), GROUP)
    });

    // The telemetry_drops switch: frames die at the powered-down NIC.
    let radio_subnet = topology::radio_subnet();
    cold_switch(&mut tb, radio, COA_RADIO, radio_subnet, ROUTER_RADIO);

    // One probe per remaining drop reason, watched by a capture tap.
    tb.sim.world_mut().host_mut(ch).core.capture = true;
    ping(&mut tb, ch, unspec, CH_FAR, 1, 0); // drop.ttl
    ping(&mut tb, ch, unspec, NOWHERE, 64, 0); // drop.no_route
    ping(&mut tb, ch, SPOOFED, CH_FAR, 64, 0); // drop.filter.ingress
    ping(&mut tb, ch, unspec, ROUTER_DEPT, 64, 2000); // drop.tx_mtu
    for _ in 0..4 {
        // One more than the ARP queue holds: drop.arp_queue, then three
        // drop.arp_failure when the retries run out.
        ping(&mut tb, ch, unspec, ABSENT_DEPT, 64, 0);
    }
    let stray = UdpDatagram::new(4000, 4001, Bytes::from_static(b"?"));
    let to_router = |proto| Ipv4Header::new(CH_DEPT, ROUTER_DEPT, proto);
    let datagram = stray.to_bytes(CH_DEPT, ROUTER_DEPT);
    send(&mut tb, ch, to_router(IpProto::Udp), datagram); // drop.no_socket
    send(&mut tb, ch, to_router(IpProto::Other(99)), Bytes::new()); // drop.unclaimed

    // drop.not_local: the router bounces this net back at a host that
    // does not forward.
    let router_core = &mut tb.sim.world_mut().host_mut(router).core;
    router_core.routes.add(RouteEntry {
        dest: "198.51.100.0/24".parse().expect("const"),
        gateway: Some(CH_DEPT),
        iface: router_dept_if,
        metric: 0,
    });
    ping(&mut tb, ch, unspec, BOUNCED, 64, 0);
    tb.run_for(SimDuration::from_millis(200));
    tb.sim.world_mut().host_mut(ch).core.capture = false;

    // A node crash and reboot while the ARP retries run out.
    stack::crash_host(&mut tb.sim, ch_far);
    tb.run_for(SimDuration::from_secs(2));
    stack::restart_host(&mut tb.sim, ch_far, true);
    tb.run_for(SimDuration::from_secs(3));

    let hosts = &tb.sim.world().hosts;
    let names: Vec<String> = hosts.iter().map(|h| h.core.name.clone()).collect();
    Outcome {
        notes: stack::render_notes(&tb.sim),
        metrics: tb.sim.metrics().to_json().render_pretty(),
        journeys: tb.sim.flights().export(&names, None),
        events: tb.sim.events_executed(),
        now: tb.sim.now(),
    }
}

#[test]
fn drop_heavy_trace_matches_golden() {
    let out = run(true);
    // The run is only worth pinning while every reason fires in it.
    let journeys = out.journeys.render();
    for reason in DropReason::ALL {
        let code = reason.code();
        assert!(journeys.contains(code), "{code} never fired");
    }
    assert_golden(DROP_HEAVY, &out.notes, "drop-heavy run");
}

#[test]
fn disabling_the_recorder_changes_nothing_else() {
    let (on, off) = (run(true), run(false));
    let flights = |out: &Outcome| out.journeys.get("flights").and_then(Json::as_u64);
    assert_eq!(flights(&off), Some(0), "a disabled recorder kept a flight");
    assert_eq!(off.notes, "", "a disabled recorder kept a note");
    assert!(flights(&on) > Some(0) && !on.notes.is_empty());
    assert_eq!(on.metrics, off.metrics, "metrics depend on the recorder");
    let (ran_on, ran_off) = ((on.events, on.now), (off.events, off.now));
    assert_eq!(
        ran_on, ran_off,
        "events and final time depend on the recorder"
    );
}
