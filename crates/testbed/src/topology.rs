//! The paper's Figure 5 test-bed.
//!
//! * **net 36.135.0.0/24** — wired Ethernet, the mobile host's home net.
//! * **net 36.8.0.0/24** — wired Ethernet (the CS department net), where
//!   the correspondent host lives and one visiting position for the MH.
//! * **net 36.134.0.0/16** — the Metricom radio cell.
//! * a **router** (the Pentium 90) joining all three, optionally
//!   collocated with the **home agent** ("our implementation does not
//!   require the home agent to be collocated with the router", §4 — both
//!   layouts are supported);
//! * an optional "rest of the Internet" **cloud** leading to a distant
//!   correspondent ("we received similar results for a correspondent host
//!   located on a campus network outside the department", §4).
//!
//! Beside it, [`ShardedCampus`] wires one shard of the campus-over-backbone
//! world the sharded experiments (S2, S3) partition across worker threads.

use std::net::Ipv4Addr;

use mosquitonet_core::{HomeAgent, HomeAgentConfig, MobileHost, MobileHostConfig};
use mosquitonet_dhcp::{DhcpServer, ReusePolicy};
use mosquitonet_link::{presets, Device};
use mosquitonet_sim::{shard_seed, Sim, SimDuration};
use mosquitonet_stack::{
    self as stack, HostId, IfaceId, LanId, Module, ModuleCtx, ModuleId, NetSim, Network, RouteEntry,
};
use mosquitonet_wire::{Cidr, MacAddr};

/// The mobile host's permanent home address.
pub const MH_HOME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);

/// The router's address on the home net (also the HA when collocated).
pub const ROUTER_HOME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 1);

/// A separate home agent's address (when not collocated).
pub const HA_SEPARATE: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 2);

/// The standby home agent's address (failover experiments).
pub const STANDBY_HA: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 3);

/// The router's address on the department net.
pub const ROUTER_DEPT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 1);

/// The router's address in the radio cell.
pub const ROUTER_RADIO: Ipv4Addr = Ipv4Addr::new(36, 134, 0, 1);

/// The department-net correspondent host.
pub const CH_DEPT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 7);

/// The distant correspondent, on a campus net beyond the cloud.
pub const CH_FAR: Ipv4Addr = Ipv4Addr::new(171, 64, 0, 7);

/// Static care-of address used when visiting the department net.
pub const COA_DEPT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 42);

/// Alternate department care-of address (same-subnet switch experiment).
pub const COA_DEPT_ALT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 43);

/// Static care-of address used in the radio cell.
pub const COA_RADIO: Ipv4Addr = Ipv4Addr::new(36, 134, 0, 42);

/// The department DHCP server's address.
pub const DHCP_DEPT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 2);

/// The foreign site's router (a different administrative domain reached
/// across the cloud — where the MH's home address is *not* local and
/// transit filters bite).
pub const FOREIGN_ROUTER: Ipv4Addr = Ipv4Addr::new(128, 32, 0, 1);

/// Care-of address used when visiting the foreign site.
pub const COA_FOREIGN: Ipv4Addr = Ipv4Addr::new(128, 32, 0, 42);

/// The department net's foreign agent (baseline experiments).
pub const FA_DEPT_ADDR: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 4);

/// The attacker host on the department net (the C7 spoof/replay
/// experiment): an ordinary on-subnet machine with no special powers
/// beyond sending UDP to the registration port.
pub const ATTACKER_DEPT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 66);

/// The foreign site's foreign agent (baseline experiments).
pub const FA_FOREIGN_ADDR: Ipv4Addr = Ipv4Addr::new(128, 32, 0, 4);

/// The foreign site's *second* subnet's router address (the site has two
/// adjacent cells; localized roaming between them is the A1 scenario).
pub const FOREIGN2_ROUTER: Ipv4Addr = Ipv4Addr::new(128, 32, 1, 1);

/// Care-of address on the foreign site's second subnet.
pub const COA_FOREIGN2: Ipv4Addr = Ipv4Addr::new(128, 32, 1, 42);

/// The second foreign subnet's foreign agent.
pub const FA_FOREIGN2_ADDR: Ipv4Addr = Ipv4Addr::new(128, 32, 1, 4);

/// The home subnet.
pub fn home_subnet() -> Cidr {
    "36.135.0.0/24".parse().expect("const")
}

/// The department subnet.
pub fn dept_subnet() -> Cidr {
    "36.8.0.0/24".parse().expect("const")
}

/// The radio subnet.
pub fn radio_subnet() -> Cidr {
    "36.134.0.0/16".parse().expect("const")
}

/// The distant campus subnet.
pub fn far_subnet() -> Cidr {
    "171.64.0.0/24".parse().expect("const")
}

/// The foreign site's subnet.
pub fn foreign_subnet() -> Cidr {
    "128.32.0.0/24".parse().expect("const")
}

/// The foreign site's second subnet (the adjacent cell).
pub fn foreign2_subnet() -> Cidr {
    "128.32.1.0/24".parse().expect("const")
}

/// Which mobile-IP client runs on the mobile host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MhMode {
    /// The paper's agentless design ([`MobileHost`]).
    Mosquito,
    /// The IETF foreign-agent baseline
    /// ([`FaMobileHost`](mosquitonet_core::FaMobileHost)).
    ForeignAgent,
}

/// Test-bed build options.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// RNG seed for the run.
    pub seed: u64,
    /// Collocate the home agent on the router (the paper's usual layout).
    pub ha_on_router: bool,
    /// Build the Internet cloud and the distant correspondent.
    pub with_far_ch: bool,
    /// One-way latency of the cloud link.
    pub cloud_latency: SimDuration,
    /// Run a DHCP server on the department net (pool .40–.49).
    pub with_dhcp: bool,
    /// DHCP address-reuse policy.
    pub dhcp_policy: ReusePolicy,
    /// DHCP lease time.
    pub dhcp_lease: SimDuration,
    /// Enable the transit-traffic filter on the router's upstream
    /// (cloud-facing) interface.
    pub transit_filter: bool,
    /// Home agent sends binding updates to previous care-of addresses.
    pub ha_notify_previous: bool,
    /// Build the foreign site (its own router + LAN across the cloud).
    pub with_foreign_site: bool,
    /// Enable the transit-traffic filter on the *foreign* router's
    /// cloud-facing interface (the §3.2 triangle-route failure case).
    pub foreign_transit_filter: bool,
    /// Run foreign agents on the department net and the foreign site.
    pub with_foreign_agents: bool,
    /// Which mobile-IP client runs on the MH.
    pub mh_mode: MhMode,
    /// (SPI, key) the mobile host signs registrations with.
    pub mh_auth: Option<(u32, u64)>,
    /// (SPI, key) the home agent verifies the MH's registrations with:
    /// the authentication extension (the paper's
    /// prescribed-but-unimplemented security).
    pub ha_auth_key: Option<(u32, u64)>,
    /// Build a standby home agent on the home net: the primary replicates
    /// bindings to it, and the MH lists it as a failover target.
    pub with_standby_ha: bool,
    /// Build an attacker host on the department net (address
    /// [`ATTACKER_DEPT`]). The host is plain — experiments attach their
    /// own injector module to it.
    pub with_attacker: bool,
    /// Binding lifetime the MH requests, seconds. The chaos experiments
    /// shrink it so renewals (at lifetime/2) come fast enough to observe
    /// crash recovery within a short run.
    pub mh_lifetime: u16,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 0x4d6f_7371_7569_746f, // "Mosquito"
            ha_on_router: true,
            with_far_ch: false,
            cloud_latency: SimDuration::from_millis(15),
            with_dhcp: false,
            dhcp_policy: ReusePolicy::LeastRecentlyUsed,
            dhcp_lease: SimDuration::from_secs(600),
            transit_filter: false,
            ha_notify_previous: false,
            with_foreign_site: false,
            foreign_transit_filter: false,
            with_foreign_agents: false,
            mh_mode: MhMode::Mosquito,
            mh_auth: None,
            ha_auth_key: None,
            with_standby_ha: false,
            with_attacker: false,
            mh_lifetime: mosquitonet_core::timing::DEFAULT_LIFETIME_SECS,
        }
    }
}

/// The built test-bed: the simulation plus every handle an experiment
/// needs.
pub struct Testbed {
    /// The running simulation.
    pub sim: NetSim,
    /// The mobile host.
    pub mh: HostId,
    /// Its PCMCIA Ethernet.
    pub mh_eth: IfaceId,
    /// Its Metricom radio.
    pub mh_radio: IfaceId,
    /// Its VIF.
    pub mh_vif: IfaceId,
    /// The mobile-host manager module.
    pub mh_mod: ModuleId,
    /// The router (Pentium 90).
    pub router: HostId,
    /// Router interface on the home net.
    pub router_home_if: IfaceId,
    /// Router interface on the department net.
    pub router_dept_if: IfaceId,
    /// Router interface in the radio cell.
    pub router_radio_if: IfaceId,
    /// The host running the home agent (router or separate box).
    pub ha_host: HostId,
    /// The home agent module.
    pub ha_mod: ModuleId,
    /// The standby home agent's host, if built.
    pub standby_host: Option<HostId>,
    /// The standby home agent module, if built.
    pub standby_mod: Option<ModuleId>,
    /// The department correspondent host.
    pub ch_dept: HostId,
    /// The distant correspondent, if built.
    pub ch_far: Option<HostId>,
    /// The department DHCP server module, if built.
    pub dhcp_mod: Option<ModuleId>,
    /// Host of the DHCP server.
    pub dhcp_host: Option<HostId>,
    /// The home Ethernet.
    pub lan_home: LanId,
    /// The department Ethernet.
    pub lan_dept: LanId,
    /// The radio cell.
    pub cell: LanId,
    /// The foreign site's LAN, if built.
    pub lan_foreign: Option<LanId>,
    /// The foreign site's second (adjacent-cell) LAN, if built.
    pub lan_foreign2: Option<LanId>,
    /// The second foreign subnet's FA `(host, module)`, if built.
    pub fa_foreign2: Option<(HostId, ModuleId)>,
    /// The foreign site's router, if built.
    pub foreign_router: Option<HostId>,
    /// The attacker host on the department net, if built.
    pub attacker_host: Option<HostId>,
    /// The department foreign agent `(host, module)`, if built.
    pub fa_dept: Option<(HostId, ModuleId)>,
    /// The foreign site's foreign agent `(host, module)`, if built.
    pub fa_foreign: Option<(HostId, ModuleId)>,
    /// Which client the MH runs.
    pub mh_mode: MhMode,
}

/// Adds an interface to `host`, numbers it `addr` on `subnet`, and
/// installs the connected route — the three steps every numbered
/// interface of the test-beds takes.
pub(crate) fn add_numbered_iface(
    net: &mut Network,
    host: HostId,
    device: Device,
    addr: Ipv4Addr,
    subnet: Cidr,
) -> IfaceId {
    let core = &mut net.host_mut(host).core;
    let iface = core.add_iface(device);
    core.iface_mut(iface).add_addr(addr, subnet);
    core.routes.add(RouteEntry {
        dest: subnet,
        gateway: None,
        iface,
        metric: 0,
    });
    iface
}

/// Adds a single-homed host: a wired Ethernet `eth0` (MAC index `mac`)
/// numbered `addr` on `subnet`, a default route via `gateway`, cabled to
/// `lan`.
pub(crate) fn add_leaf_host(
    net: &mut Network,
    name: impl Into<String>,
    mac: u32,
    addr: Ipv4Addr,
    subnet: Cidr,
    gateway: Ipv4Addr,
    lan: LanId,
) -> (HostId, IfaceId) {
    let host = net.add_host(name);
    let device = presets::wired_ethernet("eth0", MacAddr::from_index(mac));
    let iface = add_numbered_iface(net, host, device, addr, subnet);
    net.host_mut(host).core.routes.add(RouteEntry {
        dest: Cidr::DEFAULT,
        gateway: Some(gateway),
        iface,
        metric: 0,
    });
    net.attach(host, iface, lan);
    (host, iface)
}

/// Adds a home-agent host on the home net: a leaf that also decapsulates
/// and forwards reverse tunnels.
fn add_agent_host(
    net: &mut Network,
    name: &str,
    mac: u32,
    addr: Ipv4Addr,
    lan_home: LanId,
) -> (HostId, IfaceId) {
    let (host, iface) = add_leaf_host(net, name, mac, addr, home_subnet(), ROUTER_HOME, lan_home);
    let core = &mut net.host_mut(host).core;
    core.forwarding = true;
    core.ipip_decap = true;
    (host, iface)
}

/// Builds the Figure 5 test-bed. The mobile host starts **at home**, all
/// infrastructure interfaces up; `stack::start` has already run.
pub fn build(cfg: TestbedConfig) -> Testbed {
    let mut net = Network::new();

    let lan_home = net.add_lan(presets::ethernet_lan("net-36-135"));
    let lan_dept = net.add_lan(presets::ethernet_lan("net-36-8"));
    let cell = net.add_lan(presets::radio_cell("net-36-134"));

    // --- Router (Pentium 90), gateway of all three nets ---
    let router = net.add_host("router");
    net.host_mut(router).core.forwarding = true;
    net.host_mut(router).core.send_redirects = true;
    let router_home_if = add_numbered_iface(
        &mut net,
        router,
        presets::wired_ethernet("eth0", MacAddr::from_index(10)),
        ROUTER_HOME,
        home_subnet(),
    );
    let router_dept_if = add_numbered_iface(
        &mut net,
        router,
        presets::wired_ethernet("eth1", MacAddr::from_index(11)),
        ROUTER_DEPT,
        dept_subnet(),
    );
    let router_radio_if = add_numbered_iface(
        &mut net,
        router,
        presets::metricom_radio("strip0", MacAddr::from_index(12)),
        ROUTER_RADIO,
        radio_subnet(),
    );
    net.attach(router, router_home_if, lan_home);
    net.attach(router, router_dept_if, lan_dept);
    net.attach(router, router_radio_if, cell);

    // --- Mobile host (Gateway Handbook 486) ---
    let mh = net.add_host("mh");
    let mh_eth = net
        .host_mut(mh)
        .core
        .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(20)));
    let mh_radio = net
        .host_mut(mh)
        .core
        .add_iface(presets::metricom_radio("strip0", MacAddr::from_index(21)));
    let mh_vif = net.host_mut(mh).core.add_vif(presets::loopback("vif0"));
    // Radio is attached to the cell from the start (it is a broadcast
    // medium: being in range is attachment; being *up* is separate).
    net.attach(mh, mh_radio, cell);
    net.attach(mh, mh_eth, lan_home);

    // --- Home agent: collocated on the router or a separate host ---
    let (ha_host, ha_addr, ha_iface) = if cfg.ha_on_router {
        (router, ROUTER_HOME, router_home_if)
    } else {
        let (ha, ha_if) = add_agent_host(&mut net, "home-agent", 30, HA_SEPARATE, lan_home);
        (ha, HA_SEPARATE, ha_if)
    };
    if cfg.ha_on_router {
        // The collocated HA decapsulates reverse-tunneled packets itself.
        net.host_mut(router).core.ipip_decap = true;
    }
    // --- Optional standby home agent (failover experiments) ---
    let (standby_host, standby_iface) = if cfg.with_standby_ha {
        let (sb, sb_if) = add_agent_host(&mut net, "standby-agent", 31, STANDBY_HA, lan_home);
        (Some(sb), Some(sb_if))
    } else {
        (None, None)
    };

    let mut ha_cfg = HomeAgentConfig::new(ha_addr, ha_iface, home_subnet());
    ha_cfg.notify_previous = cfg.ha_notify_previous;
    if let Some((spi, key)) = cfg.ha_auth_key {
        ha_cfg.auth_keys.insert(MH_HOME, (spi, key));
    }
    if cfg.with_standby_ha {
        ha_cfg.replicate_to = Some(STANDBY_HA);
    }
    let ha_mod = net
        .host_mut(ha_host)
        .add_module(Box::new(HomeAgent::new(ha_cfg)));

    let standby_mod = standby_host.map(|sb| {
        let sb_cfg = HomeAgentConfig::new(
            STANDBY_HA,
            standby_iface.expect("built together"),
            home_subnet(),
        );
        net.host_mut(sb)
            .add_module(Box::new(HomeAgent::new(sb_cfg)))
    });

    // --- Mobile-IP client module ---
    let mh_mod = match cfg.mh_mode {
        MhMode::Mosquito => {
            let mh_cfg = MobileHostConfig {
                home_addr: MH_HOME,
                home_subnet: home_subnet(),
                home_router: ROUTER_HOME,
                home_agent: ha_addr,
                standby_agents: if cfg.with_standby_ha {
                    vec![STANDBY_HA]
                } else {
                    Vec::new()
                },
                vif: mh_vif,
                lifetime: cfg.mh_lifetime,
                auth: cfg.mh_auth,
            };
            net.host_mut(mh)
                .add_module(Box::new(MobileHost::new_at_home(mh_cfg, mh_eth)))
        }
        MhMode::ForeignAgent => {
            let mut fa_mh = mosquitonet_core::FaMobileHost::new(
                MH_HOME,
                home_subnet(),
                ha_addr,
                mh_eth,
                cfg.mh_lifetime,
            );
            fa_mh.notify_previous = cfg.ha_notify_previous;
            fa_mh.reg.auth = cfg.mh_auth;
            net.host_mut(mh).add_module(Box::new(fa_mh))
        }
    };

    // --- Department correspondent host ---
    let (ch_dept, ch_if) = add_leaf_host(
        &mut net,
        "ch-dept",
        40,
        CH_DEPT,
        dept_subnet(),
        ROUTER_DEPT,
        lan_dept,
    );

    // --- Optional DHCP service on the department net ---
    let (dhcp_host, dhcp_mod) = if cfg.with_dhcp {
        let (srv_host, srv_if) = add_leaf_host(
            &mut net,
            "dhcp-dept",
            50,
            DHCP_DEPT,
            dept_subnet(),
            ROUTER_DEPT,
            lan_dept,
        );
        let mut srv = DhcpServer::new(
            srv_if,
            dept_subnet(),
            40,
            49,
            ROUTER_DEPT,
            DHCP_DEPT,
            cfg.dhcp_lease,
        );
        srv.policy = cfg.dhcp_policy;
        let mid = net.host_mut(srv_host).add_module(Box::new(srv));
        (Some(srv_host), Some(mid))
    } else {
        (None, None)
    };

    // --- Optional attacker host on the department net ---
    let attacker_host = if cfg.with_attacker {
        let (atk, _) = add_leaf_host(
            &mut net,
            "attacker",
            90,
            ATTACKER_DEPT,
            dept_subnet(),
            ROUTER_DEPT,
            lan_dept,
        );
        Some(atk)
    } else {
        None
    };

    // --- Optional Internet cloud, distant correspondent, foreign site ---
    let mut extra_up: Vec<(HostId, IfaceId)> = Vec::new();
    let need_cloud = cfg.with_far_ch || cfg.with_foreign_site;
    let cloud_net: Cidr = "192.0.1.0/24".parse().expect("const");
    let cloud = if need_cloud {
        let cloud = net.add_lan(presets::internet_cloud("cloud", cfg.cloud_latency));
        let r_cloud_if = add_numbered_iface(
            &mut net,
            router,
            presets::wired_ethernet("eth2", MacAddr::from_index(60)),
            Ipv4Addr::new(192, 0, 1, 1),
            cloud_net,
        );
        if cfg.transit_filter {
            let core = &mut net.host_mut(router).core;
            core.transit_filter = true;
            core.upstream_ifaces.push(r_cloud_if);
        }
        net.attach(router, r_cloud_if, cloud);
        extra_up.push((router, r_cloud_if));
        Some((cloud, r_cloud_if))
    } else {
        None
    };

    let ch_far = if cfg.with_far_ch {
        let (cloud, r_cloud_if) = cloud.expect("cloud built");
        let lan_far = net.add_lan(presets::ethernet_lan("net-171-64"));
        net.host_mut(router).core.routes.add(RouteEntry {
            dest: far_subnet(),
            gateway: Some(Ipv4Addr::new(192, 0, 1, 2)),
            iface: r_cloud_if,
            metric: 0,
        });

        let far_router = net.add_host("far-router");
        net.host_mut(far_router).core.forwarding = true;
        let fr_cloud_if = add_numbered_iface(
            &mut net,
            far_router,
            presets::wired_ethernet("eth0", MacAddr::from_index(61)),
            Ipv4Addr::new(192, 0, 1, 2),
            cloud_net,
        );
        let fr_lan_if = add_numbered_iface(
            &mut net,
            far_router,
            presets::wired_ethernet("eth1", MacAddr::from_index(62)),
            Ipv4Addr::new(171, 64, 0, 1),
            far_subnet(),
        );
        net.host_mut(far_router).core.routes.add(RouteEntry {
            dest: Cidr::DEFAULT,
            gateway: Some(Ipv4Addr::new(192, 0, 1, 1)),
            iface: fr_cloud_if,
            metric: 0,
        });
        net.attach(far_router, fr_cloud_if, cloud);

        let (ch, ch_far_if) = add_leaf_host(
            &mut net,
            "ch-far",
            63,
            CH_FAR,
            far_subnet(),
            Ipv4Addr::new(171, 64, 0, 1),
            lan_far,
        );
        net.attach(far_router, fr_lan_if, lan_far);
        extra_up.extend([
            (far_router, fr_cloud_if),
            (far_router, fr_lan_if),
            (ch, ch_far_if),
        ]);
        Some(ch)
    } else {
        None
    };

    // --- Optional foreign site: its own router + LANs across the cloud ---
    let (lan_foreign, lan_foreign2, foreign_router) = if cfg.with_foreign_site {
        let (cloud, r_cloud_if) = cloud.expect("cloud built");
        let lan_foreign = net.add_lan(presets::ethernet_lan("net-128-32"));
        net.host_mut(router).core.routes.add(RouteEntry {
            dest: foreign_subnet(),
            gateway: Some(Ipv4Addr::new(192, 0, 1, 3)),
            iface: r_cloud_if,
            metric: 0,
        });
        let frouter = net.add_host("foreign-router");
        let f_cloud_if = add_numbered_iface(
            &mut net,
            frouter,
            presets::wired_ethernet("eth0", MacAddr::from_index(70)),
            Ipv4Addr::new(192, 0, 1, 3),
            cloud_net,
        );
        let f_lan_if = add_numbered_iface(
            &mut net,
            frouter,
            presets::wired_ethernet("eth1", MacAddr::from_index(71)),
            FOREIGN_ROUTER,
            foreign_subnet(),
        );
        {
            let core = &mut net.host_mut(frouter).core;
            core.forwarding = true;
            core.routes.add(RouteEntry {
                dest: Cidr::DEFAULT,
                gateway: Some(Ipv4Addr::new(192, 0, 1, 1)),
                iface: f_cloud_if,
                metric: 0,
            });
            if cfg.foreign_transit_filter {
                // A security-conscious foreign site: no transit traffic.
                core.transit_filter = true;
                core.upstream_ifaces.push(f_cloud_if);
            }
        }
        net.attach(frouter, f_cloud_if, cloud);
        net.attach(frouter, f_lan_if, lan_foreign);
        // The site's second subnet: the adjacent cell for localized
        // roaming experiments.
        let lan_foreign2 = net.add_lan(presets::ethernet_lan("net-128-32-1"));
        let f_lan2_if = add_numbered_iface(
            &mut net,
            frouter,
            presets::wired_ethernet("eth2", MacAddr::from_index(72)),
            FOREIGN2_ROUTER,
            foreign2_subnet(),
        );
        net.host_mut(router).core.routes.add(RouteEntry {
            dest: foreign2_subnet(),
            gateway: Some(Ipv4Addr::new(192, 0, 1, 3)),
            iface: r_cloud_if,
            metric: 0,
        });
        net.attach(frouter, f_lan2_if, lan_foreign2);
        extra_up.extend([
            (frouter, f_cloud_if),
            (frouter, f_lan_if),
            (frouter, f_lan2_if),
        ]);
        (Some(lan_foreign), Some(lan_foreign2), Some(frouter))
    } else {
        (None, None, None)
    };

    // --- Optional foreign agents (baseline experiments) ---
    // One per visiting net that exists: a leaf that decapsulates and
    // forwards, running the foreign-agent module.
    let fa_sites = [
        (
            "fa-dept",
            80,
            FA_DEPT_ADDR,
            dept_subnet(),
            ROUTER_DEPT,
            Some(lan_dept),
        ),
        (
            "fa-foreign",
            81,
            FA_FOREIGN_ADDR,
            foreign_subnet(),
            FOREIGN_ROUTER,
            lan_foreign,
        ),
        (
            "fa-foreign2",
            82,
            FA_FOREIGN2_ADDR,
            foreign2_subnet(),
            FOREIGN2_ROUTER,
            lan_foreign2,
        ),
    ];
    let [fa_dept, fa_foreign, fa_foreign2] = fa_sites.map(|(name, mac, addr, subnet, gw, lan)| {
        let lan = lan.filter(|_| cfg.with_foreign_agents)?;
        let (h, ifc) = add_leaf_host(&mut net, name, mac, addr, subnet, gw, lan);
        net.host_mut(h).core.forwarding = true;
        net.host_mut(h).core.ipip_decap = true;
        let mid = net
            .host_mut(h)
            .add_module(Box::new(mosquitonet_core::ForeignAgent::new(
                mosquitonet_core::ForeignAgentConfig { addr, iface: ifc },
            )));
        extra_up.push((h, ifc));
        Some((h, mid))
    });

    let mut sim = Sim::with_seed(net, cfg.seed);

    // The flight recorder is a pure observer: ids come from a counter,
    // never the RNG, so enabling it cannot perturb a seeded run (the
    // golden sidecars prove it). Capture mode (pcap export) and the
    // engine profiler stay opt-in via the environment — wall-clock
    // profiles are nondeterministic and must never leak into goldens.
    sim.flights_mut().set_enabled(true);
    if std::env::var_os("MOSQUITONET_PCAP").is_some() {
        sim.flights_mut().set_capture(true);
        // Tap the router: every inter-net frame crosses it.
        sim.world_mut().host_mut(router).core.capture = true;
    }
    if std::env::var_os("MOSQUITONET_PROFILE").is_some() {
        let reg = sim.metrics().clone();
        sim.profiler_mut().enable(&reg);
    }

    // Power up all infrastructure interfaces plus the MH's home Ethernet.
    let mut to_up: Vec<(HostId, IfaceId)> = vec![
        (router, router_home_if),
        (router, router_dept_if),
        (router, router_radio_if),
        (mh, mh_eth),
        (ch_dept, ch_if),
    ];
    if !cfg.ha_on_router {
        to_up.push((ha_host, IfaceId(0)));
    }
    if let (Some(sb), Some(sb_if)) = (standby_host, standby_iface) {
        to_up.push((sb, sb_if));
    }
    if let Some(h) = dhcp_host {
        to_up.push((h, IfaceId(0)));
    }
    if let Some(h) = attacker_host {
        to_up.push((h, IfaceId(0)));
    }
    to_up.extend(extra_up);
    for (h, i) in to_up {
        stack::bring_iface_up(&mut sim, h, i);
    }
    sim.run();
    stack::start(&mut sim);

    Testbed {
        sim,
        mh,
        mh_eth,
        mh_radio,
        mh_vif,
        mh_mod,
        router,
        router_home_if,
        router_dept_if,
        router_radio_if,
        ha_host,
        ha_mod,
        standby_host,
        standby_mod,
        ch_dept,
        ch_far,
        dhcp_mod,
        dhcp_host,
        lan_home,
        lan_dept,
        cell,
        lan_foreign,
        lan_foreign2,
        foreign_router,
        attacker_host,
        fa_dept,
        fa_foreign,
        fa_foreign2,
        mh_mode: cfg.mh_mode,
    }
}

impl Testbed {
    /// Runs the simulation for a stretch of virtual time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.sim.run_for(span);
    }

    /// Read/inspect module `mid` of `host` as the concrete type an
    /// experiment installed there (panics when it is of another type).
    pub fn module<M: Module>(&mut self, host: HostId, mid: ModuleId) -> &mut M {
        self.sim
            .world_mut()
            .host_mut(host)
            .module_mut(mid)
            .unwrap_or_else(|| panic!("module is not a {}", std::any::type_name::<M>()))
    }

    /// Issues a command to the mobile host's client module — whichever
    /// of the two kinds `M` the test-bed was built with — with full
    /// context.
    fn with_mh_client<M: Module, R>(
        &mut self,
        f: impl FnOnce(&mut M, &mut ModuleCtx<'_>) -> R,
    ) -> R {
        let (mh, mh_mod) = (self.mh, self.mh_mod);
        stack::dispatch(&mut self.sim, mh, mh_mod, |module, ctx| {
            let m = module
                .as_any()
                .downcast_mut::<M>()
                .unwrap_or_else(|| panic!("MH runs no {}", std::any::type_name::<M>()));
            f(m, ctx)
        })
    }

    /// Issues a command to the mobile-host manager with full context.
    pub fn with_mh<R>(&mut self, f: impl FnOnce(&mut MobileHost, &mut ModuleCtx<'_>) -> R) -> R {
        self.with_mh_client(f)
    }

    /// Read/inspect the mobile-host manager without a context.
    pub fn mh_module(&mut self) -> &mut MobileHost {
        self.module(self.mh, self.mh_mod)
    }

    /// Issues a command to the FA-mode mobile host (baseline runs).
    pub fn with_fa_mh<R>(
        &mut self,
        f: impl FnOnce(&mut mosquitonet_core::FaMobileHost, &mut ModuleCtx<'_>) -> R,
    ) -> R {
        self.with_mh_client(f)
    }

    /// Read/inspect the FA-mode mobile host.
    pub fn fa_mh_module(&mut self) -> &mut mosquitonet_core::FaMobileHost {
        self.module(self.mh, self.mh_mod)
    }

    /// Read/inspect the home agent's protocol machine.
    pub fn ha_module(&mut self) -> &mut mosquitonet_core::HomeAgentMachine {
        &mut self.module::<HomeAgent>(self.ha_host, self.ha_mod).machine
    }

    /// Read/inspect the standby home agent's machine (panics if not built).
    pub fn standby_module(&mut self) -> &mut mosquitonet_core::HomeAgentMachine {
        let sb_mod = self.standby_mod.expect("standby built");
        let sb_host = self.standby_host.expect("standby built");
        &mut self.module::<HomeAgent>(sb_host, sb_mod).machine
    }

    /// Physically carries the MH's Ethernet cable to another LAN (or
    /// unplugs it with `None`).
    pub fn move_mh_eth(&mut self, lan: Option<LanId>) {
        let (mh, eth) = (self.mh, self.mh_eth);
        self.sim.world_mut().move_iface(mh, eth, lan);
    }

    /// Brings an MH interface up outside of any switch (hot-switch prep).
    pub fn power_up_mh_iface(&mut self, iface: IfaceId) {
        let mh = self.mh;
        stack::bring_iface_up(&mut self.sim, mh, iface);
    }
}

// ------------------------------------------------------ sharded campus

/// One shard of the campus-over-backbone world the sharded experiments
/// (S2's home-agent fleet, S3's sharded saturation) run on: a gateway
/// joining the shard's campus LAN to the shared backbone portal, plus two
/// leaf hosts on the campus net. Host order per shard is fixed — gateway,
/// leaf `.2`, leaf `.3` — so host indices mean the same thing in every
/// shard and in the merged flight-recorder name table.
///
/// The one address plan, derived by every host from the stable shard id
/// `s`: campus subnet `10.{s}.0.0/24` with the gateway at `.1` and the
/// leaves at `.2`/`.3`; the gateway's backbone address `10.99.0.{s+1}`;
/// MAC indices `16s+1` (gateway, campus side), `16s+2` (gateway, backbone
/// side — the portal MAC directory steers unicast envelopes by it),
/// `16s+3` and `16s+4` (the leaves).
pub struct ShardedCampus {
    /// The shard's engine, seeded with [`shard_seed`] of the master seed.
    pub sim: NetSim,
    /// The gateway host (forwards between campus and backbone).
    pub gw: HostId,
    /// The gateway's campus-side interface.
    pub gw_campus_if: IfaceId,
    /// The gateway's backbone-side interface.
    pub gw_backbone_if: IfaceId,
    /// The leaf hosts at `.2` and `.3`, each with its one interface.
    pub leaves: [(HostId, IfaceId); 2],
}

impl ShardedCampus {
    /// Hosts per shard — also the host-index stride of the merged
    /// flight-recorder name table.
    pub const HOSTS: u32 = 3;

    /// Fewest shards a sharded run makes sense with.
    pub const MIN_SHARDS: u32 = 2;

    /// Most shards the address plan holds: shard ids index the second
    /// octet of `10.{s}.0.0/24`, and id 99 would claim the backbone's own
    /// `10.99.0.0/24` (at 100 shards a fleet run silently loses
    /// registrations on that campus). `10.99.0.{s+1}` stays far below the
    /// broadcast address under the same bound.
    pub const MAX_SHARDS: u32 = 99;

    /// The global portal id of the backbone segment.
    const BACKBONE_PORTAL: u32 = 0;

    /// Panics unless the address plan holds `shards` shards. Sharded runs
    /// call it up front so a bad count fails on the calling thread, before
    /// any worker is spawned.
    pub fn check_shards(shards: u32) {
        assert!(
            (Self::MIN_SHARDS..=Self::MAX_SHARDS).contains(&shards),
            "a sharded run needs {}..={} shards, got {shards}",
            Self::MIN_SHARDS,
            Self::MAX_SHARDS
        );
    }

    fn octet(s: u32) -> u8 {
        u8::try_from(s).expect("shard id within the address plan")
    }

    /// Campus subnet of shard `s`: `10.{s}.0.0/24`.
    pub fn subnet(s: u32) -> Cidr {
        Cidr::new(Ipv4Addr::new(10, Self::octet(s), 0, 0), 24)
    }

    /// Address `.host` on shard `s`'s campus net: gateway `.1`, leaves
    /// `.2` and `.3`.
    pub fn addr(s: u32, host: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, Self::octet(s), 0, host)
    }

    fn mac_index(s: u32, host: u8) -> u32 {
        // Index 16s+2 is the gateway's backbone side, so the leaves sit
        // one past their host number.
        s * 16 + u32::from(host) + u32::from(host > 1)
    }

    /// Campus-side MAC of the host at `.host` on shard `s`'s campus net.
    pub fn mac(s: u32, host: u8) -> MacAddr {
        MacAddr::from_index(Self::mac_index(s, host))
    }

    /// Shard `s`'s gateway address on the shared backbone.
    pub fn backbone_addr(s: u32) -> Ipv4Addr {
        Ipv4Addr::new(10, 99, 0, Self::octet(s) + 1)
    }

    /// Shard `s`'s gateway MAC on the backbone.
    pub fn backbone_mac(s: u32) -> MacAddr {
        MacAddr::from_index(s * 16 + 2)
    }

    /// Wires shard `s` of `shards`: LANs, portal, hosts named `names`
    /// (gateway, leaf `.2`, leaf `.3`), addresses and routes, and an engine
    /// with the flight recorder on in the shard's own id namespace. No
    /// interface is up yet — callers install the modules that must see
    /// bring-up, then call [`ShardedCampus::power_up`].
    pub fn wire(s: u32, shards: u32, seed: u64, batching: bool, names: [&str; 3]) -> ShardedCampus {
        Self::check_shards(shards);
        assert!(s < shards, "shard {s} is not one of {shards}");
        let mut net = Network::new();
        net.enable_sharding(s, shards);
        let backbone = net.add_lan(presets::backbone_trunk("backbone", presets::TRUNK_ONE_WAY));
        let campus = net.add_lan(presets::ethernet_lan(format!("campus{s}")));
        net.add_portal(backbone, Self::BACKBONE_PORTAL);
        for t in 0..shards {
            net.register_portal_mac(Self::backbone_mac(t), t);
        }

        // Gateway: campus side + backbone side, forwarding between them.
        let gw = net.add_host(format!("{}{s}", names[0]));
        net.host_mut(gw).core.forwarding = true;
        let gw_campus_if = add_numbered_iface(
            &mut net,
            gw,
            presets::wired_ethernet("eth0", Self::mac(s, 1)),
            Self::addr(s, 1),
            Self::subnet(s),
        );
        let gw_backbone_if = add_numbered_iface(
            &mut net,
            gw,
            presets::wired_ethernet("eth1", Self::backbone_mac(s)),
            Self::backbone_addr(s),
            "10.99.0.0/24".parse().expect("cidr"),
        );
        for t in (0..shards).filter(|&t| t != s) {
            net.host_mut(gw).core.routes.add(RouteEntry {
                dest: Self::subnet(t),
                gateway: Some(Self::backbone_addr(t)),
                iface: gw_backbone_if,
                metric: 0,
            });
        }
        net.attach(gw, gw_campus_if, campus);
        net.attach(gw, gw_backbone_if, backbone);

        let leaves = [2u8, 3].map(|host| {
            add_leaf_host(
                &mut net,
                format!("{}{s}", names[usize::from(host) - 1]),
                Self::mac_index(s, host),
                Self::addr(s, host),
                Self::subnet(s),
                Self::addr(s, 1),
                campus,
            )
        });

        let mut sim = Sim::with_seed(net, shard_seed(seed, s));
        sim.set_batching(batching);
        sim.flights_mut().set_enabled(true);
        sim.flights_mut().set_flight_namespace(s);
        // `run_sharded`'s `finish` consumes this `Sim` and no S2/S3 sidecar
        // carries trace entries: a shard's trace would be written and never read.
        sim.trace_mut().set_enabled(false);
        if std::env::var_os("MOSQUITONET_PROFILE").is_some() {
            let reg = sim.metrics().clone();
            sim.profiler_mut()
                .enable_with_prefix(&reg, format!("profile/shard/{s}"));
        }
        ShardedCampus {
            sim,
            gw,
            gw_campus_if,
            gw_backbone_if,
            leaves,
        }
    }

    /// Brings every interface up and runs the engine to quiescence. The
    /// caller starts the stack ([`stack::start`]) once its own pre-start
    /// setup is done.
    pub fn power_up(&mut self) {
        let [(a, a_if), (b, b_if)] = self.leaves;
        for (h, i) in [
            (self.gw, self.gw_campus_if),
            (self.gw, self.gw_backbone_if),
            (a, a_if),
            (b, b_if),
        ] {
            stack::bring_iface_up(&mut self.sim, h, i);
        }
        self.sim.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_mh_is_at_home() {
        let mut tb = build(TestbedConfig::default());
        tb.run_for(SimDuration::from_secs(1));
        assert!(tb.mh_module().away_status().is_none());
        let core = &tb.sim.world().host(tb.mh).core;
        assert!(core.is_local_addr(MH_HOME));
        assert!(core.ipip_decap, "MH decapsulates for itself");
    }

    #[test]
    fn far_ch_variant_wires_the_cloud() {
        let mut tb = build(TestbedConfig {
            with_far_ch: true,
            ..TestbedConfig::default()
        });
        tb.run_for(SimDuration::from_secs(1));
        assert!(tb.ch_far.is_some());
        // The router can route to the far subnet.
        let rt = tb.sim.world().host(tb.router).core.routes.lookup(CH_FAR);
        assert!(rt.is_some());
    }

    #[test]
    fn separate_ha_variant() {
        let mut tb = build(TestbedConfig {
            ha_on_router: false,
            ..TestbedConfig::default()
        });
        tb.run_for(SimDuration::from_secs(1));
        assert_ne!(tb.ha_host, tb.router);
        assert_eq!(tb.ha_module().config().addr, HA_SEPARATE);
    }
}
