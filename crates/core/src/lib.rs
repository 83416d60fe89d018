//! MosquitoNet's contribution: agentless mobile IP.
//!
//! This crate implements the system of *"Supporting Mobility in
//! MosquitoNet"* (Baker, Zhao, Cheshire, Stone — USENIX 1996) on top of
//! the `mosquitonet-stack` host stack:
//!
//! * [`RegistrationRequest`]/[`RegistrationReply`] — the registration
//!   protocol (UDP 434), with identification-based replay protection and
//!   an optional authentication extension.
//! * [`HomeAgentMachine`] — the home agent's protocol and [`BindingTable`],
//!   serving Figure 7's 1.48 ms per registration; the [`HomeAgent`] module
//!   applies its [`HaEvent`]s as proxy ARP + VIF tunnel routes.
//! * [`RegistrationMachine`] — the registration *client*: identification,
//!   signing and reply verification, retry with backoff, renewal, lapse,
//!   boot-epoch tracking and standby failover, as one state machine that
//!   both kinds of mobile host drive (it reports [`RegEvent`]s; what a
//!   registration means for routing stays with the host).
//! * [`MobileHost`] — the mobile host as *its own* foreign agent: care-of
//!   acquisition (static or DHCP), registration through the machine, hot/cold
//!   device switching with the paper's exact step sequence and a recorded
//!   [`RegistrationTimeline`], and the [`MobilePolicyTable`] plugged into
//!   the stack's `route_override` hook (the `ip_rt_route()` override of
//!   §3.3) to choose among the four send modes of §3.2.
//! * [`ForeignAgent`]/[`FaMobileHost`] — the IETF-style baseline the
//!   paper compares against, including previous-FA forwarding (§5.1). Its
//!   host differs in who decapsulates, not in how it registers.
//!
//! The VIF itself — the virtual encapsulating interface of §3.3 — is a
//! stack mechanism: `HostCore::add_vif` creates the address-holding
//! pseudo-interface and `ModuleCtx::set_tunnel` installs the encapsulating
//! routes; this crate decides *when* they apply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod binding;
mod fleet;
mod foreign_agent;
mod home_agent;
mod journal;
mod messages;
mod mobile;
mod policy;
mod registration;
pub mod timing;

pub use backoff::RetryBackoff;
pub use binding::{BindOutcome, Binding, BindingTable};
pub use fleet::{DirectoryEntry, ShardDirectory};
pub use foreign_agent::{
    FaMobileHost, ForeignAgent, ForeignAgentConfig, ForeignAgentStats, ADVERTISE_INTERVAL,
};
pub use home_agent::{HaEvent, HaStats, HomeAgent, HomeAgentConfig, HomeAgentMachine};
pub use journal::{replay_into, BindingJournal, JournalRecord, ReplayStats};
pub use messages::{
    classify, AgentAdvertisement, BindingReplica, BindingUpdate, MessageKind, RegistrationReply,
    RegistrationRequest, ReplicaOp, ReplyCode, AUTH_EXT_LEN, IDENT_WIRE_BITS, REGISTRATION_PORT,
    REPLICA_LEN, REPLY_IDENT_WIRE_BITS, REPLY_LEN, REQUEST_LEN,
};
pub use mobile::{
    AddressPlan, AutoSwitchConfig, Candidate, MobileHost, MobileHostConfig, MobilityStats,
    RegistrationTimeline, SwitchPlan, SwitchStyle, PROBE_TIMEOUT,
};
pub use policy::{MobilePolicyTable, PolicyEntry, PolicyStats, SendMode};
pub use registration::{RegEvent, RegistrationMachine, RegistrationStats};
