//! The registration client: one state machine, driven by both mobile hosts.
//!
//! The paper's claim (§2) is that the mobile host is its own foreign agent,
//! so [`crate::MobileHost`] and the IETF baseline [`crate::FaMobileHost`]
//! differ in who decapsulates and how a care-of address is found — not in
//! how a registration is signed, retried, verified or renewed. That half is
//! [`RegistrationMachine`], shaped like `mosquitonet_dhcp::DhcpClientMachine`:
//! the embedder forwards timer tokens and reply datagrams and acts on the
//! [`RegEvent`] that comes back.

use std::net::Ipv4Addr;

use mosquitonet_sim::{Counter, Line, MetricCell, MetricsScope, SimDuration};
use mosquitonet_stack::{Effect, Effects, SendOptions, SocketId};

use crate::backoff::RetryBackoff;
use crate::messages::{RegistrationReply, RegistrationRequest, ReplyCode, REGISTRATION_PORT};
use crate::timing::{REGISTRATION_RETRY, REGISTRATION_RETRY_BUDGET, REGISTRATION_RETRY_MAX};

/// Timer token space used by the machine (namespaced by the embedder).
const RETRY_TOKEN: u64 = 0x1;
const RENEW_TOKEN: u64 = 0x2;
const LAPSE_TOKEN: u64 = 0x3;

/// Registration-client counters: `{host}/reg/*` for either kind of host.
#[derive(Clone, Default, Debug)]
pub struct RegistrationStats {
    /// Registration requests transmitted (including retries).
    pub requests_sent: Counter,
    /// Registration replies accepted.
    pub replies_accepted: Counter,
    /// Registration replies denied (any code).
    pub denials: Counter,
    /// Retry-timer firings (each an unanswered request that timed out).
    pub retries: Counter,
    /// Retry budgets spent without a reply.
    pub backoff_exhausted: Counter,
    /// Bindings that expired before a renewal got through.
    pub binding_lapses: Counter,
    /// Replies that failed the wire checksum (counted, never acted on).
    pub corrupt_dropped: Counter,
    /// Home-agent boot-epoch changes the owner re-registered for.
    pub epoch_changes: Counter,
    /// Failovers to a different home agent.
    pub ha_failovers: Counter,
    /// Entries into degraded (agent-less) forwarding, counted by the owner.
    pub degradations: Counter,
    /// Replies a keyed host rejected as unsigned, forged or tampered.
    pub auth_fail: Counter,
}

impl RegistrationStats {
    /// Binds the counters into `scope` (conventionally `{host}/reg`) —
    /// `auth_fail` only on a `keyed` host, mirroring the home agent: an
    /// unkeyed host keeps the layout the golden sidecars pin.
    pub fn register_into(&self, scope: &MetricsScope, keyed: bool) {
        let cells = [
            ("requests_sent", &self.requests_sent),
            ("replies_accepted", &self.replies_accepted),
            ("denials", &self.denials),
            ("retries", &self.retries),
            ("backoff_exhausted", &self.backoff_exhausted),
            ("binding_lapses", &self.binding_lapses),
            ("corrupt_dropped", &self.corrupt_dropped),
            ("epoch_changes", &self.epoch_changes),
            ("ha_failovers", &self.ha_failovers),
            ("degradations", &self.degradations),
        ];
        let auth_fail = keyed.then_some(("auth_fail", &self.auth_fail));
        for (name, cell) in cells.into_iter().chain(auth_fail) {
            scope.register(name, MetricCell::Counter(cell.clone()));
        }
    }
}

/// What the machine reports upward.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegEvent {
    /// Nothing the owner needs to act on.
    None,
    /// Send again, from wherever the owner is *now* (a retry or a renewal).
    Resend,
    /// A retry budget ran out unanswered: presume the binding lost. The
    /// schedule has already restarted.
    BudgetSpent {
        /// [`RegistrationMachine::home_agent`] moved to the ring's next agent.
        failed_over: bool,
    },
    /// The agent denied the registration; the retry timer is re-armed with
    /// backoff and a `Resend` will follow.
    Denied(ReplyCode),
    /// The agent accepted; renewal and lapse timers follow the granted
    /// lifetime (0 is a deregistration: both are cancelled).
    Accepted {
        /// Granted lifetime, seconds.
        lifetime: u16,
        /// The agent restarted since the last accepted reply; an owner free
        /// to act answers with [`RegistrationMachine::note_epoch_change`]
        /// and one more `send`.
        epoch_changed: bool,
    },
    /// The binding expired at the agent before a renewal got through: the
    /// owner is unregistered and should send from scratch.
    Lapsed,
}

/// The client side of the registration protocol (§3.1, UDP 434): the
/// identification counter, request signing and reply verification, the
/// retry budget, the `[home_agent] + standby_agents` failover ring, the
/// boot epoch, and the renew-at-half / lapse-at-full binding timers. Where
/// a request goes and what being registered means stay with the embedder.
#[derive(Debug)]
pub struct RegistrationMachine {
    home_addr: Ipv4Addr,
    /// The failover ring; `agents[at]` is the agent registered with.
    agents: Vec<Ipv4Addr>,
    at: usize,
    /// Mobile–home authentication `(SPI, key)`. When set, every request is
    /// signed and only signed replies are trusted: a forged denial must
    /// not cancel the retry timer or count as a real denial.
    pub auth: Option<(u32, u64)>,
    token_base: u64,
    ident: u64,
    backoff: RetryBackoff,
    /// The boot epoch seen in the last accepted reply.
    last_epoch: Option<u16>,
    /// The `reg/*` counters.
    pub stats: RegistrationStats,
}

impl RegistrationMachine {
    /// Creates a machine for `home_addr` that registers with `home_agent`,
    /// fails over through `standby_agents` in order, and uses timer tokens
    /// `token_base + {1, 2, 3}`.
    pub fn new(
        home_addr: Ipv4Addr,
        home_agent: Ipv4Addr,
        standby_agents: &[Ipv4Addr],
        auth: Option<(u32, u64)>,
        token_base: u64,
    ) -> RegistrationMachine {
        // Jitter is seeded from the (unique, stable) home address: a topology
        // replays the same schedule while distinct hosts desynchronize.
        let seed = u64::from(u32::from(home_addr));
        RegistrationMachine {
            home_addr,
            agents: [&[home_agent][..], standby_agents].concat(),
            at: 0,
            auth,
            token_base,
            ident: 0,
            backoff: RetryBackoff::new(
                REGISTRATION_RETRY,
                REGISTRATION_RETRY_MAX,
                REGISTRATION_RETRY_BUDGET,
                seed,
            ),
            last_epoch: None,
            stats: RegistrationStats::default(),
        }
    }

    /// True when a timer token belongs to this machine.
    pub fn owns_token(&self, token: u64) -> bool {
        (RETRY_TOKEN..=LAPSE_TOKEN).contains(&token.wrapping_sub(self.token_base))
    }

    /// The home agent currently registered with (failover moves it).
    pub fn home_agent(&self) -> Ipv4Addr {
        self.agents[self.at]
    }

    /// The identification of the latest request.
    pub fn ident(&self) -> u64 {
        self.ident
    }

    /// Starts a fresh attempt (a move to a new network, as opposed to a
    /// retry): the next [`Self::send`] has a full retry budget.
    pub fn fresh_attempt(&mut self) {
        self.backoff.reset();
    }

    /// Abandons the attempt in flight (the owner moved and has nowhere to
    /// send yet): silences the retry timer and refills the budget.
    pub fn abandon(&mut self, fx: &mut Effects) {
        let token = self.token_base + RETRY_TOKEN;
        fx.push(Effect::CancelTimer { token });
        self.backoff.reset();
    }

    /// Sends one request binding `care_of` for `lifetime` seconds (0
    /// deregisters) under a fresh identification and arms the retry timer.
    /// `dst` takes the datagram: [`Self::home_agent`] itself, or the foreign
    /// agent relaying to it. [`RegEvent::BudgetSpent`] if the budget ran out.
    pub fn send(
        &mut self,
        fx: &mut Effects,
        sock: SocketId,
        dst: Ipv4Addr,
        opts: SendOptions,
        care_of: Ipv4Addr,
        lifetime: u16,
    ) -> RegEvent {
        self.ident += 1;
        let mut req = RegistrationRequest {
            lifetime,
            home_addr: self.home_addr,
            home_agent: self.home_agent(),
            care_of,
            ident: self.ident,
            auth: None,
        };
        if let Some((spi, key)) = self.auth {
            req = req.sign(spi, key);
        }
        fx.send_udp_opts(sock, (dst, REGISTRATION_PORT), req.to_bytes(), opts);
        self.stats.requests_sent.inc();
        self.arm_retry(fx)
    }

    /// Arms the retry timer from the backoff schedule. A spent budget
    /// degrades gracefully instead of giving up: the ring's next agent
    /// becomes current (no-op without standbys) and the budget refills.
    fn arm_retry(&mut self, fx: &mut Effects) -> RegEvent {
        let mut event = RegEvent::None;
        if self.backoff.budget_left() == 0 {
            self.stats.backoff_exhausted.inc();
            fx.trace("registration retry budget exhausted; re-registering from scratch");
            let from = self.home_agent();
            self.at = (self.at + 1) % self.agents.len();
            let failed_over = self.home_agent() != from;
            if failed_over {
                self.stats.ha_failovers.inc();
                let line = Line::new("failing over from home agent {} to {}");
                fx.trace(line.addr(from).addr(self.home_agent()));
            }
            event = RegEvent::BudgetSpent { failed_over };
            self.backoff.reset();
        }
        let delay = self.backoff.next_delay().expect("budget left");
        fx.set_timer(delay, self.token_base + RETRY_TOKEN);
        event
    }

    /// Handles a timer token (someone else's is [`RegEvent::None`]).
    /// `holding`: the owner still relies on the binding — registered, and
    /// not in the middle of a move. A renewal or lapse timer that outlived
    /// that is ignored: the move re-registers anyway.
    pub fn on_timer(&mut self, fx: &mut Effects, token: u64, holding: bool) -> RegEvent {
        match token.wrapping_sub(self.token_base) {
            RETRY_TOKEN => {
                self.stats.retries.inc();
                fx.trace("registration retry");
                RegEvent::Resend
            }
            RENEW_TOKEN if holding => {
                // A renewal is a fresh attempt with a full retry budget.
                self.backoff.reset();
                RegEvent::Resend
            }
            LAPSE_TOKEN if holding => {
                self.stats.binding_lapses.inc();
                fx.trace("binding lapsed at home agent; re-registering from scratch");
                self.backoff.reset();
                RegEvent::Lapsed
            }
            _ => RegEvent::None,
        }
    }

    /// Handles a datagram classified as a registration reply: drops what is
    /// corrupt, unsigned (on a keyed machine), stale or someone else's,
    /// then settles the timers and reports the verdict.
    pub fn on_reply(&mut self, fx: &mut Effects, payload: &[u8]) -> RegEvent {
        let Ok(reply) = RegistrationReply::parse(payload) else {
            // Detected (wire checksum), counted, never acted on.
            self.stats.corrupt_dropped.inc();
            fx.trace("drop.reg_corrupt: registration reply failed parse");
            return RegEvent::None;
        };
        if self.auth.is_some_and(|(_spi, key)| !reply.verify(key)) {
            self.stats.auth_fail.inc();
            fx.trace("drop.auth_fail: registration reply unsigned or bad digest");
            return RegEvent::None;
        }
        if reply.ident != self.ident || reply.home_addr != self.home_addr {
            return RegEvent::None; // stale or foreign
        }
        let token = self.token_base + RETRY_TOKEN;
        fx.push(Effect::CancelTimer { token });
        if reply.code != ReplyCode::Accepted {
            self.stats.denials.inc();
            // `registration denied: {code:?}`, the word chosen with the line.
            fx.trace(match reply.code {
                ReplyCode::Accepted => unreachable!("an accepted reply is not a denial"),
                ReplyCode::DeniedIdent => "registration denied: DeniedIdent",
                ReplyCode::DeniedAuth => "registration denied: DeniedAuth",
                ReplyCode::DeniedUnknownHome => "registration denied: DeniedUnknownHome",
                ReplyCode::DeniedLifetime => "registration denied: DeniedLifetime",
            });
            // Try again after the backoff interval, not at once: an agent
            // that keeps denying (wrong key) must not be hammered, and the
            // interval grows the longer the denials persist.
            return match self.arm_retry(fx) {
                RegEvent::None => RegEvent::Denied(reply.code),
                spent => spent,
            };
        }
        self.stats.replies_accepted.inc();
        self.backoff.reset();
        let last_epoch = self.last_epoch.replace(reply.epoch);
        let epoch_changed = last_epoch.is_some_and(|e| e != reply.epoch);
        // Renew at half the granted lifetime and watch for the binding
        // lapsing outright (renewals may all be lost); re-arming replaces.
        let [renew, lapse] = [RENEW_TOKEN, LAPSE_TOKEN].map(|t| self.token_base + t);
        if reply.lifetime > 0 {
            let granted = SimDuration::from_secs(u64::from(reply.lifetime));
            fx.set_timer(granted / 2, renew);
            fx.set_timer(granted, lapse);
        } else {
            // Deregistration (home again): no binding left to renew.
            fx.push(Effect::CancelTimer { token: renew });
            fx.push(Effect::CancelTimer { token: lapse });
        }
        RegEvent::Accepted {
            lifetime: reply.lifetime,
            epoch_changed,
        }
    }

    /// Counts and traces the owner's decision to re-register on a changed
    /// boot epoch: the agent's state was rebuilt from its journal (or
    /// lost), so one more `send` reasserts the binding under the new boot.
    pub fn note_epoch_change(&mut self, fx: &mut Effects) {
        self.stats.epoch_changes.inc();
        let line = Line::new("home agent boot epoch changed to {}; re-registering from scratch");
        fx.trace(line.num(self.last_epoch.unwrap_or(0).into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_sim::{MetricValue, MetricsRegistry};
    use ReplyCode::{Accepted, DeniedAuth};

    const HOME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    const HA: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 1);
    const STANDBY: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 3);
    const KEY: u64 = 0xfeed;

    fn send(m: &mut RegistrationMachine, fx: &mut Effects) -> RegEvent {
        let opts = SendOptions::default();
        m.send(fx, SocketId(0), m.home_agent(), opts, HOME, 300)
    }

    /// The unsigned reply the current agent would give the latest request.
    fn reply(m: &RegistrationMachine, epoch: u16) -> RegistrationReply {
        RegistrationReply {
            code: Accepted,
            lifetime: 300,
            home_addr: HOME,
            home_agent: m.home_agent(),
            epoch,
            ident: m.ident(),
            auth: None,
        }
    }

    fn accepted(lifetime: u16, epoch_changed: bool) -> RegEvent {
        RegEvent::Accepted {
            lifetime,
            epoch_changed,
        }
    }

    /// Drains `fx` to a word per effect (`send`, `-TOKEN` for a cancel,
    /// `+TOKEN:WHOLE_SECONDS` for a set; traces left out), then ` | ` and
    /// the counters other than `requests_sent` that are not zero.
    fn outcome(m: &RegistrationMachine, fx: &mut Effects) -> String {
        let word = |e| match e {
            Effect::SendUdp { .. } => Some("send".to_string()),
            Effect::CancelTimer { token } => Some(format!("-{token}")),
            Effect::SetTimer { delay, token } => {
                Some(format!("+{token}:{}", delay.as_millis() / 1_000))
            }
            _ => None,
        };
        let effects: Vec<String> = fx.drain().into_iter().filter_map(word).collect();
        let registry = MetricsRegistry::new();
        m.stats.register_into(&registry.scope("reg"), true);
        let snapshot = registry.snapshot();
        let moved = snapshot.iter().filter(|(name, value)| {
            *name != "reg/requests_sent" && !matches!(value, MetricValue::Counter(0))
        });
        let moved: Vec<&str> = moved.map(|(name, _)| &name[4..]).collect();
        format!("{} | {}", effects.join(" "), moved.join(" "))
    }

    #[test]
    fn an_unanswered_attempt_backs_off_spends_its_budget_and_rotates_the_ring() {
        for (standbys, failed_over) in [(&[][..], false), (&[STANDBY][..], true)] {
            let mut m = RegistrationMachine::new(HOME, HA, standbys, None, 0);
            let mut fx = Effects::new();
            for secs in [1, 2, 4, 8, 8, 8, 8, 8u64] {
                assert_eq!(send(&mut m, &mut fx), RegEvent::None);
                let armed = outcome(&m, &mut fx);
                let whole = armed.strip_prefix("send +1:").expect(&armed);
                let whole: u64 = whole[..whole.find(' ').unwrap()].parse().unwrap();
                assert!((secs..=secs + secs / 4).contains(&whole), "{secs}: {armed}");
                assert_eq!(m.on_timer(&mut fx, 1, false), RegEvent::Resend);
            }
            // The ninth unanswered request: the next agent (if any), the schedule anew.
            assert_eq!(send(&mut m, &mut fx), RegEvent::BudgetSpent { failed_over });
            let failover = if failed_over { "ha_failovers " } else { "" };
            let want = format!("send +1:1 | backoff_exhausted {failover}retries");
            assert_eq!(outcome(&m, &mut fx), want);
            assert_eq!(m.home_agent(), if failed_over { STANDBY } else { HA });
            assert_eq!((m.stats.requests_sent.get(), m.stats.retries.get()), (9, 8));
        }
    }

    #[test]
    fn a_reply_is_filtered_then_settles_the_timers() {
        let (none, denied) = (RegEvent::None, RegEvent::Denied(DeniedAuth));
        let renewing = "-1 +2:150 +3:300 | replies_accepted";
        let released = "-1 -2 -3 | replies_accepted";
        // On a keyed machine with one request out: the reply as mutated, the key
        // that signs it (0: unsigned), a bit flipped on the wire → event, outcome.
        type Case = (fn(&mut RegistrationReply), u64, u8, RegEvent, &'static str);
        let cases: [Case; 8] = [
            (|_| {}, KEY, 1, none, " | corrupt_dropped"),
            (|_| {}, 0, 0, none, " | auth_fail"),
            (|_| {}, 0xbad, 0, none, " | auth_fail"),
            (|r| r.ident -= 1, KEY, 0, none, " | "),
            (|r| r.home_addr = STANDBY, KEY, 0, none, " | "),
            (|_| {}, KEY, 0, accepted(300, false), renewing),
            (|r| r.lifetime = 0, KEY, 0, accepted(0, false), released),
            // A denial waits out the schedule's next (2 s) step; nothing is sent.
            (|r| r.code = DeniedAuth, KEY, 0, denied, "-1 +1:2 | denials"),
        ];
        for (mutate, key, flip, event, want) in cases {
            let mut m = RegistrationMachine::new(HOME, HA, &[], Some((7, KEY)), 0);
            let mut fx = Effects::new();
            send(&mut m, &mut fx);
            fx.drain();
            let mut answer = reply(&m, 1);
            mutate(&mut answer);
            if key != 0 {
                answer = answer.sign(7, key);
            }
            let mut bytes = answer.to_bytes().to_vec();
            bytes[3] ^= flip; // breaks the wire checksum
            assert_eq!(m.on_reply(&mut fx, &bytes), event, "{want}");
            assert_eq!(outcome(&m, &mut fx), want);
        }
    }

    #[test]
    fn an_epoch_change_is_reported_once_and_binding_timers_need_a_held_binding() {
        let mut m = RegistrationMachine::new(HOME, HA, &[], None, 0);
        let mut fx = Effects::new();
        for (epoch, changed) in [(1, false), (2, true), (2, false)] {
            send(&mut m, &mut fx); // after the change: the owner's one re-registration
            let event = m.on_reply(&mut fx, &reply(&m, epoch).to_bytes());
            assert_eq!(event, accepted(300, changed), "epoch {epoch}");
            if changed {
                m.note_epoch_change(&mut fx);
            }
        }
        fx.drain();
        let fired = [(2, false), (3, false), (2, true), (3, true), (4, true)];
        let events = fired.map(|(token, holding)| m.on_timer(&mut fx, token, holding));
        let (no, resend, lapsed) = (RegEvent::None, RegEvent::Resend, RegEvent::Lapsed);
        assert_eq!(events, [no, no, resend, lapsed, no]);
        assert_eq!([1, 3, 4].map(|t| m.owns_token(t)), [true, true, false]);
        let want = " | binding_lapses epoch_changes replies_accepted";
        assert_eq!(outcome(&m, &mut fx), want);
    }
}
