//! Module-timer semantics: rearm replaces, cancel disarms, tokens are
//! per-module namespaces.

use mosquitonet_sim::{Sim, SimDuration};
use mosquitonet_stack::{self as stack, Effect, Module, ModuleCtx, Network};

/// A module that logs timer firings and follows a small script.
struct TimerScript {
    fired: Vec<(u64, u64)>, // (token, at_ms)
    script: &'static str,
}

impl Module for TimerScript {
    fn name(&self) -> &'static str {
        "timer-script"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        match self.script {
            "rearm" => {
                // Arm token 1 at 100 ms, then immediately rearm it at
                // 50 ms: only the second instance may fire.
                ctx.fx.set_timer(SimDuration::from_millis(100), 1);
                ctx.fx.set_timer(SimDuration::from_millis(50), 1);
            }
            "cancel" => {
                ctx.fx.set_timer(SimDuration::from_millis(50), 1);
                ctx.fx.set_timer(SimDuration::from_millis(60), 2);
                ctx.fx.push(Effect::CancelTimer { token: 1 });
            }
            "chain" => {
                ctx.fx.set_timer(SimDuration::from_millis(10), 7);
            }
            _ => unreachable!(),
        }
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        self.fired.push((token, ctx.now.as_millis()));
        if self.script == "chain" && self.fired.len() < 3 {
            ctx.fx.set_timer(SimDuration::from_millis(10), 7);
        }
    }
}

fn run(script: &'static str) -> Vec<(u64, u64)> {
    let mut net = Network::new();
    let h = net.add_host("host");
    let mid = net.host_mut(h).add_module(Box::new(TimerScript {
        fired: vec![],
        script,
    }));
    let mut sim = Sim::new(net);
    stack::start(&mut sim);
    sim.run_for(SimDuration::from_secs(1));
    let m: &mut TimerScript = sim.world_mut().host_mut(h).module_mut(mid).expect("module");
    m.fired.clone()
}

#[test]
fn rearming_a_token_replaces_the_pending_instance() {
    assert_eq!(
        run("rearm"),
        vec![(1, 50)],
        "only the rearmed instance fires"
    );
}

#[test]
fn cancel_disarms_only_that_token() {
    assert_eq!(
        run("cancel"),
        vec![(2, 60)],
        "token 1 cancelled, token 2 fires"
    );
}

#[test]
fn timers_can_chain_from_their_own_handler() {
    assert_eq!(run("chain"), vec![(7, 10), (7, 20), (7, 30)]);
}

#[test]
fn tokens_are_namespaced_per_module() {
    // Two modules both use token 1; each only sees its own firings.
    struct OneShot {
        delay_ms: u64,
        fired_at: Option<u64>,
    }
    impl Module for OneShot {
        fn name(&self) -> &'static str {
            "one-shot"
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.fx.set_timer(SimDuration::from_millis(self.delay_ms), 1);
        }
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
            assert_eq!(token, 1);
            assert!(self.fired_at.is_none(), "fired once");
            self.fired_at = Some(ctx.now.as_millis());
        }
    }
    let mut net = Network::new();
    let h = net.add_host("host");
    let a = net.host_mut(h).add_module(Box::new(OneShot {
        delay_ms: 30,
        fired_at: None,
    }));
    let b = net.host_mut(h).add_module(Box::new(OneShot {
        delay_ms: 70,
        fired_at: None,
    }));
    let mut sim = Sim::new(net);
    stack::start(&mut sim);
    sim.run_for(SimDuration::from_secs(1));
    let fa = sim
        .world_mut()
        .host_mut(h)
        .module_mut::<OneShot>(a)
        .expect("a")
        .fired_at;
    let fb = sim
        .world_mut()
        .host_mut(h)
        .module_mut::<OneShot>(b)
        .expect("b")
        .fired_at;
    assert_eq!(fa, Some(30));
    assert_eq!(fb, Some(70));
}
