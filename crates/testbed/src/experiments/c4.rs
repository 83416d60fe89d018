//! Claim C4: address switches under a seeded frame-loss sweep.

use mosquitonet_link::{FaultKind, FaultPlan};
use mosquitonet_sim::{Json, LatencyHistogram, MetricsRegistry, SimDuration};
use mosquitonet_stack as stack;

use super::common::{
    default_testbed, percentile, poll_until, settle_on_dept, switch_dept_address, uints,
};
use super::{metrics, Experiment, Param, SEED};
use crate::report;
use crate::topology::{COA_DEPT, COA_DEPT_ALT};

/// The loss sweep: uniform frame loss from 0 to 50 %.
pub const C4_LOSS_PCTS: &[u32] = &[0, 10, 20, 30, 40, 50];

/// Bucket bounds (µs) for the completion-latency histograms. A lossless
/// same-subnet switch takes ~7.4 ms; every lost request or reply adds a
/// backoff interval (1 s doubling to 8 s), so completions spread over
/// decades.
pub const C4_COMPLETION_BOUNDS_US: &[u64] = &[
    8_000,
    16_000,
    32_000,
    64_000,
    128_000,
    500_000,
    1_000_000,
    2_000_000,
    4_000_000,
    8_000_000,
    16_000_000,
    32_000_000,
    64_000_000,
    128_000_000,
];

/// How long one switch may run before the sweep stops waiting for it.
/// Registration itself never gives up (an exhausted retry budget degrades
/// to a fresh attempt sequence), so this is a reporting bound, not a
/// protocol one.
const C4_SWITCH_CAP: SimDuration = SimDuration::from_secs(240);

/// Runs the chaos experiment: `switches` same-subnet address switches per
/// loss rate of [`C4_LOSS_PCTS`], with uniform frame loss injected on the
/// department LAN by a seeded [`FaultPlan`]. Everything — including every
/// injected fault — derives from `seed`, so a rerun reproduces the result
/// byte for byte.
///
/// Returns the metrics body: `sweep` (per-loss completion histograms and
/// each fault plan's own `fault.{kind}` counters under `c4/loss_XX/`) and
/// `rows`, one integer row per sweep point: the injected `loss_pct`, the
/// `switches` commanded and `completed` within the per-switch cap, the
/// `requests_sent` (first sends and retransmissions) and `retries` among
/// them, the frames the plan deleted (`drops_injected`), and the median,
/// 90th-percentile and worst completion latency in µs.
pub fn run_c4(switches: u32, seed: u64) -> Json {
    let sweep = MetricsRegistry::new();
    let mut rows = Vec::new();
    for &pct in C4_LOSS_PCTS {
        let scope_name = format!("c4/loss_{pct:02}");
        let h_completion = LatencyHistogram::with_bounds(C4_COMPLETION_BOUNDS_US);
        sweep.register_histogram(format!("{scope_name}/completion"), &h_completion);

        let mut tb = default_testbed(seed);
        settle_on_dept(&mut tb);

        // Install the plan only after the clean settle: the sweep measures
        // re-registration under loss, not bring-up under loss.
        let plan =
            FaultPlan::uniform_loss(f64::from(pct) / 100.0, seed ^ (0xC4_00 + u64::from(pct)));
        plan.counters.register_into(&sweep.scope(&scope_name));
        tb.sim.world_mut().lans[tb.lan_dept.0].set_fault_plan(Some(plan));
        // Rebind host metrics so the plan's counters also appear in the
        // run registry under `lan.net-36-8/fault.*`.
        stack::register_metrics(&mut tb.sim);

        let (req0, ret0) = {
            let m = tb.mh_module();
            (m.reg.stats.requests_sent.get(), m.reg.stats.retries.get())
        };
        let mut totals_ns: Vec<u64> = Vec::new();
        for i in 0..switches {
            let target = if i % 2 == 0 { COA_DEPT_ALT } else { COA_DEPT };
            let idx = tb.mh_module().timelines.len();
            switch_dept_address(&mut tb, target);
            // A timeline is recorded only when the switch completes.
            if !poll_until(&mut tb, C4_SWITCH_CAP, |tb| {
                tb.mh_module().timelines.len() > idx
            }) {
                // Still mid-switch; `switch_address` refuses to preempt,
                // so stop sweeping this loss point.
                break;
            }
            let total = tb.mh_module().timelines[idx].total().expect("completed");
            totals_ns.push(total.as_nanos());
            h_completion.record(total);
        }
        let (req1, ret1) = {
            let m = tb.mh_module();
            (m.reg.stats.requests_sent.get(), m.reg.stats.retries.get())
        };
        let drops = tb.sim.world().lans[tb.lan_dept.0]
            .fault
            .as_ref()
            .map(|p| p.injected(FaultKind::Drop))
            .unwrap_or(0);
        totals_ns.sort_unstable();
        rows.push(uints([
            ("loss_pct", u64::from(pct)),
            ("switches", u64::from(switches)),
            ("completed", totals_ns.len() as u64),
            ("requests_sent", req1 - req0),
            ("retries", ret1 - ret0),
            ("drops_injected", drops),
            ("p50_us", percentile(&totals_ns, 50) / 1_000),
            ("p90_us", percentile(&totals_ns, 90) / 1_000),
            ("max_us", percentile(&totals_ns, 100) / 1_000),
        ]));
    }
    Json::obj([("sweep", sweep.to_json()), ("rows", Json::Arr(rows))])
}

pub(super) const C4: Experiment = Experiment {
    name: "c4_lossy_registration",
    about: "C4: address switches under a seeded 0-50 % frame-loss sweep",
    params: &[Param::count("switches", 4), SEED],
    artifacts: &["c4_lossy_registration.metrics"],
    run: |p| {
        let body = run_c4(p.get_u32("switches"), p.get("seed"));
        metrics("c4_lossy_registration", body)
    },
    render: report::render_c4,
};
