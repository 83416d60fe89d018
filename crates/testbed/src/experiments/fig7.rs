//! Figure 7: the registration time-line of a same-subnet switch, phase
//! by phase.

use mosquitonet_sim::{Json, LatencyHistogram, MetricsRegistry, SimDuration, Summary};

use super::common::{default_testbed, settle_on_dept, switch_dept_address};
use super::{metrics, with_result, Experiment, Param, SEED};
use crate::report;
use crate::topology::{COA_DEPT, COA_DEPT_ALT};

/// Bucket bounds (µs) for the Figure 7 phase histograms. Chosen around
/// the paper's own numbers (total switch 7.39 ms) so each phase lands in
/// an interior bucket and the export stays meaningful if timing drifts.
pub const FIG7_PHASE_BOUNDS_US: &[u64] = &[
    250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000,
];

/// Runs the Figure 7 experiment: `runs` same-subnet re-registrations.
///
/// Returns the metrics body: `result` (`runs`, then a summary in µs of
/// each phase — `configure_us`, `route_us`, `request_reply_us`, the
/// configured `ha_processing_us`, `post_us`, `total_us`), `phases` (a
/// dedicated registry of per-phase latency histograms, one sample per
/// measured run, fixed bucket bounds, so the export is golden-file
/// stable) and `hosts` (the end-of-run host registry dump).
pub fn run_fig7(runs: u32, seed: u64) -> Json {
    let mut tb = default_testbed(seed);
    settle_on_dept(&mut tb);

    // One extra unmeasured switch warms the router's ARP cache for the
    // alternate address (the paper's repeated runs have warm caches).
    for i in 0..=runs {
        let target = if i % 2 == 0 { COA_DEPT_ALT } else { COA_DEPT };
        switch_dept_address(&mut tb, target);
        tb.run_for(SimDuration::from_millis(500));
    }

    // The five phases, in this order everywhere below.
    const PHASES: [&str; 5] = ["configure", "route", "request_reply", "post", "total"];
    let mut summaries = PHASES.map(|_| Summary::new());
    // The registration-phase registry: one fixed-bucket latency histogram
    // per Figure 7 phase, one sample per measured run. This is what the
    // golden-file test pins down.
    let phases = MetricsRegistry::new();
    let histograms = PHASES.map(|name| {
        let h = LatencyHistogram::with_bounds(FIG7_PHASE_BOUNDS_US);
        phases.register_histogram(format!("mh/reg_phase/{name}"), &h);
        h
    });
    let timelines = tb.mh_module().timelines.clone();
    // Skip the settle switch (bring-up included) and the ARP warm-up run.
    for tl in timelines.iter().skip(2) {
        let start = tl.start.expect("start");
        let iface_configured = tl.iface_configured.expect("complete timeline");
        let durations = [
            iface_configured - start,
            tl.route_changed.expect("complete timeline") - iface_configured,
            tl.request_to_reply().expect("complete timeline"),
            tl.done.expect("complete timeline") - tl.reply_received.expect("reply"),
            tl.total().expect("complete timeline"),
        ];
        for ((summary, histogram), d) in summaries.iter_mut().zip(&histograms).zip(durations) {
            summary.add(d.as_nanos() as f64 / 1_000.0);
            histogram.record(d);
        }
    }
    let [configure, route, request_reply, post, total] = summaries.map(|s| s.to_json());
    let ha_processing_us = mosquitonet_core::timing::HA_PROCESSING.as_nanos() as f64 / 1_000.0;
    let result = Json::obj([
        ("runs", Json::from(runs)),
        ("configure_us", configure),
        ("route_us", route),
        ("request_reply_us", request_reply),
        ("ha_processing_us", Json::from(ha_processing_us)),
        ("post_us", post),
        ("total_us", total),
    ]);
    let metrics = Json::obj([
        ("phases", phases.to_json()),
        ("hosts", tb.sim.metrics().to_json()),
    ]);
    with_result(result, metrics)
}

pub(super) const FIG7: Experiment = Experiment {
    name: "fig7_registration",
    about: "Figure 7: the registration time-line breakdown (§4)",
    params: &[Param::count("runs", 10), SEED],
    artifacts: &["fig7.metrics"],
    run: |p| metrics("fig7", run_fig7(p.get_u32("runs"), p.get("seed"))),
    render: report::render_fig7,
};
