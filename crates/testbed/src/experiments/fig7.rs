//! Figure 7: the registration time-line of a same-subnet switch, phase
//! by phase.

use mosquitonet_sim::{Json, LatencyHistogram, MetricsRegistry, SimDuration, Summary};

use super::common::{default_testbed, settle_on_dept, switch_dept_address};
use super::{with_result, Experiment, Param, SEED};
use crate::report;
use crate::topology::{COA_DEPT, COA_DEPT_ALT};

/// Result of the Figure 7 registration time-line experiment. All values
/// in microseconds.
#[derive(Debug)]
pub struct Fig7Result {
    /// Runs measured.
    pub runs: u32,
    /// Configure-interface step.
    pub configure_us: Summary,
    /// Route-table change step.
    pub route_us: Summary,
    /// Registration request sent → reply received.
    pub request_reply_us: Summary,
    /// Home-agent service time (configured constant).
    pub ha_processing_us: f64,
    /// Post-registration processing.
    pub post_us: Summary,
    /// Total address-switch time.
    pub total_us: Summary,
    /// `{"phases": ..., "hosts": ...}` — a dedicated registry of
    /// per-phase latency histograms (one sample per measured run, fixed
    /// bucket bounds, so the export is golden-file stable) plus the
    /// end-of-run host registry dump.
    pub metrics: Json,
}

impl Fig7Result {
    /// Renders everything but `metrics`: the sidecar's `result` member.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("runs", Json::from(self.runs)),
            ("configure_us", self.configure_us.to_json()),
            ("route_us", self.route_us.to_json()),
            ("request_reply_us", self.request_reply_us.to_json()),
            ("ha_processing_us", Json::from(self.ha_processing_us)),
            ("post_us", self.post_us.to_json()),
            ("total_us", self.total_us.to_json()),
        ])
    }
}

/// Bucket bounds (µs) for the Figure 7 phase histograms. Chosen around
/// the paper's own numbers (total switch 7.39 ms) so each phase lands in
/// an interior bucket and the export stays meaningful if timing drifts.
pub const FIG7_PHASE_BOUNDS_US: &[u64] = &[
    250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000,
];

/// Runs the Figure 7 experiment: `runs` same-subnet re-registrations.
pub fn run_fig7(runs: u32, seed: u64) -> Fig7Result {
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
    let [configure_us, route_us, request_reply_us, post_us, total_us] = summaries;
    Fig7Result {
        runs,
        configure_us,
        route_us,
        request_reply_us,
        ha_processing_us: mosquitonet_core::timing::HA_PROCESSING.as_nanos() as f64 / 1_000.0,
        post_us,
        total_us,
        metrics: Json::obj([
            ("phases", phases.to_json()),
            ("hosts", tb.sim.metrics().to_json()),
        ]),
    }
}

pub(super) const FIG7: Experiment = Experiment {
    name: "fig7_registration",
    about: "Figure 7: the registration time-line breakdown (§4)",
    params: &[Param::count("runs", 10), SEED],
    artifacts: &["fig7.metrics"],
    run: |p| {
        let r = run_fig7(p.get_u32("runs"), p.get("seed"));
        with_result(report::render_fig7(&r), "fig7", r.to_json(), r.metrics)
    },
};
