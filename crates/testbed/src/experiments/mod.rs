//! Experiment runners: one function per paper table/figure/claim, and
//! the registry that lists them.
//!
//! Each runner builds a fresh test-bed, drives the scenario, and returns
//! the documents its sidecars hold; the report module renders the paper's
//! own format from those documents alone, never from the runner's state.
//! [`REGISTRY`] is the one roster of runs — name, checked integer
//! parameters, the files written, the report renderer — that the
//! `experiment` binary, the docs-sync test and the golden table all work
//! from. The experiment index lives in `DESIGN.md`; paper-vs-measured
//! numbers are recorded in `EXPERIMENTS.md`.
//!
//! Each run lives in its own file with its runner and its registry entry;
//! runs that share machinery share a file (`switch_loss`: Table 1, Figure
//! 6 and A1; `crash`: C5 and C6, whose scaffold C7 uses too; `s3`: the
//! classic and sharded saturation runs).
//! Helpers more than one file uses are in `common`.

use std::path::{Path, PathBuf};

use mosquitonet_sim::{CapturedFrame, Json};

use crate::report::{self, SidecarKind};

mod a2;
mod a3;
mod c1;
mod c2;
mod c3;
mod c4;
mod c7;
mod common;
mod crash;
mod fig7;
mod s1;
mod s2;
mod s3;
mod switch_loss;

pub use a2::run_a2;
pub use a3::run_a3;
pub use c1::run_c1;
pub use c2::run_c2;
pub use c3::run_c3;
pub use c4::{run_c4, C4_COMPLETION_BOUNDS_US, C4_LOSS_PCTS};
pub use c7::run_c7;
pub use common::ECHO_PORT;
pub use crash::{run_c5, run_c6, C5Run};
pub use fig7::{run_fig7, FIG7_PHASE_BOUNDS_US};
pub use s1::run_s1;
pub use s2::{run_s2, s2_directory, S2Config, S2Result, S2Row};
pub use s3::{run_s3, run_s3_mode, run_s3_sharded, S3Config, S3Mode, S3Row, S3ShardedResult};
pub use switch_loss::{
    run_a1, run_fig6, run_fig6_scenario, run_tab1, run_tab1_far, A1Mode, Fig6Scenario,
};

/// One integer parameter of an experiment: `key=value` on the command
/// line, checked against the allowed range before anything runs.
#[derive(Clone, Copy, Debug)]
pub struct Param {
    /// The key, as typed.
    pub key: &'static str,
    /// Value used when the key is not given.
    pub default: u64,
    /// Smallest allowed value.
    pub min: u64,
    /// Largest allowed value.
    pub max: u64,
}

impl Param {
    /// A count that must be positive and fit the runners' `u32`.
    const fn count(key: &'static str, default: u64) -> Param {
        Param {
            key,
            default,
            min: 1,
            max: u32::MAX as u64,
        }
    }
}

/// Every seeded run takes the same seed parameter.
const SEED: Param = Param {
    key: "seed",
    default: 1996,
    min: 0,
    max: u64::MAX,
};

/// The checked parameter values of one run: every declared key, at its
/// given or default value.
#[derive(Clone, Debug)]
pub struct Params(Vec<(&'static str, u64)>);

impl Params {
    /// Parses `key=value` arguments against `exp`'s declared parameters.
    /// Unknown keys, repeated keys, non-integers and out-of-range values
    /// are errors that name the offending token; nothing is defaulted
    /// silently.
    pub fn parse<S: AsRef<str>>(exp: &Experiment, args: &[S]) -> Result<Params, String> {
        let mut values: Vec<(&'static str, u64)> =
            exp.params.iter().map(|p| (p.key, p.default)).collect();
        for (i, arg) in args.iter().enumerate() {
            let arg = arg.as_ref();
            let (key, value) = arg
                .split_once('=')
                .ok_or_else(|| format!("`{arg}` is not a key=value parameter"))?;
            let (param, slot) = exp
                .params
                .iter()
                .zip(&mut values)
                .find(|(p, _)| p.key == key)
                .ok_or_else(|| format!("`{arg}`: {} has no parameter `{key}`", exp.name))?;
            let same_key = |a: &S| a.as_ref().split_once('=').is_some_and(|(k, _)| k == key);
            if args[..i].iter().any(same_key) {
                return Err(format!("`{arg}`: {key} is given more than once"));
            }
            let v: u64 = value
                .parse()
                .map_err(|_| format!("`{arg}`: `{value}` is not an unsigned integer"))?;
            if !(param.min..=param.max).contains(&v) {
                return Err(format!(
                    "`{arg}`: {key} must be in {}..={}",
                    param.min, param.max
                ));
            }
            slot.1 = v;
        }
        Ok(Params(values))
    }

    /// The value of a declared parameter. Panics on an undeclared key —
    /// a bug in the registry entry, not a user error.
    pub fn get(&self, key: &str) -> u64 {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("parameter `{key}` is not declared"))
            .1
    }

    /// [`Params::get`] for the runners' `u32` arguments; the declared
    /// range guarantees the fit.
    fn get_u32(&self, key: &str) -> u32 {
        u32::try_from(self.get(key)).expect("range declared within u32")
    }
}

/// One file a run writes into the artifact directory.
#[derive(Debug)]
pub enum Artifact {
    /// A byte-stable sidecar `{name}.{kind}.json`.
    Sidecar(SidecarKind, &'static str, Json),
    /// A wire capture `{name}.pcap`.
    Pcap(&'static str, Vec<CapturedFrame>),
}

impl Artifact {
    /// The document a sidecar holds; `None` for a capture.
    pub fn body(&self) -> Option<&Json> {
        match self {
            Artifact::Sidecar(_, _, body) => Some(body),
            Artifact::Pcap(..) => None,
        }
    }

    /// The file name minus its final extension, as declared in
    /// [`Experiment::artifacts`].
    pub fn stem(&self) -> String {
        match self {
            Artifact::Sidecar(kind, name, _) => format!("{name}.{}", kind.key()),
            Artifact::Pcap(name, _) => format!("{name}.pcap"),
        }
    }

    /// Writes the file into `dir`.
    pub fn write_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        match self {
            Artifact::Sidecar(kind, name, body) => report::write_sidecar_in(dir, *kind, name, body),
            Artifact::Pcap(name, frames) => report::write_pcap_in(dir, name, frames),
        }
    }
}

/// One entry of the experiment roster.
pub struct Experiment {
    /// The name the run is selected by.
    pub name: &'static str,
    /// One line on what it reproduces.
    pub about: &'static str,
    /// Its parameters, in usage order.
    pub params: &'static [Param],
    /// Stems of the files it writes (see [`Artifact::stem`]).
    pub artifacts: &'static [&'static str],
    /// Runs it: the files that hold its numbers, one per declared stem.
    /// Each number is written once, into the run's own metrics or bench
    /// sidecar; there is no second export.
    pub run: fn(&Params) -> Vec<Artifact>,
    /// Renders the paper-format report from the bodies of the run's
    /// sidecars, in declared order.
    pub render: fn(&[&Json]) -> String,
}

impl Experiment {
    /// The one-line usage string, with each parameter's default and
    /// allowed range.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: experiment {}", self.name);
        for p in self.params {
            out.push_str(&format!(
                " [{}={} ({}..={})]",
                p.key, p.default, p.min, p.max
            ));
        }
        out
    }

    /// Looks an entry up by name.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        REGISTRY.iter().find(|e| e.name == name)
    }

    /// The report of a run that wrote `artifacts`.
    pub fn report(&self, artifacts: &[Artifact]) -> String {
        let docs: Vec<&Json> = artifacts.iter().filter_map(Artifact::body).collect();
        (self.render)(&docs)
    }
}

/// The one artifact of a run: its metrics sidecar `name`.
fn metrics(name: &'static str, body: Json) -> Vec<Artifact> {
    vec![Artifact::Sidecar(SidecarKind::Metrics, name, body)]
}

/// The metrics body of a run whose result has no other home: `result`,
/// then the members of the `metrics` object.
fn with_result(result: Json, metrics: Json) -> Json {
    let Json::Obj(mut members) = metrics else {
        panic!("a metrics body is a JSON object");
    };
    members.insert(0, ("result".to_string(), result));
    Json::Obj(members)
}

/// A crash run's artifacts: metrics and journeys sidecars under `name`.
fn with_journeys(name: &'static str, (metrics_body, journeys): (Json, Json)) -> Vec<Artifact> {
    let mut out = metrics(name, metrics_body);
    out.push(Artifact::Sidecar(SidecarKind::Journeys, name, journeys));
    out
}

/// Every run of the reproduction, in report order. `experiment all` runs
/// them top to bottom; EXPERIMENTS.md lists each name and artifact stem
/// (held in sync by `tests/docs_sync.rs`).
pub static REGISTRY: &[Experiment] = &[
    switch_loss::TAB1,
    switch_loss::TAB1_FAR,
    switch_loss::FIG6,
    fig7::FIG7,
    c1::C1,
    c2::C2,
    c3::C3,
    c4::C4,
    crash::C5,
    crash::C6,
    c7::C7,
    switch_loss::A1,
    a2::A2,
    a3::A3,
    s1::S1,
    s2::S2,
    s3::S3,
];
