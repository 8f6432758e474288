//! The six workloads, by name.

mod apps_dynamic;
mod chaos_rescue;
mod ctrl_scale;
mod obs_export;
mod obs_query;
mod paper_figs;

use crate::tracer::Tracer;
use crate::workload::{Checks, Workload};

/// Every workload, in the order `all` runs them.
pub const NAMES: [&str; 6] = [
    "paper-figs",
    "ctrl-scale",
    "obs-export",
    "obs-query",
    "chaos-rescue",
    "apps-dynamic",
];

/// Set the named workload up: generate its inputs from `seed`, touch lazily
/// built state, run its warm-up. `None` for an unknown name.
pub fn set_up(
    name: &str,
    seed: u64,
    smoke: bool,
    tr: &Tracer,
    checks: &mut Checks,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-figs" => Box::new(paper_figs::PaperFigs::new(seed, smoke, tr, checks)),
        "ctrl-scale" => Box::new(ctrl_scale::CtrlScale::new(seed, smoke, tr, checks)),
        "obs-export" => Box::new(obs_export::ObsExport::new(seed, smoke, tr, checks)),
        "obs-query" => Box::new(obs_query::ObsQuery::new(seed, smoke, tr, checks)),
        "chaos-rescue" => Box::new(chaos_rescue::ChaosRescue::new(seed, smoke, tr, checks)),
        "apps-dynamic" => Box::new(apps_dynamic::AppsDynamic::new(seed, smoke, tr, checks)),
        _ => return None,
    })
}
