//! "Where the time goes": critical-path makespan breakdowns computed from
//! traced experiment runs.
//!
//! When an experiment runs with [`crate::ExperimentConfig::trace`] set, the
//! whole stack (DAGMan, schedd, negotiator, startd, docker, kubelet, the
//! knative router/activator and queue-proxies) records spans into one
//! [`swf_obs::Obs`] collector per repetition. These helpers reduce that span
//! forest to the paper's question: which overhead category dominates each
//! environment mix's makespan.

use swf_obs::{critical_path, roots, CriticalPath, Obs};

/// Critical path of the slowest traced workflow in `obs`: among root spans
/// named `workflow:*`, the one with the longest duration (matching the
/// paper's slowest-of-N-concurrent-workflows metric). `None` when tracing
/// was disabled or no workflow root was recorded.
pub fn slowest_workflow_breakdown(obs: &Obs) -> Option<CriticalPath> {
    obs.with_spans(|spans| {
        let root = roots(spans)
            .into_iter()
            .filter(|s| s.name.starts_with("workflow:"))
            .max_by(|a, b| {
                a.duration_secs()
                    .total_cmp(&b.duration_secs())
                    .then(a.id.0.cmp(&b.id.0))
            })?
            .id;
        Some(critical_path(spans, root))
    })
}

/// Render one labelled mix's breakdown as an indented table block.
pub fn render_mix_breakdown(label: &str, cp: &CriticalPath) -> String {
    let mut out = format!("{label}: {} makespan {:.1}s\n", cp.root_name, cp.makespan_s);
    for line in cp.render_breakdown().lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_obs::Category;
    use swf_simcore::{secs, sleep, Sim};

    #[test]
    fn slowest_workflow_wins() {
        let sim = Sim::new();
        let obs = Obs::enabled();
        let obs2 = obs.clone();
        sim.block_on(async move {
            let obs = obs2;
            let short = obs.span(
                swf_obs::SpanContext::NONE,
                "condor/dagman",
                "workflow:short",
                Category::Other,
            );
            sleep(secs(1.0)).await;
            drop(short);
            let long = obs.span(
                swf_obs::SpanContext::NONE,
                "condor/dagman",
                "workflow:long",
                Category::Other,
            );
            let c = obs.span(long.ctx(), "n/startd", "execute", Category::Compute);
            sleep(secs(5.0)).await;
            drop(c);
            drop(long);
        });
        let cp = slowest_workflow_breakdown(&obs).expect("traced workflows");
        assert_eq!(cp.root_name, "workflow:long");
        assert!((cp.makespan_s - 5.0).abs() < 1e-9);
        assert!((cp.seconds(Category::Compute) - 5.0).abs() < 1e-9);
        let rendered = render_mix_breakdown("all-native", &cp);
        assert!(rendered.contains("workflow:long"));
        assert!(rendered.contains("compute"));
    }

    #[test]
    fn disabled_obs_yields_none() {
        assert!(slowest_workflow_breakdown(&Obs::disabled()).is_none());
    }
}
