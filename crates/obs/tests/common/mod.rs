//! The synthetic traced run the scale tests share: the size a real traced
//! run exports (100 k spans, about 17 MB of `swf-spans/v1` text).
#![allow(dead_code)] // each test file uses its own part of this module

use proptest::TestRng;
use swf_obs::{Category, Obs, SpanContext};
use swf_simcore::SimTime;

pub const WORKFLOWS: u64 = 200;
const TASKS: u64 = 100;

/// 200 workflows of 100 four-wide tasks: per workflow a root, a detached
/// pod cold start (with its image pull) that every claim activation links
/// to, and per task a job span over negotiate / activation / transfer /
/// compute with jittered, overlapping, sometimes zero-length windows.
pub fn synthetic_run() -> Obs {
    let mut rng = TestRng::new(13);
    let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    let obs = Obs::enabled();
    for w in 0..WORKFLOWS {
        let t0 = w * 50;
        let mut draw = |below: u64| rng.next_u64() % below;
        let root = obs.record_span(
            SpanContext::NONE,
            "condor/dagman",
            format!("workflow:wf-{w}"),
            Category::Queue,
            at(t0),
            at(t0 + TASKS / 4 * 1_100),
        );
        let pod = obs.record_span(
            SpanContext::NONE,
            &format!("node-{}/kubelet", w % 7),
            "pod-start",
            Category::ColdStart,
            at(t0),
            at(t0 + 1_400 + draw(200)),
        );
        obs.record_span(
            pod,
            &format!("node-{}/containerd", w % 7),
            "pull \"matmul:latest\" — 980 KB",
            Category::Pull,
            at(t0 + 100),
            at(t0 + 900 + draw(400)),
        );
        for t in 0..TASKS {
            let begin = t0 + (t / 4) * 1_000 + draw(150);
            let job = obs.record_span(
                root,
                "condor/schedd",
                format!("job:wf-{w}.{t}"),
                Category::Queue,
                at(begin),
                at(begin + 950 + draw(250)),
            );
            let phases = [
                ("condor/negotiator", "negotiate", Category::Negotiate, 40),
                (
                    "condor/startd",
                    "claim-activation",
                    Category::Activation,
                    500,
                ),
                ("condor/shadow", "stage-in é→ü", Category::Transfer, 120),
                ("node/startd", "compute", Category::Compute, 300),
            ];
            let mut cursor = begin + draw(30);
            for (component, name, category, length) in phases {
                // One phase in eight is zero-length; windows may overlap
                // the next phase's or leave a gap before it.
                let length = if draw(8) == 0 {
                    0
                } else {
                    length / 2 + draw(length)
                };
                let span = obs.record_span(
                    job,
                    component,
                    format!("{name}:{t}"),
                    category,
                    at(cursor),
                    at(cursor + length),
                );
                if category == Category::Activation {
                    obs.link_from(span, pod);
                }
                cursor = (cursor + length + draw(40)).saturating_sub(draw(20));
            }
        }
    }
    obs
}
