//! Criterion bench of the simulation kernel itself: events/second of the
//! virtual-time executor and the HTTP/queueing substrate, and MB/s of the
//! JSON layer every export and `obsq` query goes through.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use swf_obs::{spans_to_json, Category, Obs, SpanContext};
use swf_simcore::{join_all, secs, spawn, Resource, Sim, SimTime};

fn executor_throughput(c: &mut Criterion) {
    c.bench_function("engine/fifo_resource_5k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            sim.block_on(async {
                let r = Resource::new("bench", 8);
                let handles: Vec<_> = (0..5_000)
                    .map(|_| {
                        let r = r.clone();
                        spawn(async move {
                            r.serve(secs(0.01)).await;
                        })
                    })
                    .collect();
                join_all(handles).await;
            });
            sim.now()
        })
    });
}

/// A `swf-spans/v1` export shaped like a traced run's: per workflow a
/// root and, per task, the queue → negotiate → activation → transfer →
/// compute chain (about 165 bytes of text a span).
fn synthetic_export(workflows: u64, tasks: u64) -> serde_json::Value {
    const CHAIN: [(&str, &str, Category); 5] = [
        ("condor/schedd", "idle", Category::Queue),
        ("condor/negotiator", "negotiate", Category::Negotiate),
        ("condor/startd", "claim-activation", Category::Activation),
        ("condor/shadow", "stage-in", Category::Transfer),
        ("node/startd", "compute", Category::Compute),
    ];
    let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    let obs = Obs::enabled();
    for w in 0..workflows {
        let root = obs.record_span(
            SpanContext::NONE,
            "condor/dagman",
            format!("workflow:wf-{w}"),
            Category::Queue,
            at(w),
            at(w + tasks * 1_000),
        );
        for t in 0..tasks {
            for (k, (component, name, category)) in (0u64..).zip(CHAIN) {
                let start = w + t * 1_000 + k * 200;
                obs.record_span(
                    root,
                    component,
                    format!("{name}:wf-{w}-task-{t}"),
                    category,
                    at(start),
                    at(start + 190),
                );
            }
        }
    }
    spans_to_json(&[("synthetic", &obs)])
}

/// `from_str` and `to_string` at three document sizes: both are linear, so
/// MB/s should read the same at 0.5, 4 and 16 MB.
fn json_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("json");
    for workflows in [6u64, 48, 192] {
        let doc = synthetic_export(workflows, 100);
        let text = doc.to_string();
        let size = format!("{:.1}MB", text.len() as f64 / 1e6);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::new("from_str", &size), &text, |b, text| {
            b.iter(|| serde_json::from_str(text))
        });
        group.bench_with_input(BenchmarkId::new("to_string", &size), &doc, |b, doc| {
            b.iter(|| serde_json::to_string(doc))
        });
    }
    group.finish();
}

criterion_group!(benches, executor_throughput, json_throughput);
criterion_main!(benches);
