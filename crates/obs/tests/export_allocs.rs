//! Regression guard for the allocations of a `swf-spans/v1` export and of
//! reading its text back: short strings cost none.
//!
//! A JSON string of at most 22 bytes is held in place in a
//! `serde_json::Str`, so a span whose name, component and category are
//! that short exports as one heap block, its eight-entry `Vec` (links it
//! has none), and the parser builds such a string straight from its
//! input. What is left of a parse is one block per non-empty array and
//! object, plus the few that grow the parser's own stacks.
//!
//! Measured over the spans below, in debug and release alike: while keys
//! and strings were `String`s, the export took 12 blocks a span (the
//! entries, eight keys, the name, component and category) and the parse
//! 13 (the entries, grown twice, eight keys and three strings): 12,010 and
//! 13,018 at 1,000 spans. Since, 1,004 and 1,016, for a tree of 1,004
//! arrays and objects: one block a span, one per container read.
//!
//! This file holds one test so that the counting allocator sees no other
//! test's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use serde_json::Value;
use swf_obs::{spans_to_json, Category, Obs, SpanContext};
use swf_simcore::SimTime;

/// `System`, counting every block it hands out.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and guards no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, with `new_size` passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const FEW_SPANS: usize = 100;
const MANY_SPANS: usize = 1_000;
/// Blocks an export takes besides its spans' (the span list, the group
/// and root objects, the group list), and a parse besides its containers'
/// (its stacks grow with the log of the widest container).
const BESIDES: usize = 32;

/// A collector of `spans` closed spans, no links, every string of at most
/// 22 bytes: names such as `job:wf-7.99`, components such as
/// `node-3/kubelet`, and all twelve categories (`claim-activation` is the
/// longest label, 16 bytes).
fn short_spans(spans: usize) -> Obs {
    let obs = Obs::enabled();
    let components = ["condor/schedd", "node-3/kubelet", "knative/activator"];
    for i in 0..spans {
        let at = SimTime::from_nanos(i as u64 * 1_000);
        obs.record_span(
            SpanContext::NONE,
            components[i % components.len()],
            format!("job:wf-{}.{}", i / 100, i % 100),
            Category::ALL[i % Category::ALL.len()],
            at,
            at,
        );
    }
    obs
}

/// Non-empty arrays and objects in a tree.
fn containers(v: &Value) -> usize {
    match v {
        Value::Array(items) => {
            usize::from(!items.is_empty()) + items.iter().map(containers).sum::<usize>()
        }
        Value::Object(map) => {
            usize::from(!map.is_empty()) + map.iter().map(|(_, v)| containers(v)).sum::<usize>()
        }
        _ => 0,
    }
}

/// Blocks allocated by `run`.
fn allocations<R>(run: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = run();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Blocks of the export of `spans` spans and of the parse of its text,
/// and the containers of the parsed tree.
fn export_and_parse(spans: usize) -> (usize, usize, usize) {
    let obs = short_spans(spans);
    let (exported, doc) = allocations(|| spans_to_json(&[("short", &obs)]));
    let text = doc.to_string();
    let (parsed, back) = allocations(|| serde_json::from_str(&text));
    let back = back.expect("an export parses");
    assert_eq!(back, doc);
    (exported, parsed, containers(&back))
}

#[test]
fn short_strings_cost_no_allocation_to_export_or_to_parse() {
    let (few, few_parsed, few_containers) = export_and_parse(FEW_SPANS);
    let (many, many_parsed, many_containers) = export_and_parse(MANY_SPANS);
    assert_eq!(
        many - few,
        MANY_SPANS - FEW_SPANS,
        "an export allocated {few} blocks over {FEW_SPANS} spans and {many} over \
         {MANY_SPANS}: it should take one a span, its entries"
    );
    assert!(
        few - FEW_SPANS < BESIDES,
        "{few} blocks for {FEW_SPANS} spans"
    );
    for (spans, parsed, containers) in [
        (FEW_SPANS, few_parsed, few_containers),
        (MANY_SPANS, many_parsed, many_containers),
    ] {
        assert!(
            parsed >= containers && parsed - containers < BESIDES,
            "a parse of {spans} spans allocated {parsed} blocks for {containers} arrays and \
             objects: it should take one per container, none per key or short string"
        );
    }
}
