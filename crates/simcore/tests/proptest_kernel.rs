//! Property-based tests for the simulation kernel: time algebra, executor
//! determinism, semaphore conservation, FIFO resource ordering.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

use swf_simcore::sync::Semaphore;
use swf_simcore::{join_all, now, sleep, spawn, Resource, Sim, SimDuration, SimTime};

proptest! {
    /// Time addition is associative and ordered.
    #[test]
    fn time_add_is_monotone(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        let t2 = t + d;
        prop_assert!(t2 >= t);
        prop_assert_eq!(t2 - t, d);
    }

    /// from_secs_f64/as_secs_f64 roundtrip within float precision.
    #[test]
    fn duration_secs_roundtrip(s in 0.0f64..1.0e6) {
        let d = SimDuration::from_secs_f64(s);
        let back = d.as_secs_f64();
        prop_assert!((back - s).abs() < 1e-6, "{} vs {}", back, s);
    }

    /// The makespan of N tasks sleeping d each behind a capacity-c semaphore
    /// is ceil(N/c) * d — the textbook queueing identity.
    #[test]
    fn semaphore_batch_makespan(
        n in 1usize..20,
        c in 1usize..8,
        d_ms in 1u64..500,
    ) {
        let sim = Sim::new();
        let end = sim.block_on(async move {
            let sem = Semaphore::new(c);
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let sem = sem.clone();
                    spawn(async move {
                        let _p = sem.acquire().await;
                        sleep(SimDuration::from_millis(d_ms)).await;
                    })
                })
                .collect();
            join_all(handles).await;
            now()
        });
        let batches = n.div_ceil(c) as u64;
        prop_assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(batches * d_ms));
    }

    /// Executor determinism: two identical runs produce identical traces.
    #[test]
    fn identical_runs_identical_logs(delays in proptest::collection::vec(0u64..1000, 1..30)) {
        let run = |delays: Vec<u64>| -> Vec<(u64, usize)> {
            let sim = Sim::new();
            sim.block_on(async move {
                let log = Rc::new(RefCell::new(Vec::new()));
                let handles: Vec<_> = delays
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| {
                        let log = Rc::clone(&log);
                        spawn(async move {
                            sleep(SimDuration::from_millis(d)).await;
                            log.borrow_mut().push((now().as_nanos(), i));
                        })
                    })
                    .collect();
                join_all(handles).await;
                Rc::try_unwrap(log).unwrap().into_inner()
            })
        };
        let a = run(delays.clone());
        let b = run(delays);
        prop_assert_eq!(a, b);
    }

    /// Resource FIFO: completion order equals arrival order when all service
    /// times are equal (no overtaking).
    #[test]
    fn resource_is_fifo(n in 1usize..25, cap in 1usize..4) {
        let sim = Sim::new();
        let order = sim.block_on(async move {
            let r = Resource::new(cap);
            let order = Rc::new(RefCell::new(Vec::new()));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let r = r.clone();
                    let order = Rc::clone(&order);
                    spawn(async move {
                        // Stagger arrivals by 1ns to fix arrival order.
                        sleep(SimDuration::from_nanos(i as u64)).await;
                        r.serve(SimDuration::from_millis(10)).await;
                        order.borrow_mut().push(i);
                    })
                })
                .collect();
            join_all(handles).await;
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        let expected: Vec<usize> = (0..n).collect();
        prop_assert_eq!(order, expected);
    }

    /// Permit conservation: after any acquire/release pattern the number of
    /// available permits returns to capacity.
    #[test]
    fn semaphore_conserves_permits(
        ops in proptest::collection::vec((0usize..4, 1u64..50), 1..40),
        cap in 1usize..5,
    ) {
        let sim = Sim::new();
        let sem = Semaphore::new(cap);
        let sem2 = sem.clone();
        sim.block_on(async move {
            let handles: Vec<_> = ops
                .into_iter()
                .map(|(_, hold_ms)| {
                    let sem = sem2.clone();
                    spawn(async move {
                        let _p = sem.acquire().await;
                        sleep(SimDuration::from_millis(hold_ms)).await;
                    })
                })
                .collect();
            join_all(handles).await;
        });
        prop_assert_eq!(sem.available(), cap);
        prop_assert_eq!(sem.queue_len(), 0);
    }
}
