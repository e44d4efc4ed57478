//! The one-node coalescing queue: [`ShardedService`] built with
//! `.shards(1)`. One shard never splits, so every job takes the whole
//! lane — drain, expire, sort largest-first, then one [`BatchPlan`]
//! dispatch per batch on the context's pool.
//!
//! Mounted at `crate::service` so these cases keep the names they had
//! when the queue was its own `AtaService` type.
//!
//! [`BatchPlan`]: crate::batch::BatchPlan

#[cfg(test)]
mod tests {
    use crate::clock::ManualClock;
    use crate::context::AtaContext;
    use crate::shard::{JobError, ShardSubmitError, ShardedService, ShardedServiceBuilder};
    use ata_mat::{gen, reference, Matrix};
    use std::num::NonZeroUsize;
    use std::sync::Arc;
    use std::time::Duration;

    fn oracle(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        c.mirror_lower_to_upper();
        c
    }

    fn one_shard(ctx: &AtaContext) -> ShardedServiceBuilder {
        ShardedServiceBuilder::new(ctx).shards(1)
    }

    #[test]
    fn serves_a_burst_correctly() {
        let ctx = AtaContext::shared(NonZeroUsize::new(2).unwrap());
        let svc: ShardedService<f64> = one_shard(&ctx).max_batch(4).build();
        let inputs: Vec<Matrix<f64>> = (0..10).map(|i| gen::standard::<f64>(i, 20, 12)).collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|a| svc.submit(a.clone()).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let g = h.wait().expect("alive").into_dense();
            assert!(g.max_abs_diff(&oracle(&inputs[i])) < 1e-10, "job {i}");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.whole_jobs, 10);
        assert_eq!(stats.split_jobs, 0, "one shard never splits");
        assert!(
            stats.per_shard[0].batches >= 3,
            "10 jobs / max_batch 4 is >= 3 batches"
        );
        assert_eq!(stats.expired_jobs, 0);
    }

    #[test]
    fn heterogeneous_shapes_in_one_service() {
        let ctx = AtaContext::serial();
        let svc: ShardedService<f64> = one_shard(&ctx).build();
        let a = gen::standard::<f64>(1, 16, 8);
        let b = gen::standard::<f64>(2, 40, 24);
        let (ha, hb) = (
            svc.submit(a.clone()).unwrap(),
            svc.submit(b.clone()).unwrap(),
        );
        assert!(ha.wait().unwrap().into_dense().max_abs_diff(&oracle(&a)) < 1e-10);
        assert!(hb.wait().unwrap().into_dense().max_abs_diff(&oracle(&b)) < 1e-10);
        assert_eq!(svc.shutdown().whole_jobs, 2);
    }

    #[test]
    fn submit_from_many_threads() {
        let ctx = AtaContext::shared(NonZeroUsize::new(2).unwrap());
        let svc: Arc<ShardedService<f64>> = Arc::new(one_shard(&ctx).queue_capacity(16).build());
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let svc = svc.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..5u64 {
                    let a = gen::standard::<f64>(t * 100 + i, 24, 10);
                    let h = svc.submit(a.clone()).expect("alive");
                    let g = h.wait().expect("alive").into_dense();
                    assert!(g.max_abs_diff(&oracle(&a)) < 1e-10);
                }
            }));
        }
        for j in joins {
            j.join().expect("submitter");
        }
        let svc = Arc::into_inner(svc).expect("all submitters done");
        assert_eq!(svc.shutdown().whole_jobs, 20);
    }

    #[test]
    fn try_submit_backpressure_reports_full() {
        // A rendezvous-ish queue (capacity 1) with a slow consumer: the
        // first try_submit fills the slot, later ones see Full until
        // the worker drains it.
        let ctx = AtaContext::serial();
        let svc: ShardedService<f64> = one_shard(&ctx).queue_capacity(1).build();
        let mut accepted = 0usize;
        let mut shed = 0usize;
        let mut handles = Vec::new();
        for i in 0..200u64 {
            match svc.try_submit(gen::standard::<f64>(i, 64, 32)) {
                Ok(h) => {
                    accepted += 1;
                    handles.push(h);
                }
                Err(ShardSubmitError::Full(a)) => {
                    shed += 1;
                    assert_eq!(a.shape(), (64, 32), "operand handed back intact");
                }
                Err(other) => panic!("service must be alive: {other:?}"),
            }
        }
        assert!(accepted > 0, "some jobs must get through");
        for h in handles {
            assert!(h.wait().is_ok());
        }
        // Either the queue was momentarily full at least once, or the
        // worker kept pace with all 200 — both are valid; the invariant
        // is accounting: accepted + shed == 200.
        assert_eq!(accepted + shed, 200);
        assert_eq!(svc.shutdown().whole_jobs, accepted);
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let ctx = AtaContext::serial();
        let svc: ShardedService<f64> = one_shard(&ctx).queue_capacity(32).build();
        let a = gen::standard::<f64>(7, 30, 15);
        let handles: Vec<_> = (0..8).map(|_| svc.submit(a.clone()).unwrap()).collect();
        let stats = svc.shutdown();
        assert_eq!(stats.whole_jobs, 8, "accepted jobs are served before exit");
        for h in handles {
            assert!(h.wait().is_ok(), "handle answered even after shutdown");
        }
    }

    #[test]
    fn shutdown_under_full_queue_answers_every_accepted_job() {
        // Fill the bounded queue with try_submit, then shut down:
        // every accepted job must be answered — a result or a typed
        // error, never a hang.
        let ctx = AtaContext::serial();
        let svc: ShardedService<f64> = one_shard(&ctx).queue_capacity(4).build();
        let mut handles = Vec::new();
        for i in 0..64u64 {
            match svc.try_submit(gen::standard::<f64>(i, 48, 24)) {
                Ok(h) => handles.push(h),
                Err(ShardSubmitError::Full(_)) => {}
                Err(other) => panic!("service must be alive: {other:?}"),
            }
        }
        let accepted = handles.len();
        let stats = svc.shutdown();
        assert_eq!(stats.whole_jobs, accepted, "shutdown drains the full queue");
        for h in handles {
            // Waiting on a handle *after* shutdown is the regression
            // under test: the buffered outcome must still be readable.
            assert!(h.wait().is_ok());
        }
    }

    #[test]
    fn zero_deadline_expires_with_typed_error() {
        let ctx = AtaContext::serial();
        let clock = Arc::new(ManualClock::new());
        let svc: ShardedService<f64> = one_shard(&ctx).clock(clock).build();
        // Deadline "now": already expired when the worker dequeues it.
        let h = svc
            .submit_with_deadline(gen::standard::<f64>(1, 32, 16), Duration::ZERO)
            .unwrap();
        assert!(matches!(h.wait(), Err(JobError::DeadlineExceeded)));
        // A generous deadline on an un-advanced manual clock completes.
        let h = svc
            .submit_with_deadline(gen::standard::<f64>(2, 32, 16), Duration::from_secs(60))
            .unwrap();
        assert!(h.wait().is_ok());
        let stats = svc.shutdown();
        assert_eq!(stats.expired_jobs, 1);
        assert_eq!(stats.whole_jobs, 1, "the expired job never executed");
    }

    #[test]
    fn wait_timeout_polls_then_delivers() {
        let ctx = AtaContext::serial();
        let svc: ShardedService<f64> = one_shard(&ctx).build();
        let a = gen::standard::<f64>(5, 64, 32);
        let h = svc.submit(a.clone()).unwrap();
        // Poll until ready (a short timeout may race the worker either
        // way); the handle stays usable across None polls.
        let out = loop {
            match h.wait_timeout(Duration::from_millis(10)) {
                Some(out) => break out,
                None => continue,
            }
        };
        assert!(
            out.expect("completes")
                .into_dense()
                .max_abs_diff(&oracle(&a))
                < 1e-10
        );
        svc.shutdown();
    }

    #[test]
    fn largest_first_dispatch_is_bitwise_answer_preserving() {
        // Serve the same mixed-shape inputs twice: one at a time (each
        // its own batch, no reordering possible) and as one coalesced
        // burst the worker sorts largest-first. Every answer must come
        // back on the right handle and be bit-identical — the sort only
        // permutes dispatch order, never which plan a job runs through.
        let ctx = AtaContext::serial();
        let inputs: Vec<Matrix<f64>> = [(12usize, 6usize), (48, 24), (20, 10), (64, 32), (8, 4)]
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| gen::standard::<f64>(i as u64, m, n))
            .collect();

        let solo: ShardedService<f64> = one_shard(&ctx).build();
        let expected: Vec<Matrix<f64>> = inputs
            .iter()
            .map(|a| {
                let g = solo.submit(a.clone()).unwrap().wait().expect("alive");
                g.into_dense()
            })
            .collect();
        solo.shutdown();
        for (a, want) in inputs.iter().zip(&expected) {
            assert!(want.max_abs_diff(&oracle(a)) < 1e-10);
        }

        let burst: ShardedService<f64> = one_shard(&ctx)
            .max_batch(inputs.len())
            .queue_capacity(inputs.len())
            .build();
        let handles: Vec<_> = inputs
            .iter()
            .map(|a| burst.submit(a.clone()).unwrap())
            .collect();
        for (h, want) in handles.into_iter().zip(&expected) {
            let got = h.wait().expect("alive").into_dense();
            assert_eq!(got.shape(), want.shape(), "answers stay on their handles");
            assert_eq!(
                got.max_abs_diff(want),
                0.0,
                "reordered dispatch must be bit-identical"
            );
        }
        burst.shutdown();
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<ShardedService<f64>>();
        assert_send_sync::<ShardedService<f32>>();
    }
}
