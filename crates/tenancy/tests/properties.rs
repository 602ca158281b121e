//! Property tests of the fair-queue scheduler invariants.
//!
//! Across randomly drawn policies, tenant counts, weights and
//! push/pop/unpop interleavings:
//!
//! * **work conservation** — a non-empty queue always yields a request
//!   (the scheduler never refuses to hand out queued work);
//! * **conservation + per-tenant FIFO** — every pushed item pops exactly
//!   once, in push order within its tenant;
//! * **bounded deficit** — DRR's per-tenant deficit never exceeds
//!   `cost + quantum * weight` at any point in any history;
//! * **determinism** — the realized dispatch order is a pure function of
//!   the op history, and blocked dispatches (pop → unpop → pop) replay
//!   the exact same head;
//! * **weighted shares** — with every tenant continuously backlogged,
//!   DRR and WFQ hand out exactly `weight`-proportional counts at round
//!   boundaries.

use cta_tenancy::{FairQueue, SchedulerPolicy};
use proptest::prelude::*;

/// Deterministic op-stream generator (the vendored proptest has no
/// collection strategies, so sequences derive from a seed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn policy(choice: u8) -> SchedulerPolicy {
    match choice % 3 {
        0 => SchedulerPolicy::Fifo,
        1 => SchedulerPolicy::Drr,
        _ => SchedulerPolicy::Wfq,
    }
}

/// Power-of-two weights so WFQ's `1/weight` tag increments are exact in
/// binary and the share counts land exactly on round boundaries.
fn weights(tenants: usize, rng: &mut Lcg) -> Vec<f64> {
    (0..tenants).map(|_| [1.0, 2.0, 4.0][(rng.next() % 3) as usize]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_tenant_fifo_and_bounded_deficit(
        pol in 0u8..3,
        tenants in 1usize..6,
        ops in 16usize..200,
        seed in 0u64..10_000,
    ) {
        let mut rng = Lcg(seed);
        let w = weights(tenants, &mut rng);
        let mut q = FairQueue::new(policy(pol), &w);
        let mut pushed: Vec<Vec<u64>> = vec![Vec::new(); tenants];
        let mut popped: Vec<Vec<u64>> = vec![Vec::new(); tenants];
        let mut next_id = 0u64;
        for _ in 0..ops {
            if q.is_empty() || rng.next().is_multiple_of(2) {
                let t = (rng.next() as usize) % tenants;
                pushed[t].push(next_id);
                q.push(t as u32, next_id);
                next_id += 1;
            } else {
                // Work conservation: a non-empty queue must always yield.
                let (t, id) = q.pop().expect("non-empty queue refused to pop");
                popped[t as usize].push(id);
            }
            for t in 0..tenants as u32 {
                prop_assert!(
                    q.deficit(t) <= q.deficit_bound(t),
                    "tenant {} deficit {} exceeds bound {}",
                    t, q.deficit(t), q.deficit_bound(t)
                );
            }
        }
        while let Some((t, id)) = q.pop() {
            popped[t as usize].push(id);
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.len(), 0);
        // Every pushed id popped exactly once, in push order per tenant.
        prop_assert_eq!(pushed, popped);
    }

    #[test]
    fn blocked_dispatches_do_not_disturb_the_schedule(
        pol in 0u8..3,
        tenants in 1usize..5,
        ops in 16usize..160,
        seed in 0u64..10_000,
    ) {
        // `noisy` suffers a pop -> unpop -> pop (a full-replica blocked
        // dispatch) wherever the seed says so; `clean` never does. The
        // realized dispatch sequences must be identical.
        let mut rng = Lcg(seed);
        let w = weights(tenants, &mut rng);
        let mut noisy = FairQueue::new(policy(pol), &w);
        let mut clean = FairQueue::new(policy(pol), &w);
        let mut out_noisy = Vec::new();
        let mut out_clean = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..ops {
            if noisy.is_empty() || rng.next().is_multiple_of(2) {
                let t = ((rng.next() as usize) % tenants) as u32;
                noisy.push(t, next_id);
                clean.push(t, next_id);
                next_id += 1;
            } else {
                let blocked = rng.next().is_multiple_of(2);
                let (t, id) = noisy.pop().expect("non-empty");
                if blocked {
                    noisy.unpop(t, id);
                    let (t2, id2) = noisy.pop().expect("unpopped item returns");
                    prop_assert_eq!((t, id), (t2, id2), "unpop must replay the same head");
                }
                out_noisy.push((t, id));
                out_clean.push(clean.pop().expect("mirror queue non-empty"));
            }
        }
        prop_assert_eq!(out_noisy, out_clean);
    }

    #[test]
    fn backlogged_tenants_share_by_weight_at_round_boundaries(
        pol in 1u8..3, // DRR and WFQ (FIFO is the deliberately unfair baseline)
        tenants in 2usize..6,
        rounds in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let mut rng = Lcg(seed);
        let w = weights(tenants, &mut rng);
        let per_round: usize = w.iter().map(|x| *x as usize).sum();
        // Everyone stays backlogged through `rounds` full rounds.
        let mut q = FairQueue::new(policy(pol), &w);
        for (t, wt) in w.iter().enumerate() {
            for i in 0..(rounds + 1) * (*wt as usize) {
                q.push(t as u32, i as u64);
            }
        }
        let mut counts = vec![0usize; tenants];
        for _ in 0..rounds * per_round {
            let (t, _) = q.pop().expect("backlogged");
            counts[t as usize] += 1;
        }
        for t in 0..tenants {
            prop_assert_eq!(
                counts[t], rounds * w[t] as usize,
                "tenant {} served {} of {} pops at weight {} (policy {:?})",
                t, counts[t], rounds * per_round, w[t], policy(pol)
            );
        }
    }
}
