//! Property tests of the pool's determinism contract: ordered `par_map`
//! output, exactly-once chunk coverage, and worker-count independence.

use cta_parallel::{par_map, Parallelism, ThreadPool};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `par_map` returns results in submission order at every worker
    /// count, including worker counts far above the task count.
    #[test]
    fn par_map_is_ordered_at_any_worker_count(
        len in 0usize..200,
        jobs in 1usize..9,
        salt in 0u64..1_000_000,
    ) {
        let items: Vec<u64> = (0..len as u64).map(|i| i ^ salt).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37_79B9)).collect();
        let got = par_map(Parallelism::jobs(jobs), &items, |x| x.wrapping_mul(0x9E37_79B9));
        prop_assert_eq!(got, expected);
    }

    /// Parallel output equals serial output element for element — the
    /// worker count is unobservable in the result.
    #[test]
    fn worker_count_is_unobservable(
        len in 1usize..120,
        jobs in 2usize..8,
    ) {
        let items: Vec<usize> = (0..len).collect();
        let serial = par_map(Parallelism::serial(), &items, |&x| x * x + 1);
        let parallel = par_map(Parallelism::jobs(jobs), &items, |&x| x * x + 1);
        prop_assert_eq!(serial, parallel);
    }

    /// `par_chunks_mut` visits every element exactly once, in panels, at
    /// any chunk length and worker count.
    #[test]
    fn par_chunks_mut_covers_every_element_once(
        len in 1usize..300,
        chunk in 1usize..48,
        jobs in 1usize..6,
    ) {
        let mut data = vec![0u32; len];
        ThreadPool::new(Parallelism::jobs(jobs)).par_chunks_mut(&mut data, chunk, |ci, panel| {
            for x in panel.iter_mut() {
                *x += 1 + ci as u32;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(x, 1 + (i / chunk) as u32);
        }
    }
}
