//! The earliest scheduled replica step, kept by a tournament tree.
//!
//! Every replica has at most one next layer step
//! ([`Replica::next_step_time`](crate::replica::Replica::next_step_time)).
//! The fleet driver needs the earliest of them, ties to the lowest
//! replica index, after every event — exactly what the reference scan
//! finds by looking at every replica. The tree answers the same question
//! in O(1) and is updated in O(log replicas) for each replica a handler
//! touched.

/// A tournament tree over `leaves` optional step times.
///
/// Leaf `i` sits at node `size + i` of an implicit binary tree whose root
/// is node 1; every inner node holds the winner `(time, replica)` of its
/// two children. An unscheduled leaf holds `+inf`, which never wins
/// against a finite time. The left child wins ties, and every leaf of a
/// left subtree has a lower index than every leaf of its right sibling,
/// so ties go to the lowest index, as in the scan.
#[derive(Debug)]
pub(crate) struct StepTree {
    /// Leaf count rounded up to a power of two.
    size: usize,
    /// `(time, replica)` per node; index 0 is unused.
    nodes: Vec<(f64, u32)>,
    /// Leaves holding a scheduled step.
    live: usize,
}

impl StepTree {
    /// A tree of `leaves` replicas, none scheduled.
    pub fn new(leaves: usize) -> Self {
        let size = leaves.max(1).next_power_of_two();
        let mut nodes = vec![(f64::INFINITY, 0u32); 2 * size];
        for i in 0..size {
            nodes[size + i].1 = i as u32;
        }
        for n in (1..size).rev() {
            nodes[n] = nodes[2 * n];
        }
        Self { size, nodes, live: 0 }
    }

    /// Sets replica `i`'s next step time (`None`: nothing scheduled).
    ///
    /// A time equal to the one already held is a no-op, so the tree keeps
    /// the time it was first given, as a scheduled event would.
    pub fn set(&mut self, i: usize, t: Option<f64>) {
        let t = match t {
            Some(t) => {
                debug_assert!(t.is_finite(), "step time must be finite, got {t}");
                t
            }
            None => f64::INFINITY,
        };
        let mut n = self.size + i;
        let old = self.nodes[n].0;
        if old == t {
            return;
        }
        if old == f64::INFINITY {
            self.live += 1;
        } else if t == f64::INFINITY {
            self.live -= 1;
        }
        self.nodes[n].0 = t;
        while n > 1 {
            n /= 2;
            let (left, right) = (self.nodes[2 * n], self.nodes[2 * n + 1]);
            self.nodes[n] = if right.0 < left.0 { right } else { left };
        }
    }

    /// The earliest scheduled step as `(time, replica)`, ties to the
    /// lowest replica index; `None` when no replica has a step.
    pub fn min(&self) -> Option<(f64, usize)> {
        let (t, i) = self.nodes[1];
        (t < f64::INFINITY).then_some((t, i as usize))
    }

    /// How many replicas have a scheduled step.
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference scan's answer over the same leaves.
    fn scan(leaves: &[Option<f64>]) -> Option<(f64, usize)> {
        leaves
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, i)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)))
    }

    #[test]
    fn empty_tree_has_no_step() {
        let tree = StepTree::new(5);
        assert_eq!(tree.min(), None);
        assert_eq!(tree.live(), 0);
    }

    #[test]
    fn equal_times_go_to_the_lowest_index() {
        let mut tree = StepTree::new(6);
        for i in [5, 3, 4] {
            tree.set(i, Some(2.0));
        }
        assert_eq!(tree.min(), Some((2.0, 3)));
        tree.set(3, None);
        assert_eq!(tree.min(), Some((2.0, 4)));
        tree.set(0, Some(2.0));
        assert_eq!(tree.min(), Some((2.0, 0)));
        assert_eq!(tree.live(), 3);
    }

    #[test]
    fn setting_an_equal_time_keeps_the_first_one() {
        // -0.0 == 0.0: the tree keeps what it held, bit for bit.
        let mut tree = StepTree::new(1);
        tree.set(0, Some(0.0));
        tree.set(0, Some(-0.0));
        assert_eq!(tree.min().map(|(t, _)| t.to_bits()), Some(0.0f64.to_bits()));
        assert_eq!(tree.live(), 1);
    }

    #[test]
    fn a_single_replica_is_its_own_root() {
        let mut tree = StepTree::new(1);
        tree.set(0, Some(3.0));
        assert_eq!((tree.min(), tree.live()), (Some((3.0, 0)), 1));
        tree.set(0, Some(1.0));
        assert_eq!(tree.min(), Some((1.0, 0)), "a back-dated time replaces the old one");
        tree.set(0, None);
        assert_eq!((tree.min(), tree.live()), (None, 0));
        tree.set(0, None);
        assert_eq!(tree.live(), 0, "clearing an empty leaf is a no-op");
    }

    #[test]
    fn clearing_the_winner_promotes_the_next_earliest_across_subtrees() {
        // Five leaves pad to eight: the padding never wins.
        let mut tree = StepTree::new(5);
        for (i, t) in [(0, 4.0), (1, 3.0), (2, 5.0), (3, 2.0), (4, 1.0)] {
            tree.set(i, Some(t));
        }
        let mut order = Vec::new();
        while let Some((t, i)) = tree.min() {
            order.push((t, i));
            tree.set(i, None);
        }
        assert_eq!(order, vec![(1.0, 4), (2.0, 3), (3.0, 1), (4.0, 0), (5.0, 2)]);
        assert_eq!(tree.live(), 0);
    }

    #[test]
    fn random_updates_match_the_linear_scan_on_every_size() {
        for leaves in 1..=70usize {
            let mut rng = StdRng::seed_from_u64(leaves as u64);
            let mut tree = StepTree::new(leaves);
            let mut model: Vec<Option<f64>> = vec![None; leaves];
            for op in 0..600 {
                let i = rng.gen_range(0..leaves);
                let earliest = scan(&model).map_or(1.0, |(t, _)| t);
                let t = match rng.gen_range(0..6u32) {
                    0 | 1 => None,
                    // A handful of shared instants, so ties are common.
                    2 | 3 => Some(f64::from(rng.gen_range(0..4u32))),
                    // Back-dated below the current minimum.
                    4 => Some(earliest * rng.gen_range(0.0..1.0)),
                    _ => Some(rng.gen_range(0.0..8.0)),
                };
                model[i] = t;
                tree.set(i, t);
                assert_eq!(tree.min(), scan(&model), "{leaves} leaves, op {op}");
                let live = model.iter().filter(|t| t.is_some()).count();
                assert_eq!(tree.live(), live, "{leaves} leaves, op {op}");
            }
        }
    }
}
