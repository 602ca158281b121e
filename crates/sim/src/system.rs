//! System-level model: a pool of CTA units serving whole models.
//!
//! The paper's deployment (Fig. 7, §VI-C) attaches CTA units to a host
//! device that feeds tokens and weights and consumes outputs: 12 units
//! process the heads of a layer in parallel, layers run back to back, and
//! host transfers can overlap the previous layer's compute. This module
//! schedules arbitrary per-layer head tasks onto `units` accelerators and
//! accounts for host-link traffic, producing the end-to-end attention
//! timeline that the §VI-C speedups compose with GPU-resident FFN time.

use crate::{AttentionTask, CtaAccelerator, HwConfig, PhaseSplit};

/// Largest layer (head tasks) and unit pool whose LPT working sets
/// [`CtaSystem::schedule_layer_costed`] keeps on the stack.
const LPT_STACK: usize = 64;

/// Configuration of the multi-unit system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of CTA units (the paper evaluates 12).
    pub units: usize,
    /// Effective host-link bandwidth, GB/s (PCIe 3.0 x16 sustains ~12).
    pub host_link_gbs: f64,
    /// Host-link energy per transferred bit, pJ.
    pub link_pj_per_bit: f64,
    /// Per-unit hardware configuration.
    pub hw: HwConfig,
    /// Whether layer `l+1`'s input transfer overlaps layer `l`'s compute
    /// (double-buffered token memory).
    pub overlap_transfers: bool,
}

impl SystemConfig {
    /// The paper's system: 12 units at the reference configuration.
    pub fn paper() -> Self {
        Self {
            units: 12,
            host_link_gbs: 12.0,
            link_pj_per_bit: 10.0,
            hw: HwConfig::paper(),
            overlap_transfers: true,
        }
    }

    /// Checks the pool itself (the per-unit hardware has its own
    /// [`HwConfig::try_validate`]): at least one unit and a positive host
    /// link bandwidth. The error is the violated rule.
    pub fn try_validate(&self) -> Result<(), &'static str> {
        if self.units == 0 {
            return Err("at least one unit");
        }
        if self.host_link_gbs.is_nan() || self.host_link_gbs <= 0.0 {
            return Err("host link bandwidth must be positive");
        }
        Ok(())
    }

    /// Returns a copy with a different per-unit hardware configuration —
    /// the builder-style alternative to a struct-update expression at
    /// call sites.
    pub fn with_hw(mut self, hw: HwConfig) -> Self {
        self.hw = hw;
        self
    }
}

/// Timeline and energy of one model's attention running on the system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRun {
    /// One-time weight upload (linear weights + LSH parameters for every
    /// unit) before the first layer, seconds.
    pub weight_upload_s: f64,
    /// Pure accelerator compute time, seconds (sum over layers of the
    /// slowest unit).
    pub compute_s: f64,
    /// Host-link transfer time, seconds (total bits over bandwidth).
    pub transfer_s: f64,
    /// End-to-end time with the configured overlap policy.
    pub total_s: f64,
    /// Per-layer critical-path times.
    pub per_layer_s: Vec<f64>,
    /// Accelerator + link energy, joules.
    pub energy_j: f64,
    /// Mean unit utilisation during compute phases, in `(0, 1]`.
    pub utilization: f64,
}

/// Latency and energy of one head task on a single unit, as used by the
/// layer scheduler. Obtainable from [`CtaSystem::head_cost`] and reusable
/// across calls (tasks with equal shapes always cost the same), so callers
/// that dispatch many identical heads — e.g. the `cta-serve` runtime — can
/// memoise instead of re-simulating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Single-unit latency of the head, seconds.
    pub latency_s: f64,
    /// Accelerator energy of the head, joules.
    pub energy_j: f64,
}

/// One layer's worth of execution on the system: the unit of the
/// steppable API ([`CtaSystem::step_layer`]) that request-level schedulers
/// advance one dispatch at a time. [`CtaSystem::run_layers`] is a fold of
/// these steps plus the one-time [`CtaSystem::weight_upload_s`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStep {
    /// Critical-path compute time across the units, seconds.
    pub critical_s: f64,
    /// Summed per-unit compute time (for utilisation accounting), seconds.
    pub busy_s: f64,
    /// Host-link activation transfer time (in + out), seconds.
    pub transfer_s: f64,
    /// Accelerator + link energy of the step, joules.
    pub energy_j: f64,
    /// Wall-clock time the step occupies under the configured overlap
    /// policy: `max(critical, transfer)` when transfers are
    /// double-buffered, `critical + transfer` otherwise.
    pub elapsed_s: f64,
}

/// A pool of CTA units plus the host link.
#[derive(Debug, Clone)]
pub struct CtaSystem {
    config: SystemConfig,
    accelerator: CtaAccelerator,
}

impl CtaSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or the bandwidth is not positive
    /// ([`SystemConfig::try_validate`]).
    pub fn new(config: SystemConfig) -> Self {
        if let Err(e) = config.try_validate() {
            panic!("{e}");
        }
        Self { accelerator: CtaAccelerator::new(config.hw), config }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Simulates one head task on a single unit and returns its cost.
    ///
    /// This is the per-task estimate request-level schedulers use to make
    /// admission and routing decisions without running a whole layer. The
    /// result depends only on the task shapes and the hardware
    /// configuration, so callers may cache it (`AttentionTask` is
    /// `Hash + Eq`).
    ///
    /// # Panics
    ///
    /// Panics if the task does not fit the hardware.
    pub fn head_cost(&self, task: &AttentionTask) -> TaskCost {
        let r = self.accelerator.simulate_head(task);
        TaskCost { latency_s: r.latency_s, energy_j: r.energy.total_j() }
    }

    /// Wall-clock phase split of one head task on a single unit — how its
    /// [`TaskCost::latency_s`] divides into compression / linear /
    /// attention time. Telemetry uses this to lay spans out inside a
    /// fleet-level layer step; like [`head_cost`](Self::head_cost), the
    /// result depends only on the task shapes and may be memoised.
    ///
    /// # Panics
    ///
    /// Panics if the task does not fit the hardware.
    pub fn head_phase_split(&self, task: &AttentionTask) -> PhaseSplit {
        crate::schedule(&self.config.hw, task).phase_split(&self.config.hw)
    }

    /// Latency and energy of a decode segment of one head on a single
    /// unit: `new_tokens` incremental compression steps plus `reclusters`
    /// level-2 rebuilds at the steady-state prefix described by `task`
    /// (see [`schedule_decode`](crate::schedule_decode)). Energy is the
    /// batch head's energy scaled by the cycle ratio — the decode path
    /// exercises the same dataflow primitives at proportionally lower
    /// activity. Depends only on the shapes, so callers may memoise.
    ///
    /// # Panics
    ///
    /// Panics if the task does not fit the hardware or `new_tokens == 0`.
    pub fn decode_head_cost(
        &self,
        task: &AttentionTask,
        new_tokens: u64,
        reclusters: u64,
    ) -> TaskCost {
        let batch = self.head_cost(task);
        let batch_cycles = crate::schedule(&self.config.hw, task).total_cycles;
        let dec = crate::schedule_decode(&self.config.hw, task, new_tokens, reclusters);
        let scale = dec.total_cycles as f64 / batch_cycles as f64;
        TaskCost { latency_s: dec.latency_s(&self.config.hw), energy_j: batch.energy_j * scale }
    }

    /// Wall-clock phase split of a decode segment — the decode analogue of
    /// [`head_phase_split`](Self::head_phase_split).
    ///
    /// # Panics
    ///
    /// Panics if the task does not fit the hardware or `new_tokens == 0`.
    pub fn decode_head_split(
        &self,
        task: &AttentionTask,
        new_tokens: u64,
        reclusters: u64,
    ) -> PhaseSplit {
        crate::schedule_decode(&self.config.hw, task, new_tokens, reclusters)
            .phase_split(&self.config.hw)
    }

    /// Schedules one layer's head tasks across the units (longest-
    /// processing-time-first), returning `(critical path seconds,
    /// summed compute seconds, summed energy joules)`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or a task does not fit the hardware.
    pub fn schedule_layer(&self, tasks: &[AttentionTask]) -> (f64, f64, f64) {
        assert!(!tasks.is_empty(), "a layer needs at least one head task");
        self.schedule_lpt(tasks.len(), tasks.iter().map(|t| self.head_cost(t)))
    }

    /// [`schedule_layer`](Self::schedule_layer) with pre-computed per-task
    /// costs, so callers holding a [`TaskCost`] memo (one `simulate_head`
    /// per distinct shape instead of one per dispatch) can schedule without
    /// re-simulating.
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty.
    pub fn schedule_layer_costed(&self, costs: &[TaskCost]) -> (f64, f64, f64) {
        assert!(!costs.is_empty(), "a layer needs at least one head task");
        self.schedule_lpt(costs.len(), costs.iter().copied())
    }

    /// LPT list scheduling of `n` task costs onto `units` machines: a
    /// stable descending sort by latency, then each task onto the first
    /// least-loaded unit. Up to [`LPT_STACK`] tasks and units the working
    /// sets live on the stack, so a layer dispatch allocates nothing; a
    /// larger layer or pool falls back to the heap with the same order
    /// and summation, hence the same bits.
    fn schedule_lpt(&self, n: usize, costs: impl Iterator<Item = TaskCost>) -> (f64, f64, f64) {
        let units = self.config.units;
        let mut reports_stack = [(0.0f64, 0.0f64); LPT_STACK];
        let mut reports_heap = Vec::new();
        let reports: &mut [(f64, f64)] = if n <= LPT_STACK {
            &mut reports_stack[..n]
        } else {
            reports_heap.resize(n, (0.0, 0.0));
            &mut reports_heap
        };
        for (slot, c) in reports.iter_mut().zip(costs) {
            *slot = (c.latency_s, c.energy_j);
        }
        reports.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite latencies"));
        let mut unit_stack = [0.0f64; LPT_STACK];
        let mut unit_heap = Vec::new();
        let unit_time: &mut [f64] = if units <= LPT_STACK {
            &mut unit_stack[..units]
        } else {
            unit_heap.resize(units, 0.0);
            &mut unit_heap
        };
        let mut energy = 0.0;
        let mut busy = 0.0;
        for &(lat, e) in reports.iter() {
            let u = unit_time
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                .map(|(i, _)| i)
                .expect("non-empty units");
            unit_time[u] += lat;
            energy += e;
            busy += lat;
        }
        let critical = unit_time.iter().cloned().fold(0.0, f64::max);
        (critical, busy, energy)
    }

    /// One-time weight upload (linear weights + LSH parameters for every
    /// unit) before a model's first layer, seconds. Paper Fig. 7: the
    /// weight memory "fetches tokens and weights from host device".
    pub fn weight_upload_s(&self) -> f64 {
        self.weight_upload_bits() / (self.config.host_link_gbs * 8e9)
    }

    /// Bits of the one-time weight upload: per unit, three d×d 12-bit
    /// weight matrices plus the shared LSH parameters.
    fn weight_upload_bits(&self) -> f64 {
        let d = self.config.hw.sa_height as f64;
        let l = self.config.hw.hash_length as f64;
        self.config.units as f64 * (3.0 * d * d + (l + 1.0) * d) * 12.0
    }

    /// Executes one layer dispatch: schedules `tasks` across the units and
    /// accounts the activation transfer (13-bit tokens, `n × heads·d` each
    /// way) under the configured overlap policy.
    ///
    /// This is the incremental unit of execution: a request-level
    /// scheduler (see the `cta-serve` crate) advances a model one
    /// `step_layer` at a time, which lets it coalesce head tasks from
    /// several queued requests into one dispatch at every layer boundary.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or a task does not fit the hardware.
    pub fn step_layer(&self, tasks: &[AttentionTask]) -> LayerStep {
        let scheduled = self.schedule_layer(tasks);
        self.finish_step(tasks, scheduled)
    }

    /// [`step_layer`](Self::step_layer) with pre-computed per-task costs
    /// (`costs[i]` must be `head_cost(&tasks[i])` — shapes are still taken
    /// from `tasks` for the transfer model).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `costs.len() != tasks.len()`.
    pub fn step_layer_costed(&self, tasks: &[AttentionTask], costs: &[TaskCost]) -> LayerStep {
        assert!(!tasks.is_empty(), "a layer needs at least one head task");
        assert_eq!(costs.len(), tasks.len(), "one cost per task");
        let scheduled = self.schedule_layer_costed(costs);
        self.finish_step(tasks, scheduled)
    }

    /// Adds the activation transfer of `tasks` to a scheduled layer
    /// `(critical, busy, compute energy)` under the overlap policy.
    fn finish_step(&self, tasks: &[AttentionTask], scheduled: (f64, f64, f64)) -> LayerStep {
        let (critical_s, busy_s, compute_energy) = scheduled;
        // Transfer: activations in + out, 13 bits per element.
        let elems: u64 = tasks.iter().map(|t| (t.num_queries * t.head_dim) as u64).sum();
        let bits = 2.0 * elems as f64 * 13.0;
        let transfer_s = bits / (self.config.host_link_gbs * 8e9);
        let elapsed_s = if self.config.overlap_transfers {
            critical_s.max(transfer_s)
        } else {
            critical_s + transfer_s
        };
        let energy_j = compute_energy + bits * self.config.link_pj_per_bit * 1e-12;
        LayerStep { critical_s, busy_s, transfer_s, energy_j, elapsed_s }
    }

    /// Runs a whole model: `layer_tasks[l]` holds the per-head tasks of
    /// layer `l`. Transfers move the layer's token activations in and out
    /// (13-bit tokens, `n × heads·d` each way).
    ///
    /// # Panics
    ///
    /// Panics if any layer is empty.
    pub fn run_layers(&self, layer_tasks: &[Vec<AttentionTask>]) -> SystemRun {
        assert!(!layer_tasks.is_empty(), "at least one layer");
        let weight_upload_s = self.weight_upload_s();
        let mut compute_s = 0.0;
        let mut busy_s = 0.0;
        let mut transfer_s = 0.0;
        let mut energy_j = 0.0;
        let mut per_layer_s = Vec::with_capacity(layer_tasks.len());

        for tasks in layer_tasks {
            let step = self.step_layer(tasks);
            compute_s += step.critical_s;
            busy_s += step.busy_s;
            transfer_s += step.transfer_s;
            energy_j += step.energy_j;
            per_layer_s.push(step.elapsed_s);
        }

        let total_s: f64 = weight_upload_s + per_layer_s.iter().sum::<f64>();
        let utilization = busy_s / (compute_s * self.config.units as f64);
        energy_j += self.weight_upload_bits() * self.config.link_pj_per_bit * 1e-12;
        SystemRun {
            weight_upload_s,
            compute_s,
            transfer_s,
            total_s,
            per_layer_s,
            energy_j,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn task() -> AttentionTask {
        AttentionTask::from_counts(512, 512, 64, 200, 180, 40, 6)
    }

    fn uniform_layers(layers: usize, heads: usize) -> Vec<Vec<AttentionTask>> {
        (0..layers).map(|_| vec![task(); heads]).collect()
    }

    #[test]
    fn twelve_identical_heads_fill_twelve_units() {
        let sys = CtaSystem::new(SystemConfig::paper());
        let run = sys.run_layers(&uniform_layers(1, 12));
        // One wave: layer time = one head's latency; full utilisation.
        let single = CtaAccelerator::new(HwConfig::paper()).simulate_head(&task()).latency_s;
        assert!((run.compute_s - single).abs() / single < 1e-9);
        assert!((run.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sixteen_heads_take_two_waves() {
        let sys = CtaSystem::new(SystemConfig::paper());
        let run = sys.run_layers(&uniform_layers(1, 16));
        let single = CtaAccelerator::new(HwConfig::paper()).simulate_head(&task()).latency_s;
        assert!((run.compute_s - 2.0 * single).abs() / single < 1e-9);
        assert!(run.utilization < 1.0);
    }

    #[test]
    fn layers_accumulate() {
        let sys = CtaSystem::new(SystemConfig::paper());
        let one = sys.run_layers(&uniform_layers(1, 12));
        let four = sys.run_layers(&uniform_layers(4, 12));
        let one_layer = one.total_s - one.weight_upload_s;
        let four_layers = four.total_s - four.weight_upload_s;
        assert!((four_layers - 4.0 * one_layer).abs() / one_layer < 1e-6);
        assert_eq!(four.per_layer_s.len(), 4);
        assert!(four.weight_upload_s > 0.0);
        assert_eq!(four.weight_upload_s, one.weight_upload_s);
    }

    #[test]
    fn overlap_hides_transfers_when_compute_bound() {
        let overlapped = CtaSystem::new(SystemConfig::paper());
        let serial =
            CtaSystem::new(SystemConfig { overlap_transfers: false, ..SystemConfig::paper() });
        let layers = uniform_layers(2, 12);
        let a = overlapped.run_layers(&layers);
        let b = serial.run_layers(&layers);
        assert!(a.total_s < b.total_s);
        assert_eq!(a.transfer_s, b.transfer_s);
    }

    #[test]
    fn lpt_balances_mixed_head_sizes() {
        // Two big and many small heads on 2 units: LPT puts the big ones
        // on different units.
        let sys = CtaSystem::new(SystemConfig { units: 2, ..SystemConfig::paper() });
        let big = AttentionTask::from_counts(512, 512, 64, 400, 380, 80, 6);
        let small = AttentionTask::from_counts(512, 512, 64, 60, 50, 20, 6);
        let acc = CtaAccelerator::new(HwConfig::paper());
        let (critical, _, _) = sys.schedule_layer(&[big, big, small, small]);
        let big_t = acc.simulate_head(&big).latency_s;
        let small_t = acc.simulate_head(&small).latency_s;
        assert!((critical - (big_t + small_t)).abs() / big_t < 1e-9, "critical {critical}");
    }

    #[test]
    fn energy_includes_link_energy() {
        let expensive_link =
            CtaSystem::new(SystemConfig { link_pj_per_bit: 1000.0, ..SystemConfig::paper() });
        let cheap_link =
            CtaSystem::new(SystemConfig { link_pj_per_bit: 0.0, ..SystemConfig::paper() });
        let layers = uniform_layers(1, 12);
        assert!(
            expensive_link.run_layers(&layers).energy_j > cheap_link.run_layers(&layers).energy_j
        );
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_rejected() {
        let _ = CtaSystem::new(SystemConfig { units: 0, ..SystemConfig::paper() });
    }

    #[test]
    fn stepped_execution_matches_run_layers() {
        // The steppable API must fold back into exactly the monolithic
        // run: same elapsed time per layer, same totals.
        let sys = CtaSystem::new(SystemConfig::paper());
        let layers = uniform_layers(3, 16);
        let run = sys.run_layers(&layers);
        let mut elapsed = sys.weight_upload_s();
        for (i, tasks) in layers.iter().enumerate() {
            let step = sys.step_layer(tasks);
            assert_eq!(step.elapsed_s, run.per_layer_s[i]);
            elapsed += step.elapsed_s;
        }
        assert!((elapsed - run.total_s).abs() < 1e-15);
    }

    #[test]
    fn costed_step_matches_uncached_step() {
        let sys = CtaSystem::new(SystemConfig::paper());
        let tasks = vec![task(); 5];
        let costs: Vec<TaskCost> = tasks.iter().map(|t| sys.head_cost(t)).collect();
        assert_eq!(sys.step_layer(&tasks), sys.step_layer_costed(&tasks, &costs));
        // Identical shapes cost identically, so one simulation can stand
        // in for all five.
        assert_eq!(costs[0], costs[4]);
        // Mixed shapes on fewer units: pricing in place matches the
        // costed path and the `Vec` oracle.
        let sys = CtaSystem::new(SystemConfig { units: 3, ..SystemConfig::paper() });
        let big = AttentionTask::from_counts(512, 512, 64, 400, 380, 80, 6);
        let tasks = vec![task(), big, task(), big, task()];
        let costs: Vec<TaskCost> = tasks.iter().map(|t| sys.head_cost(t)).collect();
        assert_eq!(sys.schedule_layer(&tasks), schedule_layer_costed_vec(3, &costs));
        assert_eq!(sys.step_layer(&tasks), sys.step_layer_costed(&tasks, &costs));
    }

    #[test]
    fn weight_upload_is_positive_and_scales_with_units() {
        let small = CtaSystem::new(SystemConfig { units: 1, ..SystemConfig::paper() });
        let big = CtaSystem::new(SystemConfig::paper());
        assert!(small.weight_upload_s() > 0.0);
        assert!((big.weight_upload_s() - 12.0 * small.weight_upload_s()).abs() < 1e-18);
    }

    /// The heap-collecting LPT body `schedule_layer_costed` ran before the
    /// stack buffers: the bitwise oracle for the fast path.
    fn schedule_layer_costed_vec(units: usize, costs: &[TaskCost]) -> (f64, f64, f64) {
        let mut reports: Vec<(f64, f64)> =
            costs.iter().map(|c| (c.latency_s, c.energy_j)).collect();
        reports.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite latencies"));
        let mut unit_time = vec![0.0f64; units];
        let mut energy = 0.0;
        let mut busy = 0.0;
        for (lat, e) in reports {
            let u = unit_time
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                .map(|(i, _)| i)
                .expect("non-empty units");
            unit_time[u] += lat;
            energy += e;
            busy += lat;
        }
        let critical = unit_time.iter().cloned().fold(0.0, f64::max);
        (critical, busy, energy)
    }

    /// Splitmix64 step for drawing test costs from one seed.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The stack-buffer LPT reproduces the `Vec` body bit for bit on
        /// both sides of the 64-element stack limit, for tasks and units
        /// alike. Half the cases draw latencies from a four-value palette,
        /// so equal latencies (stable-sort ties) and equal unit loads
        /// (first-minimum picks) are exercised.
        #[test]
        fn stack_lpt_matches_vec_oracle_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..=140,
            units in 1usize..=140,
        ) {
            let mut state = seed;
            let palette = [1e-6, 2.5e-6, 2.5e-6 + 1e-12, 7e-6];
            let tied = seed % 2 == 0;
            let costs: Vec<TaskCost> = (0..n)
                .map(|_| {
                    let r = draw(&mut state);
                    let latency_s = if tied {
                        palette[(r % 4) as usize]
                    } else {
                        (r >> 11) as f64 / (1u64 << 53) as f64 * 1e-5
                    };
                    let energy_j = (draw(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 1e-6;
                    TaskCost { latency_s, energy_j }
                })
                .collect();
            let sys = CtaSystem::new(SystemConfig { units, ..SystemConfig::paper() });
            let fast = sys.schedule_layer_costed(&costs);
            let oracle = schedule_layer_costed_vec(units, &costs);
            prop_assert_eq!(fast.0.to_bits(), oracle.0.to_bits(), "critical n={} units={}", n, units);
            prop_assert_eq!(fast.1.to_bits(), oracle.1.to_bits(), "busy n={} units={}", n, units);
            prop_assert_eq!(fast.2.to_bits(), oracle.2.to_bits(), "energy n={} units={}", n, units);
        }
    }
}
