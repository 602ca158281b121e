//! The paper's own figures and tables: Fig. 1, 2, 11-16, Table I and the
//! §VI-C end-to-end speedup.

use cta_attention::{attention_exact, cta_forward, AttentionDims, AttentionWeights, CtaConfig};
use cta_baselines::{
    a3_attention, A3Config, ElsaApproximation, ElsaGpuSystem, ElsaModel, GpuModel, IdealAccelerator,
};
use cta_parallel::par_map;
use cta_sim::{
    area_breakdown, best_pag_parallelism, schedule, sweep, AreaModel, CtaAccelerator, HwConfig,
    PhaseKind,
};
use cta_tensor::{geometric_mean, mean, relative_error, Matrix};
use cta_workloads::{
    albert_large, bert_large, imdb, model_zoo, paper_cases, roberta_large, squad11, CtaClass,
    TestCase,
};

use super::Inputs;
use crate::{simulate, Figure, UNITS};

/// Fig. 1 walkthrough: normal attention vs query-specific pruning vs
/// CTA's relation compression, on a tiny hand-sized example.
///
/// The paper's Fig. 1(c) shows 3×3 relations collapsing to 2×2 when two
/// tokens repeat a semantic feature. This reproduces that story
/// numerically on a 6-token sequence with two repeated features.
pub fn fig01_demo(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Figure 1 — three ways to treat attention relations (6-token demo)");

    // Six tokens, two semantic features repeated three times each (with
    // tiny paraphrase jitter).
    let tokens = Matrix::from_rows(&[
        &[1.0, 0.0, 2.0, -1.0],
        &[1.01, 0.0, 2.0, -1.0],
        &[-2.0, 1.5, 0.0, 0.5],
        &[1.0, 0.01, 1.99, -1.0],
        &[-2.01, 1.5, 0.01, 0.5],
        &[-2.0, 1.49, 0.0, 0.51],
    ]);
    let weights = AttentionWeights::random(4, 4, 1);

    // (a) Normal attention: all 36 relations.
    let exact = attention_exact(&tokens, &tokens, &weights);
    fig.line(format!("(a) normal attention computes {} x {} = 36 relations", 6, 6));

    // (b) Query-specific pruning: each query keeps its own top-3 keys.
    let a3 = a3_attention(
        &tokens,
        &tokens,
        &weights,
        &A3Config { search_iterations: 24, candidates: 3 },
    );
    fig.line("(b) per-query pruning keeps 6 x 3 = 18 relations, each query its own set:");
    for (q, c) in a3.candidates.iter().enumerate() {
        fig.line(format!("      query {q} -> keys {c:?}"));
    }
    fig.line(format!(
        "      output error {:.4} (and the sets above break inter-query parallelism)",
        relative_error(&a3.output, &exact.output)
    ));

    // (c) CTA: compress the two repeated features first.
    let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(1.0, 2));
    fig.line(format!(
        "(c) CTA compresses 6 tokens to k0 = {} queries and k1+k2 = {}+{} key/values:",
        cta.k0(),
        cta.k1(),
        cta.k2()
    ));
    fig.line(format!(
        "      {} x {} = {} compressed relations cover all 36 originals",
        cta.k0(),
        cta.k1() + cta.k2(),
        cta.k0() * (cta.k1() + cta.k2())
    ));
    fig.line(format!("      query clusters: {:?}", cta.query_compression.table.indices()));
    fig.line(format!("      kv clusters:    {:?}", cta.kv_compression.level1.table.indices()));
    fig.line(format!(
        "      output error {:.4}, with every stage still a dense matrix product",
        relative_error(&cta.output, &exact.output)
    ));
    fig
}

const FIG02_LENGTHS: [usize; 3] = [256, 384, 512];

/// Fig. 2's cases: the three discriminative models on SQuAD at each length.
pub fn fig02_cases() -> Vec<TestCase> {
    [bert_large(), roberta_large(), albert_large()]
        .into_iter()
        .flat_map(|model| FIG02_LENGTHS.map(|n| TestCase::new(model, squad11().with_seq_len(n))))
        .collect()
}

/// Fig. 2: proportion of effective relations in attention vs sequence
/// length (256 / 384 / 512) for the three discriminative models on SQuAD,
/// at a clustering strategy inducing < 1% accuracy loss.
///
/// Paper result: over half the relations are redundant everywhere, and the
/// effective proportion *decreases* as sequences grow.
pub fn fig02_effective_relations(inputs: &Inputs) -> Figure {
    let mut fig =
        Figure::new("Figure 2 — proportion of effective relations (CTA-1 clustering, <1% loss)");
    fig.table("fig02_effective_relations", &["model", "n=256", "n=384", "n=512"]);
    for model_cases in fig02_cases().chunks(FIG02_LENGTHS.len()) {
        let mut cells = vec![model_cases[0].model.name.to_string()];
        for case in model_cases {
            let [.., op] = inputs.points(case);
            cells.push(format!("{:.1}%", op.evaluation.complexity.effective_relations * 100.0));
        }
        fig.row(&cells);
    }
    fig.line("\npaper: all points below 50% and decreasing with sequence length");
    fig
}

/// Fig. 11: model accuracy (lines) and the RL / RA computation ratios
/// (bars) for CTA-0 / CTA-0.5 / CTA-1 over the 10 model-dataset
/// combinations.
///
/// Paper result (averages): RL = 58.3% / 52.2% / 44.4% and
/// RA = 35.2% / 27.5% / 18.4% for CTA-0 / CTA-0.5 / CTA-1.
pub fn fig11_accuracy_compression(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("Figure 11 — accuracy and RL/RA per test case");
    fig.table(
        "fig11_accuracy_compression",
        &["case", "class", "loss_pct", "rl_pct", "ra_pct", "k0", "k1", "k2"],
    );

    let mut rl: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let mut ra: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let mut loss: [Vec<f64>; 3] = [vec![], vec![], vec![]];

    for case in paper_cases() {
        for (i, op) in inputs.points(&case).iter().enumerate() {
            let e = &op.evaluation;
            fig.row(&[
                case.name(),
                op.class.label().into(),
                format!("{:.2}", e.accuracy_loss_pct),
                format!("{:.1}", e.complexity.rl * 100.0),
                format!("{:.1}", e.complexity.ra * 100.0),
                format!("{:.0}", e.mean_k0),
                format!("{:.0}", e.mean_k1),
                format!("{:.0}", e.mean_k2),
            ]);
            rl[i].push(e.complexity.rl * 100.0);
            ra[i].push(e.complexity.ra * 100.0);
            loss[i].push(e.accuracy_loss_pct);
        }
    }

    fig.save();
    fig.line("");
    fig.table("fig11_averages", &["average", "class", "loss%", "RL%", "RA%"]);
    for (i, class) in CtaClass::all().iter().enumerate() {
        fig.row(&[
            "".into(),
            class.label().into(),
            format!("{:.2}", mean(&loss[i])),
            format!("{:.1}", mean(&rl[i])),
            format!("{:.1}", mean(&ra[i])),
        ]);
    }
    fig.line("\npaper averages: RL 58.3/52.2/44.4%  RA 35.2/27.5/18.4% (CTA-0/-0.5/-1)");
    fig
}

/// Fig. 12: (left) normalized attention throughput of GPU,
/// ELSA-conservative/aggressive + GPU, and 12×CTA at the three accuracy
/// classes; (right) CTA latency breakdown and latency relative to the
/// ideal accelerator.
///
/// Paper result: 27.7× / 33.8× / 44.2× geomean speedup over GPU and
/// 18.3× / 22.1× / 28.7× over ELSA-Aggressive+GPU for CTA-0/-0.5/-1;
/// latency split ~59% attention / 34% linears / 7% compression; CTA
/// latency is 41% / 34% / 26% of the ideal accelerator's.
pub fn fig12_throughput_latency(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("Figure 12 (left) — normalized attention throughput (GPU = 1.0)");
    fig.table("fig12_throughput", &["case", "elsa_cons", "elsa_aggr", "cta0", "cta05", "cta1"]);

    let gpu = GpuModel::v100();
    let elsa_cons = ElsaGpuSystem::paper(ElsaApproximation::Conservative);
    let elsa_aggr = ElsaGpuSystem::paper(ElsaApproximation::Aggressive);
    let ideal = IdealAccelerator::matching(HwConfig::paper().num_multipliers());

    let mut speedups: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let mut over_elsa: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let mut fractions = [[0.0f64; 3]; 3]; // [class][comp/lin/att]
    let mut vs_ideal: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let cases = paper_cases();

    for case in &cases {
        let dims = case.dims();
        let gpu_t = gpu.attention_latency_s(&dims, UNITS);
        let cons_t = elsa_cons.attention_latency_s(&dims, UNITS);
        let aggr_t = elsa_aggr.attention_latency_s(&dims, UNITS);
        let mut cells =
            vec![case.name(), format!("{:.2}x", gpu_t / cons_t), format!("{:.2}x", gpu_t / aggr_t)];
        for (i, op) in inputs.points(case).iter().enumerate() {
            let r = simulate(&op.task(case));
            // 12 units process 12 heads in parallel: per-12-head latency is
            // one head's latency.
            let s = gpu_t / r.latency_s;
            cells.push(format!("{s:.1}x"));
            speedups[i].push(s);
            over_elsa[i].push(aggr_t / r.latency_s);
            let total = r.cycles as f64;
            fractions[i][0] += r.schedule.compression_cycles as f64 / total;
            fractions[i][1] += r.schedule.linear_cycles as f64 / total;
            fractions[i][2] += r.schedule.attention_cycles as f64 / total;
            vs_ideal[i].push(r.latency_s / ideal.head_latency_s(&dims));
        }
        fig.row(&cells);
    }
    fig.save();

    fig.line(format!(
        "\ngeomean speedup over GPU:        CTA-0 {:.1}x  CTA-0.5 {:.1}x  CTA-1 {:.1}x   (paper: 27.7 / 33.8 / 44.2)",
        geometric_mean(&speedups[0]),
        geometric_mean(&speedups[1]),
        geometric_mean(&speedups[2])
    ));
    fig.line(format!(
        "geomean over ELSA-aggr+GPU:      CTA-0 {:.1}x  CTA-0.5 {:.1}x  CTA-1 {:.1}x   (paper: 18.3 / 22.1 / 28.7)",
        geometric_mean(&over_elsa[0]),
        geometric_mean(&over_elsa[1]),
        geometric_mean(&over_elsa[2])
    ));

    fig.banner("Figure 12 (right) — CTA latency breakdown and vs ideal accelerator");
    fig.table("fig12_breakdown", &["class", "compress%", "linear%", "attention%", "vs ideal%"]);
    let nf = cases.len() as f64;
    for (i, label) in ["CTA-0", "CTA-0.5", "CTA-1"].iter().enumerate() {
        fig.row(&[
            (*label).into(),
            format!("{:.0}", fractions[i][0] / nf * 100.0),
            format!("{:.0}", fractions[i][1] / nf * 100.0),
            format!("{:.0}", fractions[i][2] / nf * 100.0),
            format!("{:.0}", mean(&vs_ideal[i]) * 100.0),
        ]);
    }
    fig.line("\npaper: breakdown ~7/34/59 (compress/linear/attention); vs ideal 41/34/26%");
    fig
}

/// The probe case of Fig. 13, Table I and the §V-B ablation:
/// BERT-large/IMDB (n = 512, the hardware's design point).
pub fn probe_case() -> Vec<TestCase> {
    vec![TestCase::new(bert_large(), imdb())]
}

/// Fig. 13: design-space exploration — normalized attention throughput
/// under SA widths {4, 8, 16, 32} × PAG parallelism {4, 8, 16, 32, 64,
/// 128}.
///
/// Paper result: PAG parallelism = 2× SA width is the knee (more buys
/// nothing, less stalls the SA), and throughput grows *sub-linearly* with
/// SA width because LSH-phase columns idle and value-register updates
/// grow.
pub fn fig13_dse(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("Figure 13 — throughput vs SA width x PAG parallelism");

    // Probe task: the CTA-0 operating point of the probe case.
    let case = probe_case()[0];
    let [op, ..] = inputs.points(&case);
    let task = op.task(&case);
    let k = (task.k0, task.k1, task.k2);
    fig.line(format!("probe task: {} at CTA-0, k = {k:?}\n", case.name()));

    let widths = [4usize, 8, 16, 32];
    let parallelisms = [4usize, 8, 16, 32, 64, 128];
    // One task per SA width; `sweep` iterates widths in the outer loop, so
    // concatenating per-width results reproduces the serial point order.
    let points: Vec<_> =
        par_map(inputs.jobs, &widths, |&b| sweep(&HwConfig::paper(), &task, &[b], &parallelisms))
            .into_iter()
            .flatten()
            .collect();

    // Normalize to the slowest configuration, as the paper's bars are.
    let base = points.iter().map(|p| p.heads_per_second).fold(f64::INFINITY, f64::min);

    let mut header = vec!["SA width".to_string()];
    header.extend(parallelisms.iter().map(|p| format!("PAG={p}")));
    header.push("knee".into());
    fig.table("fig13_dse", &header.iter().map(String::as_str).collect::<Vec<_>>());
    for &b in &widths {
        let mut cells = vec![format!("b={b}")];
        for &p in &parallelisms {
            let pt = points
                .iter()
                .find(|x| x.sa_width == b && x.pag_parallelism == p)
                .expect("swept point");
            cells.push(format!("{:.2}", pt.heads_per_second / base));
        }
        cells.push(format!("PAG={}", best_pag_parallelism(&points, b, 0.01)));
        fig.row(&cells);
    }

    fig.line("\npaper: knee at PAG = 2x SA width for every width; sub-linear width scaling");
    fig
}

/// Fig. 14: (left) normalized energy efficiency of the attention
/// mechanism across platforms; (right) CTA accelerator energy breakdown.
///
/// Paper result: 634× / 756× / 950× energy efficiency over GPU and 399× /
/// 471× / 587× over ELSA+GPU for CTA-0/-0.5/-1; breakdown ≈ 62% SA / 29%
/// memory / 9% auxiliary.
pub fn fig14_energy(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("Figure 14 (left) — normalized energy efficiency (GPU = 1.0)");
    fig.table("fig14_energy", &["case", "elsa_aggr", "cta0", "cta05", "cta1"]);

    let gpu = GpuModel::v100();
    let elsa = ElsaGpuSystem::paper(ElsaApproximation::Aggressive);
    let mut over_gpu: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let mut over_elsa: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let mut breakdown = [0.0f64; 3]; // sa / memory / aux
    let mut point_count = 0usize;

    for case in paper_cases() {
        let dims = case.dims();
        let gpu_e = gpu.attention_energy_j(&dims, UNITS);
        let elsa_e = elsa.attention_energy_j(&dims, UNITS);
        let mut cells = vec![case.name(), format!("{:.1}x", gpu_e / elsa_e)];
        for (i, op) in inputs.points(&case).iter().enumerate() {
            let r = simulate(&op.task(&case));
            let cta_e = r.energy.total_j() * UNITS as f64;
            cells.push(format!("{:.0}x", gpu_e / cta_e));
            over_gpu[i].push(gpu_e / cta_e);
            over_elsa[i].push(elsa_e / cta_e);
            breakdown[0] += r.energy.sa_fraction();
            breakdown[1] += r.energy.memory_fraction();
            breakdown[2] += r.energy.aux_fraction();
            point_count += 1;
        }
        fig.row(&cells);
    }
    fig.save();

    fig.line(format!(
        "\ngeomean over GPU:       CTA-0 {:.0}x  CTA-0.5 {:.0}x  CTA-1 {:.0}x   (paper: 634 / 756 / 950)",
        geometric_mean(&over_gpu[0]),
        geometric_mean(&over_gpu[1]),
        geometric_mean(&over_gpu[2])
    ));
    fig.line(format!(
        "geomean over ELSA+GPU:  CTA-0 {:.0}x  CTA-0.5 {:.0}x  CTA-1 {:.0}x   (paper: 399 / 471 / 587)",
        geometric_mean(&over_elsa[0]),
        geometric_mean(&over_elsa[1]),
        geometric_mean(&over_elsa[2])
    ));

    fig.banner("Figure 14 (right) — CTA energy breakdown");
    let nf = point_count as f64;
    fig.table("fig14_breakdown", &["module", "share", "paper"]);
    for (module, share, paper) in
        [("SA engine", 0, "62%"), ("memory", 1, "29%"), ("auxiliary", 2, "9%")]
    {
        fig.row(&[module.into(), format!("{:.0}%", breakdown[share] / nf * 100.0), paper.into()]);
    }
    fig
}

/// Fig. 15: area breakdown of one CTA accelerator.
///
/// Paper result: total 2.150 mm² at SMIC 40 nm with the SA computation
/// engine at 74.6%.
pub fn fig15_area(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Figure 15 — area breakdown (40 nm)");
    let report = area_breakdown(&HwConfig::paper(), &AreaModel::default());
    let total = report.total_mm2();
    fig.table("fig15_area", &["module", "mm^2", "share"]);
    for (name, mm2) in [
        ("SA computation engine", report.sa_mm2),
        ("memory modules", report.memory_mm2),
        ("PAG", report.pag_mm2),
        ("CIM", report.cim_mm2),
        ("CAG", report.cag_mm2),
    ] {
        fig.row(&[name.into(), format!("{mm2:.3}"), format!("{:.1}%", mm2 / total * 100.0)]);
    }
    fig.row(&["total".into(), format!("{total:.3}"), "100%".into()]);
    fig.line("\npaper: total 2.150 mm^2, SA 74.6%, auxiliary modules small");
    fig
}

/// Fig. 16's cases: BERT-large on SQuAD at 128 / 256 / 384 / 512 tokens.
pub fn fig16_cases() -> Vec<TestCase> {
    [128usize, 256, 384, 512].map(|n| TestCase::new(bert_large(), squad11().with_seq_len(n))).into()
}

/// Fig. 16: normalized memory accesses of CTA vs ELSA at sequence lengths
/// 128 / 256 / 384 / 512.
///
/// Paper result: ELSA's query-serial processing re-reads keys/values per
/// query, so its traffic grows much faster than CTA's systolic-reuse
/// traffic as sequences lengthen.
pub fn fig16_memory_access(inputs: &Inputs) -> Figure {
    let mut fig =
        Figure::new("Figure 16 — memory accesses vs sequence length (normalized to CTA @128)");
    fig.table("fig16_memory_access", &["n", "cta", "elsa_aggr", "elsa_over_cta"]);

    let elsa = ElsaModel::new(ElsaApproximation::Aggressive);
    let hw = HwConfig::paper();
    let mut base: Option<f64> = None;

    // Paper evaluates CTA at its accuracy-preserving operating point.
    for case in fig16_cases() {
        let [op, ..] = inputs.points(&case);
        let n = case.dataset.seq_len;
        let sched = schedule(&hw, &op.task(&case));
        let cta = sched.memory.data_accesses() as f64;
        let dims = AttentionDims::self_attention(n, 64, 64);
        let elsa_acc = elsa.memory_accesses(&dims) as f64;
        let b = *base.get_or_insert(cta);
        fig.row(&[
            format!("{n}"),
            format!("{:.2}", cta / b),
            format!("{:.2}", elsa_acc / b),
            format!("{:.1}x", elsa_acc / cta),
        ]);
    }
    fig.save();
    fig.line("\npaper: ELSA induces substantially more accesses, diverging as n grows");
    fig
}

/// Table I: the chronological mapping procedure of one CTA attention head
/// on the proposed hardware, with per-step cycle costs from the
/// cycle-level simulator.
pub fn table1_mapping_trace(inputs: &Inputs) -> Figure {
    let mut fig =
        Figure::new("Table I — mapping procedure trace (one head, BERT-large/IMDB @ CTA-0)");

    let case = probe_case()[0];
    let [op, ..] = inputs.points(&case);
    let task = op.task(&case);
    fig.line(format!(
        "task: m = n = {}, d = {}, k = ({}, {}, {}), l = {}\n",
        task.num_keys, task.head_dim, task.k0, task.k1, task.k2, task.hash_length
    ));

    let sched = schedule(&HwConfig::paper(), &task);
    fig.table("table1_mapping_trace", &["step", "category", "cycles", "share"]);
    for step in &sched.steps {
        let cat = match step.category {
            PhaseKind::Compression => "compress",
            PhaseKind::Linear => "linear",
            PhaseKind::Attention => "attention",
        };
        fig.row(&[
            step.name.clone(),
            cat.into(),
            format!("{}", step.cycles),
            format!("{:.1}%", step.cycles as f64 / sched.total_cycles as f64 * 100.0),
        ]);
    }
    fig.line("");
    fig.row(&["total".into(), "".into(), format!("{}", sched.total_cycles), "100%".into()]);
    fig.line(format!(
        "category split: compression {} / linear {} / attention {} cycles (PAG stalls: {})",
        sched.compression_cycles,
        sched.linear_cycles,
        sched.attention_cycles,
        sched.pag_stall_cycles
    ));
    fig.line(format!("latency at 1 GHz: {:.1} us per head", sched.total_cycles as f64 / 1000.0));
    fig
}

/// Achieved FLOP/s fraction on the non-attention parts of a layer: the
/// FFN GEMMs are large (n × d_model × 4·d_model) and run near cuBLAS peak
/// on V100, minus the layernorm/GELU/elementwise tail — unlike the small
/// per-head attention kernels. This value reproduces the paper's premise
/// of attention being ~50% of inference time at sequence length 512.
pub(super) const REST_EFFICIENCY: f64 = 0.62;

/// The end-to-end cases: every model of the zoo on SQuAD at 512 and 2048
/// tokens.
pub fn end_to_end_cases() -> Vec<TestCase> {
    model_zoo()
        .into_iter()
        .flat_map(|model| [512, 2048].map(|n| TestCase::new(model, squad11().with_seq_len(n))))
        .collect()
}

/// §VI-C end-to-end performance: attention mapped on 12×CTA, everything
/// else (output projection, FFN, norms) on the GPU.
///
/// Paper result: 1.9–2.0× end-to-end speedup at sequence length 512,
/// rising to 2.9–3.0× at 4× longer sequences.
pub fn end_to_end(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("End-to-end speedup (attention on 12xCTA at CTA-0, rest on GPU)");
    fig.table("end_to_end", &["model", "n", "att frac", "speedup"]);

    let gpu = GpuModel::v100();

    for case in end_to_end_cases() {
        let [op, ..] = inputs.points(&case);
        let (model, n) = (case.model, case.dataset.seq_len);
        let dims = case.dims();

        // GPU-only layer time: attention + rest-of-layer.
        let att_t = gpu.attention_latency_s(&dims, model.heads);
        let dm = model.d_model as f64;
        let rest_flops =
            2.0 * n as f64 * dm * dm + 2.0 * 2.0 * n as f64 * dm * model.ffn_dim as f64;
        let rest_t = rest_flops / (gpu.peak_fp32_tflops * 1e12 * REST_EFFICIENCY);
        let att_frac = att_t / (att_t + rest_t);

        // CTA time for all heads: 12 units, heads processed in rounds; the
        // accelerator is sized for the longer sequences here.
        let hw = HwConfig { max_seq_len: n, ..HwConfig::paper() };
        let acc = CtaAccelerator::new(hw);
        let head_t = acc.simulate_head(&op.task(&case)).latency_s;
        let rounds = model.heads.div_ceil(UNITS) as f64;
        let cta_t = head_t * rounds;

        let speedup = (att_t + rest_t) / (cta_t + rest_t);
        fig.row(&[
            model.name.into(),
            format!("{n}"),
            format!("{:.0}%", att_frac * 100.0),
            format!("{speedup:.2}x"),
        ]);
    }
    fig.line("\npaper: 1.9-2.0x at n = 512, 2.9-3.0x at 4x longer sequences");
    fig
}
