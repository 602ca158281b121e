//! Studies beyond the paper's figures: error analyses, the A³ and ELSA
//! algorithm baselines, extensions of the design, the sensitivity of the
//! calibrated models and a check of the workload generator.

use cta_attention::{
    attention_exact, attention_exact_causal, complexity_report, cta_forward, cta_forward_causal,
    normal_ops, output_error_bound, sample_families, AttentionDims, AttentionWeights,
    CausalCtaConfig, CtaConfig,
};
use cta_baselines::{a3_attention, elsa_attention, A3Config, ElsaAlgorithmConfig, GpuModel};
use cta_lsh::compress_two_level;
use cta_model::{ClassifierHead, TransformerStack};
use cta_sim::{schedule_ffn, schedule_gemm, AttentionTask, CtaAccelerator, EnergyModel, HwConfig};
use cta_tensor::{relative_error, Matrix};
use cta_workloads::{
    adapt_per_head, bert_large, generate_case_tokens, generate_layer_tokens, generate_tokens,
    gpt2_large, model_zoo, paper_cases, squad11, wikitext2, workload_stats, TestCase,
};

use super::paper::REST_EFFICIENCY;
use super::Inputs;
use crate::{Figure, UNITS};

/// Analysis: the provable output-error bound vs the realised error.
///
/// For each compression level we report the worst score/value
/// perturbations, the analytical per-query bound (see
/// `cta_attention::output_error_bound`), and the realised error — the
/// bound is sound everywhere and tightens as compression loosens.
pub fn analysis_error_bound(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Analysis — provable error bound vs realised error");
    fig.table(
        "analysis_error_bound",
        &["width", "max dS", "max dV", "worst bound", "worst actual", "sound"],
    );

    let case = TestCase::new(bert_large(), squad11().with_seq_len(256));
    let tokens = generate_tokens(&case.model, &case.dataset, 256, case.seed());
    let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
    let exact = attention_exact(&tokens, &tokens, &weights);

    for w in [0.5f32, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(w, case.seed()));
        let b = output_error_bound(&cta, &exact);
        let worst_bound = b.per_query_bound.iter().cloned().fold(0.0, f64::max);
        let worst_actual = b.per_query_actual.iter().cloned().fold(0.0, f64::max);
        fig.row(&[
            format!("{w:.1}"),
            format!("{:.3}", b.max_score_perturbation),
            format!("{:.3}", b.max_value_perturbation),
            format!("{worst_bound:.3}"),
            format!("{worst_actual:.3}"),
            if b.holds() { "yes".into() } else { "NO".into() },
        ]);
        assert!(b.holds(), "the bound must be sound");
    }
    fig.line("\nerror is controlled by the score/value perturbations the centroids");
    fig.line("introduce — the quantities the two-level residual scheme minimises.");
    fig
}

/// Analysis: per-layer compression through a deep model.
///
/// The paper's motivation (§II-B, citing Tenney et al.) is that each
/// attention layer extracts a narrow span of structure, so token
/// representations cluster — increasingly with depth. This runs the CTA
/// compression on every layer's token statistics of a 24-layer BERT-large
/// and shows the per-layer k and effective relations: deeper layers
/// compress harder, so a whole-model deployment gets *better* than the
/// single-layer numbers suggest.
pub fn analysis_layerwise(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Analysis — per-layer compression through BERT-large (24 layers)");
    fig.table("analysis_layerwise", &["layer", "k1", "k2", "eff_rel_pct"]);

    let model = bert_large();
    let dataset = squad11();
    let cfg = CtaConfig::uniform(4.0, 9);
    let [_, f1, f2] = sample_families(&cfg, model.head_dim);

    let mut first = 0.0f64;
    let mut last = 0.0f64;
    for layer in 0..model.layers {
        let tokens = generate_layer_tokens(&model, &dataset, layer, model.layers, 5);
        let two = compress_two_level(&tokens, &f1, &f2);
        let n = tokens.rows() as f64;
        let eff = (two.k1() + two.k2()) as f64 * (two.k1() + two.k2()) as f64 / (n * n);
        if layer == 0 {
            first = eff;
        }
        last = eff;
        if layer % 3 == 0 || layer == model.layers - 1 {
            fig.row(&[
                format!("{layer}"),
                format!("{}", two.k1()),
                format!("{}", two.k2()),
                format!("{:.1}", eff * 100.0),
            ]);
        }
    }
    fig.save();
    fig.line(format!(
        "\neffective relations fall from {:.1}% (layer 0) to {:.1}% (layer 23):",
        first * 100.0,
        last * 100.0
    ));
    fig.line("deeper layers cluster tighter, so whole-model speedups exceed the");
    fig.line("uniform-redundancy single-layer estimates used elsewhere.");
    fig
}

/// Analysis: stack-level accuracy agreement — the closest full-model
/// analogue of the paper's end-task metrics.
///
/// A classifier head pools the final activations of a multi-layer stack;
/// we run many sampled sequences through the exact and CTA paths and
/// report the fraction of *identical predictions* at each compression
/// level, next to the mean activation divergence. This is the model-scope
/// counterpart of Fig. 11's accuracy lines.
pub fn analysis_stack_accuracy(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Analysis — stack-level prediction agreement (4 layers x 8 heads)");
    fig.table("analysis_stack_accuracy", &["width", "agreement", "final act err"]);

    let model = bert_large();
    let dataset = squad11().with_seq_len(96);
    let stack = TransformerStack::random(4, 8, model.head_dim, 1024, 31);
    let head = ClassifierHead::random(stack.d_model(), 8, 32);
    let samples = 12usize;

    for w in [2.0f32, 8.0, 16.0, 32.0, 48.0] {
        let mut agree = 0usize;
        let mut err_sum = 0.0f64;
        for s in 0..samples {
            let slice = generate_tokens(&model, &dataset, 96, 100 + s as u64);
            let x = Matrix::from_fn(96, stack.d_model(), |r, c| slice[(r, c % model.head_dim)]);
            let cmp = stack.compare(&x, &CtaConfig::uniform(w, 33 + s as u64));
            if head.agree(&cmp.exact_output, &cmp.cta_output) {
                agree += 1;
            }
            err_sum += cmp.final_error();
        }
        fig.row(&[
            format!("{w:.1}"),
            format!("{}/{samples}", agree),
            format!("{:.4}", err_sum / samples as f64),
        ]);
    }
    fig.line("\npooled predictions are far more robust than per-query metrics:");
    fig.line("agreement survives activation divergences that flip individual");
    fig.line("attention targets — consistent with the paper recovering end-task");
    fig.line("accuracy at strong compression after finetuning.");
    fig
}

/// Algorithmic comparison: CTA's token compression vs A³-style
/// query-specific top-k pruning (the paper's Fig. 1 framing).
///
/// Both approximations are swept over their aggressiveness knob on the
/// same workload; for each we report accuracy (output error) against the
/// scalar operations spent. CTA's ops shrink *quadratically* with
/// compression while pruning saves only the score/output stage per query
/// and keeps the computation query-irregular.
pub fn baseline_a3(_: &Inputs) -> Figure {
    let mut fig =
        Figure::new("Baseline comparison — CTA token compression vs A3-style top-k pruning");

    let case = TestCase::new(bert_large(), squad11());
    let n = case.dataset.seq_len;
    let tokens = generate_tokens(&case.model, &case.dataset, n, case.seed());
    let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
    let exact = attention_exact(&tokens, &tokens, &weights);
    let exact_ops = {
        let o = normal_ops(&case.dims());
        o.linears.total() + o.attention.total()
    };

    fig.table("baseline_a3", &["scheme", "knob", "ops vs exact", "output err"]);

    for w in [1.0f32, 2.0, 4.0, 8.0, 16.0] {
        let cfg = CtaConfig::uniform(w, case.seed());
        let cta = cta_forward(&tokens, &tokens, &weights, &cfg);
        let report = complexity_report(&case.dims(), &cta, cfg.hash_length);
        let ops = report.cta.total().total();
        fig.row(&[
            "CTA".into(),
            format!("w={w:.0}"),
            format!("{:.1}%", ops as f64 / exact_ops as f64 * 100.0),
            format!("{:.4}", relative_error(&cta.output, &exact.output)),
        ]);
    }

    fig.line("");
    for keep_div in [2usize, 4, 8, 16] {
        let cfg = A3Config { search_iterations: n, candidates: (n / keep_div).max(1) };
        let a3 = a3_attention(&tokens, &tokens, &weights, &cfg);
        fig.row(&[
            "A3 top-k".into(),
            format!("keep n/{keep_div}"),
            format!("{:.1}%", a3.ops.total() as f64 / exact_ops as f64 * 100.0),
            format!("{:.4}", relative_error(&a3.output, &exact.output)),
        ]);
    }

    fig.line("\nCTA reduces both linears and the quadratic part (and stays query-parallel);");
    fig.line("top-k pruning keeps full linears and processes queries one at a time.");
    fig
}

/// Accuracy comparison of the two approximation *algorithms* on the same
/// workload: CTA's token compression vs ELSA's per-query sign-random-
/// projection candidate selection.
///
/// Both are swept over their aggressiveness knob; for each setting we
/// report the fraction of score work remaining and the output error. The
/// structural difference the CTA paper emphasises shows up directly: at
/// equal remaining work CTA errs less on redundant sequences, *and* its
/// work is a dense regular matrix product while ELSA's is query-varying.
pub fn baseline_elsa_accuracy(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Algorithm accuracy — CTA compression vs ELSA candidate selection");

    let case = TestCase::new(bert_large(), squad11());
    let n = case.dataset.seq_len;
    let tokens = generate_tokens(&case.model, &case.dataset, n, case.seed());
    let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
    let exact = attention_exact(&tokens, &tokens, &weights);

    fig.table("baseline_elsa_accuracy", &["scheme", "knob", "score work", "output err"]);

    for w in [2.0f32, 4.0, 8.0, 16.0] {
        let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(w, case.seed()));
        let work = cta.k0() as f64 * (cta.k1() + cta.k2()) as f64 / (n * n) as f64;
        fig.row(&[
            "CTA".into(),
            format!("w={w:.0}"),
            format!("{:.1}%", work * 100.0),
            format!("{:.4}", relative_error(&cta.output, &exact.output)),
        ]);
    }
    fig.line("");
    for margin in [24.0f32, 16.0, 8.0, 4.0] {
        let cfg = ElsaAlgorithmConfig { signature_bits: 64, score_margin: margin, seed: 9 };
        let elsa = elsa_attention(&tokens, &tokens, &weights, &cfg);
        fig.row(&[
            "ELSA".into(),
            format!("margin={margin}"),
            format!("{:.1}%", elsa.kept_fraction * 100.0),
            format!("{:.4}", relative_error(&elsa.output, &exact.output)),
        ]);
    }

    fig.line("\non redundant sequences attention mass spreads across each repeated");
    fig.line("feature's duplicates, so per-query pruning must keep a large fraction");
    fig.line("of the keys (wide margins) to stay accurate, while compression reaches");
    fig.line("percent-level error at ~10-25% of the score work — and additionally");
    fig.line("reduces the linears and stays one dense GEMM instead of query-varying");
    fig.line("candidate sets. This is the paper's Fig. 1 argument, measured.");
    fig
}

/// Extension: per-head adaptive bucket widths vs the paper's one width
/// per test case.
///
/// Heads cluster differently, so giving each head its own operating point
/// under the same per-head accuracy budget recovers extra compression on
/// insensitive heads.
pub fn extension_adaptive(_: &Inputs) -> Figure {
    let mut fig =
        Figure::new("Extension — per-head adaptive operating points (budget 1% per head)");

    // A reduced case keeps the (heads × widths) search quick.
    let case = TestCase::new(bert_large(), squad11().with_seq_len(192));
    let heads = 8;
    let result = adapt_per_head(&case, heads, 1.0);

    fig.table("extension_adaptive", &["head", "width", "loss%", "RA%"]);
    for h in 0..heads {
        fig.row(&[
            format!("{h}"),
            format!("{:.2}", result.widths[h]),
            format!("{:.2}", result.losses[h]),
            format!("{:.1}", result.head_ra[h] * 100.0),
        ]);
    }
    let min = result.widths.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = result.widths.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    fig.line(format!(
        "\nadapted widths span {min:.2}..{max:.2}; mean RA {:.1}%",
        result.mean_ra * 100.0
    ));
    fig.line("(one global width must satisfy the most sensitive head, i.e. RA at");
    fig.line(format!("width {min:.2} for every head — per-head adaptation recovers the gap)"));
    fig
}

/// Extension: blocked-causal CTA for autoregressive models.
///
/// The paper evaluates GPT-2 without spelling out the causal-mask
/// interaction; `cta_attention::cta_forward_causal` supplies a
/// leakage-free construction (compress strictly-past blocks, attend the
/// current block exactly). This sweeps the block size on the WikiText-2
/// workload and reports the score-work saved vs the output error against
/// exact causal attention.
pub fn extension_causal(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Extension — blocked-causal CTA (GPT-2/WikiText-2, n = 512)");
    fig.table("extension_causal", &["block", "centroids", "score work", "output err"]);

    let model = gpt2_large();
    let dataset = wikitext2();
    let tokens = generate_tokens(&model, &dataset, 512, 21);
    let weights = AttentionWeights::random(model.head_dim, model.head_dim, 22);
    let exact = attention_exact_causal(&tokens, &weights);
    let exact_evals = (512u64 * 513) / 2;

    for block in [512usize, 128, 64, 32, 16] {
        let cfg = CausalCtaConfig { block, inner: CtaConfig::uniform(4.0, 23) };
        let cta = cta_forward_causal(&tokens, &weights, &cfg);
        fig.row(&[
            format!("{block}"),
            format!("{}", cta.final_centroids),
            format!("{:.1}%", cta.score_evals as f64 / exact_evals as f64 * 100.0),
            format!("{:.4}", relative_error(&cta.output, &exact)),
        ]);
    }
    fig.line("\nblock = n is exact causal attention; shrinking blocks moves more of");
    fig.line("the past behind centroids, cutting the quadratic score work while the");
    fig.line("construction guarantees no future token ever reaches a query.");
    fig
}

/// The FFN extension's cases: every model of the zoo on SQuAD at 512
/// tokens.
pub fn extension_ffn_cases() -> Vec<TestCase> {
    model_zoo().into_iter().map(|m| TestCase::new(m, squad11().with_seq_len(512))).collect()
}

/// Extension (§VI-C): mapping the FFN onto the CTA systolic array
/// "further promotes" the end-to-end speedup because nothing is left on
/// the GPU.
///
/// Compares three deployments per model at n = 512: GPU-only, attention
/// on 12×CTA + FFN on GPU (the paper's end-to-end setting), and
/// attention + FFN both on 12×CTA.
pub fn extension_ffn(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("Extension — FFN on the systolic array (end-to-end, n = 512)");
    fig.table("extension_ffn", &["model", "att+GPU-FFN", "all-on-CTA", "FFN util"]);

    let gpu = GpuModel::v100();
    let hw = HwConfig::paper();
    let acc = CtaAccelerator::new(hw);

    for case in extension_ffn_cases() {
        let [op, ..] = inputs.points(&case);
        let (model, n) = (case.model, case.dataset.seq_len);
        let dims = case.dims();

        // GPU-only layer time.
        let att_gpu = gpu.attention_latency_s(&dims, model.heads);
        let dm = model.d_model as f64;
        let rest_flops = 2.0 * n as f64 * dm * dm + 4.0 * n as f64 * dm * model.ffn_dim as f64;
        let rest_gpu = rest_flops / (gpu.peak_fp32_tflops * 1e12 * REST_EFFICIENCY);
        let gpu_total = att_gpu + rest_gpu;

        // CTA attention time (CTA-0 point, rounds of 12 units).
        let head_t = acc.simulate_head(&op.task(&case)).latency_s;
        let att_cta = head_t * model.heads.div_ceil(UNITS) as f64;

        // FFN on the 12 units: the up/down GEMMs split across units by
        // output columns (embarrassingly parallel), so divide by UNITS.
        let ffn = schedule_ffn(&hw, n, model.d_model, model.ffn_dim);
        // Output projection is another GEMM of d_model x d_model.
        let proj = schedule_gemm(&hw, n, model.d_model, model.d_model);
        let rest_cta = (ffn.total_cycles + proj.cycles) as f64 * hw.cycle_time_s() / UNITS as f64;

        let hybrid = gpu_total / (att_cta + rest_gpu);
        let all_cta = gpu_total / (att_cta + rest_cta);
        fig.row(&[
            model.name.into(),
            format!("{hybrid:.2}x"),
            format!("{all_cta:.2}x"),
            format!("{:.0}%", ffn.up.utilization(&hw) * 100.0),
        ]);
    }
    fig.line("\npaper: FFN-on-SA further promotes the end-to-end speedup beyond the");
    fig.line("1.9-2.0x of the attention-only mapping (exact factor depends on the");
    fig.line("GPU's FFN efficiency; the SA runs the large FFN GEMMs near peak).");
    fig
}

/// Sensitivity analysis: do the reproduction's conclusions survive
/// perturbations of the calibrated model constants?
///
/// The energy/area constants and GPU efficiencies are calibrated (see
/// `DESIGN.md` §2). This perturbs each ±50% and checks the two headline
/// conclusions: CTA beats the GPU by an order of magnitude in throughput,
/// and by 2–3 orders in energy. Conclusions that flip under mild
/// perturbation would be artifacts of calibration; these do not.
pub fn sensitivity_models(_: &Inputs) -> Figure {
    let mut fig =
        Figure::new("Sensitivity — headline ratios under +/-50% model-constant perturbation");

    let dims = AttentionDims::self_attention(512, 64, 64);
    let task = AttentionTask::from_counts(512, 512, 64, 220, 210, 40, 6);

    fig.table("sensitivity_models", &["variant", "speedup", "energy eff"]);
    for (name, gpu_eff_scale, energy_scale) in [
        ("calibrated", 1.0f64, 1.0f64),
        ("GPU 50% faster", 1.5, 1.0),
        ("GPU 50% slower", 0.5, 1.0),
        ("CTA energy +50%", 1.0, 1.5),
        ("CTA energy -50%", 1.0, 0.5),
        ("both adverse", 1.5, 1.5),
    ] {
        let mut gpu = GpuModel::v100();
        gpu.gemm_efficiency *= gpu_eff_scale;
        gpu.elementwise_efficiency = (gpu.elementwise_efficiency * gpu_eff_scale).min(0.95);
        let base = EnergyModel::default();
        let energy = EnergyModel {
            pe_mac_pj: base.pe_mac_pj * energy_scale,
            ppe_op_pj: base.ppe_op_pj * energy_scale,
            add_pj: base.add_pj * energy_scale,
            lut_pj: base.lut_pj * energy_scale,
            cim_step_pj: base.cim_step_pj * energy_scale,
            pag_add_pj: base.pag_add_pj * energy_scale,
            static_w: base.static_w * energy_scale,
        };
        let acc = CtaAccelerator::new(HwConfig::paper()).with_energy_model(energy);
        let r = acc.simulate_head(&task);
        let speedup = gpu.attention_latency_s(&dims, 12) / r.latency_s;
        let eff = gpu.attention_energy_j(&dims, 12) / (r.energy.total_j() * 12.0);
        fig.row(&[name.into(), format!("{speedup:.1}x"), format!("{eff:.0}x")]);
        assert!(speedup > 5.0, "throughput conclusion must survive: {speedup}");
        assert!(eff > 100.0, "energy conclusion must survive: {eff}");
    }
    fig.line("\nboth conclusions hold across every perturbation (the asserts enforce it).");
    fig
}

/// Workload validation: do the generated sequences carry the redundancy
/// the paper's motivation requires?
///
/// For every test case we report the *configured* dataset redundancy next
/// to the *measured* repetition fraction (tokens whose nearest earlier
/// token lies within 10% of the mean token norm) — the property that
/// makes token compression possible at all.
pub fn workload_validation(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Workload validation — configured vs measured redundancy");
    fig.table("workload_validation", &["case", "configured", "measured", "nn_dist", "max_norm"]);

    for case in paper_cases() {
        let tokens = generate_case_tokens(&case, case.seed());
        let stats = workload_stats(&tokens, 0.10);
        fig.row(&[
            case.name(),
            format!("{:.2}", case.dataset.redundancy),
            format!("{:.2}", stats.measured_redundancy),
            format!("{:.3}", stats.mean_nearest_relative),
            format!("{:.1}", stats.norm_summary.max),
        ]);
    }
    fig.save();
    fig.line("\nmeasured repetition tracks the configured redundancy, and all token");
    fig.line("norms sit far below the Q6.7 saturation cliff — the generator delivers");
    fig.line("the statistics the CTA premise (paper §II-B) requires.");
    fig
}
