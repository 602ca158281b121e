//! Ablations of the design choices (DESIGN.md §5): bubble removal, the
//! §V-B memory optimisations, the clustering scheme, the hash length, the
//! residual level, the number format and the depth of the stack.

use cta_attention::{
    attention_exact, cta_forward, cta_forward_quantized, AttentionWeights, CtaConfig,
    QuantizationConfig,
};
use cta_fixed::QFormat;
use cta_lsh::{
    aggregate_centroids, compress, compress_two_level, kmeans, ClusterTable, Compression,
    LshFamily, LshParams,
};
use cta_model::TransformerStack;
use cta_sim::{schedule, HwConfig};
use cta_tensor::{relative_error, Matrix, MatrixRng};
use cta_workloads::{
    bert_large, generate_tokens, imdb, squad11, CtaClass, OperatingTable, ProxyTask, TestCase,
};

use super::paper::probe_case;
use super::Inputs;
use crate::Figure;

/// The bubble-removal ablation's cases: BERT-large on SQuAD1.1 and IMDB.
pub fn bubble_removal_cases() -> Vec<TestCase> {
    vec![TestCase::new(bert_large(), squad11()), TestCase::new(bert_large(), imdb())]
}

/// Ablation: the Fig. 10 bubble-removal schedule. With it disabled, every
/// mapping step pays the full SA pipeline fill.
pub fn ablation_bubble_removal(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("Ablation — Fig. 10 bubble removal on/off");
    fig.table("ablation_bubble_removal", &["case", "cycles (on)", "cycles (off)", "saved"]);

    let on = HwConfig::paper();
    let off = HwConfig { bubble_removal: false, ..HwConfig::paper() };

    for case in bubble_removal_cases() {
        let [op, ..] = inputs.points(&case);
        let task = op.task(&case);
        let c_on = schedule(&on, &task).total_cycles;
        let c_off = schedule(&off, &task).total_cycles;
        fig.row(&[
            case.name(),
            format!("{c_on}"),
            format!("{c_off}"),
            format!("{:.1}%", (1.0 - c_on as f64 / c_off as f64) * 100.0),
        ]);
    }
    fig.line("\nexpected: bubble removal recovers the per-step pipeline fills");
    fig
}

/// Ablation: the §V-B memory optimisations, one at a time.
///
/// The paper lists three latency/traffic savers beyond bubble removal:
/// recycling token memory (always on — it is an allocation choice),
/// pairing each centroid batch's K and V linears (halves value-register
/// loads), and the query shortcut (queries never touch result memory).
/// This switches each off and reports the cycle and data-memory traffic
/// cost.
pub fn ablation_memory_opts(inputs: &Inputs) -> Figure {
    let mut fig = Figure::new("Ablation — the section V-B memory optimisations");

    let case = probe_case()[0];
    let [op, ..] = inputs.points(&case);
    let task = op.task(&case);
    let k = (task.k0, task.k1, task.k2);
    fig.line(format!("task: {} @ CTA-0, k = {k:?}\n", case.name()));
    fig.table("ablation_memory_opts", &["configuration", "cycles", "vs full", "data accesses"]);

    let full = HwConfig::paper();
    let variants: [(&str, HwConfig); 4] = [
        ("all optimisations", full),
        ("no K/V pairing", HwConfig { kv_pairing: false, ..full }),
        ("no query shortcut", HwConfig { query_shortcut: false, ..full }),
        ("no bubble removal", HwConfig { bubble_removal: false, ..full }),
    ];

    let base = schedule(&full, &task);
    for (name, hw) in variants {
        let s = schedule(&hw, &task);
        fig.row(&[
            name.into(),
            format!("{}", s.total_cycles),
            format!("+{:.1}%", (s.total_cycles as f64 / base.total_cycles as f64 - 1.0) * 100.0),
            format!("{}", s.memory.data_accesses()),
        ]);
    }
    fig.line("\neach optimisation buys measurable cycles and/or result-memory traffic,");
    fig.line("matching the paper's rationale for the mapping order and shortcut.");
    fig
}

/// Ablation: how good is LSH clustering, and what does its cheapness buy?
///
/// At each compression level we compare three clusterings of the same
/// key/value tokens at the *same k*: the paper's LSH scheme, Lloyd's
/// k-means (the L2-quality reference), and a random assignment (the
/// floor). We report token-reconstruction error and the clustering cost
/// in distance/projection evaluations — the trade the paper makes
/// explicit: LSH is slightly worse than k-means but orders of magnitude
/// cheaper and streaming-friendly.
pub fn ablation_clustering_quality(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Ablation — LSH vs k-means vs random clustering at equal k");
    fig.table(
        "ablation_clustering_quality",
        &["width", "k", "LSH err", "k-means err", "random err", "LSH ops", "km ops"],
    );

    let model = bert_large();
    let dataset = imdb();
    let tokens = generate_tokens(&model, &dataset, dataset.seq_len, 77);
    let n = tokens.rows();
    let mut rng = MatrixRng::new(5);

    for w in [2.0f32, 4.0, 8.0, 16.0] {
        let fam = LshFamily::sample(model.head_dim, LshParams::with_paper_length(w), 101);
        let lsh = compress(&tokens, &fam);
        let k = lsh.k();
        let km = kmeans(&tokens, k, 25, 9);

        // Random assignment floor at the same k.
        let mut idx: Vec<usize> = (0..k).collect();
        for _ in k..n {
            idx.push(rng.index(k));
        }
        let table = ClusterTable::new(idx, k);
        let cents = aggregate_centroids(&tokens, &table);
        let random = Compression { centroids: cents.matrix, counts: cents.counts, table };

        // LSH cost: l projections of d MACs per token.
        let lsh_ops = (n * fam.hash_length() * model.head_dim) as u64;
        fig.row(&[
            format!("{w:.0}"),
            format!("{k}"),
            format!("{:.4}", lsh.approximation_error(&tokens)),
            format!("{:.4}", km.compression.approximation_error(&tokens)),
            format!("{:.4}", random.approximation_error(&tokens)),
            format!("{lsh_ops}"),
            format!("{}", km.distance_evals * model.head_dim as u64),
        ]);
    }
    fig.line("\nexpected: LSH sits between k-means (quality bound) and random (floor)");
    fig.line("at a tiny fraction of k-means' cost — and unlike k-means it is a");
    fig.line("single streaming pass, which is what makes the CIM hardware possible.");
    fig
}

/// Ablation: does CTA's approximation error *compound* across transformer
/// layers?
///
/// The paper evaluates full 24/36-layer models and reports end-task
/// accuracy, which implicitly answers "no, after finetuning". Without
/// finetuning we can still measure the raw propagation: run an exact and a
/// CTA path through the same randomly-initialised stack and record the
/// activation divergence after every layer. Layer norms re-standardise
/// activations, so the divergence should grow sub-linearly, not
/// exponentially.
pub fn ablation_depth(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Ablation — error propagation through a transformer stack");

    let model = bert_large();
    let dataset = squad11().with_seq_len(128);
    // An 8-layer, 8-head (512-wide) truncation keeps the run quick while
    // exercising real depth.
    let stack = TransformerStack::random(8, 8, model.head_dim, 1024, 77);
    let slice = generate_tokens(&model, &dataset, 128, 5);
    // Widen the generated 64-dim head slice to the stack's d_model by
    // tiling (the per-head statistics are what matters).
    let x = Matrix::from_fn(128, stack.d_model(), |r, c| slice[(r, c % 64)]);

    for w in [1.0f32, 4.0] {
        fig.line(format!("bucket width {w}:"));
        fig.table(&format!("ablation_depth_w{w}"), &["layer", "rel. error", "growth"]);
        let cmp = stack.compare(&x, &CtaConfig::uniform(w, 3));
        let mut prev = 0.0f64;
        for (i, &err) in cmp.layer_errors.iter().enumerate() {
            fig.row(&[
                format!("{}", i + 1),
                format!("{err:.4}"),
                if prev > 0.0 { format!("{:.2}x", err / prev) } else { "-".into() },
            ]);
            prev = err;
        }
        fig.line("");
    }
    fig.line("expected: per-layer growth factors fall toward ~1x (layer norms and");
    fig.line("residuals damp the approximation error instead of compounding it).");
    fig
}

/// Ablation: hash code length `l` (paper §IV-C: "long hash codes result
/// in less effective token compression, while short hash codes incur low
/// accuracy induced by aggressive clustering; l = 6 achieves \[a\] good
/// trade-off").
///
/// For each `l` we find the operating point meeting the CTA-1 budget and
/// report the computation ratio it achieves — the best trade-off is the
/// `l` with the lowest RA at budget.
pub fn ablation_hash_length(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Ablation — hash code length l (compression at the CTA-1 budget)");
    fig.table("ablation_hash_length", &["l", "width", "loss%", "RL%", "RA%"]);

    let case = TestCase::new(bert_large(), squad11());
    let budget = CtaClass::Cta1.target_loss_pct();
    let reference = OperatingTable::reference(&case);

    for l in [2usize, 4, 6, 8, 10] {
        // Walk widths from aggressive down; keep the first point meeting
        // the budget (mirrors the operating-point search at this l).
        let mut w = 48.0f32;
        let mut found = None;
        while w > 0.4 {
            let cfg = CtaConfig::uniform(w, case.seed()).with_hash_length(l);
            let eval = reference.evaluate(&cfg);
            let ok = eval.accuracy_loss_pct <= budget;
            found = Some((w, eval));
            if ok {
                break;
            }
            w /= 1.3;
        }
        let (w, eval) = found.expect("non-empty grid");
        fig.row(&[
            format!("{l}"),
            format!("{w:.2}"),
            format!("{:.2}", eval.accuracy_loss_pct),
            format!("{:.1}", eval.complexity.rl * 100.0),
            format!("{:.1}", eval.complexity.ra * 100.0),
        ]);
    }
    fig.line("\npaper: l = 6 balances compression ratio against accuracy");
    fig
}

/// Ablation: the fixed-point number scheme (paper §IV-C claims < 0.1%
/// accuracy loss from the 13/12-bit quantization).
///
/// Compares the f32 CTA forward pass against the hardware-faithful
/// fixed-point path at the paper's formats and at deliberately coarser
/// formats.
pub fn ablation_quantization(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Ablation — fixed-point quantization scheme");
    fig.table("ablation_quantization", &["datapath", "vs f32 err", "vs exact err", "label flips%"]);

    let case = TestCase::new(bert_large(), squad11());
    let tokens = generate_tokens(&case.model, &case.dataset, case.dataset.seq_len, case.seed());
    let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
    let cfg = CtaConfig::uniform(4.0, case.seed());
    let probe = ProxyTask::for_case(&case, 8);

    let exact = attention_exact(&tokens, &tokens, &weights);
    let float = cta_forward(&tokens, &tokens, &weights, &cfg);

    let coarse = QuantizationConfig {
        token: QFormat::new(10, 4),
        centroid: QFormat::new(10, 4),
        ..QuantizationConfig::default()
    };
    let very_coarse = QuantizationConfig {
        token: QFormat::new(8, 2),
        centroid: QFormat::new(8, 2),
        weight: QFormat::new(8, 6),
        ..QuantizationConfig::default()
    };
    for (name, qcfg) in [
        ("paper (13b/12b, Q6.7/Q6.6)", QuantizationConfig::default()),
        ("coarse (10b tokens)", coarse),
        ("very coarse (8b tokens)", very_coarse),
    ] {
        let fixed = cta_forward_quantized(&tokens, &tokens, &weights, &cfg, &qcfg);
        fig.row(&[
            name.into(),
            format!("{:.4}", relative_error(&fixed.output, &float.output)),
            format!("{:.4}", relative_error(&fixed.output, &exact.output)),
            format!("{:.2}", (1.0 - probe.agreement(&float.output, &fixed.output)) * 100.0),
        ]);
    }

    // The f32 path's own distance to exact attention, for scale.
    fig.row(&[
        "f32 CTA (reference)".into(),
        "0.0000".into(),
        format!("{:.4}", relative_error(&float.output, &exact.output)),
        "0.00".into(),
    ]);
    fig.line("\npaper: the 13/12-bit scheme introduces < 0.1% accuracy loss");
    fig
}

/// Ablation: two-level residual KV compression (paper Fig. 3b) vs plain
/// one-level compression.
///
/// The design claim: clustering the residuals recovers approximation error
/// that one-level centroids leave behind, at small extra cost
/// (`k₂ ≪ n`).
pub fn ablation_residual(_: &Inputs) -> Figure {
    let mut fig = Figure::new("Ablation — one-level vs two-level (residual) KV compression");
    fig.table(
        "ablation_residual",
        &["bucket width", "k (1-level)", "err 1-level", "k1+k2", "err 2-level"],
    );

    let model = bert_large();
    let dataset = squad11();
    let tokens = generate_tokens(&model, &dataset, dataset.seq_len, 17);

    for w in [2.0f32, 4.0, 8.0, 16.0, 32.0] {
        let fam1 = LshFamily::sample(model.head_dim, LshParams::with_paper_length(w), 101);
        let fam2 = LshFamily::sample(model.head_dim, LshParams::with_paper_length(w * 0.5), 102);
        let one = compress(&tokens, &fam1);
        let two = compress_two_level(&tokens, &fam1, &fam2);
        fig.row(&[
            format!("{w:.1}"),
            format!("{}", one.k()),
            format!("{:.4}", one.approximation_error(&tokens)),
            format!("{}+{}", two.k1(), two.k2()),
            format!("{:.4}", two.approximation_error(&tokens)),
        ]);
    }
    fig.line("\nexpected: the residual level cuts error, increasingly so at wide buckets");
    fig
}
