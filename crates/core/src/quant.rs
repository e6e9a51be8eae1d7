//! Int8 quantized scoring (`quant` feature): the serving forward of
//! [`crate::infer::InferencePlan`] with every weight GEMM replaced by a
//! calibrated symmetric-int8 `i8×i8 → i32` kernel
//! ([`logsynergy_nn::kernels::qgemm`]).
//!
//! Quantization scheme:
//! - **Weights**: per-output-channel symmetric scales
//!   (`scale_j = absmax(column j) / 127`), stored transposed `[out, in]`
//!   so each channel's weights are one contiguous dot product.
//! - **Activations**: per-tensor symmetric scales fixed by a calibration
//!   run ([`crate::infer::InferencePlan::calibrate`]) over representative
//!   windows — no runtime range tracking on the hot path.
//! - **Accumulation**: exact `i32`; dequantization multiplies by the
//!   precomputed `activation_scale · weight_scale_j` and adds the f32
//!   bias. Everything between GEMMs — layer norm, softmax, the attention
//!   score/value products, GELU, residuals, pooling — stays f32, so the
//!   only approximation is the int8 rounding of GEMM operands.
//!
//! The f32 path remains the serving default; this path is opt-in
//! (`--quant`) and is gated by an accuracy test: verdict agreement with
//! f32 ≥ 99.5% and |ΔF1| ≤ 0.005 on held-out eval corpora.

use logsynergy_nn::infer as nni;
use logsynergy_nn::infer_fast as nnf;
use logsynergy_nn::kernels::qgemm;
use logsynergy_nn::layers::Activation;

use crate::infer::{Calibration, InferencePlan};
use crate::model::LogSynergyModel;

/// One quantized linear layer: transposed int8 weights (packed for the
/// serving kernel), per-channel dequantization scales, calibrated
/// activation scale, f32 bias.
struct QLinear {
    /// `[out, in]` int8 weights in the kernel's packed layout.
    wq: qgemm::PackedWeights,
    /// `deq[j] = activation_scale · weight_scale_j`.
    deq: Vec<f32>,
    bias: Option<Vec<f32>>,
    /// Per-tensor activation scale (`calibrated absmax / 127`).
    a_scale: f32,
    in_dim: usize,
    out_dim: usize,
}

impl QLinear {
    /// Quantizes a `[in, out]` f32 weight matrix against a calibrated
    /// activation `absmax`.
    fn quantize(
        w: &[f32],
        bias: Option<&[f32]>,
        in_dim: usize,
        out_dim: usize,
        act_absmax: f32,
    ) -> Self {
        assert_eq!(w.len(), in_dim * out_dim);
        let a_scale = qgemm::scale_for(act_absmax);
        let mut wq = vec![0i8; out_dim * in_dim];
        let mut deq = vec![0f32; out_dim];
        let mut col = vec![0f32; in_dim];
        for j in 0..out_dim {
            for i in 0..in_dim {
                col[i] = w[i * out_dim + j];
            }
            let ws = qgemm::scale_for(qgemm::absmax(&col));
            qgemm::quantize(&col, ws, &mut wq[j * in_dim..(j + 1) * in_dim]);
            deq[j] = a_scale * ws;
        }
        QLinear {
            wq: qgemm::PackedWeights::pack(wq, in_dim, out_dim),
            deq,
            bias: bias.map(|b| b.to_vec()),
            a_scale,
            in_dim,
            out_dim,
        }
    }

    /// `out[m, out_dim] = deq(int8_gemm(quant(x), wqᵀ)) + bias`.
    fn forward(&self, x: &[f32], m: usize, out: &mut [f32], qa: &mut [i16], acc: &mut [i32]) {
        let (k, n) = (self.in_dim, self.out_dim);
        let kp = self.wq.kp();
        let qa = &mut qa[..m * kp];
        let acc = &mut acc[..m * n];
        qgemm::quantize_rows_i16(&x[..m * k], self.a_scale, qa, k, kp);
        qgemm::qgemm_nt_packed(qa, &self.wq, acc, m);
        qgemm::dequant_bias_rows(acc, &self.deq, self.bias.as_deref(), &mut out[..m * n]);
    }

    /// `out[m, out_dim] += deq(int8_gemm(quant(x), wqᵀ)) + bias` — the
    /// residual-fused variant for the attention-output and FFN-output
    /// projections, which saves a separate read-modify-write add pass.
    fn forward_add(&self, x: &[f32], m: usize, out: &mut [f32], qa: &mut [i16], acc: &mut [i32]) {
        let (k, n) = (self.in_dim, self.out_dim);
        let kp = self.wq.kp();
        let qa = &mut qa[..m * kp];
        let acc = &mut acc[..m * n];
        qgemm::quantize_rows_i16(&x[..m * k], self.a_scale, qa, k, kp);
        qgemm::qgemm_nt_packed(qa, &self.wq, acc, m);
        qgemm::dequant_bias_add_rows(acc, &self.deq, self.bias.as_deref(), &mut out[..m * n]);
    }
}

/// Quantized encoder block: int8 GEMMs, f32 everything else.
struct QLayer {
    ln1_gamma: Vec<f32>,
    ln1_beta: Vec<f32>,
    ln1_eps: f32,
    qkv: QLinear,
    wo: QLinear,
    ln2_gamma: Vec<f32>,
    ln2_beta: Vec<f32>,
    ln2_eps: f32,
    ff1: QLinear,
    ff2: QLinear,
}

/// The frozen serving model with calibrated int8 weight GEMMs.
///
/// `score_windows` takes `&self` — quantized scoring is stateless per
/// call (scratch is allocated per invocation), so one instance can be
/// shared across serving workers without locking.
pub struct QuantizedModel {
    t: usize,
    embed: usize,
    d: usize,
    heads: usize,
    head_dim: usize,
    ff: usize,
    half: usize,
    batch_size: usize,
    input: QLinear,
    pos: Vec<f32>,
    layers: Vec<QLayer>,
    ln_out_gamma: Vec<f32>,
    ln_out_beta: Vec<f32>,
    ln_out_eps: f32,
    head: Vec<QLinear>,
    head_act: Activation,
}

/// Forward scratch: the f32 buffers of the fused plan plus the int8/i32
/// GEMM operands.
struct QScratch {
    x: Vec<f32>,
    h: Vec<f32>,
    n: Vec<f32>,
    qkv: Vec<f32>,
    concat: Vec<f32>,
    hidden: Vec<f32>,
    attn: nni::AttnScratch,
    pooled: Vec<f32>,
    feat: Vec<f32>,
    head: Vec<f32>,
    qa: Vec<i16>,
    acc: Vec<i32>,
}

impl QuantizedModel {
    /// Quantizes a fused plan against the activation ranges in `calib`.
    pub fn from_plan(plan: &InferencePlan, calib: &Calibration) -> Self {
        // Pin the int8-kernel marker string into any binary that links this
        // path: scripts/ci.sh greps the default build for its absence.
        std::hint::black_box(qgemm::QGEMM_MARKER);
        assert_eq!(
            calib.layers.len(),
            plan.layers.len(),
            "calibration does not match plan depth"
        );
        let d = plan.d;
        let input = QLinear::quantize(
            &plan.input_w,
            plan.input_b.as_deref(),
            plan.embed,
            d,
            calib.input,
        );
        let layers = plan
            .layers
            .iter()
            .zip(&calib.layers)
            .map(|(l, c)| QLayer {
                ln1_gamma: l.ln1_gamma.clone(),
                ln1_beta: l.ln1_beta.clone(),
                ln1_eps: l.ln1_eps,
                qkv: QLinear::quantize(&l.wqkv, Some(&l.bqkv), d, 3 * d, c.qkv_in),
                wo: QLinear::quantize(&l.wo, l.bo.as_deref(), d, d, c.wo_in),
                ln2_gamma: l.ln2_gamma.clone(),
                ln2_beta: l.ln2_beta.clone(),
                ln2_eps: l.ln2_eps,
                ff1: QLinear::quantize(&l.ff1_w, l.ff1_b.as_deref(), d, plan.ff, c.ff1_in),
                ff2: QLinear::quantize(&l.ff2_w, l.ff2_b.as_deref(), plan.ff, d, c.ff2_in),
            })
            .collect();
        let head = plan
            .head
            .iter()
            .enumerate()
            .map(|(hi, hl)| {
                let act_absmax = if hi == 0 {
                    calib.unified
                } else {
                    calib.head_hidden[hi - 1]
                };
                QLinear::quantize(&hl.w, hl.b.as_deref(), hl.in_dim, hl.out_dim, act_absmax)
            })
            .collect();
        QuantizedModel {
            t: plan.t,
            embed: plan.embed,
            d,
            heads: plan.heads,
            head_dim: plan.head_dim,
            ff: plan.ff,
            half: plan.half,
            batch_size: plan.batch_size.min(Self::DEFAULT_CHUNK),
            input,
            pos: plan.pos.clone(),
            layers,
            ln_out_gamma: plan.ln_out_gamma.clone(),
            ln_out_beta: plan.ln_out_beta.clone(),
            ln_out_eps: plan.ln_out_eps,
            head,
            head_act: plan.head_act,
        }
    }

    /// Cache-tuned default micro-batch for the int8 forward. Unlike the
    /// f32 plan, each quantized GEMM streams an extra i16 operand and an
    /// i32 accumulator block alongside the f32 activations; at the f32
    /// path's default chunk (32 windows) that working set falls out of L2
    /// and the forward goes memory-bound (~10% slower end to end, worse
    /// beyond). 16 windows per chunk keeps it resident; scores are
    /// batch-size-invariant bit for bit either way (tested), so this is
    /// purely a throughput knob — `with_batch_size` still overrides.
    const DEFAULT_CHUNK: usize = 16;

    /// Convenience: plan + calibrate + quantize in one step.
    pub fn from_model(
        model: &LogSynergyModel,
        calib_windows: &[&[u32]],
        embeddings: &[Vec<f32>],
    ) -> Self {
        let plan = InferencePlan::from_model(model);
        let calib = plan.calibrate(calib_windows, embeddings);
        QuantizedModel::from_plan(&plan, &calib)
    }

    /// Sets the maximum forward batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        self.batch_size = batch_size;
        self
    }

    /// Scratch for chunks of up to `windows` windows.
    fn scratch(&self, windows: usize) -> QScratch {
        let rows = windows * self.t;
        let head_max = self
            .head
            .iter()
            .map(|h| h.in_dim.max(h.out_dim))
            .max()
            .unwrap_or(1)
            .max(self.d);
        // qa rows are padded to the kernel's 32-wide stride; acc holds the
        // widest i32 output block.
        let max_dim = self.embed.max(3 * self.d).max(self.ff).max(head_max);
        let gemm_in = rows * max_dim.next_multiple_of(32);
        QScratch {
            x: vec![0.0; rows * self.embed],
            h: vec![0.0; rows * self.d],
            n: vec![0.0; rows * self.d],
            qkv: vec![0.0; rows * 3 * self.d],
            concat: vec![0.0; rows * self.d],
            hidden: vec![0.0; rows * self.ff],
            attn: nni::AttnScratch::new(self.t, self.head_dim),
            pooled: vec![0.0; windows * self.d],
            feat: vec![0.0; windows * head_max],
            head: vec![0.0; windows * head_max],
            qa: vec![0; gemm_in],
            acc: vec![0; gemm_in],
        }
    }

    /// Anomaly probabilities for a batch of raw event-id windows — the
    /// int8 counterpart of [`InferencePlan::score_windows`].
    pub fn score_windows(&self, windows: &[&[u32]], embeddings: &[Vec<f32>]) -> Vec<f32> {
        let mut out = Vec::with_capacity(windows.len());
        let mut s = self.scratch(windows.len().min(self.batch_size));
        for chunk in windows.chunks(self.batch_size) {
            self.forward_chunk(&mut s, chunk, embeddings, &mut out);
        }
        out
    }

    /// Anomaly probability for a single window.
    pub fn score_one(&self, events: &[u32], embeddings: &[Vec<f32>]) -> f32 {
        self.score_windows(&[events], embeddings)[0]
    }

    fn forward_chunk(
        &self,
        s: &mut QScratch,
        chunk: &[&[u32]],
        embeddings: &[Vec<f32>],
        out: &mut Vec<f32>,
    ) {
        let (b, t, d, embed) = (chunk.len(), self.t, self.d, self.embed);
        let rows = b * t;
        let x = &mut s.x[..rows * embed];
        x.fill(0.0);
        for (row, events) in chunk.iter().enumerate() {
            for (step, &e) in events.iter().take(t).enumerate() {
                x[(row * t + step) * embed..(row * t + step + 1) * embed]
                    .copy_from_slice(&embeddings[e as usize]);
            }
        }

        let h = &mut s.h[..rows * d];
        self.input.forward(x, rows, h, &mut s.qa, &mut s.acc);
        nni::add_pos_inplace(h, &self.pos, b, t, d);

        for layer in &self.layers {
            let n = &mut s.n[..rows * d];
            nnf::layer_norm_into(h, &layer.ln1_gamma, &layer.ln1_beta, layer.ln1_eps, n);
            let qkv = &mut s.qkv[..rows * 3 * d];
            layer.qkv.forward(n, rows, qkv, &mut s.qa, &mut s.acc);
            let concat = &mut s.concat[..rows * d];
            let scale = 1.0 / (self.head_dim as f32).sqrt();
            nnf::attention_sweep_packed(
                qkv,
                b,
                t,
                self.heads,
                self.head_dim,
                scale,
                concat,
                &mut s.attn,
            );
            layer.wo.forward_add(concat, rows, h, &mut s.qa, &mut s.acc);

            nnf::layer_norm_into(h, &layer.ln2_gamma, &layer.ln2_beta, layer.ln2_eps, n);
            let hidden = &mut s.hidden[..rows * self.ff];
            layer.ff1.forward(n, rows, hidden, &mut s.qa, &mut s.acc);
            nnf::gelu_inplace(hidden);
            layer
                .ff2
                .forward_add(hidden, rows, h, &mut s.qa, &mut s.acc);
        }

        let n = &mut s.n[..rows * d];
        nnf::layer_norm_into(h, &self.ln_out_gamma, &self.ln_out_beta, self.ln_out_eps, n);
        let pooled = &mut s.pooled[..b * d];
        nni::mean_pool_into(n, b, t, d, pooled);
        let feat = &mut s.feat[..b * self.half];
        for r in 0..b {
            feat[r * self.half..(r + 1) * self.half]
                .copy_from_slice(&pooled[r * d..r * d + self.half]);
        }

        let n_head = self.head.len();
        for (hi, hl) in self.head.iter().enumerate() {
            let dst = &mut s.head[..b * hl.out_dim];
            hl.forward(&s.feat[..b * hl.in_dim], b, dst, &mut s.qa, &mut s.acc);
            if hi + 1 < n_head {
                match self.head_act {
                    Activation::Relu => nni::relu_inplace(dst),
                    Activation::Gelu => nnf::gelu_inplace(dst),
                    Activation::Tanh => {
                        for o in dst.iter_mut() {
                            *o = o.tanh();
                        }
                    }
                }
            }
            s.feat[..b * hl.out_dim].copy_from_slice(dst);
        }
        out.extend(s.feat[..b].iter().map(|&v| 1.0 / (1.0 + (-v).exp())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    use rand::SeedableRng;

    fn tiny_model() -> LogSynergyModel {
        let mut cfg = ModelConfig::scaled(2);
        cfg.embed_dim = 8;
        cfg.d_model = 8;
        cfg.heads = 2;
        cfg.ff = 16;
        cfg.layers = 2;
        cfg.head_hidden = 8;
        cfg.max_len = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        LogSynergyModel::new(cfg, &mut rng)
    }

    fn embeddings() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.3, -0.4, 0.5, 0.0, 0.2, 0.0, -0.1, 0.0],
        ]
    }

    #[test]
    fn quantized_scores_track_f32_closely() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..32)
            .map(|i| vec![i % 3, (i + 1) % 3, i % 2, 2])
            .collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model);
        let f32_scores = plan.score_windows(&windows, &embeddings());
        let q = QuantizedModel::from_model(&model, &windows, &embeddings());
        let q_scores = q.score_windows(&windows, &embeddings());
        for (i, (a, b)) in f32_scores.iter().zip(&q_scores).enumerate() {
            assert!(
                (a - b).abs() < 0.05,
                "window {i}: f32 {a} vs int8 {b} drifted"
            );
        }
    }

    #[test]
    fn quantized_scores_are_deterministic() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..9).map(|i| vec![i % 3, 0, 1, 2]).collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let q = QuantizedModel::from_model(&model, &windows, &embeddings());
        let a = q.score_windows(&windows, &embeddings());
        let b = q.with_batch_size(2).score_windows(&windows, &embeddings());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "int8 scoring must not depend on batch size"
            );
        }
    }
}
