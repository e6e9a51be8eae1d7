//! Fused, graph-free inference for the frozen serving model (`F` +
//! `C_anomaly`) — the one f32 scoring forward. Serving
//! (`pipeline::ModelScorer`), offline evaluation
//! ([`crate::detector::Detector`]), and int8 calibration all run it. It
//! computes the tape's forward (`LogSynergyModel::features` →
//! `anomaly_logits`) straight through reused scratch buffers, with the
//! transformer hot path fused — QKV as one `[d, 3d]` GEMM, attention per
//! `(batch, head)` against a single `[T, T]` score scratch, and the GELU
//! fast path applied in place inside the MLP sweep. The autograd tape is
//! for training only.
//!
//! **Bitwise contract:** scores are bit-identical to the tape forward on
//! `Graph::inference()` for every window, window length, call size, and
//! batch size. Every step reuses the exact tape kernels (see
//! [`logsynergy_nn::infer`]); the tests pin this against a tape reference.
//!
//! **Scratch reuse:** scoring takes `&self`, so one plan is shared by
//! every serving worker with no lock. Each thread keeps one forward
//! scratch, keyed to the shape of the plan that last used it and grown to
//! the largest chunk that shape has scored, so steady-state calls
//! allocate nothing beyond their output.
//!
//! The plan also drives **calibration** for the int8 path (`quant`
//! feature): [`InferencePlan::calibrate`] runs the f32 forward over a
//! corpus and records the absolute maximum seen at every GEMM input,
//! which fixes the per-tensor activation scales of the quantized model.

use std::cell::RefCell;

use logsynergy_nn::infer as nni;
use logsynergy_nn::layers::{Activation, Linear};

use crate::model::LogSynergyModel;

/// Copied frozen weights for one encoder block, QKV pre-concatenated.
pub(crate) struct LayerPlan {
    pub(crate) ln1_gamma: Vec<f32>,
    pub(crate) ln1_beta: Vec<f32>,
    pub(crate) ln1_eps: f32,
    /// `[d, 3d]`: columns are `Wq | Wk | Wv` (bit-neutral vs three GEMMs —
    /// each GEMM output element depends only on its A-row and B-column).
    pub(crate) wqkv: Vec<f32>,
    pub(crate) bqkv: Vec<f32>,
    pub(crate) wo: Vec<f32>,
    pub(crate) bo: Option<Vec<f32>>,
    pub(crate) ln2_gamma: Vec<f32>,
    pub(crate) ln2_beta: Vec<f32>,
    pub(crate) ln2_eps: f32,
    pub(crate) ff1_w: Vec<f32>,
    pub(crate) ff1_b: Option<Vec<f32>>,
    pub(crate) ff2_w: Vec<f32>,
    pub(crate) ff2_b: Option<Vec<f32>>,
}

/// One classifier-head linear layer.
pub(crate) struct HeadLayer {
    pub(crate) w: Vec<f32>,
    pub(crate) b: Option<Vec<f32>>,
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
}

/// Absolute maxima observed at every GEMM input during a calibration run —
/// the per-tensor activation ranges the int8 path quantizes against.
#[derive(Clone, Debug, Default)]
pub struct Calibration {
    /// Gathered embedding input to the input projection.
    pub input: f32,
    /// Per encoder block, in order.
    pub layers: Vec<LayerCalibration>,
    /// Unified feature half entering the first head layer.
    pub unified: f32,
    /// Hidden head activations (post-ReLU), one per inner head layer.
    pub head_hidden: Vec<f32>,
}

/// Per-block GEMM-input maxima.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCalibration {
    /// `ln1` output (input to the fused QKV projection).
    pub qkv_in: f32,
    /// Attention head concat (input to the output projection).
    pub wo_in: f32,
    /// `ln2` output (input to the feed-forward expansion).
    pub ff1_in: f32,
    /// GELU output (input to the feed-forward contraction).
    pub ff2_in: f32,
}

fn absmax_update(slot: &mut f32, xs: &[f32]) {
    for &x in xs {
        let a = x.abs();
        if a > *slot {
            *slot = a;
        }
    }
}

/// Every scratch dimension except the window count. A scratch is reused
/// only by a plan of the same shape, so two differently shaped plans on
/// one thread never share a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    t: usize,
    embed: usize,
    d: usize,
    head_dim: usize,
    ff: usize,
    head_max: usize,
}

/// Forward scratch for up to `windows` windows per chunk. Every buffer is
/// overwritten (or zeroed) before it is read, so reuse across calls and
/// chunk sizes cannot leak state into a score.
struct Scratch {
    shape: Shape,
    windows: usize,
    x: Vec<f32>,
    h: Vec<f32>,
    n: Vec<f32>,
    qkv: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    concat: Vec<f32>,
    a: Vec<f32>,
    hidden: Vec<f32>,
    attn: nni::AttnScratch,
    pooled: Vec<f32>,
    feat: Vec<f32>,
    head: Vec<f32>,
}

impl Scratch {
    fn new(shape: Shape, windows: usize) -> Self {
        let Shape {
            t,
            embed,
            d,
            head_dim,
            ff,
            head_max,
        } = shape;
        let rows = windows * t;
        Scratch {
            shape,
            windows,
            x: vec![0.0; rows * embed],
            h: vec![0.0; rows * d],
            n: vec![0.0; rows * d],
            qkv: vec![0.0; rows * 3 * d],
            q: vec![0.0; rows * d],
            k: vec![0.0; rows * d],
            v: vec![0.0; rows * d],
            concat: vec![0.0; rows * d],
            a: vec![0.0; rows * d],
            hidden: vec![0.0; rows * ff],
            attn: nni::AttnScratch::new(t, head_dim),
            pooled: vec![0.0; windows * d],
            feat: vec![0.0; windows * head_max],
            head: vec![0.0; windows * head_max],
        }
    }
}

thread_local! {
    /// This thread's forward scratch, left by the last plan that scored on
    /// it and grown to the largest chunk seen for that plan's shape.
    static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

/// A frozen, fused inference plan over copied model weights.
///
/// Build once with [`InferencePlan::from_model`], share it (e.g. in an
/// `Arc`), and call [`InferencePlan::score_windows`] from any thread.
pub struct InferencePlan {
    pub(crate) t: usize,
    pub(crate) embed: usize,
    pub(crate) d: usize,
    pub(crate) heads: usize,
    pub(crate) head_dim: usize,
    pub(crate) ff: usize,
    pub(crate) half: usize,
    pub(crate) batch_size: usize,
    pub(crate) input_w: Vec<f32>,
    pub(crate) input_b: Option<Vec<f32>>,
    pub(crate) pos: Vec<f32>,
    pub(crate) layers: Vec<LayerPlan>,
    pub(crate) ln_out_gamma: Vec<f32>,
    pub(crate) ln_out_beta: Vec<f32>,
    pub(crate) ln_out_eps: f32,
    pub(crate) head: Vec<HeadLayer>,
    pub(crate) head_act: Activation,
}

fn copy_linear(model: &LogSynergyModel, lin: &Linear) -> (Vec<f32>, Option<Vec<f32>>) {
    let w = model.store.value(lin.w_id()).data().to_vec();
    let b = lin.b_id().map(|id| model.store.value(id).data().to_vec());
    (w, b)
}

impl InferencePlan {
    /// Copies the frozen serving weights (`input_proj`, encoder,
    /// `C_anomaly`) out of `model` into fused layout.
    pub fn from_model(model: &LogSynergyModel) -> Self {
        let cfg = model.config();
        let d = cfg.d_model;
        let enc = model.encoder();
        let (input_w, input_b) = copy_linear(model, model.input_proj());
        let pos = model.store.value(enc.pos_id()).data().to_vec();
        let layers = enc
            .layer_stack()
            .iter()
            .map(|layer| {
                let (wq, bq) = copy_linear(model, layer.attn().wq());
                let (wk, bk) = copy_linear(model, layer.attn().wk());
                let (wv, bv) = copy_linear(model, layer.attn().wv());
                // Interleave columns: row r of wqkv = wq[r] | wk[r] | wv[r].
                let mut wqkv = vec![0.0f32; d * 3 * d];
                for r in 0..d {
                    wqkv[r * 3 * d..r * 3 * d + d].copy_from_slice(&wq[r * d..(r + 1) * d]);
                    wqkv[r * 3 * d + d..r * 3 * d + 2 * d].copy_from_slice(&wk[r * d..(r + 1) * d]);
                    wqkv[r * 3 * d + 2 * d..(r + 1) * 3 * d]
                        .copy_from_slice(&wv[r * d..(r + 1) * d]);
                }
                let mut bqkv = vec![0.0f32; 3 * d];
                for (s, b) in [&bq, &bk, &bv].into_iter().enumerate() {
                    if let Some(b) = b {
                        bqkv[s * d..(s + 1) * d].copy_from_slice(b);
                    }
                }
                let (wo, bo) = copy_linear(model, layer.attn().wo());
                let (ff1_w, ff1_b) = copy_linear(model, layer.ff1());
                let (ff2_w, ff2_b) = copy_linear(model, layer.ff2());
                LayerPlan {
                    ln1_gamma: model.store.value(layer.ln1().gamma_id()).data().to_vec(),
                    ln1_beta: model.store.value(layer.ln1().beta_id()).data().to_vec(),
                    ln1_eps: layer.ln1().eps(),
                    wqkv,
                    bqkv,
                    wo,
                    bo,
                    ln2_gamma: model.store.value(layer.ln2().gamma_id()).data().to_vec(),
                    ln2_beta: model.store.value(layer.ln2().beta_id()).data().to_vec(),
                    ln2_eps: layer.ln2().eps(),
                    ff1_w,
                    ff1_b,
                    ff2_w,
                    ff2_b,
                }
            })
            .collect();
        let head = model
            .c_anomaly()
            .layers()
            .iter()
            .map(|lin| {
                let (w, b) = copy_linear(model, lin);
                HeadLayer {
                    w,
                    b,
                    in_dim: lin.in_dim(),
                    out_dim: lin.out_dim(),
                }
            })
            .collect();
        InferencePlan {
            t: cfg.max_len,
            embed: cfg.embed_dim,
            d,
            heads: cfg.heads,
            head_dim: d / cfg.heads,
            ff: cfg.ff,
            half: cfg.half_dim(),
            batch_size: 256,
            input_w,
            input_b,
            pos,
            layers,
            ln_out_gamma: model.store.value(enc.ln_out().gamma_id()).data().to_vec(),
            ln_out_beta: model.store.value(enc.ln_out().beta_id()).data().to_vec(),
            ln_out_eps: enc.ln_out().eps(),
            head,
            head_act: model.c_anomaly().activation(),
        }
    }

    /// Sets the maximum forward batch size (default 256). Scores do not
    /// depend on it; it bounds the scratch a thread keeps.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        self.batch_size = batch_size;
        self
    }

    fn shape(&self) -> Shape {
        let head_max = self
            .head
            .iter()
            .map(|h| h.in_dim.max(h.out_dim))
            .max()
            .unwrap_or(1)
            .max(self.d);
        Shape {
            t: self.t,
            embed: self.embed,
            d: self.d,
            head_dim: self.head_dim,
            ff: self.ff,
            head_max,
        }
    }

    /// Runs `forward` over `windows` in `batch_size` chunks, on this
    /// thread's scratch. The scratch is taken out of the thread-local slot
    /// for the call (a panicking forward just drops it) and replaced when
    /// it belongs to another shape or holds fewer windows than the largest
    /// chunk of this call.
    fn for_each_chunk(&self, windows: &[&[u32]], mut forward: impl FnMut(&mut Scratch, &[&[u32]])) {
        let shape = self.shape();
        let need = windows.len().min(self.batch_size);
        let cached = SCRATCH.try_with(|slot| slot.take()).ok().flatten();
        let mut scratch = match cached {
            Some(s) if s.shape == shape && s.windows >= need => s,
            _ => Scratch::new(shape, need),
        };
        for chunk in windows.chunks(self.batch_size) {
            forward(&mut scratch, chunk);
        }
        let _ = SCRATCH.try_with(|slot| slot.replace(Some(scratch)));
    }

    /// Anomaly probabilities for a batch of raw event-id windows.
    pub fn score_windows(&self, windows: &[&[u32]], embeddings: &[Vec<f32>]) -> Vec<f32> {
        let mut out = Vec::with_capacity(windows.len());
        self.for_each_chunk(windows, |s, chunk| {
            self.forward_chunk(s, chunk, embeddings, &mut out, None)
        });
        out
    }

    /// Anomaly probability for a single window.
    pub fn score_one(&self, events: &[u32], embeddings: &[Vec<f32>]) -> f32 {
        self.score_windows(&[events], embeddings)[0]
    }

    /// Runs the f32 forward over `windows` and records the absolute
    /// maximum at every GEMM input — the activation ranges the int8 path
    /// calibrates its per-tensor scales against.
    pub fn calibrate(&self, windows: &[&[u32]], embeddings: &[Vec<f32>]) -> Calibration {
        let mut calib = Calibration {
            layers: vec![LayerCalibration::default(); self.layers.len()],
            head_hidden: vec![0.0; self.head.len().saturating_sub(1)],
            ..Default::default()
        };
        let mut out = Vec::with_capacity(windows.len());
        self.for_each_chunk(windows, |s, chunk| {
            self.forward_chunk(s, chunk, embeddings, &mut out, Some(&mut calib))
        });
        calib
    }

    /// One fused forward over up to `batch_size` windows, appending
    /// sigmoid probabilities to `out`. Mirrors the tape forward
    /// (`features` → `anomaly_logits`) step for step.
    fn forward_chunk(
        &self,
        s: &mut Scratch,
        chunk: &[&[u32]],
        embeddings: &[Vec<f32>],
        out: &mut Vec<f32>,
        mut calib: Option<&mut Calibration>,
    ) {
        let (b, t, d, embed) = (chunk.len(), self.t, self.d, self.embed);
        let rows = b * t;
        // Gather [b*t, embed], zero-padded beyond each window's length.
        let x = &mut s.x[..rows * embed];
        x.fill(0.0);
        for (row, events) in chunk.iter().enumerate() {
            for (step, &e) in events.iter().take(t).enumerate() {
                x[(row * t + step) * embed..(row * t + step + 1) * embed]
                    .copy_from_slice(&embeddings[e as usize]);
            }
        }
        if let Some(c) = calib.as_deref_mut() {
            absmax_update(&mut c.input, x);
        }

        // Input projection, then positional embeddings.
        let h = &mut s.h[..rows * d];
        nni::linear_into(x, &self.input_w, self.input_b.as_deref(), h, rows, embed, d);
        nni::add_pos_inplace(h, &self.pos, b, t, d);

        for (li, layer) in self.layers.iter().enumerate() {
            let n = &mut s.n[..rows * d];
            nni::layer_norm_into(h, &layer.ln1_gamma, &layer.ln1_beta, layer.ln1_eps, n);
            if let Some(c) = calib.as_deref_mut() {
                absmax_update(&mut c.layers[li].qkv_in, n);
            }
            // Fused QKV: one [d, 3d] GEMM, then split for the head sweep.
            let qkv = &mut s.qkv[..rows * 3 * d];
            nni::linear_into(n, &layer.wqkv, Some(&layer.bqkv), qkv, rows, d, 3 * d);
            for r in 0..rows {
                s.q[r * d..(r + 1) * d].copy_from_slice(&qkv[r * 3 * d..r * 3 * d + d]);
                s.k[r * d..(r + 1) * d].copy_from_slice(&qkv[r * 3 * d + d..r * 3 * d + 2 * d]);
                s.v[r * d..(r + 1) * d].copy_from_slice(&qkv[r * 3 * d + 2 * d..(r + 1) * 3 * d]);
            }
            let concat = &mut s.concat[..rows * d];
            let scale = 1.0 / (self.head_dim as f32).sqrt();
            nni::attention_sweep(
                &s.q[..rows * d],
                &s.k[..rows * d],
                &s.v[..rows * d],
                b,
                t,
                self.heads,
                self.head_dim,
                scale,
                concat,
                &mut s.attn,
            );
            if let Some(c) = calib.as_deref_mut() {
                absmax_update(&mut c.layers[li].wo_in, concat);
            }
            let a = &mut s.a[..rows * d];
            nni::linear_into(concat, &layer.wo, layer.bo.as_deref(), a, rows, d, d);
            nni::add_inplace(h, a);

            nni::layer_norm_into(h, &layer.ln2_gamma, &layer.ln2_beta, layer.ln2_eps, n);
            if let Some(c) = calib.as_deref_mut() {
                absmax_update(&mut c.layers[li].ff1_in, n);
            }
            if let Some(c) = calib.as_deref_mut() {
                // The GELU output feeds ff2; record it by replaying the
                // sweep's hidden stage (same buffer the sweep fills).
                let hidden = &mut s.hidden[..rows * self.ff];
                nni::linear_into(
                    n,
                    &layer.ff1_w,
                    layer.ff1_b.as_deref(),
                    hidden,
                    rows,
                    d,
                    self.ff,
                );
                nni::gelu_inplace(hidden);
                absmax_update(&mut c.layers[li].ff2_in, hidden);
            }
            nni::mlp_sweep(
                n,
                &layer.ff1_w,
                layer.ff1_b.as_deref(),
                &layer.ff2_w,
                layer.ff2_b.as_deref(),
                a,
                &mut s.hidden[..rows * self.ff],
                rows,
                d,
                self.ff,
            );
            nni::add_inplace(h, a);
        }

        // Final norm, mean pool over time, unified half.
        let n = &mut s.n[..rows * d];
        nni::layer_norm_into(h, &self.ln_out_gamma, &self.ln_out_beta, self.ln_out_eps, n);
        let pooled = &mut s.pooled[..b * d];
        nni::mean_pool_into(n, b, t, d, pooled);
        let feat = &mut s.feat[..b * self.half];
        for r in 0..b {
            feat[r * self.half..(r + 1) * self.half]
                .copy_from_slice(&pooled[r * d..r * d + self.half]);
        }
        if let Some(c) = calib.as_deref_mut() {
            absmax_update(&mut c.unified, feat);
        }

        // Classifier head: activation between (not after) layers.
        let n_head = self.head.len();
        let mut cur_width = self.half;
        for (hi, hl) in self.head.iter().enumerate() {
            debug_assert_eq!(cur_width, hl.in_dim);
            let dst = &mut s.head[..b * hl.out_dim];
            nni::linear_into(
                &s.feat[..b * hl.in_dim],
                &hl.w,
                hl.b.as_deref(),
                dst,
                b,
                hl.in_dim,
                hl.out_dim,
            );
            if hi + 1 < n_head {
                match self.head_act {
                    Activation::Relu => nni::relu_inplace(dst),
                    Activation::Gelu => nni::gelu_inplace(dst),
                    Activation::Tanh => {
                        for o in dst.iter_mut() {
                            *o = o.tanh();
                        }
                    }
                }
                if let Some(c) = calib.as_deref_mut() {
                    absmax_update(&mut c.head_hidden[hi], dst);
                }
            }
            s.feat[..b * hl.out_dim].copy_from_slice(dst);
            cur_width = hl.out_dim;
        }
        debug_assert_eq!(cur_width, 1);
        out.extend(s.feat[..b].iter().map(|&v| 1.0 / (1.0 + (-v).exp())));
    }
}

/// The tape forward the plan is pinned against: one `Graph::inference()`
/// trace of `features` → `anomaly_logits` over all `windows`, each
/// zero-padded (or truncated) to `max_len`.
#[cfg(test)]
pub(crate) fn tape_scores(
    model: &LogSynergyModel,
    windows: &[&[u32]],
    embeddings: &[Vec<f32>],
) -> Vec<f32> {
    use logsynergy_nn::graph::Graph;
    use logsynergy_nn::Tensor;

    let cfg = model.config();
    let (b, t, d) = (windows.len(), cfg.max_len, cfg.embed_dim);
    let mut x = vec![0.0f32; b * t * d];
    for (row, events) in windows.iter().enumerate() {
        for (step, &e) in events.iter().take(t).enumerate() {
            x[(row * t + step) * d..(row * t + step + 1) * d]
                .copy_from_slice(&embeddings[e as usize]);
        }
    }
    let graph = Graph::inference();
    let x = graph.input(Tensor::new(x, &[b, t, d]));
    let mut no_dropout = rand::rngs::mock::StepRng::new(0, 1);
    let f = model.features(&graph, x, &mut no_dropout);
    let logits = model.anomaly_logits(&graph, f);
    graph.with_value(logits, |l| {
        l.data().iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    use proptest::prelude::*;
    use rand::SeedableRng;

    fn model(max_len: usize, embed: usize, d: usize, ff: usize, layers: usize) -> LogSynergyModel {
        let mut cfg = ModelConfig::scaled(2);
        cfg.embed_dim = embed;
        cfg.d_model = d;
        cfg.heads = 2;
        cfg.ff = ff;
        cfg.layers = layers;
        cfg.head_hidden = 8;
        cfg.max_len = max_len;
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        LogSynergyModel::new(cfg, &mut rng)
    }

    fn tiny_model() -> LogSynergyModel {
        model(4, 8, 8, 16, 2)
    }

    fn embeddings() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.3, -0.4, 0.5, 0.0, 0.2, 0.0, -0.1, 0.0],
        ]
    }

    fn assert_bits(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "window {i}: {g} vs {w}");
        }
    }

    #[test]
    fn plan_matches_tape_bitwise() {
        let model = tiny_model();
        let owned: Vec<Vec<u32>> = (0..13).map(|i| vec![i % 3, (i + 1) % 2, 0, 2]).collect();
        let windows: Vec<&[u32]> = owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model).with_batch_size(4);
        let want = tape_scores(&model, &windows, &embeddings());
        assert_bits(&plan.score_windows(&windows, &embeddings()), &want);
        // A second call reuses this thread's scratch; so does scoring one
        // window at a time.
        assert_bits(&plan.score_windows(&windows, &embeddings()), &want);
        let one_by_one: Vec<f32> = windows
            .iter()
            .map(|w| plan.score_one(w, &embeddings()))
            .collect();
        assert_bits(&one_by_one, &want);
    }

    #[test]
    fn plan_handles_short_probe_windows_bitwise() {
        // Probe windows are shorter than max_len; the tape zero-pads the
        // gather. The plan must reproduce that exactly.
        let model = tiny_model();
        let windows: Vec<&[u32]> = vec![&[0], &[1, 2], &[2, 0, 1]];
        let plan = InferencePlan::from_model(&model);
        let got = plan.score_windows(&windows, &embeddings());
        assert_bits(&got, &tape_scores(&model, &windows, &embeddings()));
    }

    #[test]
    fn batch_size_does_not_change_plan_bits() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..17)
            .map(|i| vec![i % 3, i % 2, 2, (i + 2) % 3])
            .collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let a = InferencePlan::from_model(&model)
            .with_batch_size(1)
            .score_windows(&windows, &embeddings());
        let b = InferencePlan::from_model(&model)
            .with_batch_size(100)
            .score_windows(&windows, &embeddings());
        assert_bits(&a, &b);
    }

    #[test]
    fn calibration_records_positive_ranges() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..8).map(|i| vec![i % 3, 1, 0, 2]).collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model);
        let calib = plan.calibrate(&windows, &embeddings());
        assert!(calib.input > 0.0);
        assert!(calib.unified > 0.0);
        assert_eq!(calib.layers.len(), 2);
        for l in &calib.layers {
            assert!(l.qkv_in > 0.0 && l.wo_in > 0.0 && l.ff1_in > 0.0 && l.ff2_in > 0.0);
        }
        assert_eq!(calib.head_hidden.len(), 1);
    }

    /// A deterministic `[3, dim]` embedding table.
    fn table(dim: usize) -> Vec<Vec<f32>> {
        (0..3)
            .map(|e| {
                (0..dim)
                    .map(|j| ((e * 7 + j * 3) % 5) as f32 * 0.25 - 0.5)
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The plan equals the tape bit for bit however this thread's
        /// reused scratch was left: call sizes around the batch size in a
        /// small → large → small → large order, a calibration pass in
        /// between, each plan on its own and then two plans of different
        /// shapes alternating on the thread.
        #[test]
        fn plan_matches_tape_under_scratch_reuse(
            pool in proptest::collection::vec(proptest::collection::vec(0u32..3, 1..=6), 12),
            batch_size in 2usize..6,
        ) {
            let short = model(4, 8, 8, 16, 2);
            let wide = model(6, 6, 12, 24, 1);
            let plans = [
                (&short, table(8), InferencePlan::from_model(&short).with_batch_size(batch_size)),
                (&wide, table(6), InferencePlan::from_model(&wide).with_batch_size(batch_size + 1)),
            ];
            let sizes = [1, batch_size + 1, 1, batch_size, batch_size - 1];
            let one_plan_at_a_time = (0..2).flat_map(|p| (0..sizes.len()).map(move |c| (p, c)));
            let alternating = (0..sizes.len()).flat_map(|c| (0..2).map(move |p| (p, c)));
            for (p, call) in one_plan_at_a_time.chain(alternating) {
                let (m, emb, plan) = &plans[p];
                let n = sizes[call];
                let windows: Vec<&[u32]> = pool
                    .iter()
                    .cycle()
                    .skip(call * 5)
                    .take(n)
                    .map(|w| w.as_slice())
                    .collect();
                let want = tape_scores(m, &windows, emb);
                let got = if n == 1 {
                    vec![plan.score_one(windows[0], emb)]
                } else {
                    plan.score_windows(&windows, emb)
                };
                prop_assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "plan {} call {} window {}", p, call, i);
                }
                if call == 1 {
                    plan.calibrate(&windows, emb);
                }
            }
        }
    }
}
