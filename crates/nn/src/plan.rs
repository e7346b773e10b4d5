//! Compiled inference plans: ahead-of-time weight pre-packing, activation
//! arenas and op fusion for the serving hot path — an f32 plan and an
//! int8 plan per model.
//!
//! [`CompiledModel::compile`] walks a trained [`Sequential`] once (validated
//! through the existing `shape_check` inference), snapshots every layer into
//! a flat list of [`Step`]s with all shapes resolved, pre-packs every Linear
//! weight into the exact panel layout the blocked GEMM micro-kernel
//! consumes ([`PackedB`]), and sizes a four-slot ping-pong **arena** for the
//! worst-case activation volume × `max_batch`. Steady-state
//! [`execute_into`](CompiledModel::execute_into) then runs the whole
//! network with **zero heap allocation**: activations ping-pong between two
//! arena slots (two more hold residual stash/shortcut), convolutions build
//! their im2col expansion *directly in packed panel layout* in per-thread
//! scratch grown once, and Linear layers consume their compile-time pack.
//!
//! Quantized plans (`quantized = true`) keep activations **u8
//! between int8 steps**: every activation edge is either f32 NCHW (the
//! arena above) or u8 NHWC, zero-point-padded for its consumer, with one
//! scale per image (a u8 ping-pong arena sized at compile). A quantized
//! step always reads u8; it writes u8 when its only consumer — through an
//! optional max-pool and flatten/dropout — is another quantized step, and
//! f32 otherwise (logits, a residual add, average pooling, an unfolded
//! batch-norm). See `assign_edges` below and DESIGN.md, "int8 data path".
//!
//! Determinism contract: the f32 plan replays exactly the float
//! operations of [`Sequential::forward_infer`] — same accumulation orders,
//! same bias association, same per-channel batch-norm expression; its
//! epilogue fusion changes where an op runs, never what it computes — so
//! logits are **bitwise identical** to the unplanned path for any thread
//! count and any single [`KernelMode`]. The int8 plan folds each
//! Conv→BatchNorm pair into the convolution first (`w' = w·γ/√(σ²+ε)`,
//! which changes rounding) so the per-channel weight scales see the final
//! weights; its logits are bitwise identical across thread counts and
//! modes and track the f32 plan to quantization tolerance.

use crate::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU, ResidualBlock,
};
use crate::shape_check::check_model;
use crate::{Layer, NnError, Sequential};
use seal_tensor::ops::{
    avg_pool2d_into, conv2d_infer_fused, dequantize_bias_relu, dequantize_planar_bias_relu,
    dequantize_transpose_bias_relu, gemm_i8, gemm_i8_conv, gemm_prepacked, kernel_mode,
    max_pool2d_into, quantize_nhwc_u8, quantize_rows_u8, BatchNormParams, Conv2dGeometry,
    ConvEpilogue, ConvPlanDims, Im2colGather, ImplicitConv, KernelMode, NhwcImage, PackedB,
    PackedBI8, PoolGeometry, Requantize, PATCH_SLACK,
};
use seal_tensor::{Shape, Tensor, ELEMWISE_CHUNK};

/// One compiled layer with every shape resolved and constants snapshotted.
#[derive(Debug)]
enum Step {
    /// Convolution and the epilogue [`fuse_epilogues`] merged behind it:
    /// batch-norm, then ReLU, then max-pool, each optional, run on every
    /// image's output slab right after its GEMM. (In an int8 plan only
    /// between the layer walk and [`quantize_convs`], with any batch-norm
    /// folded into its weights.)
    Conv {
        dims: ConvPlanDims,
        /// The im2col geometry, compiled by [`compile_gathers`] once the
        /// weights are final; `None` only between the layer walk and that
        /// pass (and never in a quantized plan, which has no `Conv`).
        gather: Option<Im2colGather>,
        weights: Vec<f32>,
        bias: Vec<f32>,
        bn: Option<BnConsts>,
        relu: bool,
        pool: Option<PoolGeometry>,
        /// Floats one image leaves in the arena, after the epilogue.
        out_vol: usize,
    },
    /// Fully connected layer over a pre-packed `Wᵀ`.
    Linear {
        packed: PackedB,
        bias: Vec<f32>,
        in_f: usize,
        out_f: usize,
    },
    /// Int8 convolution: per-out-channel-quantized weights pre-packed at
    /// compile time in `(ky, kx, c_in)` runs padded to whole quads, an
    /// exact-i32 implicit GEMM that reads the padded u8 NHWC input in
    /// place, write-back in the format of the outgoing edge.
    QConv {
        dims: ConvPlanDims,
        /// Row offsets and run geometry into the input image — into the
        /// stacked batch when the shape folds.
        conv: ImplicitConv,
        packed: PackedBI8,
        bias: Vec<f32>,
        relu: bool,
        edges: QEdges,
    },
    /// Int8 fully connected layer: per-out-channel-quantized `Wᵀ` panels,
    /// one u8 row (and scale) per image, exact-i32 GEMM.
    QLinear {
        packed: PackedBI8,
        bias: Vec<f32>,
        in_f: usize,
        out_f: usize,
        relu: bool,
        edges: QEdges,
    },
    /// Standalone inference batch-norm (one no convolution absorbed).
    BatchNorm {
        bn: BnConsts,
        channels: usize,
        spatial: usize,
        relu: bool,
    },
    /// Standalone elementwise ReLU (in place).
    Relu { vol: usize },
    /// Max pooling.
    MaxPool {
        geom: PoolGeometry,
        c: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
    },
    /// Average pooling.
    AvgPool {
        geom: PoolGeometry,
        c: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
    },
    /// Data no-op (flatten's row-major reshape, inference dropout).
    Identity,
    /// Residual block: main/shortcut branches plus the inherent
    /// add-then-ReLU combine.
    Residual {
        main: Vec<Step>,
        shortcut: Vec<Step>,
        in_vol: usize,
        out_vol: usize,
    },
}

/// Inference batch-norm constants of one layer, the per-channel
/// `1/√(σ²+ε)` precomputed exactly as `forward_infer` computes it.
#[derive(Debug)]
struct BnConsts {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BnConsts {
    fn params(&self) -> BatchNormParams<'_> {
        BatchNormParams {
            gamma: &self.gamma,
            beta: &self.beta,
            mean: &self.mean,
            inv_std: &self.inv_std,
        }
    }
}

/// The activation formats on either side of a quantized step, decided by
/// [`assign_edges`]. The default — f32 NCHW in, f32 NCHW out — is what a
/// step gets when neither neighbour is quantized.
#[derive(Debug, Default)]
struct QEdges {
    /// The producer already left this step's padded u8 image (and scale)
    /// in the live u8 slot; otherwise the step converts the f32 arena.
    u8_in: bool,
    /// Requantizing write-back into the consumer's u8 image; `None`
    /// dequantizes to the f32 arena. Boxed: it is read once per image,
    /// and inline it would be the largest thing in a [`Step`].
    u8_out: Option<Box<Requantize>>,
}

/// Per-sample feature shape while walking the layer list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Feat {
    Spatial { c: usize, h: usize, w: usize },
    Flat(usize),
}

impl Feat {
    fn vol(self) -> usize {
        match self {
            Feat::Spatial { c, h, w } => c * h * w,
            Feat::Flat(f) => f,
        }
    }
}

/// Four fixed slots of `slot` floats each: A/B ping-pong the main
/// activation flow, C stashes a residual input, D hosts the shortcut
/// branch's ping-pong partner.
#[derive(Debug)]
struct Arena {
    buf: Vec<f32>,
    slot: usize,
}

impl Arena {
    fn split(&mut self) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
        let (ab, cd) = self.buf.split_at_mut(2 * self.slot);
        let (a, b) = ab.split_at_mut(self.slot);
        let (c, d) = cd.split_at_mut(self.slot);
        (a, b, c, d)
    }
}

/// Scratch for the quantized steps, sized once at compile time for the
/// worst-case step (all vectors empty when the plan has no quantized
/// steps). Like the arena, it is allocated at compile and only reused in
/// steady state.
#[derive(Debug, Default)]
struct QuantScratch {
    /// The u8 activation ping-pong: each slot a batch of padded NHWC
    /// images (or linear rows) at the consumer's [`NhwcImage::stride`],
    /// plus the implicit conv's read slack. `u8_live` holds the current
    /// activations; a step with a u8 outgoing edge writes `u8_next` and
    /// swaps the two.
    u8_live: Vec<u8>,
    u8_next: Vec<u8>,
    /// Scale of each image in `u8_live`.
    scales: Vec<f32>,
    /// The exact i32 GEMM accumulator.
    acc: Vec<i32>,
    /// One image of f32 staging for the requantizing write-back.
    stage: Vec<f32>,
}

/// An ahead-of-time compiled inference plan for one model and one input
/// shape: pre-packed weights, a fixed activation arena, and a flat step
/// list the executor replays without touching the `Layer` machinery (or
/// the allocator) again.
#[derive(Debug)]
pub struct CompiledModel {
    name: String,
    steps: Vec<Step>,
    input: Shape,
    max_batch: usize,
    num_classes: usize,
    arena: Arena,
    quant: QuantScratch,
}

impl CompiledModel {
    /// Compile `model` for per-sample `input` (batch dimension must be 1)
    /// and batches of up to `max_batch` samples: the f32 plan, bitwise
    /// equal to `forward_infer`, or with `quantized` the int8 plan —
    /// batch-norm folded and ReLUs fused into their producers, every
    /// convolution and linear layer on the deterministic int8 path
    /// (per-out-channel weight scales, one dynamic activation scale per
    /// image, u8 NHWC between quantized steps).
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] when the model fails shape inference,
    /// contains a layer the planner does not understand (the
    /// [`Layer::as_any`] hook), or the arguments are degenerate.
    pub fn compile(
        model: &Sequential,
        input: &Shape,
        max_batch: usize,
        quantized: bool,
    ) -> Result<CompiledModel, NnError> {
        if max_batch == 0 {
            return Err(NnError::InvalidConfig {
                reason: "plan max_batch must be at least 1".into(),
            });
        }
        if input.rank() != 4 || input.dim(0) != 1 {
            return Err(NnError::InvalidConfig {
                reason: format!("plan expects a [1, C, H, W] input shape, got {input}"),
            });
        }
        // The existing shape-inference pass validates the whole model
        // against this input before we snapshot anything.
        check_model(model, input).map_err(|m| NnError::InvalidConfig {
            reason: format!("plan shape check failed: {m}"),
        })?;
        let mut feat = Feat::Spatial {
            c: input.dim(1),
            h: input.dim(2),
            w: input.dim(3),
        };
        let in_vol = feat.vol();
        let mut steps = compile_layers(model.layers(), &mut feat, true, quantized)?;
        if quantized {
            // Convolutions quantize *after* folding so the per-channel
            // scales see the batch-norm-scaled weights (linear layers are
            // never folded and quantize during the walk).
            fold_and_fuse(&mut steps);
            quantize_convs(&mut steps, max_batch)?;
            assign_edges(&mut steps)?;
        } else {
            fuse_epilogues(&mut steps);
            compile_gathers(&mut steps);
        }
        let num_classes = match feat {
            Feat::Flat(f) => f,
            Feat::Spatial { .. } => {
                return Err(NnError::InvalidConfig {
                    reason: "plan expects the model to end in logits [batch, classes]".into(),
                })
            }
        };
        // Sized from the f32 edges only, now that `assign_edges` has made
        // the quantized ones u8.
        let slot = in_vol.max(f32_edge_vol(&steps)) * max_batch;
        let mut qs = QuantSizes::default();
        quant_sizes(&steps, max_batch, &mut qs);
        Ok(CompiledModel {
            name: model.name().to_string(),
            steps,
            input: input.clone(),
            max_batch,
            num_classes,
            arena: Arena {
                buf: vec![0.0f32; 4 * slot], // off the steady-state path
                slot,
            },
            quant: QuantScratch {
                u8_live: vec![128u8; qs.u8_slot], // compile-time, reused in steady state
                u8_next: vec![128u8; qs.u8_slot], // compile-time, reused in steady state
                scales: vec![0.0f32; qs.scales],  // compile-time, reused in steady state
                acc: vec![0i32; qs.acc],          // compile-time, reused in steady state
                stage: vec![0.0f32; qs.stage],    // compile-time, reused in steady state
            },
        })
    }

    /// Model name this plan was compiled from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-sample input shape (`[1, C, H, W]`).
    pub fn input(&self) -> &Shape {
        &self.input
    }

    /// Largest batch one execution accepts.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Width of one logits row.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Bytes held by the activation arenas (f32 slots plus, on a
    /// quantized plan, the u8 ping-pong).
    pub fn arena_byte_size(&self) -> usize {
        self.arena.buf.len() * std::mem::size_of::<f32>()
            + self.quant.u8_live.len()
            + self.quant.u8_next.len()
    }

    /// Run a batch of up to `max_batch` samples through the plan and
    /// return the logits slab (`n × num_classes`, row-major) borrowed
    /// from the arena. This is the zero-allocation steady-state surface:
    /// after a warm-up call has grown the per-thread packing scratch, no
    /// heap allocation happens on this path.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] if the batch shape disagrees with the
    /// compiled input shape or exceeds `max_batch`; tensor errors cannot
    /// occur on shapes the compiler admitted.
    // seal-lint: allow(panic-freedom) — arena offsets are precomputed and bounds-validated by `compile`; re-checking per step would defeat the plan
    pub fn execute_into(&mut self, batch: &Tensor) -> Result<&[f32], NnError> {
        let n = self.check_batch(batch)?;
        let mode = kernel_mode();
        let classes = self.num_classes;
        let quant = &mut self.quant;
        let (a, b, c, d) = self.arena.split();
        let (mut cur, mut nxt, mut st, mut sh) = (a, b, c, d);
        let mut cur_idx = 0usize; // 0 = slot A, 1 = slot B
        cur[..batch.len()].copy_from_slice(batch.as_slice());
        for step in &self.steps {
            match step {
                Step::Residual {
                    main,
                    shortcut,
                    in_vol,
                    out_vol,
                } => {
                    st[..n * in_vol].copy_from_slice(&cur[..n * in_vol]);
                    for s in main {
                        run_plain(s, n, mode, &mut cur, &mut nxt, &mut cur_idx, quant)?;
                    }
                    let mut side_idx = 0usize;
                    for s in shortcut {
                        run_plain(s, n, mode, &mut st, &mut sh, &mut side_idx, quant)?;
                    }
                    // Combine: `max(0, f + s)` — the same values as
                    // `forward_infer`'s add-then-ReLU, fused in one pass.
                    let f = &mut cur[..n * out_vol];
                    let s = &st[..n * out_vol];
                    seal_pool::par_chunks_mut(f, ELEMWISE_CHUNK, |ci, chunk| {
                        let base = ci * ELEMWISE_CHUNK;
                        for (j, v) in chunk.iter_mut().enumerate() {
                            *v = (*v + s[base + j]).max(0.0);
                        }
                    });
                }
                _ => run_plain(step, n, mode, &mut cur, &mut nxt, &mut cur_idx, quant)?,
            }
        }
        let off = cur_idx * self.arena.slot;
        Ok(&self.arena.buf[off..off + n * classes])
    }

    /// Run a batch and return the per-sample argmax class — the planned
    /// analogue of `Sequential::predict` (the returned `Vec` is the one
    /// allocation, outside the zero-alloc contract of
    /// [`execute_into`](Self::execute_into)).
    ///
    /// # Errors
    ///
    /// Same errors as [`execute_into`](Self::execute_into).
    pub fn classify(&mut self, batch: &Tensor) -> Result<Vec<usize>, NnError> {
        // The documented one-Vec result allocation of `classify`.
        let mut classes = Vec::new();
        self.classify_into(batch, &mut classes)?;
        Ok(classes)
    }

    /// [`classify`](Self::classify) into a caller-owned `classes` (cleared
    /// first): with a reused `Vec` the whole call is inside the
    /// zero-allocation contract.
    ///
    /// # Errors
    ///
    /// Same errors as [`execute_into`](Self::execute_into); `classes` is
    /// left empty.
    pub fn classify_into(
        &mut self,
        batch: &Tensor,
        classes: &mut Vec<usize>,
    ) -> Result<(), NnError> {
        classes.clear();
        let width = self.num_classes.max(1);
        let logits = self.execute_into(batch)?;
        classes.extend(logits.chunks_exact(width).map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        }));
        Ok(())
    }

    fn check_batch(&self, batch: &Tensor) -> Result<usize, NnError> {
        let shape = batch.shape();
        let ok = shape.rank() == self.input.rank()
            && (1..self.input.rank()).all(|i| shape.dim(i) == self.input.dim(i));
        let n = if shape.rank() > 0 { shape.dim(0) } else { 0 };
        if !ok || n == 0 || n > self.max_batch {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "plan compiled for up to {} samples of {}, got {shape}",
                    self.max_batch, self.input
                ),
            });
        }
        Ok(n)
    }
}

/// Execute one non-residual step. Buffer-swapping steps write
/// `*cur → *nxt` then swap the refs (and the slot index, so the caller
/// can locate the final buffer); the rest run in place on `*cur` — or,
/// for a quantized step with a u8 outgoing edge, swap the u8 ping-pong
/// and leave the f32 arena alone.
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — slot ranges were sized by `compile`'s arena layout; the batch shape is checked before dispatch
fn run_plain<'a>(
    step: &Step,
    n: usize,
    mode: KernelMode,
    cur: &mut &'a mut [f32],
    nxt: &mut &'a mut [f32],
    cur_idx: &mut usize,
    quant: &mut QuantScratch,
) -> Result<(), NnError> {
    match step {
        Step::Conv {
            dims,
            gather,
            weights,
            bias,
            bn,
            relu,
            pool,
            out_vol,
        } => {
            let Some(gather) = gather else {
                return Err(NnError::InvalidConfig {
                    reason: "convolution planned without its im2col geometry".into(),
                });
            };
            let in_vol = dims.c_in * dims.h * dims.w;
            let epilogue = ConvEpilogue {
                batch_norm: bn.as_ref().map(BnConsts::params),
                relu: *relu,
                max_pool: *pool,
            };
            conv2d_infer_fused(
                &cur[..n * in_vol],
                n,
                dims,
                gather,
                weights,
                bias,
                &epilogue,
                &mut nxt[..n * out_vol],
                mode,
            )?;
        }
        Step::Linear {
            packed,
            bias,
            in_f,
            out_f,
        } => {
            let o = &mut nxt[..n * out_f];
            o.fill(0.0);
            gemm_prepacked(&cur[..n * in_f], packed, o, n, mode, false);
            // Bias is broadcast *after* the product, exactly like
            // `Linear::forward_infer`.
            for r in 0..n {
                for cc in 0..*out_f {
                    o[r * out_f + cc] += bias[cc];
                }
            }
        }
        Step::QConv {
            dims,
            conv,
            packed,
            bias,
            relu,
            edges,
        } => {
            let img = NhwcImage::for_conv(dims);
            let (in_vol, in_stride) = (dims.c_in * dims.h * dims.w, img.stride());
            let s = dims.oh * dims.ow;
            let out_vol = dims.c_out * s;
            let QuantScratch {
                u8_live: src,
                u8_next: dst,
                scales,
                acc,
                stage,
            } = quant;
            if !edges.u8_in {
                for (i, scale) in scales[..n].iter_mut().enumerate() {
                    let x = &cur[i * in_vol..(i + 1) * in_vol];
                    *scale = quantize_nhwc_u8(x, &img, &mut src[i * in_stride..], mode);
                }
            }
            // Exact-i32 implicit GEMM straight over the padded u8 image
            // (internally parallel and deterministic), write-back in the
            // outgoing edge's format. One GEMM per image — or, for a map
            // under 32 pixels, one over the whole batch's stacked images,
            // tiled pixel by pixel. The open-ended image slice carries
            // the read slack: whatever follows in the slot.
            let group = if dims.folds_batch_i8() { n } else { 1 };
            for g0 in (0..n).step_by(group) {
                gemm_i8_conv(&src[g0 * in_stride..], conv, group, packed, acc, mode);
                for j in 0..group {
                    let i = g0 + j;
                    let acc = &acc[j * out_vol..(j + 1) * out_vol];
                    match &edges.u8_out {
                        // Reads image `i`'s input scale, then replaces it
                        // with the scale of the image it just wrote.
                        Some(rq) => {
                            let out = &mut dst[i * rq.dst().stride()..];
                            scales[i] = rq.run(acc, scales[i], stage, out, mode);
                        }
                        // The f32 reader of the conv's accumulator layout.
                        None => {
                            let nchw = if conv.planar() {
                                dequantize_planar_bias_relu
                            } else {
                                dequantize_transpose_bias_relu
                            };
                            nchw(
                                acc,
                                scales[i],
                                packed.scales(),
                                Some(bias),
                                &mut nxt[i * out_vol..(i + 1) * out_vol],
                                s,
                                dims.c_out,
                                *relu,
                            )
                        }
                    }
                }
            }
            if edges.u8_out.is_some() {
                std::mem::swap(src, dst);
                return Ok(());
            }
        }
        Step::QLinear {
            packed,
            bias,
            in_f,
            out_f,
            relu,
            edges,
        } => {
            let QuantScratch {
                u8_live: src,
                u8_next: dst,
                scales,
                acc,
                stage,
                ..
            } = quant;
            if !edges.u8_in {
                quantize_rows_u8(&cur[..n * in_f], n, *in_f, src, scales);
            }
            gemm_i8(src, packed, acc, n, mode);
            match &edges.u8_out {
                Some(rq) => {
                    for (i, scale) in scales[..n].iter_mut().enumerate() {
                        let out = &mut dst[i * rq.dst().stride()..];
                        *scale = rq.run(&acc[i * out_f..(i + 1) * out_f], *scale, stage, out, mode);
                    }
                }
                None => dequantize_bias_relu(
                    acc,
                    &scales[..n],
                    packed.scales(),
                    Some(bias),
                    &mut nxt[..n * out_f],
                    n,
                    *out_f,
                    *relu,
                ),
            }
            if edges.u8_out.is_some() {
                std::mem::swap(src, dst);
                return Ok(());
            }
        }
        Step::BatchNorm {
            bn,
            channels,
            spatial,
            relu,
        } => {
            let (c, bn) = (*channels, bn.params());
            let slab = &mut cur[..n * c * spatial];
            seal_pool::par_chunks_mut(slab, *spatial, |p, plane| bn.apply(p % c, plane, *relu));
            return Ok(());
        }
        Step::Relu { vol } => {
            seal_pool::par_chunks_mut(&mut cur[..n * vol], ELEMWISE_CHUNK, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v = v.max(0.0);
                }
            });
            return Ok(());
        }
        Step::MaxPool {
            geom,
            c,
            h,
            w,
            oh,
            ow,
        } => {
            max_pool2d_into(
                &cur[..n * c * h * w],
                &mut nxt[..n * c * oh * ow],
                n,
                *c,
                *h,
                *w,
                geom,
            )?;
        }
        Step::AvgPool {
            geom,
            c,
            h,
            w,
            oh,
            ow,
        } => {
            avg_pool2d_into(
                &cur[..n * c * h * w],
                &mut nxt[..n * c * oh * ow],
                n,
                *c,
                *h,
                *w,
                geom,
            )?;
        }
        Step::Identity => return Ok(()),
        Step::Residual { .. } => {
            return Err(NnError::InvalidConfig {
                reason: "nested residual blocks are not plannable".into(),
            })
        }
    }
    std::mem::swap(cur, nxt);
    *cur_idx ^= 1;
    Ok(())
}

fn unplannable(layer: &dyn Layer) -> NnError {
    NnError::InvalidConfig {
        reason: format!(
            "layer {} ({:?}) is not plannable — no as_any introspection",
            layer.name(),
            layer.kind()
        ),
    }
}

fn geom_out(geom: &Conv2dGeometry, h: usize, w: usize) -> Result<(usize, usize), NnError> {
    match (geom.output_size(h), geom.output_size(w)) {
        (Some(oh), Some(ow)) => Ok((oh, ow)),
        _ => Err(NnError::InvalidConfig {
            reason: format!("conv kernel {} does not fit {h}x{w}", geom.kernel),
        }),
    }
}

fn compile_layers(
    layers: &[Box<dyn Layer>],
    feat: &mut Feat,
    allow_residual: bool,
    quantize: bool,
) -> Result<Vec<Step>, NnError> {
    let mut steps = Vec::with_capacity(layers.len());
    for layer in layers {
        let any = layer.as_any().ok_or_else(|| unplannable(layer.as_ref()))?;
        let step = if let Some(conv) = any.downcast_ref::<Conv2d>() {
            let Feat::Spatial { c, h, w } = *feat else {
                return Err(unexpected_shape(layer.as_ref(), feat));
            };
            let geom = *conv.geometry();
            let (oh, ow) = geom_out(&geom, h, w)?;
            let c_out = conv.out_channels();
            if conv.in_channels() != c {
                return Err(unexpected_shape(layer.as_ref(), feat));
            }
            *feat = Feat::Spatial {
                c: c_out,
                h: oh,
                w: ow,
            };
            let dims = ConvPlanDims {
                c_in: c,
                h,
                w,
                c_out,
                oh,
                ow,
                geom,
            };
            Step::Conv {
                // Weight/bias snapshots are the compile step itself —
                // never re-run per batch; the f32 im2col geometry follows
                // once folding has fixed them (`compile_gathers`).
                gather: None,
                dims,
                weights: conv.weights().value.as_slice().to_vec(), // off the steady-state path
                bias: conv.bias().value.as_slice().to_vec(),       // off the steady-state path
                bn: None,
                relu: false,
                pool: None,
                out_vol: c_out * oh * ow,
            }
        } else if let Some(bn) = any.downcast_ref::<BatchNorm2d>() {
            let Feat::Spatial { c, h, w } = *feat else {
                return Err(unexpected_shape(layer.as_ref(), feat));
            };
            if bn.channels() != c {
                return Err(unexpected_shape(layer.as_ref(), feat));
            }
            Step::BatchNorm {
                bn: BnConsts {
                    gamma: bn.gamma().value.as_slice().to_vec(), // off the steady-state path
                    beta: bn.beta().value.as_slice().to_vec(),   // off the steady-state path
                    mean: bn.running_mean().to_vec(),            // off the steady-state path
                    // The normaliser `forward_infer` multiplies by,
                    // snapshotted once at compile time.
                    inv_std: bn.inv_std(), // off the steady-state path
                },
                channels: c,
                spatial: h * w,
                relu: false,
            }
        } else if any.downcast_ref::<ReLU>().is_some() {
            Step::Relu { vol: feat.vol() }
        } else if let Some(pool) = any.downcast_ref::<MaxPool2d>() {
            let (geom, c, h, w, oh, ow) = pool_dims(layer.as_ref(), *pool.geometry(), feat)?;
            Step::MaxPool {
                geom,
                c,
                h,
                w,
                oh,
                ow,
            }
        } else if let Some(pool) = any.downcast_ref::<AvgPool2d>() {
            let (geom, c, h, w, oh, ow) = pool_dims(layer.as_ref(), *pool.geometry(), feat)?;
            Step::AvgPool {
                geom,
                c,
                h,
                w,
                oh,
                ow,
            }
        } else if any.downcast_ref::<Flatten>().is_some() {
            *feat = Feat::Flat(feat.vol());
            Step::Identity
        } else if any.downcast_ref::<Dropout>().is_some() {
            Step::Identity // inference dropout is the identity
        } else if let Some(linear) = any.downcast_ref::<Linear>() {
            let Feat::Flat(in_f) = *feat else {
                return Err(unexpected_shape(layer.as_ref(), feat));
            };
            if linear.in_features() != in_f {
                return Err(unexpected_shape(layer.as_ref(), feat));
            }
            let out_f = linear.out_features();
            // Pre-pack Wᵀ — the constant B operand `forward_infer`
            // re-transposes and re-packs on every single call. Quantized
            // plans pack the per-out-channel int8 panels instead (linear
            // weights never fold, so this can happen during the walk).
            let wt = linear.weights().value.transpose()?;
            *feat = Feat::Flat(out_f);
            let bias = linear.bias().value.as_slice().to_vec(); // off the steady-state path
            if quantize {
                Step::QLinear {
                    packed: PackedBI8::pack(&wt)?,
                    bias,
                    in_f,
                    out_f,
                    relu: false,
                    edges: QEdges::default(),
                }
            } else {
                Step::Linear {
                    packed: PackedB::pack(&wt)?,
                    bias,
                    in_f,
                    out_f,
                }
            }
        } else if let Some(res) = any.downcast_ref::<ResidualBlock>() {
            if !allow_residual {
                return Err(NnError::InvalidConfig {
                    reason: format!("nested residual block {} is not plannable", layer.name()),
                });
            }
            let in_feat = *feat;
            let in_vol = in_feat.vol();
            let mut main_feat = in_feat;
            let main = compile_layers(res.main_branch(), &mut main_feat, false, quantize)?;
            let mut short_feat = in_feat;
            let shortcut = compile_layers(res.shortcut_branch(), &mut short_feat, false, quantize)?;
            if main_feat != short_feat {
                return Err(NnError::InvalidConfig {
                    reason: format!(
                        "residual block {} branches disagree on output shape",
                        layer.name()
                    ),
                });
            }
            *feat = main_feat;
            Step::Residual {
                main,
                shortcut,
                in_vol,
                out_vol: main_feat.vol(),
            }
        } else {
            return Err(unplannable(layer.as_ref()));
        };
        steps.push(step);
    }
    Ok(steps)
}

fn unexpected_shape(layer: &dyn Layer, feat: &Feat) -> NnError {
    NnError::InvalidConfig {
        reason: format!(
            "layer {} cannot consume the planned feature shape {feat:?}",
            layer.name()
        ),
    }
}

fn pool_dims(
    layer: &dyn Layer,
    geom: PoolGeometry,
    feat: &mut Feat,
) -> Result<(PoolGeometry, usize, usize, usize, usize, usize), NnError> {
    let Feat::Spatial { c, h, w } = *feat else {
        return Err(unexpected_shape(layer, feat));
    };
    let (oh, ow) = match (geom.output_size(h), geom.output_size(w)) {
        (Some(oh), Some(ow)) => (oh, ow),
        _ => {
            return Err(NnError::InvalidConfig {
                reason: format!("pool window {} does not fit {h}x{w}", geom.window),
            })
        }
    };
    *feat = Feat::Spatial { c, h: oh, w: ow };
    Ok((geom, c, h, w, oh, ow))
}

/// The int8 plan's compile-time passes, before quantization: each
/// Conv→BatchNorm pair folds into the convolution (`w' = w·γ/√(σ²+ε)`,
/// `b' = (b−μ)·γ/√(σ²+ε) + β`), then each ReLU fuses into the step that
/// produces its input. Applied to the top-level step list and,
/// recursively, to every residual branch.
// seal-lint: allow(panic-freedom) — runs at compile time on indices it just created; never reachable mid-request
fn fold_and_fuse(steps: &mut Vec<Step>) {
    let mut i = 0;
    while i + 1 < steps.len() {
        let fold = matches!(
            (&steps[i], &steps[i + 1]),
            (Step::Conv { dims, .. }, Step::BatchNorm { channels, .. })
                if dims.c_out == *channels
        );
        if fold {
            let bn = steps.remove(i + 1);
            if let (
                Step::Conv {
                    dims,
                    weights,
                    bias,
                    ..
                },
                Step::BatchNorm {
                    bn:
                        BnConsts {
                            gamma,
                            beta,
                            mean,
                            inv_std,
                        },
                    ..
                },
            ) = (&mut steps[i], bn)
            {
                let kdim = dims.c_in * dims.geom.kernel * dims.geom.kernel;
                for co in 0..dims.c_out {
                    let scale = gamma[co] * inv_std[co];
                    for wv in &mut weights[co * kdim..(co + 1) * kdim] {
                        *wv *= scale;
                    }
                    bias[co] = (bias[co] - mean[co]) * scale + beta[co];
                }
            }
            continue; // a ReLU may now directly follow the conv
        }
        i += 1;
    }
    let mut i = 0;
    while i + 1 < steps.len() {
        if matches!(steps[i + 1], Step::Relu { .. }) {
            let fused = match &mut steps[i] {
                Step::Conv { relu, .. }
                | Step::QLinear { relu, .. }
                | Step::BatchNorm { relu, .. } => {
                    *relu = true;
                    true
                }
                _ => false,
            };
            if fused {
                steps.remove(i + 1);
                continue;
            }
        }
        i += 1;
    }
    for step in steps.iter_mut() {
        if let Step::Residual { main, shortcut, .. } = step {
            fold_and_fuse(main);
            fold_and_fuse(shortcut);
        }
    }
}

/// The f32 plan's epilogue peephole, applied to the top-level step list
/// and every residual branch: `Conv → [BatchNorm] → [ReLU] → [MaxPool]`
/// becomes one `Conv` step that runs the absorbed ops on each image's
/// output slab right after its GEMM, while the slab is in cache, and
/// writes only the final (pooled) activations to the arena. The absorbed
/// ops evaluate the per-element expressions of the standalone steps, in
/// their order, so the logits do not change by a bit.
/// A batch-norm, ReLU or max-pool in any other position keeps its step.
// seal-lint: allow(panic-freedom) — runs at compile time; `i + 1` is bounds-tested before each index
fn fuse_epilogues(steps: &mut Vec<Step>) {
    let mut i = 0;
    while i < steps.len() {
        if let Step::Residual { main, shortcut, .. } = &mut steps[i] {
            fuse_epilogues(main);
            fuse_epilogues(shortcut);
        }
        // Absorb followers for as long as the next one is a later stage of
        // the epilogue order (batch-norm < ReLU < max-pool).
        while i + 1 < steps.len() && absorbs(&steps[i], &steps[i + 1]) {
            let follower = steps.remove(i + 1);
            if let Step::Conv {
                bn,
                relu,
                pool,
                out_vol,
                ..
            } = &mut steps[i]
            {
                match follower {
                    Step::BatchNorm {
                        bn: consts,
                        relu: fused,
                        ..
                    } => (*bn, *relu) = (Some(consts), fused),
                    Step::Relu { .. } => *relu = true,
                    Step::MaxPool {
                        geom, c, oh, ow, ..
                    } => (*pool, *out_vol) = (Some(geom), c * oh * ow),
                    _ => {}
                }
            }
        }
        i += 1;
    }
}

/// Compiles every f32 convolution's im2col geometry, once, after folding
/// has fixed the weights and bias the plan will multiply: without its
/// dead taps — rows that read only the zero border — and with its weights
/// cut to the rows kept, wherever [`Im2colGather::compile_live`] proves
/// that changes no bit (finite weights in the dropped rows, no `−0.0`
/// bias); with every row otherwise.
fn compile_gathers(steps: &mut [Step]) {
    for step in steps.iter_mut() {
        match step {
            Step::Conv {
                dims,
                gather,
                weights,
                bias,
                ..
            } => *gather = Some(Im2colGather::compile_live(dims, weights, bias)),
            Step::Residual { main, shortcut, .. } => {
                compile_gathers(main);
                compile_gathers(shortcut);
            }
            _ => {}
        }
    }
}

/// Whether `conv`'s epilogue can take `next` as its next stage.
fn absorbs(conv: &Step, next: &Step) -> bool {
    let Step::Conv {
        dims,
        bn,
        relu,
        pool: None,
        ..
    } = conv
    else {
        return false;
    };
    match next {
        Step::BatchNorm { channels, .. } => bn.is_none() && !relu && *channels == dims.c_out,
        Step::Relu { .. } => !relu,
        Step::MaxPool { c, h, w, .. } => (*c, *h, *w) == (dims.c_out, dims.oh, dims.ow),
        _ => false,
    }
}

/// Converts every (already folded/fused) f32 convolution step into its
/// int8 counterpart: symmetric per-out-channel weight quantization and
/// pre-packed [`PackedBI8`] panels. Runs after [`fold_and_fuse`] so the
/// quantization scales see the final (batch-norm-scaled) weights.
///
/// Weights are packed in the image's `(ky, kx, c_in)` byte order, each
/// `ky` run padded to whole quads with zero weights and the dead taps
/// (kernel rows and columns that only ever meet the zero border) left
/// out ([`PackedBI8::pack_conv_runs`]). Each output channel keeps the
/// same scale and quantized values, a dropped weight only ever
/// multiplies the zero point, and integer sums are order-free, so the
/// accumulators are exactly those of the unpermuted full pack. The row
/// table covers `max_batch` stacked images when the shape folds; its
/// accumulator layout follows the shape and the write-back [`u8_edge`]
/// finds for the step — channel-planar for a pixel-lane conv, else
/// window-major through a fused 2×2 pool — and that write-back is built
/// from the compiled conv ([`ImplicitConv::requantize`]).
fn quantize_convs(steps: &mut [Step], max_batch: usize) -> Result<(), NnError> {
    for i in 0..steps.len() {
        let pool = u8_edge(steps, i).and_then(|(pool, ..)| pool);
        let step = &mut steps[i];
        match step {
            Step::Conv {
                dims,
                weights,
                bias,
                relu,
                ..
            } => {
                let images = if dims.folds_batch_i8() { max_batch } else { 1 };
                *step = Step::QConv {
                    conv: ImplicitConv::compile(dims, images, pool)?,
                    packed: PackedBI8::pack_conv_runs(weights, dims)?,
                    dims: *dims,
                    bias: std::mem::take(bias),
                    relu: *relu,
                    edges: QEdges::default(),
                };
            }
            Step::Residual { main, shortcut, .. } => {
                quantize_convs(main, max_batch)?;
                quantize_convs(shortcut, max_batch)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// The u8 edge out of the quantized step `steps[i]`, if it writes one:
/// the max-pool its write-back fuses, the consumer's index and the
/// consumer's padded input image. The consumer — past the pool and any
/// `Identity` (flatten, dropout) — must be another quantized step: a
/// `QConv`, a `Conv` (in an int8 plan [`quantize_convs`] quantizes every
/// one) or a `QLinear` over a single pixel. [`quantize_convs`] asks it
/// for the producer's pixel order and [`assign_edges`] for its
/// write-back, so both see the same edge.
fn u8_edge(steps: &[Step], i: usize) -> Option<(Option<PoolGeometry>, usize, NhwcImage)> {
    let out_hw = match steps.get(i)? {
        Step::Conv { dims, .. } | Step::QConv { dims, .. } => (dims.oh, dims.ow),
        Step::QLinear { .. } => (1, 1),
        _ => return None,
    };
    let mut j = i + 1;
    let (pool, hw) = match steps.get(j) {
        Some(Step::MaxPool { geom, oh, ow, .. }) => {
            j += 1;
            (Some(*geom), (*oh, *ow))
        }
        _ => (None, out_hw),
    };
    while matches!(steps.get(j), Some(Step::Identity)) {
        j += 1;
    }
    let dst = match steps.get(j)? {
        Step::Conv { dims, .. } | Step::QConv { dims, .. } => NhwcImage::for_conv(dims),
        Step::QLinear { in_f, .. } if hw == (1, 1) => NhwcImage::flat(*in_f),
        _ => return None,
    };
    Some((pool, j, dst))
}

/// Decides the format of every activation edge that touches a quantized
/// step. A `QConv`/`QLinear` writes **u8** — straight into its consumer's
/// padded NHWC image, through a fused max-pool if one follows — exactly
/// when [`u8_edge`] finds it a quantized consumer; the fused `MaxPool`
/// step is dropped. Everything else stays f32 NCHW: the network input,
/// the logits, both ends of a residual branch (the add is f32), average
/// pooling, an unfolded batch-norm or unfused ReLU — and a flatten of
/// more than one pixel into a `QLinear`, whose rows are in NCHW order.
// seal-lint: allow(panic-freedom) — compile time; `u8_edge` returns `j < steps.len()`, and `i < j`
fn assign_edges(steps: &mut Vec<Step>) -> Result<(), NnError> {
    let mut i = 0;
    while i < steps.len() {
        if let Step::Residual { main, shortcut, .. } = &mut steps[i] {
            assign_edges(main)?;
            assign_edges(shortcut)?;
        }
        if let Some((pool, j, dst)) = u8_edge(steps, i) {
            // The write-back of the producer's accumulator: a conv's
            // knows its layout and pool, a linear layer's rows are 1×1.
            let rq = match &steps[i] {
                Step::QConv {
                    conv,
                    packed,
                    bias,
                    relu,
                    ..
                } => conv.requantize(packed.scales(), bias, *relu, dst)?,
                Step::QLinear {
                    packed, bias, relu, ..
                } => Requantize::compile(packed.scales(), bias, (1, 1), *relu, pool, dst)?,
                _ => {
                    i += 1;
                    continue;
                }
            };
            if let Step::QConv { edges, .. } | Step::QLinear { edges, .. } = &mut steps[j] {
                edges.u8_in = true;
            }
            if let Step::QConv { edges, .. } | Step::QLinear { edges, .. } = &mut steps[i] {
                edges.u8_out = Some(Box::new(rq)); // one-time compile step
            }
            if pool.is_some() {
                steps.remove(i + 1);
            }
        }
        i += 1;
    }
    Ok(())
}

/// Largest per-image volume an **f32** activation edge of `steps`
/// carries: every output a step writes to the f32 arena (a quantized
/// step with a u8 outgoing edge writes none) and every residual stash.
/// With the network input, this is what one arena slot holds per image.
fn f32_edge_vol(steps: &[Step]) -> usize {
    let f32_out = |edges: &QEdges, vol: usize| if edges.u8_out.is_some() { 0 } else { vol };
    steps
        .iter()
        .map(|step| match step {
            Step::Conv { out_vol, .. } => *out_vol,
            Step::Linear { out_f, .. } => *out_f,
            Step::QConv { dims, edges, .. } => f32_out(edges, dims.c_out * dims.oh * dims.ow),
            Step::QLinear { out_f, edges, .. } => f32_out(edges, *out_f),
            Step::BatchNorm {
                channels, spatial, ..
            } => channels * spatial,
            Step::Relu { vol } => *vol,
            Step::MaxPool { c, oh, ow, .. } | Step::AvgPool { c, oh, ow, .. } => c * oh * ow,
            Step::Identity => 0,
            Step::Residual {
                main,
                shortcut,
                in_vol,
                out_vol,
            } => (*in_vol)
                .max(*out_vol)
                .max(f32_edge_vol(main))
                .max(f32_edge_vol(shortcut)),
        })
        .max()
        .unwrap_or(0)
}

/// Worst-case quantized-scratch extents across a step list (all zero when
/// no step is quantized), the implicit conv's read slack included.
#[derive(Debug, Default)]
struct QuantSizes {
    u8_slot: usize,
    scales: usize,
    acc: usize,
    stage: usize,
}

fn quant_sizes(steps: &[Step], max_batch: usize, sz: &mut QuantSizes) {
    for step in steps {
        let (input, edges) = match step {
            Step::QConv { dims, edges, .. } => {
                // Images per GEMM: the whole batch when the shape folds.
                let group = if dims.folds_batch_i8() { max_batch } else { 1 };
                sz.acc = sz.acc.max(group * dims.oh * dims.ow * dims.c_out);
                (NhwcImage::for_conv(dims), edges)
            }
            Step::QLinear {
                in_f, out_f, edges, ..
            } => {
                sz.acc = sz.acc.max(max_batch * out_f);
                (NhwcImage::flat(*in_f), edges)
            }
            Step::Residual { main, shortcut, .. } => {
                quant_sizes(main, max_batch, sz);
                quant_sizes(shortcut, max_batch, sz);
                continue;
            }
            _ => continue,
        };
        sz.u8_slot = sz.u8_slot.max(max_batch * input.stride() + PATCH_SLACK);
        sz.scales = max_batch;
        if let Some(rq) = &edges.u8_out {
            sz.stage = sz.stage.max(rq.stage_len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{vgg16, VggConfig};
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;
    use seal_tensor::uniform;

    fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn plan_matches_forward_infer_bitwise_on_reduced_vgg() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = VggConfig::reduced();
        let model = vgg16(&mut rng, &cfg).unwrap();
        let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
        let mut plan = CompiledModel::compile(&model, &input, 4, false).unwrap();
        for n in [1usize, 3, 4] {
            let x = uniform(
                &mut rng,
                Shape::nchw(n, cfg.input_channels, cfg.input_hw, cfg.input_hw),
                -1.0,
                1.0,
            );
            let reference = model.forward_infer(&x).unwrap();
            let logits = plan.execute_into(&x).unwrap();
            assert!(
                bitwise_eq(logits, reference.as_slice()),
                "planned logits != forward_infer for batch {n}"
            );
        }
    }

    /// A step list's shape, one letter per step: `C` convolution (then
    /// `b`/`r`/`p` for each stage its epilogue absorbed), `B` batch-norm,
    /// `R` ReLU, `P` max-pool, `L` linear, `I` identity, `?` anything else.
    fn shape_of(steps: &[Step]) -> String {
        let mut out = String::new();
        for step in steps {
            match step {
                Step::Conv { bn, relu, pool, .. } => {
                    out.push('C');
                    for (on, c) in [(bn.is_some(), 'b'), (*relu, 'r'), (pool.is_some(), 'p')] {
                        if on {
                            out.push(c);
                        }
                    }
                }
                Step::BatchNorm { .. } => out.push('B'),
                Step::Relu { .. } => out.push('R'),
                Step::MaxPool { .. } => out.push('P'),
                Step::Linear { .. } => out.push('L'),
                Step::Identity => out.push('I'),
                _ => out.push('?'),
            }
        }
        out
    }

    /// The epilogue peephole absorbs exactly `Conv → [BN] → [ReLU] →
    /// [MaxPool]`, in that order; a batch-norm behind a ReLU, a ReLU
    /// behind a pool and a pool behind a standalone step keep their
    /// steps — and either way the default plan equals `forward_infer` bit
    /// for bit, with trained (non-identity) batch-norm statistics.
    #[test]
    fn epilogue_peephole_absorbs_only_its_own_order_and_stays_bitwise() {
        let mut rng = StdRng::seed_from_u64(26);
        let geom = Conv2dGeometry::same3x3();
        let conv = |rng: &mut StdRng, name: &str, c_in, c_out| -> Box<dyn Layer> {
            Box::new(Conv2d::new(rng, name, c_in, c_out, geom).unwrap())
        };
        let bn = |name: &str, c| -> Box<dyn Layer> { Box::new(BatchNorm2d::new(name, c).unwrap()) };
        let relu = |name: &str| -> Box<dyn Layer> { Box::new(ReLU::new(name)) };
        let pool = |name: &str| -> Box<dyn Layer> {
            Box::new(MaxPool2d::new(name, PoolGeometry::halving()))
        };
        let mut model = Sequential::new("peephole")
            // Conv → BN → ReLU → Pool: all absorbed.
            .with(conv(&mut rng, "c1", 3, 6))
            .with(bn("b1", 6))
            .with(relu("r1"))
            .with(pool("p1"))
            // Conv → ReLU → BN → Pool: the ReLU only.
            .with(conv(&mut rng, "c2", 6, 5))
            .with(relu("r2"))
            .with(bn("b2", 5))
            .with(pool("p2"))
            // Conv → Pool → ReLU: the pool only.
            .with(conv(&mut rng, "c3", 5, 7))
            .with(pool("p3"))
            .with(relu("r3"))
            // Conv → BN (no ReLU) → Conv: the batch-norm.
            .with(conv(&mut rng, "c4", 7, 4))
            .with(bn("b4", 4))
            .with(conv(&mut rng, "c5", 4, 4))
            .with(Box::new(Flatten::new("flat")))
            .with(Box::new(
                Linear::new(&mut rng, "fc", 4 * 2 * 2, 10).unwrap(),
            ));
        // Train-mode passes move the running statistics off (0, 1); then
        // scatter γ and β.
        for _ in 0..3 {
            let x = uniform(&mut rng, Shape::nchw(4, 3, 16, 16), -2.0, 2.0);
            model.forward(&x, true).unwrap();
        }
        for p in model.norm_params_mut() {
            let shape = p.value.shape().clone();
            p.value = uniform(&mut rng, shape, 0.5, 1.5);
        }
        let input = Shape::nchw(1, 3, 16, 16);
        let mut plan = CompiledModel::compile(&model, &input, 8, false).unwrap();
        assert_eq!(shape_of(&plan.steps), "CbrpCrBPCpRCbCIL");
        for n in [1usize, 3, 8] {
            let x = uniform(&mut rng, Shape::nchw(n, 3, 16, 16), -1.0, 1.0);
            let reference = model.forward_infer(&x).unwrap();
            let logits = plan.execute_into(&x).unwrap();
            assert!(
                bitwise_eq(logits, reference.as_slice()),
                "peephole plan != forward_infer for batch {n}"
            );
        }
    }

    /// The served VGG's three convolutions on 1×1 maps (`conv5_x`, 3×3 /
    /// pad 1) read the image through their centre tap only: their GEMMs
    /// run `c_in` = 48 rows, not 432, in the f32 plan. Every other
    /// convolution keeps all `c_in·9` rows.
    #[test]
    fn served_vgg_drops_the_dead_taps_of_its_one_pixel_convs_only() {
        let mut rng = StdRng::seed_from_u64(27);
        let cfg = VggConfig::reduced();
        let model = vgg16(&mut rng, &cfg).unwrap();
        let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
        let plan = CompiledModel::compile(&model, &input, 8, false).unwrap();
        let convs: Vec<(ConvPlanDims, usize, usize)> = plan
            .steps
            .iter()
            .filter_map(|step| match step {
                Step::Conv {
                    dims,
                    gather,
                    weights,
                    ..
                } => Some((*dims, gather.as_ref().unwrap().depth(), weights.len())),
                _ => None,
            })
            .collect();
        assert_eq!(convs.len(), 13);
        for (dims, depth, weights) in convs {
            let want = if (dims.h, dims.w) == (1, 1) {
                48
            } else {
                dims.c_in * 9
            };
            assert_eq!(depth, want, "{dims:?}");
            assert_eq!(weights, dims.c_out * want, "{dims:?}");
        }
    }

    #[test]
    fn oversized_batch_and_wrong_shape_are_rejected() {
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = VggConfig::reduced();
        let model = vgg16(&mut rng, &cfg).unwrap();
        let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
        let mut plan = CompiledModel::compile(&model, &input, 2, false).unwrap();
        let too_big = Tensor::zeros(Shape::nchw(
            3,
            cfg.input_channels,
            cfg.input_hw,
            cfg.input_hw,
        ));
        assert!(plan.execute_into(&too_big).is_err());
        let wrong = Tensor::zeros(Shape::nchw(1, cfg.input_channels + 1, 4, 4));
        assert!(plan.execute_into(&wrong).is_err());
        assert!(
            CompiledModel::compile(&model, &input, 0, false).is_err(),
            "max_batch 0 must be rejected"
        );
    }

    #[test]
    fn classify_matches_predict() {
        let mut rng = StdRng::seed_from_u64(24);
        let cfg = VggConfig::reduced();
        let model = vgg16(&mut rng, &cfg).unwrap();
        let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
        let mut plan = CompiledModel::compile(&model, &input, 2, false).unwrap();
        let x = uniform(
            &mut rng,
            Shape::nchw(2, cfg.input_channels, cfg.input_hw, cfg.input_hw),
            -1.0,
            1.0,
        );
        assert_eq!(plan.classify(&x).unwrap(), model.predict(&x).unwrap());
    }
}
