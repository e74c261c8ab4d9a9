//! Lowering trained model IRs to integer execution engines.
//!
//! A [`CompiledPipeline`] is what the generated data-plane program
//! *computes*, expressed as portable Rust: all weights, biases, centroids,
//! and thresholds are quantized once at compile time into raw fixed-point
//! integers, and every per-packet operation is integer-only — widening
//! multiplies with a post-product arithmetic shift, saturating i32
//! accumulation, integer comparisons, and (for sigmoid/tanh hidden
//! layers) a lookup table, exactly as the hardware templates implement
//! them.
//!
//! # Packed storage
//!
//! When the format fits the `i16` lane (≤16 total bits, which covers the
//! Q3.12 Taurus word; an 8-bit format shares the same lane), lowering
//! stores every weight, plane, and centroid **packed** — contiguous `i16`
//! words — and classify runs on the [`PackedFixed`] kernel tier: half the
//! memory traffic of `i32` and chunked inner loops the compiler
//! auto-vectorizes. There is one build of it, portable and safe.
//! Verdicts are **bit-identical** to the scalar `i32` path in every case,
//! including accumulator saturation; formats wider than 16 bits simply
//! keep the scalar storage ([`CompiledPipeline::is_packed`] reports
//! which tier a pipeline runs). [`CompiledPipeline::from_ir_scalar`]
//! forces scalar storage: the reference every packed verdict is held to.
//!
//! Both tiers run the *same* family walk: raw per-class scores, then one
//! decision rule. A pipeline is lowered onto its tier once, so
//! the walk is monomorphised per tier and never re-discovers it per
//! access.
//!
//! # Lane kernels
//!
//! The two families that cost the most per row run as lanes with no
//! data-dependent control flow, the shape of a Taurus map/reduce block.
//! A dense layer keeps the accumulators of eight outputs in registers
//! across the whole input loop, and a hidden layer applies its activation
//! to them there and writes the next layer's `i16` lanes, one pass per
//! tile (`PackedFixed::packed_dense_block_lanes`): the stage that forms a
//! neuron's sum also applies its activation, as a Taurus block does.
//! Sigmoid and tanh look up an `i16` copy of the table with an index
//! computed 8-wide (`lut::LaneLut`); ReLU and Linear narrow in the tile
//! only where the next layer's `lane_bounded_input` fact proves their
//! outputs fit a lane. A layer off the fast path, or whose outputs may
//! leave the lane, keeps the `i32` block, the activation over it, and
//! the repack (or the wide per-row replay) in the next layer. Lowering
//! pads every packed layer to whole eight-output tiles with zero weights
//! and zero bias, which changes no real output's bits; facts, traces,
//! scores and tolerances keep the trained shape, and the DNN arm of the
//! walk drops the padded logits before the argmax.
//!
//! A tree or forest is lowered to an arena of fixed-size nodes whose
//! leaves point at themselves, and classify advances eight cursors
//! together for a fixed number of steps, picking each child by indexing
//! with the comparison's result instead of branching on it: see
//! `TreeKernel`. A forest walks each full group of eight trees on a
//! register array. A forest's votes land in the score buffer, so its
//! verdict is an argmax like a DNN's. [`CompiledPipeline::trace`] replays trees with a
//! separate one-cursor walk that stops at the first leaf, so that the
//! soundness tests compare two walks and not one walk with itself.

use crate::lut::{ActLut, LutCache};
use crate::{Result, RuntimeError};
use homunculus_backends::model::{ModelIr, TreeIr, TreeNodeIr};
use homunculus_ml::bounds::{self, Interval};
use homunculus_ml::mlp::Activation;
use homunculus_ml::quantize::{fixed_relu, FixedPoint, PackedFixed};
use homunculus_ml::tensor::Matrix;
use std::sync::Arc;

/// Reusable per-worker buffers so classification performs no allocation
/// per packet (buffers grow on first use, then stay). One scratch serves a
/// single row or a whole feature block alike: a block of `rows` rows just
/// uses `rows` times the per-row width of each buffer.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Quantized row-major feature block, scalar tier.
    qx: Vec<i32>,
    /// Quantized row-major feature block, packed tier.
    px: Vec<i16>,
    scores: ScoreBufs,
}

impl Scratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// The feature block the last classify quantized on `pipeline`'s
    /// tier, widened to `i32`.
    #[cfg(test)]
    pub(crate) fn quantized(&self, pipeline: &CompiledPipeline) -> Vec<i32> {
        if pipeline.is_packed() {
            self.px.iter().map(|&v| i32::from(v)).collect()
        } else {
            self.qx.clone()
        }
    }
}

/// Where raw scores are computed and returned from — everything the
/// family walk writes, apart from the quantized features it reads (so the
/// two borrow independently).
#[derive(Debug, Clone, Default)]
struct ScoreBufs {
    /// Ping buffer for layer outputs / plane scores / distances / forest
    /// votes / tree leaves.
    a: Vec<i32>,
    /// Pong buffer for layer outputs; the packed tier's features widened
    /// for a tree walk.
    b: Vec<i32>,
    /// Ping and pong buffers for a block of hidden DNN activations as
    /// packed lanes.
    pa: Vec<i16>,
    pb: Vec<i16>,
}

/// Grows `buf` to at least `len` values (never shrinks: scratch is reused
/// across pipelines of different shapes).
fn grow<V: Copy + Default>(buf: &mut Vec<V>, len: usize) {
    if buf.len() < len {
        buf.resize(len, V::default());
    }
}

/// Rows per feature block on the batch path — big enough to amortize the
/// block quantize, small enough that a block of activations stays in L1.
pub(crate) const BLOCK_ROWS: usize = 32;

/// The `(mean, std)` a feature block is normalized against: one value of
/// each per value of the block, i.e. a normalizer tiled once per row.
pub(crate) type BlockNorm<'a> = (&'a [f32], &'a [f32]);

/// What the family walk needs from a storage tier. Two impls: the scalar
/// `i32` reference ([`FixedPoint`] over `Vec<i32>`) and the packed `i16`
/// lanes ([`PackedFixed`] over `Vec<i16>`, the fast tier). Kernels are
/// typed by their tier, so scalar access to packed storage (or the
/// reverse) cannot be written, and nothing below re-checks the tier.
trait Tier: Sized {
    /// Owned quantized values: lowered parameters, or a feature block.
    type Store;
    /// A borrowed run of a [`Tier::Store`]: one feature row, plane or
    /// centroid.
    type Row<'a>: Copy;
    /// The range a stored value must fit, where the store is narrower than
    /// `i32`: the packed lane. `None` on the scalar tier, where every lane
    /// fact is trivially true.
    const LANE: Option<Interval>;
    /// The output columns a dense layer's tile computes together: lowering
    /// pads every layer's output width to a multiple of it.
    const TILE: usize;

    /// Moves quantized parameters onto the tier's storage.
    fn lower(&self, raw: Vec<i32>) -> Self::Store;
    /// Borrows `len` values starting at `start`.
    fn row(store: &Self::Store, start: usize, len: usize) -> Self::Row<'_>;
    /// The value at `index`, widened to `i32`.
    fn get(row: Self::Row<'_>, index: usize) -> i32;
    /// Quantizes a contiguous row-major block of features into `out`;
    /// with `norm`, the z-scores `(v - mean) / std` of the block, each
    /// value against the `mean` and `std` at its own index.
    fn quantize(&self, values: &[f32], norm: Option<BlockNorm<'_>>, out: &mut Self::Store);
    /// A quantized feature block as the `i32` words a tree walk compares:
    /// the store itself on the scalar tier, a widened copy in `buf` on the
    /// packed one.
    fn widened<'a>(x: &'a Self::Store, buf: &'a mut Vec<i32>) -> &'a [i32];
    /// Fixed-point dot product; `certified` is the lowering-time proof
    /// that no accumulator can saturate.
    fn dot(&self, w: Self::Row<'_>, x: Self::Row<'_>, certified: bool) -> i32;
    /// Fixed-point squared Euclidean distance; `certified` as for `dot`.
    fn squared_distance(&self, c: Self::Row<'_>, x: Self::Row<'_>, certified: bool) -> i32;
    /// Runs `rows` quantized feature rows of `x` through the dense stack
    /// and returns the output layer's logits, row-major, one stored row
    /// ([`DenseKernel::cols`]) each. `bufs.a` and `bufs.b` hold at least
    /// `rows` times the widest layer.
    fn dense_forward<'s>(
        &self,
        layers: &[DenseKernel<Self>],
        activation: &ActKernel,
        x: &Self::Store,
        rows: usize,
        bufs: &'s mut ScoreBufs,
    ) -> &'s mut [i32];
}

/// The scalar `i32` tier — the bit-exact reference the packed tier is
/// held to, and the only tier for formats too wide for a lane.
impl Tier for FixedPoint {
    type Store = Vec<i32>;
    type Row<'a> = &'a [i32];
    const LANE: Option<Interval> = None;
    const TILE: usize = 1;

    fn lower(&self, raw: Vec<i32>) -> Vec<i32> {
        raw
    }

    #[inline]
    fn row(store: &Vec<i32>, start: usize, len: usize) -> &[i32] {
        &store[start..start + len]
    }

    #[inline]
    fn get(row: &[i32], index: usize) -> i32 {
        row[index]
    }

    fn quantize(&self, values: &[f32], norm: Option<BlockNorm<'_>>, out: &mut Vec<i32>) {
        out.resize(values.len(), 0);
        match norm {
            None => self.quantize_into(values, out),
            Some((mean, std)) => {
                for (((o, &v), &m), &s) in out.iter_mut().zip(values).zip(mean).zip(std) {
                    *o = self.quantize((v - m) / s);
                }
            }
        }
    }

    #[inline]
    fn widened<'a>(x: &'a Vec<i32>, _buf: &'a mut Vec<i32>) -> &'a [i32] {
        x
    }

    #[inline]
    fn dot(&self, w: &[i32], x: &[i32], _certified: bool) -> i32 {
        self.fixed_dot(w, x)
    }

    #[inline]
    fn squared_distance(&self, c: &[i32], x: &[i32], _certified: bool) -> i32 {
        self.fixed_squared_distance(c, x)
    }

    /// Whole activation blocks ping-pong between `bufs.a` and `bufs.b`:
    /// a layer writes its `i32` sums, the activation runs over the block,
    /// and the next layer reads it.
    fn dense_forward<'s>(
        &self,
        layers: &[DenseKernel<Self>],
        activation: &ActKernel,
        x: &Vec<i32>,
        rows: usize,
        bufs: &'s mut ScoreBufs,
    ) -> &'s mut [i32] {
        let (first, rest) = layers
            .split_first()
            .expect("a lowered dnn has at least its output layer");
        let (mut cur, mut next) = (bufs.a.as_mut_slice(), bufs.b.as_mut_slice());
        scalar_layer(self, first, x, rows, cur);
        let mut width = first.output;
        for layer in rest {
            let hidden = &mut cur[..rows * width];
            activation.apply_all(hidden);
            scalar_layer(self, layer, hidden, rows, next);
            std::mem::swap(&mut cur, &mut next);
            width = layer.output;
        }
        &mut cur[..rows * width]
    }
}

/// One dense layer on the scalar tier, row by row: features and
/// activations are both plain `i32` there, so every layer is the same.
fn scalar_layer(
    format: &FixedPoint,
    layer: &DenseKernel<FixedPoint>,
    x: &[i32],
    rows: usize,
    out: &mut [i32],
) {
    let (input, output) = (layer.input, layer.output);
    for r in 0..rows {
        format.fixed_matvec(
            &layer.weights,
            &layer.bias,
            &x[r * input..(r + 1) * input],
            &mut out[r * output..(r + 1) * output],
        );
    }
}

/// The packed `i16`-lane tier: same verdicts as the scalar tier, bit for
/// bit, from half the storage.
impl Tier for PackedFixed {
    type Store = Vec<i16>;
    type Row<'a> = &'a [i16];
    const LANE: Option<Interval> = Some(Interval {
        lo: PackedFixed::LANE_MIN,
        hi: PackedFixed::LANE_MAX,
    });
    const TILE: usize = PackedFixed::TILE;

    fn lower(&self, raw: Vec<i32>) -> Vec<i16> {
        self.pack(&raw)
    }

    #[inline]
    fn row(store: &Vec<i16>, start: usize, len: usize) -> &[i16] {
        &store[start..start + len]
    }

    #[inline]
    fn get(row: &[i16], index: usize) -> i32 {
        i32::from(row[index])
    }

    fn quantize(&self, values: &[f32], norm: Option<BlockNorm<'_>>, out: &mut Vec<i16>) {
        match norm {
            None => self.quantize_into_packed(values, out),
            Some((mean, std)) => self.quantize_normalized_into_packed(values, mean, std, out),
        }
    }

    #[inline]
    fn widened<'a>(x: &'a Vec<i16>, buf: &'a mut Vec<i32>) -> &'a [i32] {
        buf.clear();
        buf.extend(x.iter().map(|&v| i32::from(v)));
        buf
    }

    #[inline]
    fn dot(&self, w: &[i16], x: &[i16], certified: bool) -> i32 {
        self.packed_dot(w, x, certified)
    }

    #[inline]
    fn squared_distance(&self, c: &[i16], x: &[i16], certified: bool) -> i32 {
        self.packed_squared_distance(c, x, certified)
    }

    /// One pass per dense tile wherever the layer's facts allow it: a
    /// hidden layer on lane inputs whose successor's `lane_bounded_input`
    /// fact holds applies its activation inside the tile and writes the
    /// next layer's lanes, ping-ponging between `bufs.pa` and `bufs.pb`
    /// (see *Lane kernels* in the module docs). Anything else keeps the
    /// `i32` block: the layer's sums, the activation over them, and the
    /// next layer repacks them (a `lane_bounded_input` proof skips the
    /// range scan) or, where they leave the lane, replays each row wide.
    /// Either way the outputs match the scalar tier bit for bit.
    fn dense_forward<'s>(
        &self,
        layers: &[DenseKernel<Self>],
        activation: &ActKernel,
        features: &Vec<i16>,
        rows: usize,
        bufs: &'s mut ScoreBufs,
    ) -> &'s mut [i32] {
        let ScoreBufs { a, b, pa, pb } = bufs;
        let (mut wide, mut wide_next) = (a.as_mut_slice(), b.as_mut_slice());
        let (mut lanes, mut lanes_next) = (pa, pb);
        let mut held = Held::Features;
        // The width of one row of the current layer's input.
        let mut width = layers[0].input;
        let last = layers.len() - 1;
        for (li, layer) in layers.iter().enumerate() {
            let (cols, hidden) = (layer.cols(), li < last);
            let n = rows * cols;
            let lane_input = match held {
                Held::Features => Some(features.as_slice()),
                Held::Lanes => Some(&lanes[..rows * width]),
                Held::Wide => {
                    let x = &wide[..rows * width];
                    let fits = if layer.lane_bounded_input {
                        self.pack_into(x, lanes);
                        true
                    } else {
                        self.pack_checked(x, lanes)
                    };
                    fits.then_some(lanes.as_slice())
                }
            };
            let out = &mut wide_next[..n];
            match lane_input {
                Some(x) => {
                    if hidden && layers[li + 1].lane_bounded_input {
                        grow(lanes_next, n);
                        if fused_layer(self, layer, activation, x, rows, &mut lanes_next[..n]) {
                            std::mem::swap(&mut lanes, &mut lanes_next);
                            (held, width) = (Held::Lanes, cols);
                            continue;
                        }
                    }
                    let (w, b) = (&layer.weights, &layer.bias);
                    self.packed_matvec_block(w, b, x, rows, out, layer.certified);
                }
                None => {
                    let x = &wide[..rows * width];
                    for (xr, or) in x.chunks_exact(width).zip(out.chunks_exact_mut(cols)) {
                        self.packed_matvec_wide(&layer.weights, &layer.bias, xr, or);
                    }
                }
            }
            if hidden {
                activation.apply_all(out);
            }
            std::mem::swap(&mut wide, &mut wide_next);
            (held, width) = (Held::Wide, cols);
        }
        &mut wide[..rows * width]
    }
}

/// Where the packed DNN walk holds the current layer's input.
#[derive(Clone, Copy)]
enum Held {
    /// The quantized feature block.
    Features,
    /// Activations as packed lanes.
    Lanes,
    /// Activations as `i32` words, which may leave the lane.
    Wide,
}

/// Runs a hidden `layer` with `activation` applied inside each tile
/// ([`PackedFixed::packed_dense_block_lanes`]), writing the next layer's
/// lanes to `out`; `false`, with nothing written, when the block is off
/// the fast path. The caller has proven that every activation fits a lane.
fn fused_layer(
    p: &PackedFixed,
    layer: &DenseKernel<PackedFixed>,
    activation: &ActKernel,
    x: &[i16],
    rows: usize,
    out: &mut [i16],
) -> bool {
    let (w, b, certified) = (&layer.weights, &layer.bias, layer.certified);
    match activation {
        ActKernel::Relu => p.packed_dense_block_lanes(w, b, x, rows, out, certified, |acc| {
            acc.map(|v| PackedFixed::narrow(fixed_relu(v)))
        }),
        ActKernel::Linear => p.packed_dense_block_lanes(w, b, x, rows, out, certified, |acc| {
            acc.map(PackedFixed::narrow)
        }),
        ActKernel::Lut(lut) => {
            let lut = lut.lanes().expect("a packable format's table has lanes");
            p.packed_dense_block_lanes(w, b, x, rows, out, certified, |acc| lut.apply8(acc))
        }
    }
}

/// One lowered dense layer: quantized weights (row-major, matching the
/// float trainer's storage) and bias in the same Q format, plus the
/// interval-analysis facts lowering derived for it.
///
/// Stored in whole tiles of the tier ([`Tier::TILE`]): the packed tier
/// pads the layer's `output` columns to [`DenseKernel::cols`] with zero
/// weights and zero bias, and its rows to the previous layer's `cols`
/// with zero weights; the scalar tier stores the trained shape.
#[derive(Debug, Clone, PartialEq)]
struct DenseKernel<T: Tier> {
    /// Row-major: one row of `cols` per input the layer reads (the
    /// features, or the previous layer's `cols` outputs).
    weights: T::Store,
    /// One per column.
    bias: Vec<i32>,
    /// The trained layer's shape.
    input: usize,
    output: usize,
    /// Proven at lowering: no `i32` accumulator can saturate for any
    /// admissible input, so the re-orderable fast loop runs without the
    /// per-call worst-case guard ([`bounds::matvec_bound`]).
    certified: bool,
    /// Proven at lowering: every input this layer can receive fits the
    /// packed lane width, so repacking skips the per-value range scan.
    /// Replaces the old whole-stack `ActKernel::output_fits_lanes` hint
    /// with a per-layer derived fact.
    lane_bounded_input: bool,
}

impl<T: Tier> DenseKernel<T> {
    /// Output columns as stored: whole tiles on the packed tier.
    fn cols(&self) -> usize {
        self.bias.len()
    }

    /// The weight from logical input `k` to logical output `j`.
    fn weight(&self, k: usize, j: usize) -> i32 {
        T::get(T::row(&self.weights, k * self.cols(), self.cols()), j)
    }
}

/// Interval-analysis facts for one lowered kernel stage, derived during
/// lowering from the concrete quantized parameters (see
/// [`homunculus_ml::bounds`]). [`CompiledPipeline::kernel_facts`] exposes
/// them; the `homunculus-analysis` crate re-surfaces them as
/// no-saturation certificates, and the classify paths consume the
/// `certified` / `lane_bounded_input` bits for fast-path selection.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFact {
    /// Human-readable stage label (`"dense layer 0"`, `"svm planes"`, …).
    pub label: String,
    /// No `i32` accumulator in this stage can saturate for any
    /// admissible input, in any evaluation order.
    pub certified: bool,
    /// Every input value this stage can receive provably fits the packed
    /// lane width (trivially true on the scalar tier).
    pub lane_bounded_input: bool,
    /// Worst-case accumulator magnitude over all outputs; certification
    /// is `abs_bound <= i32::MAX`.
    pub abs_bound: i64,
    /// Guaranteed per-output value range *before* the activation.
    pub pre: Vec<Interval>,
    /// Guaranteed per-output value range *after* the activation (equal
    /// to `pre` for stages without one, e.g. the final logit layer).
    pub post: Vec<Interval>,
}

/// Cursors a tree walk advances together: eight independent load chains
/// are what keeps a branch-free walk busy while each waits on its node.
const LANES: usize = 8;

/// One node of a lowered tree, 16 bytes. A split and a leaf have the same
/// shape so that the lane walk never asks which it is on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    /// Quantized split threshold (0 on a leaf).
    threshold: i32,
    /// The feature a split compares (0 on a leaf, where the comparison
    /// decides nothing).
    feature: u16,
    /// The class a leaf stands for (0 on a split).
    class: u16,
    /// Arena index of the node to visit next, indexed by
    /// `feature > threshold`: `[left, right]`. A leaf names itself twice —
    /// a cursor that has arrived stays put for the remaining steps, which
    /// is what lets trees of different heights, and leaves above a tree's
    /// height, share one fixed-length walk.
    next: [u32; 2],
}

/// One lowered decision tree, or every member tree of a forest, in one
/// node arena with thresholds quantized once at compile time.
///
/// Two walks read it. The classify path runs [`TreeKernel::descend`]: up to
/// [`LANES`] cursors advanced together for a fixed number of steps with no
/// data-dependent branch — the cursors are the trees of one row for a
/// forest and the rows of a block for a single tree.
/// [`CompiledPipeline::trace`] runs [`TreeKernel::leaf_class`] instead, one
/// cursor that stops at the first leaf, so the soundness tests hold every
/// classify entry to a walk that shares no control flow with it.
#[derive(Debug, Clone, PartialEq, Default)]
struct TreeKernel {
    nodes: Vec<FlatNode>,
    /// Arena index of each member tree's root.
    roots: Vec<u32>,
    /// Steps per group of [`LANES`] consecutive trees: the height of the
    /// group's tallest member (0 for a lone leaf).
    steps: Vec<u32>,
}

impl TreeKernel {
    /// Lowers `trees` into one arena; returns the kernel and the
    /// leaf-derived class count.
    fn lower<'a>(
        trees: impl IntoIterator<Item = &'a TreeIr>,
        format: FixedPoint,
    ) -> Result<(Self, usize)> {
        let mut kernel = TreeKernel::default();
        let mut leaf_classes = 0usize;
        let mut heights = Vec::new();
        for tree in trees {
            let (height, classes) = kernel.push_tree(tree, format)?;
            heights.push(height);
            leaf_classes = leaf_classes.max(classes);
        }
        kernel.steps = heights
            .chunks(LANES)
            .map(|group| group.iter().copied().max().unwrap_or(0))
            .collect();
        Ok((kernel, leaf_classes))
    }

    /// Appends one tree's nodes; returns its height and its leaf-derived
    /// class count.
    fn push_tree(&mut self, tree: &TreeIr, format: FixedPoint) -> Result<(u32, usize)> {
        let nodes = tree
            .nodes
            .as_ref()
            .ok_or_else(|| RuntimeError::MissingParams("tree ir has no trained nodes".into()))?;
        if nodes.is_empty() {
            return Err(RuntimeError::InvalidModel("tree ir has no nodes".into()));
        }
        // Flat nodes hold narrow indices: whatever does not fit is refused
        // here, never truncated.
        let narrow = |what: &str| RuntimeError::InvalidModel(format!("tree {what} is too large"));
        let base = self.nodes.len();
        u32::try_from(base + nodes.len()).map_err(|_| narrow("arena"))?;
        // In range by the line above.
        let at = |index: usize| (base + index) as u32;
        let mut leaf_classes = 0usize;
        // Depth of the deepest path into each node; children come after
        // their parents, so one forward pass settles it.
        let mut depth = vec![0u32; nodes.len()];
        for (index, node) in nodes.iter().enumerate() {
            self.nodes.push(match node {
                TreeNodeIr::Leaf { class } => {
                    leaf_classes = leaf_classes.max(class + 1);
                    FlatNode {
                        threshold: 0,
                        feature: 0,
                        class: u16::try_from(*class).map_err(|_| narrow("leaf class"))?,
                        next: [at(index); 2],
                    }
                }
                TreeNodeIr::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    // Children must point strictly forward in the arena
                    // (true for every fitted tree, which pushes parents
                    // before children): a walk of `height` steps then ends
                    // on a leaf for any IR that passes lowering.
                    if *feature >= tree.n_features
                        || *left >= nodes.len()
                        || *right >= nodes.len()
                        || *left <= index
                        || *right <= index
                    {
                        return Err(RuntimeError::InvalidModel(
                            "tree node references out-of-range feature or child".into(),
                        ));
                    }
                    for child in [*left, *right] {
                        depth[child] = depth[child].max(depth[index] + 1);
                    }
                    FlatNode {
                        threshold: format.quantize(*threshold),
                        feature: u16::try_from(*feature).map_err(|_| narrow("feature index"))?,
                        class: 0,
                        next: [at(*left), at(*right)],
                    }
                }
            });
        }
        self.roots.push(at(0));
        let height = depth.into_iter().max().unwrap_or(0);
        Ok((height, leaf_classes))
    }

    /// Advances every cursor `steps` levels with no data-dependent branch.
    /// Cursor `l` reads its row at `x[l * stride..]`: stride 0 walks many
    /// trees over one row, stride `n_features` one tree over many rows.
    #[inline(always)]
    fn descend(&self, cursors: &mut [u32], steps: u32, x: &[i32], stride: usize) {
        for _ in 0..steps {
            for (lane, cursor) in cursors.iter_mut().enumerate() {
                let node = &self.nodes[*cursor as usize];
                let value = x[lane * stride + usize::from(node.feature)];
                *cursor = node.next[usize::from(value > node.threshold)];
            }
        }
    }

    /// The class of the leaf a cursor stopped on.
    #[inline(always)]
    fn class_at(&self, cursor: u32) -> usize {
        usize::from(self.nodes[cursor as usize].class)
    }

    /// Adds one vote per member tree into `votes`, one run of `classes`
    /// counters per `n_features`-wide row of `x`.
    ///
    /// A full group walks a `[u32; LANES]`, so its lane loop has a constant
    /// length, unrolls, and keeps the cursors in registers; walked on a
    /// slice of variable length, each node visit loaded its cursor from
    /// the stack and stored it back. Only the last, partial group takes
    /// the slice. The unrolled walk is kept out of line, once per block:
    /// inlined, it grew `classify_chunk`, which holds every family's walk,
    /// by 3.5 KB and slowed the tree-only small-ticket path with no tree
    /// code changed (readings: CHANGES.md, *one pass per dense tile*).
    #[inline(never)]
    fn vote(&self, x: &[i32], n_features: usize, votes: &mut [i32], classes: usize) {
        for (x, votes) in x
            .chunks_exact(n_features)
            .zip(votes.chunks_exact_mut(classes))
        {
            let mut groups = self.roots.chunks_exact(LANES);
            for (roots, &steps) in groups.by_ref().zip(&self.steps) {
                let mut cursors = [0u32; LANES];
                cursors.copy_from_slice(roots);
                self.descend(&mut cursors, steps, x, 0);
                for &cursor in &cursors {
                    votes[self.class_at(cursor)] += 1;
                }
            }
            let roots = groups.remainder();
            if !roots.is_empty() {
                let steps = self.steps[self.roots.len() / LANES];
                let mut cursors = [0u32; LANES];
                let cursors = &mut cursors[..roots.len()];
                cursors.copy_from_slice(roots);
                self.descend(cursors, steps, x, 0);
                for &cursor in cursors.iter() {
                    votes[self.class_at(cursor)] += 1;
                }
            }
        }
    }

    /// Writes the first tree's leaf class for each `n_features`-wide row of
    /// `x` into `out`, a group of rows at a time.
    ///
    /// As in [`vote`](Self::vote), a full group of rows walks a
    /// `[u32; LANES]` in registers, and only a partial last group takes
    /// the slice. Out of line for the same reason: inlined, the unrolled
    /// walk grew `classify_chunk` by 3.3 KB.
    #[inline(never)]
    fn leaves(&self, x: &[i32], n_features: usize, out: &mut [i32]) {
        let (root, steps) = (self.roots[0], self.steps[0]);
        let rows = out.len();
        let mut groups = out.chunks_exact_mut(LANES);
        for (group, out) in groups.by_ref().enumerate() {
            let mut cursors = [root; LANES];
            self.descend(
                &mut cursors,
                steps,
                &x[group * LANES * n_features..],
                n_features,
            );
            for (leaf, &cursor) in out.iter_mut().zip(&cursors) {
                *leaf = self.class_at(cursor) as i32;
            }
        }
        let out = groups.into_remainder();
        if !out.is_empty() {
            let start = rows - out.len();
            let mut cursors = [root; LANES];
            let cursors = &mut cursors[..out.len()];
            self.descend(cursors, steps, &x[start * n_features..], n_features);
            for (leaf, &cursor) in out.iter_mut().zip(cursors.iter()) {
                *leaf = self.class_at(cursor) as i32;
            }
        }
    }

    /// The class the tree rooted at `root` gives the row `x`, by a plain
    /// one-cursor walk that stops at the first leaf (see the type's doc).
    fn leaf_class(&self, root: u32, x: &[i32]) -> usize {
        let mut index = root;
        loop {
            let node = &self.nodes[index as usize];
            if node.next[0] == index {
                return usize::from(node.class);
            }
            index = if x[usize::from(node.feature)] <= node.threshold {
                node.next[0]
            } else {
                node.next[1]
            };
        }
    }
}

/// Hidden-layer activation in integer form. Sigmoid/tanh use a lookup
/// table over the representable input range ([`ActLut`]), held behind an
/// `Arc` so every pipeline compiled through the same [`LutCache`] shares
/// one table per `(format, activation)` pair instead of building its own.
#[derive(Debug, Clone, PartialEq)]
enum ActKernel {
    Relu,
    Linear,
    Lut(Arc<ActLut>),
}

impl ActKernel {
    fn build(format: FixedPoint, activation: Activation, luts: &LutCache) -> Self {
        match activation {
            Activation::Relu => ActKernel::Relu,
            Activation::Linear => ActKernel::Linear,
            Activation::Sigmoid | Activation::Tanh => ActKernel::Lut(
                luts.get_or_build(format, activation)
                    .expect("sigmoid/tanh always build a table"),
            ),
        }
    }

    #[inline]
    fn apply(&self, raw: i32) -> i32 {
        match self {
            ActKernel::Relu => fixed_relu(raw),
            ActKernel::Linear => raw,
            ActKernel::Lut(lut) => lut.apply(raw),
        }
    }

    /// [`ActKernel::apply`] over a block in place.
    fn apply_all(&self, block: &mut [i32]) {
        for v in block {
            *v = self.apply(*v);
        }
    }

    /// Exact image of [`ActKernel::apply`] over an input interval — the
    /// interval analyzer's activation transfer function. For LUTs this is
    /// a *derived* fact ([`ActLut::output_range`]) over the reachable
    /// table slice, replacing the old whole-table `output_bound` hint.
    fn output_interval(&self, iv: Interval) -> Interval {
        match self {
            ActKernel::Relu => iv.relu(),
            ActKernel::Linear => iv,
            ActKernel::Lut(lut) => {
                let (lo, hi) = lut.output_range(iv.lo, iv.hi);
                Interval { lo, hi }
            }
        }
    }

    /// Worst-case float error the LUT adds on top of an exact activation,
    /// and the Lipschitz constant of the activation.
    fn error_terms(&self, format: FixedPoint) -> (f32, f32) {
        match self {
            ActKernel::Relu | ActKernel::Linear => (0.0, 1.0),
            ActKernel::Lut(lut) => lut.error_terms(format),
        }
    }
}

/// The lowered per-family execution kernel.
#[derive(Debug, Clone, PartialEq)]
enum Kernel<T: Tier> {
    Dnn {
        layers: Vec<DenseKernel<T>>,
        activation: ActKernel,
    },
    Svm {
        /// Hyperplane weights, row-major `n_planes x n_features`.
        planes: T::Store,
        /// One bias per plane.
        biases: Vec<i32>,
        binary: bool,
        /// Every plane's dot product is proven saturation-free
        /// ([`bounds::dot_bound`]) — the packed path skips the per-call
        /// worst-case guard.
        certified: bool,
    },
    KMeans {
        /// Centroids, row-major `k x n_features`.
        centroids: T::Store,
        /// Every centroid distance is proven saturation-free
        /// ([`bounds::squared_distance_bound`]).
        certified: bool,
    },
    /// One tree; its raw "score" is the leaf class itself.
    Tree(TreeKernel),
    /// Member trees in one arena; the raw scores are their vote counts and
    /// the verdict the first-max-wins majority, like any other argmax.
    Forest(TreeKernel),
}

impl<T: Tier> Kernel<T> {
    fn family(&self) -> &'static str {
        match self {
            Kernel::Dnn { .. } => "dnn",
            Kernel::Svm { .. } => "svm",
            Kernel::KMeans { .. } => "kmeans",
            Kernel::Tree(_) => "decision_tree",
            Kernel::Forest(_) => "random_forest",
        }
    }
}

/// A lowered kernel together with the tier that runs it — the one place a
/// pipeline's tier is recorded, matched once per classify/scores call.
#[derive(Debug, Clone, PartialEq)]
enum Lowered {
    /// Scalar `i32` storage, run by the pipeline's [`FixedPoint`] format.
    Scalar(Kernel<FixedPoint>),
    /// Narrow-lane storage, run by the format's [`PackedFixed`].
    Packed(PackedFixed, Kernel<PackedFixed>),
}

/// A trained model lowered to an integer fixed-point execution engine.
///
/// Construct one with [`CompiledPipeline::from_ir`] on a trained
/// [`ModelIr`]; classify packets with [`CompiledPipeline::classify`]
/// (zero-allocation given a reusable [`Scratch`]) or in bulk with
/// [`CompiledPipeline::classify_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPipeline {
    format: FixedPoint,
    n_features: usize,
    n_classes: usize,
    /// Widest intermediate buffer any kernel stage needs.
    width: usize,
    /// The packed tier when the format fits the `i16` lane, the scalar
    /// `i32` reference tier otherwise (same verdicts, bit for bit).
    kernel: Lowered,
    /// Per-stage interval-analysis facts derived at lowering.
    facts: Vec<KernelFact>,
}

impl CompiledPipeline {
    /// Lowers a trained IR to integer fixed-point inference in `format`,
    /// with a private, single-use LUT cache. This is the lowering entry
    /// point; it lives here, not on [`ModelIr`], because the runtime
    /// depends on `homunculus-backends` (the IR's home), not the other
    /// way around.
    ///
    /// # Errors
    ///
    /// - [`RuntimeError::MissingParams`] when the IR is shape-only.
    /// - [`RuntimeError::InvalidModel`] for inconsistent IRs.
    pub fn from_ir(ir: &ModelIr, format: FixedPoint) -> Result<Self> {
        CompiledPipeline::from_ir_shared(ir, format, &LutCache::new())
    }

    /// Like [`CompiledPipeline::from_ir`], but activation lookup tables
    /// are taken from (and installed into) `luts`, so many models lowered
    /// through one cache share one table per `(format, activation)` pair —
    /// the many-model-schedule path a [`crate::deploy::Deployment`] uses.
    ///
    /// # Errors
    ///
    /// - [`RuntimeError::MissingParams`] when the IR is shape-only.
    /// - [`RuntimeError::InvalidModel`] for inconsistent IRs.
    pub fn from_ir_shared(ir: &ModelIr, format: FixedPoint, luts: &LutCache) -> Result<Self> {
        CompiledPipeline::from_ir_inner(ir, format, luts, PackedFixed::new(format))
    }

    /// Lowers like [`CompiledPipeline::from_ir`] but forces scalar `i32`
    /// weight storage even when the format would pack — the reference
    /// tier every oracle compares the packed verdicts against, bit for
    /// bit on every input.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledPipeline::from_ir`].
    pub fn from_ir_scalar(ir: &ModelIr, format: FixedPoint) -> Result<Self> {
        CompiledPipeline::from_ir_inner(ir, format, &LutCache::new(), None)
    }

    fn from_ir_inner(
        ir: &ModelIr,
        format: FixedPoint,
        luts: &LutCache,
        packed: Option<PackedFixed>,
    ) -> Result<Self> {
        ir.validate()
            .map_err(|e| RuntimeError::InvalidModel(e.to_string()))?;
        match packed {
            Some(p) => Self::lower_on(ir, format, luts, p, |kernel| Lowered::Packed(p, kernel)),
            None => Self::lower_on(ir, format, luts, format, Lowered::Scalar),
        }
    }

    /// Lowers a validated IR onto `tier`'s storage.
    fn lower_on<T: Tier>(
        ir: &ModelIr,
        format: FixedPoint,
        luts: &LutCache,
        tier: T,
        wrap: impl FnOnce(Kernel<T>) -> Lowered,
    ) -> Result<Self> {
        let lane_fits = |ivs: &[Interval]| match T::LANE {
            Some(lane) => ivs.iter().all(|iv| iv.subset_of(lane)),
            None => true,
        };
        // Sound entry fact: quantization clamps every feature (finite or
        // not) into the format's raw range.
        let feature_iv = Interval::quantized(format);
        match ir {
            ModelIr::Dnn(dnn) => {
                let params = dnn.params.as_ref().ok_or_else(|| {
                    RuntimeError::MissingParams("dnn ir has no trained layers".into())
                })?;
                let dims = dnn.arch.layer_dims();
                if params.len() != dims.len() {
                    return Err(RuntimeError::InvalidModel(format!(
                        "dnn ir has {} trained layers but the architecture declares {}",
                        params.len(),
                        dims.len()
                    )));
                }
                let activation = ActKernel::build(format, dnn.arch.activation, luts);
                let last = params.len().saturating_sub(1);
                let mut layers = Vec::with_capacity(params.len());
                let mut facts = Vec::with_capacity(params.len());
                let mut x_iv = vec![feature_iv; dnn.arch.input_dim];
                // Quantized features are format raws, so they always fit
                // the lane the format packs into.
                let mut lane_in = true;
                // Rows of the next weight matrix: the features, then each
                // layer's padded output.
                let mut in_rows = dnn.arch.input_dim;
                for (li, (layer, (input, output))) in params.iter().zip(dims).enumerate() {
                    if layer.weights.shape() != (input, output) || layer.bias.len() != output {
                        return Err(RuntimeError::InvalidModel(format!(
                            "dnn layer shape {:?} disagrees with architecture ({input}, {output})",
                            layer.weights.shape()
                        )));
                    }
                    let qw = format.quantize_slice(layer.weights.as_slice());
                    let qb = format.quantize_slice(&layer.bias);
                    let kb = bounds::matvec_bound(format, &qw, &qb, &x_iv);
                    let post: Vec<Interval> = if li < last {
                        kb.out
                            .iter()
                            .map(|&iv| activation.output_interval(iv))
                            .collect()
                    } else {
                        kb.out.clone()
                    };
                    facts.push(KernelFact {
                        label: format!("dense layer {li}"),
                        certified: kb.certified,
                        lane_bounded_input: lane_in,
                        abs_bound: kb.abs_bound,
                        pre: kb.out,
                        post: post.clone(),
                    });
                    // Whole tiles: zero columns and zero bias past
                    // `output`, zero rows past `input`. Every product
                    // with a zero weight is 0, so the padding changes no
                    // real output's bits on any path.
                    let cols = output.next_multiple_of(T::TILE);
                    let mut padded = vec![0i32; in_rows * cols];
                    for (row, trained) in padded.chunks_exact_mut(cols).zip(qw.chunks_exact(output))
                    {
                        row[..output].copy_from_slice(trained);
                    }
                    let mut bias = qb;
                    bias.resize(cols, 0);
                    layers.push(DenseKernel {
                        weights: tier.lower(padded),
                        bias,
                        input,
                        output,
                        certified: kb.certified,
                        lane_bounded_input: lane_in,
                    });
                    lane_in = lane_fits(&post);
                    x_iv = post;
                    in_rows = cols;
                }
                let width = layers.iter().map(DenseKernel::cols).max().unwrap_or(0);
                Ok(CompiledPipeline {
                    format,
                    n_features: dnn.arch.input_dim,
                    n_classes: dnn.arch.output_dim,
                    width,
                    kernel: wrap(Kernel::Dnn { layers, activation }),
                    facts,
                })
            }
            ModelIr::Svm(svm) => {
                let (weights, biases) = svm.planes.as_ref().ok_or_else(|| {
                    RuntimeError::MissingParams("svm ir has no trained planes".into())
                })?;
                if weights.len() != biases.len()
                    || weights.iter().any(|w| w.len() != svm.n_features)
                {
                    return Err(RuntimeError::InvalidModel(
                        "svm planes disagree with feature count".into(),
                    ));
                }
                let expected_planes = if svm.n_classes == 2 { 1 } else { svm.n_classes };
                if weights.len() != expected_planes {
                    return Err(RuntimeError::InvalidModel(format!(
                        "svm ir has {} planes but {} classes need {}",
                        weights.len(),
                        svm.n_classes,
                        expected_planes
                    )));
                }
                let x_iv = vec![feature_iv; svm.n_features];
                let mut flat = Vec::with_capacity(weights.len() * svm.n_features);
                let mut qb = Vec::with_capacity(biases.len());
                let mut certified = true;
                let mut abs_bound = 0i64;
                let mut scores = Vec::with_capacity(weights.len());
                for (w, &b) in weights.iter().zip(biases) {
                    let qw = format.quantize_slice(w);
                    let qbias = format.quantize(b);
                    let kb = bounds::dot_bound(format, &qw, &x_iv);
                    // The certificate also covers the post-dot bias add:
                    // "certified" means no saturating op anywhere in the
                    // kernel can clamp.
                    let bias_clamps = i64::from(kb.out[0].lo) + i64::from(qbias)
                        < i64::from(i32::MIN)
                        || i64::from(kb.out[0].hi) + i64::from(qbias) > i64::from(i32::MAX);
                    certified &= kb.certified && !bias_clamps;
                    abs_bound = abs_bound.max(kb.abs_bound);
                    // saturating_add is monotone and identical in both
                    // tiers, so the score interval stays exact even if
                    // the add clamps.
                    scores.push(kb.out[0].saturating_add(qbias));
                    flat.extend_from_slice(&qw);
                    qb.push(qbias);
                }
                let facts = vec![KernelFact {
                    label: "svm planes".into(),
                    certified,
                    lane_bounded_input: true,
                    abs_bound,
                    pre: scores.clone(),
                    post: scores,
                }];
                let binary = svm.n_classes == 2 && qb.len() == 1;
                Ok(CompiledPipeline {
                    format,
                    n_features: svm.n_features,
                    n_classes: svm.n_classes,
                    width: qb.len().max(2),
                    kernel: wrap(Kernel::Svm {
                        planes: tier.lower(flat),
                        biases: qb,
                        binary,
                        certified,
                    }),
                    facts,
                })
            }
            ModelIr::KMeans(km) => {
                let centroids = km.centroids.as_ref().ok_or_else(|| {
                    RuntimeError::MissingParams("kmeans ir has no trained centroids".into())
                })?;
                if centroids.len() != km.k || centroids.iter().any(|c| c.len() != km.n_features) {
                    return Err(RuntimeError::InvalidModel(
                        "kmeans centroids disagree with (k, n_features)".into(),
                    ));
                }
                let x_iv = vec![feature_iv; km.n_features];
                let mut flat = Vec::with_capacity(km.k * km.n_features);
                let mut certified = true;
                let mut abs_bound = 0i64;
                let mut dists = Vec::with_capacity(km.k);
                for c in centroids {
                    let qc = format.quantize_slice(c);
                    let kb = bounds::squared_distance_bound(format, &qc, &x_iv);
                    certified &= kb.certified;
                    abs_bound = abs_bound.max(kb.abs_bound);
                    dists.push(kb.out[0]);
                    flat.extend_from_slice(&qc);
                }
                let facts = vec![KernelFact {
                    label: "kmeans distances".into(),
                    certified,
                    lane_bounded_input: true,
                    abs_bound,
                    pre: dists.clone(),
                    post: dists,
                }];
                Ok(CompiledPipeline {
                    format,
                    n_features: km.n_features,
                    n_classes: km.k,
                    width: km.k,
                    kernel: wrap(Kernel::KMeans {
                        centroids: tier.lower(flat),
                        certified,
                    }),
                    facts,
                })
            }
            ModelIr::Tree(tree) => {
                let (kernel, leaf_classes) = TreeKernel::lower([tree], format)?;
                // The declared class count wins over the leaf-derived one:
                // a depth-limited tree may never grow a leaf for some
                // class, but consumers sizing per-class tables still need
                // the full range.
                let n_classes = tree.n_classes.unwrap_or(0).max(leaf_classes).max(2);
                // A tree walk is comparisons only — no accumulator to
                // saturate; the fact records that triviality explicitly.
                let facts = vec![KernelFact {
                    label: "tree walk".into(),
                    certified: true,
                    lane_bounded_input: true,
                    abs_bound: 0,
                    pre: Vec::new(),
                    post: Vec::new(),
                }];
                Ok(CompiledPipeline {
                    format,
                    n_features: tree.n_features,
                    n_classes,
                    // One leaf class per row lives in the scratch ping buffer.
                    width: 1,
                    kernel: wrap(Kernel::Tree(kernel)),
                    facts,
                })
            }
            ModelIr::Forest(forest) => {
                let (kernel, leaf_classes) = TreeKernel::lower(&forest.trees, format)?;
                let n_classes = forest
                    .trees
                    .iter()
                    .filter_map(|tree| tree.n_classes)
                    .fold(forest.n_classes.max(2).max(leaf_classes), usize::max);
                // Vote counters are bounded by the number of trees.
                let n_trees = forest.trees.len();
                let votes = Interval {
                    lo: 0,
                    hi: n_trees as i32,
                };
                let facts = vec![KernelFact {
                    label: "forest votes".into(),
                    certified: true,
                    lane_bounded_input: true,
                    abs_bound: n_trees as i64,
                    pre: vec![votes; n_classes],
                    post: vec![votes; n_classes],
                }];
                Ok(CompiledPipeline {
                    format,
                    n_features: forest.n_features,
                    n_classes,
                    // The vote counters live in the scratch ping buffer.
                    width: n_classes,
                    kernel: wrap(Kernel::Forest(kernel)),
                    facts,
                })
            }
        }
    }

    /// The fixed-point format the pipeline executes in.
    pub fn format(&self) -> FixedPoint {
        self.format
    }

    /// Whether parameters are stored in packed `i16` lanes; `false` when
    /// the format is wider than 16 bits (or the pipeline was built with
    /// [`CompiledPipeline::from_ir_scalar`]) and the scalar `i32` tier
    /// runs instead.
    pub fn is_packed(&self) -> bool {
        matches!(self.kernel, Lowered::Packed(..))
    }

    /// Number of input features per packet.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of output classes (clusters for KMeans).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Per-stage interval-analysis facts derived at lowering: guaranteed
    /// value ranges and no-saturation certificates for every kernel
    /// stage (see [`KernelFact`]).
    pub fn kernel_facts(&self) -> &[KernelFact] {
        &self.facts
    }

    /// Whether *every* kernel stage carries a no-saturation certificate —
    /// the whole pipeline provably runs the re-orderable fast loops with
    /// exact (unsaturated) `i32` arithmetic for any input.
    pub fn saturation_certified(&self) -> bool {
        self.facts.iter().all(|f| f.certified)
    }

    /// Short lowercase family name of the lowered model.
    pub fn family(&self) -> &'static str {
        match &self.kernel {
            Lowered::Scalar(kernel) => kernel.family(),
            Lowered::Packed(_, kernel) => kernel.family(),
        }
    }

    /// Classifies one packet's feature vector on the integer path.
    ///
    /// Allocation-free after the first call on a given `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.n_features()`.
    pub fn classify(&self, features: &[f32], scratch: &mut Scratch) -> usize {
        assert_eq!(
            features.len(),
            self.n_features,
            "expected {} features, got {}",
            self.n_features,
            features.len()
        );
        let mut verdict = 0;
        self.classify_into(features, None, std::slice::from_mut(&mut verdict), scratch);
        verdict
    }

    /// Classifies the row-major feature block `values`, one row per slot
    /// of `out`, streaming the whole block through the kernels at once
    /// (the structure-of-arrays batch path). This is [`classify`] over
    /// more than one row — same walk, same verdicts. With `norm`, each
    /// value is normalized as it is quantized (see [`BlockNorm`]).
    ///
    /// [`classify`]: CompiledPipeline::classify
    pub(crate) fn classify_block(
        &self,
        values: &[f32],
        norm: Option<BlockNorm<'_>>,
        out: &mut [usize],
        scratch: &mut Scratch,
    ) {
        assert_eq!(
            values.len(),
            out.len() * self.n_features,
            "expected {} features per row",
            self.n_features
        );
        self.classify_into(values, norm, out, scratch);
    }

    /// Picks the tier, once, for [`classify`](CompiledPipeline::classify)
    /// and [`classify_block`](CompiledPipeline::classify_block).
    ///
    /// The walk below is `inline(always)` down to `decide` so that the
    /// per-row caller's `rows == 1` is a constant in it: without that the
    /// row loops and offsets cost every family 6–9 ns per packet.
    #[inline(always)]
    fn classify_into(
        &self,
        values: &[f32],
        norm: Option<BlockNorm<'_>>,
        out: &mut [usize],
        scratch: &mut Scratch,
    ) {
        let Scratch { qx, px, scores } = scratch;
        match &self.kernel {
            Lowered::Scalar(kernel) => {
                Tier::quantize(&self.format, values, norm, qx);
                self.classify_on(&self.format, kernel, qx, out, scores)
            }
            Lowered::Packed(p, kernel) => {
                Tier::quantize(p, values, norm, px);
                self.classify_on(p, kernel, px, out, scores)
            }
        }
    }

    /// Classifies the quantized block `x`, one row per slot of `out`.
    #[inline(always)]
    fn classify_on<T: Tier>(
        &self,
        tier: &T,
        kernel: &Kernel<T>,
        x: &T::Store,
        out: &mut [usize],
        bufs: &mut ScoreBufs,
    ) {
        let (raw, k) = self.raw_scores(tier, kernel, x, out.len(), bufs);
        for (verdict, scores) in out.iter_mut().zip(raw.chunks_exact(k)) {
            *verdict = decide(kernel, scores);
        }
    }

    /// Raw integer scores for `rows` quantized feature rows of `x`,
    /// row-major, with their per-row count: DNN logits, SVM plane scores,
    /// KMeans distances, a forest's per-class votes, a tree's leaf class.
    /// Both tiers produce the same bits.
    #[inline(always)]
    fn raw_scores<'s, T: Tier>(
        &self,
        tier: &T,
        kernel: &Kernel<T>,
        x: &T::Store,
        rows: usize,
        bufs: &'s mut ScoreBufs,
    ) -> (&'s [i32], usize) {
        let nf = self.n_features;
        match kernel {
            Kernel::Dnn { layers, activation } => {
                grow(&mut bufs.a, rows * self.width);
                grow(&mut bufs.b, rows * self.width);
                let logits = tier.dense_forward(layers, activation, x, rows, bufs);
                // The packed tier pads the output layer to whole tiles:
                // keep each row's logical logits, packed to the front.
                let (k, cols) = (self.n_classes, layers[layers.len() - 1].cols());
                if cols != k {
                    for r in 1..rows {
                        for c in 0..k {
                            logits[r * k + c] = logits[r * cols + c];
                        }
                    }
                }
                (&logits[..rows * k], k)
            }
            Kernel::Svm {
                planes,
                biases,
                certified,
                ..
            } => {
                let k = biases.len();
                grow(&mut bufs.a, rows * k);
                let out = &mut bufs.a[..rows * k];
                for r in 0..rows {
                    let row = T::row(x, r * nf, nf);
                    for (pi, &bias) in biases.iter().enumerate() {
                        let w = T::row(planes, pi * nf, nf);
                        out[r * k + pi] = tier.dot(w, row, *certified).saturating_add(bias);
                    }
                }
                (out, k)
            }
            Kernel::KMeans {
                centroids,
                certified,
            } => {
                let k = self.n_classes;
                grow(&mut bufs.a, rows * k);
                let out = &mut bufs.a[..rows * k];
                for r in 0..rows {
                    let row = T::row(x, r * nf, nf);
                    for i in 0..k {
                        let c = T::row(centroids, i * nf, nf);
                        out[r * k + i] = tier.squared_distance(c, row, *certified);
                    }
                }
                (out, k)
            }
            Kernel::Tree(tree) => {
                grow(&mut bufs.a, rows);
                let out = &mut bufs.a[..rows];
                tree.leaves(T::widened(x, &mut bufs.b), nf, out);
                (out, 1)
            }
            Kernel::Forest(trees) => {
                let k = self.n_classes;
                grow(&mut bufs.a, rows * k);
                let out = &mut bufs.a[..rows * k];
                out.fill(0);
                trees.vote(T::widened(x, &mut bufs.b), nf, out, k);
                (out, k)
            }
        }
    }

    /// Dequantized decision scores for one packet (argmax = predicted
    /// class), or `None` for decision trees and random forests, whose
    /// verdicts are not score-shaped.
    ///
    /// For binary SVMs the scores are `[-s, s]` around the single
    /// hyperplane score `s`; for KMeans they are negated distances.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.n_features()`.
    pub fn scores(&self, features: &[f32], scratch: &mut Scratch) -> Option<Vec<f32>> {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let Scratch { qx, px, scores } = scratch;
        match &self.kernel {
            Lowered::Scalar(kernel) => self.scores_on(&self.format, kernel, features, qx, scores),
            Lowered::Packed(p, kernel) => self.scores_on(p, kernel, features, px, scores),
        }
    }

    fn scores_on<T: Tier>(
        &self,
        tier: &T,
        kernel: &Kernel<T>,
        features: &[f32],
        x: &mut T::Store,
        bufs: &mut ScoreBufs,
    ) -> Option<Vec<f32>> {
        // Votes and leaf classes are raw scores to `decide`, not to callers.
        if matches!(kernel, Kernel::Tree(_) | Kernel::Forest(_)) {
            return None;
        }
        tier.quantize(features, None, x);
        let (raw, _) = self.raw_scores(tier, kernel, x, 1, bufs);
        Some(match kernel {
            Kernel::Svm { binary: true, .. } => {
                let s = self.format.dequantize(raw[0]);
                // A raw score of exactly zero classifies as class 1
                // (the float SVM's `>= 0` rule); nudge the class-1
                // score so first-max-wins argmax agrees with
                // classify() on that tie.
                vec![-s, if raw[0] == 0 { f32::MIN_POSITIVE } else { s }]
            }
            Kernel::KMeans { .. } => raw.iter().map(|&r| -self.format.dequantize(r)).collect(),
            _ => raw.iter().map(|&r| self.format.dequantize(r)).collect(),
        })
    }

    /// Worst-case deviation between this pipeline's decision scores and
    /// the float reference model's, for inputs bounded by `input_bound`
    /// in absolute value — derived from the format's
    /// [`max_error`](FixedPoint::max_error) and the lowered weights.
    ///
    /// Returns `None` for decision trees and forests (their disagreement
    /// criterion is a threshold-margin walk, not a score distance). The
    /// bound assumes no accumulator saturation, which holds for
    /// normalized inputs and trained-scale weights.
    pub fn score_tolerance(&self, input_bound: f32) -> Option<f32> {
        match &self.kernel {
            Lowered::Scalar(kernel) => self.tolerance_on(kernel, input_bound),
            Lowered::Packed(_, kernel) => self.tolerance_on(kernel, input_bound),
        }
    }

    fn tolerance_on<T: Tier>(&self, kernel: &Kernel<T>, input_bound: f32) -> Option<f32> {
        let eq = self.format.max_error();
        let step = 1.0 / self.format.scale();
        match kernel {
            Kernel::Dnn { layers, activation } => {
                let mut err = eq;
                let mut bound = input_bound;
                let last = layers.len() - 1;
                for (li, layer) in layers.iter().enumerate() {
                    let (err_out, bound_out) = dense_bound(self.format, layer, err, bound);
                    err = err_out;
                    bound = bound_out;
                    if li < last {
                        let (act_err, lipschitz) = activation.error_terms(self.format);
                        err = lipschitz * err + act_err;
                        if matches!(activation, ActKernel::Lut { .. }) {
                            bound = 1.0 + eq;
                        }
                    }
                }
                Some(err)
            }
            Kernel::Svm { planes, biases, .. } => {
                let nf = self.n_features;
                let planes = T::row(planes, 0, biases.len() * nf);
                let err = (0..biases.len())
                    .map(|pi| {
                        let mut e = eq; // bias quantization
                        for f in 0..nf {
                            let wa = self.format.dequantize(T::get(planes, pi * nf + f)).abs();
                            e += input_bound * eq + (wa + 2.0 * eq) * eq + step;
                        }
                        e
                    })
                    .fold(0.0f32, f32::max);
                Some(err)
            }
            Kernel::KMeans { centroids, .. } => {
                let d = self.n_features as f32;
                let len = self.n_classes * self.n_features;
                let centroids = T::row(centroids, 0, len);
                let bound = input_bound.max(
                    (0..len)
                        .map(|i| self.format.dequantize(T::get(centroids, i)).abs())
                        .fold(0.0, f32::max),
                );
                // Per dimension: |(x̂-ĉ)² - (x-c)²| ≤ (|x̂-ĉ| + |x-c|)·|(x̂-x)-(ĉ-c)|
                // with |x-c| ≤ 2·bound and each rounding error ≤ eq.
                Some(d * ((4.0 * bound + 2.0 * eq) * 2.0 * eq + step))
            }
            Kernel::Tree(_) | Kernel::Forest(_) => None,
        }
    }

    /// Replays one packet through the exact scalar semantics, recording
    /// every intermediate value and whether any saturating operation
    /// actually clamped. This is the oracle the interval analyzer is
    /// validated against: each recorded stage must lie inside the
    /// corresponding [`KernelFact`] interval, and a `certified` fact must
    /// never observe `saturated`. Not a hot path — allocates freely.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.n_features()`.
    pub fn trace(&self, features: &[f32]) -> PipelineTrace {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        match &self.kernel {
            Lowered::Scalar(kernel) => self.trace_on(kernel, features),
            Lowered::Packed(_, kernel) => self.trace_on(kernel, features),
        }
    }

    fn trace_on<T: Tier>(&self, kernel: &Kernel<T>, features: &[f32]) -> PipelineTrace {
        let qx: Vec<i32> = features.iter().map(|&v| self.format.quantize(v)).collect();
        let mut stages = vec![TraceStage {
            label: "quantized features".into(),
            values: qx.clone(),
        }];
        let mut saturated = false;
        let verdict = match kernel {
            Kernel::Dnn { layers, activation } => {
                let last = layers.len().saturating_sub(1);
                let mut x = qx;
                for (li, layer) in layers.iter().enumerate() {
                    let mut out = vec![0i32; layer.output];
                    matvec_trace(self.format, layer, &x, &mut out, &mut saturated);
                    stages.push(TraceStage {
                        label: format!("dense layer {li} pre-activation"),
                        values: out.clone(),
                    });
                    if li < last {
                        for v in &mut out {
                            *v = activation.apply(*v);
                        }
                        stages.push(TraceStage {
                            label: format!("dense layer {li} activation"),
                            values: out.clone(),
                        });
                    }
                    x = out;
                }
                argmax_i32(&x)
            }
            Kernel::Svm {
                planes,
                biases,
                binary,
                ..
            } => {
                let nf = self.n_features;
                let planes = T::row(planes, 0, biases.len() * nf);
                let scores: Vec<i32> = biases
                    .iter()
                    .enumerate()
                    .map(|(pi, &b)| {
                        let mut acc = 0i32;
                        for (k, &xv) in qx.iter().enumerate() {
                            let t = fixed_mul_detect(
                                self.format,
                                T::get(planes, pi * nf + k),
                                xv,
                                &mut saturated,
                            );
                            acc = sat_add_detect(acc, t, &mut saturated);
                        }
                        sat_add_detect(acc, b, &mut saturated)
                    })
                    .collect();
                let verdict = if *binary {
                    usize::from(scores[0] >= 0)
                } else {
                    argmax_i32(&scores)
                };
                stages.push(TraceStage {
                    label: "svm scores".into(),
                    values: scores,
                });
                verdict
            }
            Kernel::KMeans { centroids, .. } => {
                let nf = self.n_features;
                let centroids = T::row(centroids, 0, self.n_classes * nf);
                let dists: Vec<i32> = (0..self.n_classes)
                    .map(|i| {
                        let mut acc = 0i32;
                        for (k, &xv) in qx.iter().enumerate() {
                            let c = T::get(centroids, i * nf + k);
                            let d = xv.saturating_sub(c);
                            if i64::from(d) != i64::from(xv) - i64::from(c) {
                                saturated = true;
                            }
                            let t = fixed_mul_detect(self.format, d, d, &mut saturated);
                            acc = sat_add_detect(acc, t, &mut saturated);
                        }
                        acc
                    })
                    .collect();
                let mut best = 0usize;
                for (i, &d) in dists.iter().enumerate() {
                    if d < dists[best] {
                        best = i;
                    }
                }
                stages.push(TraceStage {
                    label: "kmeans distances".into(),
                    values: dists,
                });
                best
            }
            Kernel::Tree(tree) => tree.leaf_class(tree.roots[0], &qx),
            Kernel::Forest(trees) => {
                let mut votes = vec![0i32; self.n_classes];
                for &root in &trees.roots {
                    votes[trees.leaf_class(root, &qx)] += 1;
                }
                let verdict = argmax_i32(&votes);
                stages.push(TraceStage {
                    label: "forest votes".into(),
                    values: votes,
                });
                verdict
            }
        };
        PipelineTrace {
            stages,
            saturated,
            verdict,
        }
    }
}

/// One recorded intermediate stage of a [`CompiledPipeline::trace`]
/// replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStage {
    /// Stage label, aligned with the [`KernelFact`] labels where a fact
    /// exists for the stage.
    pub label: String,
    /// The exact intermediate values the scalar semantics produced.
    pub values: Vec<i32>,
}

/// Result of [`CompiledPipeline::trace`]: the recorded intermediates,
/// whether any saturating operation clamped, and the verdict (identical
/// to [`CompiledPipeline::classify`] on the same features).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    /// Recorded intermediate stages, in execution order.
    pub stages: Vec<TraceStage>,
    /// Whether any saturating multiply/add/sub actually clamped.
    pub saturated: bool,
    /// The classification verdict.
    pub verdict: usize,
}

/// `fixed_mul` that also reports whether the product clamped.
fn fixed_mul_detect(format: FixedPoint, a: i32, b: i32, saturated: &mut bool) -> i32 {
    let r = format.fixed_mul(a, b);
    if i64::from(r) != (i64::from(a) * i64::from(b)) >> format.frac_bits() {
        *saturated = true;
    }
    r
}

/// `saturating_add` that also reports whether the sum clamped.
fn sat_add_detect(acc: i32, term: i32, saturated: &mut bool) -> i32 {
    let r = acc.saturating_add(term);
    if i64::from(r) != i64::from(acc) + i64::from(term) {
        *saturated = true;
    }
    r
}

/// Element-order-exact replay of [`FixedPoint::fixed_matvec`] off either
/// storage tier, with saturation detection.
fn matvec_trace<T: Tier>(
    format: FixedPoint,
    layer: &DenseKernel<T>,
    x: &[i32],
    out: &mut [i32],
    saturated: &mut bool,
) {
    out.copy_from_slice(&layer.bias[..layer.output]);
    for (k, &xv) in x.iter().enumerate() {
        if xv == 0 {
            continue;
        }
        for (j, o) in out.iter_mut().enumerate() {
            let w = layer.weight(k, j);
            let t = fixed_mul_detect(format, xv, w, saturated);
            *o = sat_add_detect(*o, t, saturated);
        }
    }
}

/// Error/bound propagation through one dense layer: returns the
/// worst-case output-score error and output magnitude bound given the
/// input error and magnitude bound.
fn dense_bound<T: Tier>(
    format: FixedPoint,
    layer: &DenseKernel<T>,
    err_in: f32,
    bound_in: f32,
) -> (f32, f32) {
    let eq = format.max_error();
    let step = 1.0 / format.scale();
    let mut worst_err = 0.0f32;
    let mut worst_bound = 0.0f32;
    for j in 0..layer.output {
        let mut err = eq; // bias quantization
        let mut bound = format.dequantize(layer.bias[j]).abs() + eq;
        for k in 0..layer.input {
            let w = format.dequantize(layer.weight(k, j)).abs();
            err += bound_in * eq + (w + 2.0 * eq) * err_in + step;
            bound += w * bound_in;
        }
        worst_err = worst_err.max(err);
        worst_bound = worst_bound.max(bound + err);
    }
    (worst_err, worst_bound)
}

/// Index of the maximum raw value (first max wins, matching
/// [`homunculus_ml::tensor::argmax`]).
fn argmax_i32(values: &[i32]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum raw value (first min wins, matching the float
/// KMeans assignment).
fn argmin_i32(values: &[i32]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v < values[best] {
            best = i;
        }
    }
    best
}

/// The verdict for one row from its raw scores.
#[inline(always)]
fn decide<T: Tier>(kernel: &Kernel<T>, raw: &[i32]) -> usize {
    match kernel {
        // The float SVM's rule: a score of exactly zero is class 1.
        Kernel::Svm { binary: true, .. } => usize::from(raw[0] >= 0),
        Kernel::KMeans { .. } => argmin_i32(raw),
        Kernel::Tree(_) => raw[0] as usize,
        Kernel::Dnn { .. } | Kernel::Svm { .. } | Kernel::Forest(_) => argmax_i32(raw),
    }
}

/// Convenience: classify every row of a feature matrix on one thread.
///
/// See [`crate::batch`] for the multi-worker variant.
pub fn classify_rows(pipeline: &CompiledPipeline, x: &Matrix) -> Vec<usize> {
    let mut scratch = Scratch::new();
    x.iter_rows()
        .map(|row| pipeline.classify(row, &mut scratch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_backends::model::{DnnIr, ForestIr, KMeansIr, LayerParams, SvmIr, TreeIr};
    use homunculus_ml::forest::{ForestConfig, RandomForestClassifier};
    use homunculus_ml::kmeans::{KMeans, KMeansConfig};
    use homunculus_ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
    use homunculus_ml::svm::{LinearSvm, SvmConfig};
    use homunculus_ml::tree::{DecisionTreeClassifier, TreeConfig};
    use std::collections::HashSet;

    fn q() -> FixedPoint {
        FixedPoint::taurus_default()
    }

    fn separable(n: usize) -> (Matrix, Vec<usize>) {
        let x = Matrix::from_fn(n, 4, |r, c| {
            let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
            sign * (0.8 + 0.1 * ((r * 7 + c * 3) % 5) as f32)
        });
        let y = (0..n).map(|r| r % 2).collect();
        (x, y)
    }

    #[test]
    fn dnn_pipeline_matches_float_predictions() {
        let (x, y) = separable(80);
        let arch = MlpArchitecture::new(4, vec![8], 2);
        let mut net = Mlp::new(&arch, 3).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(60))
            .unwrap();
        let ir = ModelIr::Dnn(DnnIr::from_mlp(&net));
        let pipeline = CompiledPipeline::from_ir(&ir, q()).unwrap();
        assert_eq!(pipeline.family(), "dnn");
        assert_eq!(pipeline.n_features(), 4);
        let float = net.predict(&x).unwrap();
        let fixed = classify_rows(&pipeline, &x);
        let agree = float.iter().zip(&fixed).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 / x.rows() as f64 > 0.95,
            "agreement {agree}/{}",
            x.rows()
        );
    }

    #[test]
    fn dnn_lut_activations_stay_close_to_float() {
        for activation in [Activation::Sigmoid, Activation::Tanh] {
            let arch = MlpArchitecture::new(3, vec![6], 2).with_activation(activation);
            let net = Mlp::new(&arch, 11).unwrap();
            let ir = ModelIr::Dnn(DnnIr::from_mlp(&net));
            let pipeline = CompiledPipeline::from_ir(&ir, q()).unwrap();
            let tol = pipeline.score_tolerance(2.0).unwrap();
            let mut scratch = Scratch::new();
            for seed in 0..20 {
                let features: Vec<f32> = (0..3)
                    .map(|c| ((seed * 13 + c * 7) % 17) as f32 / 17.0 * 3.0 - 1.5)
                    .collect();
                let fixed = pipeline.scores(&features, &mut scratch).unwrap();
                let float = net.logits_row(&features).unwrap();
                for (f, g) in float.iter().zip(&fixed) {
                    assert!(
                        (f - g).abs() <= tol,
                        "{activation:?}: float {f} fixed {g} tol {tol}"
                    );
                }
            }
        }
    }

    #[test]
    fn dnn_scores_within_tolerance_of_float_logits() {
        let (x, y) = separable(60);
        let arch = MlpArchitecture::new(4, vec![6, 4], 2);
        let mut net = Mlp::new(&arch, 5).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(40))
            .unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Dnn(DnnIr::from_mlp(&net)), q()).unwrap();
        let tol = pipeline.score_tolerance(2.0).unwrap();
        assert!(tol > 0.0 && tol < 1.0, "tolerance {tol}");
        let mut scratch = Scratch::new();
        for row in x.iter_rows().take(30) {
            let fixed = pipeline.scores(row, &mut scratch).unwrap();
            let float = net.logits_row(row).unwrap();
            for (f, g) in float.iter().zip(&fixed) {
                assert!((f - g).abs() <= tol, "float {f} fixed {g} tol {tol}");
            }
        }
    }

    #[test]
    fn svm_pipeline_matches_float() {
        let (x, y) = separable(60);
        let svm = LinearSvm::fit(&x, &y, 2, &SvmConfig::default()).unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Svm(SvmIr::from_svm(&svm)), q()).unwrap();
        assert_eq!(pipeline.family(), "svm");
        let float = svm.predict(&x).unwrap();
        let fixed = classify_rows(&pipeline, &x);
        let tol = pipeline.score_tolerance(2.0).unwrap();
        for (i, row) in x.iter_rows().enumerate() {
            if float[i] != fixed[i] {
                // Disagreements are only legal inside the tolerance band.
                let margin = svm.decision_row(row).unwrap()[0].abs();
                assert!(margin <= tol, "margin {margin} > tol {tol}");
            }
        }
    }

    #[test]
    fn multiclass_svm_compiles_and_classifies() {
        let x = Matrix::from_fn(90, 2, |r, c| {
            let cluster = r % 3;
            cluster as f32 * 3.0 + if c == 0 { 0.0 } else { 0.3 }
        });
        let y: Vec<usize> = (0..90).map(|r| r % 3).collect();
        let svm = LinearSvm::fit(&x, &y, 3, &SvmConfig::default().epochs(60)).unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Svm(SvmIr::from_svm(&svm)), q()).unwrap();
        assert_eq!(pipeline.n_classes(), 3);
        let float = svm.predict(&x).unwrap();
        let fixed = classify_rows(&pipeline, &x);
        let agree = float.iter().zip(&fixed).filter(|(a, b)| a == b).count();
        assert!(agree >= 85, "agreement {agree}/90");
    }

    #[test]
    fn kmeans_pipeline_matches_float_assignments() {
        let x = Matrix::from_fn(60, 2, |r, _| (r % 3) as f32 * 4.0 + 0.1);
        let model = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::KMeans(KMeansIr::from_kmeans(&model, 2)), q())
                .unwrap();
        assert_eq!(pipeline.family(), "kmeans");
        assert_eq!(pipeline.n_classes(), 3);
        assert_eq!(classify_rows(&pipeline, &x), model.predict(&x));
    }

    #[test]
    fn tree_pipeline_matches_float_walk() {
        // Stay inside Q3.12's representable range with margins far above
        // the quantization step, so float and fixed walks agree exactly.
        let x = Matrix::from_fn(40, 2, |r, c| (r * 2 + c) as f32 * 0.05);
        let y: Vec<usize> = (0..40).map(|r| usize::from(r >= 20)).collect();
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Tree(TreeIr::from_tree(&tree)), q()).unwrap();
        assert_eq!(pipeline.family(), "decision_tree");
        assert!(pipeline.score_tolerance(2.0).is_none());
        assert_eq!(classify_rows(&pipeline, &x), tree.predict(&x));
    }

    #[test]
    fn forest_pipeline_votes_like_the_float_forest() {
        let (x, y) = separable(80);
        let config = ForestConfig {
            n_trees: 9,
            ..ForestConfig::default()
        };
        let forest = RandomForestClassifier::fit(&x, &y, 2, &config).unwrap();
        let ir = ModelIr::Forest(ForestIr::from_forest(&forest));
        let pipeline = CompiledPipeline::from_ir(&ir, q()).unwrap();
        assert_eq!(pipeline.family(), "random_forest");
        assert_eq!(pipeline.n_classes(), 2);
        assert!(pipeline.score_tolerance(2.0).is_none());
        assert!(pipeline.scores(x.row(0), &mut Scratch::new()).is_none());
        let float = forest.predict(&x);
        let fixed = classify_rows(&pipeline, &x);
        let agree = float.iter().zip(&fixed).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 / x.rows() as f64 >= 0.99,
            "agreement {agree}/{}",
            x.rows()
        );
    }

    #[test]
    fn packed_and_scalar_tiers_agree_bit_for_bit() {
        let (x, y) = separable(60);
        let arch = MlpArchitecture::new(4, vec![8, 4], 2);
        let mut net = Mlp::new(&arch, 7).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(40))
            .unwrap();
        let svm = LinearSvm::fit(&x, &y, 2, &SvmConfig::default()).unwrap();
        let km = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        let forest = RandomForestClassifier::fit(&x, &y, 2, &ForestConfig::default()).unwrap();
        let irs = [
            ModelIr::Dnn(DnnIr::from_mlp(&net)),
            ModelIr::Svm(SvmIr::from_svm(&svm)),
            ModelIr::KMeans(KMeansIr::from_kmeans(&km, 4)),
            ModelIr::Tree(TreeIr::from_tree(&tree)),
            ModelIr::Forest(ForestIr::from_forest(&forest)),
        ];
        for ir in &irs {
            assert_tiers_agree(ir, q(), &x);
        }
    }

    /// Holds `ir`'s packed pipeline in `format` to its scalar reference,
    /// bit for bit, on the rows of `x`: `classify_batch` over prefixes of
    /// 1, 31, 32, 33 and 70 rows (a partial, a full and a split block),
    /// and `classify` and `scores` on every row.
    fn assert_tiers_agree(ir: &ModelIr, format: FixedPoint, x: &Matrix) {
        let packed = CompiledPipeline::from_ir(ir, format).unwrap();
        let scalar = CompiledPipeline::from_ir_scalar(ir, format).unwrap();
        assert!(packed.is_packed(), "{}", ir.family());
        assert!(!scalar.is_packed(), "{}", ir.family());
        let reference = classify_rows(&scalar, x);
        for rows in [1, 31, 32, 33, 70].map(|n: usize| n.min(x.rows())) {
            let prefix =
                Matrix::from_vec(rows, x.cols(), x.as_slice()[..rows * x.cols()].to_vec()).unwrap();
            assert_eq!(
                packed.classify_batch(&prefix, 1),
                reference[..rows],
                "{} batch verdicts diverge over {rows} rows",
                ir.family()
            );
        }
        let mut sp = Scratch::new();
        let mut ss = Scratch::new();
        for (row, &want) in x.iter_rows().zip(&reference) {
            assert_eq!(
                packed.classify(row, &mut sp),
                want,
                "{} verdicts diverge",
                ir.family()
            );
            assert_eq!(
                packed.scores(row, &mut sp),
                scalar.scores(row, &mut ss),
                "{} scores diverge",
                ir.family()
            );
        }
    }

    /// Random dense nets for the tier proptest: 1–3 hidden layers, every
    /// width 1..=20 with 7, 8, 9 and 16 (one tile, either side of it,
    /// two) drawn often, all four activations, Q3.12 or the 8-bit Q2.5,
    /// and 70 feature rows. Half the nets have their weights and biases
    /// scaled ×24 (saturating the format), so ReLU outputs leave the lane
    /// and deeper layers lose their no-saturation certificate.
    struct AnyDnn;

    impl proptest::Strategy for AnyDnn {
        type Value = (ModelIr, FixedPoint, Matrix);

        fn sample(&self, rng: &mut rand::rngs::StdRng) -> Self::Value {
            use rand::Rng;
            let width = |rng: &mut rand::rngs::StdRng| {
                if rng.gen_bool(0.5) {
                    [7, 8, 9, 16][rng.gen_range(0..4usize)]
                } else {
                    rng.gen_range(1..=20usize)
                }
            };
            let input = width(rng);
            let hidden = (0..rng.gen_range(1..=3)).map(|_| width(rng)).collect();
            let output = width(rng).max(2);
            let activation = [
                Activation::Relu,
                Activation::Linear,
                Activation::Sigmoid,
                Activation::Tanh,
            ][rng.gen_range(0..4usize)];
            let format = if rng.gen_bool(0.5) {
                q()
            } else {
                FixedPoint::new(2, 5).unwrap()
            };
            let scale = if rng.gen_bool(0.5) { 24.0f32 } else { 1.0 };
            let arch = MlpArchitecture::new(input, hidden, output).with_activation(activation);
            let params = arch
                .layer_dims()
                .into_iter()
                .map(|(i, o)| LayerParams {
                    weights: Matrix::from_fn(i, o, |_, _| rng.gen_range(-scale..scale)),
                    bias: (0..o).map(|_| rng.gen_range(-scale..scale)).collect(),
                })
                .collect();
            let x = Matrix::from_fn(70, input, |_, _| rng.gen_range(-6.0f32..6.0));
            let ir = ModelIr::Dnn(DnnIr {
                arch,
                params: Some(params),
            });
            (ir, format, x)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn prop_random_dnns_packed_and_scalar_tiers_agree_bit_for_bit(case in AnyDnn) {
            let (ir, format, x) = case;
            assert_tiers_agree(&ir, format, &x);
        }
    }

    #[test]
    fn random_dnns_reach_every_dense_path() {
        // The proptest above is only as strong as the paths its nets reach:
        // the fused tile for every activation, the i32 fallback of a layer
        // whose ReLU outputs may leave the lane, and uncertified layers.
        use proptest::Strategy;
        let mut rng =
            proptest::rng_for_test("prop_random_dnns_packed_and_scalar_tiers_agree_bit_for_bit");
        let (mut uncertified, mut off_lane, mut activations) = (0, 0, HashSet::new());
        for _ in 0..96 {
            let (ir, format, _) = AnyDnn.sample(&mut rng);
            let packed = CompiledPipeline::from_ir(&ir, format).unwrap();
            let facts = packed.kernel_facts();
            uncertified += usize::from(facts.iter().any(|f| !f.certified));
            off_lane += usize::from(facts.iter().any(|f| !f.lane_bounded_input));
            if let ModelIr::Dnn(dnn) = &ir {
                activations.insert(format!("{:?}", dnn.arch.activation));
            }
        }
        assert!(
            uncertified >= 5,
            "{uncertified} nets with an uncertified layer"
        );
        assert!(
            off_lane >= 5,
            "{off_lane} nets with activations off the lane"
        );
        assert_eq!(activations.len(), 4, "{activations:?}");
    }

    #[test]
    fn sigmoid_dnn_packed_tier_matches_scalar() {
        // LUT activations exercise the statically-bounded repack path.
        let arch = MlpArchitecture::new(3, vec![6, 5], 2).with_activation(Activation::Sigmoid);
        let net = Mlp::new(&arch, 21).unwrap();
        let ir = ModelIr::Dnn(DnnIr::from_mlp(&net));
        let packed = CompiledPipeline::from_ir(&ir, q()).unwrap();
        let scalar = CompiledPipeline::from_ir_scalar(&ir, q()).unwrap();
        let x = Matrix::from_fn(50, 3, |r, c| {
            ((r * 5 + c * 3) % 13) as f32 / 13.0 * 4.0 - 2.0
        });
        assert_eq!(classify_rows(&packed, &x), classify_rows(&scalar, &x));
    }

    #[test]
    fn wide_formats_fall_back_to_the_scalar_tier() {
        // 14 + 16 + sign = 31 total bits: wider than the i16 lane, so
        // lowering keeps i32 storage and classify still works.
        let wide = FixedPoint::new(14, 16).unwrap();
        let (x, y) = separable(30);
        let svm = LinearSvm::fit(&x, &y, 2, &SvmConfig::default()).unwrap();
        let ir = ModelIr::Svm(SvmIr::from_svm(&svm));
        let pipeline = CompiledPipeline::from_ir(&ir, wide).unwrap();
        assert!(!pipeline.is_packed());
        let narrow = CompiledPipeline::from_ir(&ir, q()).unwrap();
        assert!(narrow.is_packed());
        // Verdicts come from different formats so only check they run.
        assert_eq!(classify_rows(&pipeline, &x).len(), x.rows());
    }

    #[test]
    fn eight_bit_format_hidden_activations_ride_the_i16_lane() {
        // Q2.5 raws are 8-bit, but a ReLU layer's outputs are sums of
        // products, not format raws: here they pass 127 (what a one-byte
        // lane held) and stay far below 32 767, so the second layer runs
        // `packed_matvec_block` on repacked activations, not the wide
        // replay. Both tiers and the independent trace must still agree.
        let fmt = FixedPoint::new(2, 5).unwrap();
        let arch = MlpArchitecture::new(4, vec![6], 3);
        let grid = [3.5f32, -3.25, 2.75, 3.0, -2.5, 3.75, -1.5];
        let params = vec![
            LayerParams {
                weights: Matrix::from_fn(4, 6, |r, c| grid[(r * 3 + c) % 7]),
                bias: vec![0.5, -0.25, 1.0, 0.0, -1.0, 0.75],
            },
            LayerParams {
                weights: Matrix::from_fn(6, 3, |r, c| grid[(r + c * 2) % 7] * 0.5),
                bias: vec![0.25, -0.5, 0.0],
            },
        ];
        let ir = ModelIr::Dnn(DnnIr {
            arch,
            params: Some(params),
        });
        let packed = CompiledPipeline::from_ir(&ir, fmt).unwrap();
        let scalar = CompiledPipeline::from_ir_scalar(&ir, fmt).unwrap();
        assert!(packed.is_packed() && !scalar.is_packed());
        // Lowering proved it: every input of the second layer fits a lane.
        assert!(packed.kernel_facts()[1].lane_bounded_input);

        let x = Matrix::from_fn(300, 4, |r, c| ((r * 11 + c * 7) % 41) as f32 * 0.2 - 4.1);
        let (mut sp, mut ss) = (Scratch::new(), Scratch::new());
        let mut beyond_a_byte = 0usize;
        let mut traced = Vec::with_capacity(x.rows());
        for row in x.iter_rows() {
            let trace = packed.trace(row);
            let hidden = &trace.stages[2];
            assert_eq!(hidden.label, "dense layer 0 activation");
            assert!(hidden.values.iter().all(|&v| v <= PackedFixed::LANE_MAX));
            beyond_a_byte += usize::from(hidden.values.iter().any(|&v| v > 127));
            let logits: Vec<f32> = trace.stages[3]
                .values
                .iter()
                .map(|&raw| fmt.dequantize(raw))
                .collect();
            assert_eq!(packed.scores(row, &mut sp).unwrap(), logits);
            assert_eq!(scalar.scores(row, &mut ss).unwrap(), logits);
            assert_eq!(packed.classify(row, &mut sp), trace.verdict);
            assert_eq!(scalar.classify(row, &mut ss), trace.verdict);
            traced.push(trace.verdict);
        }
        assert!(
            beyond_a_byte > 200,
            "{beyond_a_byte} rows left the byte range"
        );
        assert_eq!(packed.classify_batch(&x, 1), traced);
        for class in 0..3 {
            assert!(traced.contains(&class), "class {class} never wins");
        }
    }

    #[test]
    fn block_classify_matches_per_row_path() {
        let (x, y) = separable(77); // deliberately not a BLOCK_ROWS multiple
        let arch = MlpArchitecture::new(4, vec![8, 4], 2);
        let mut net = Mlp::new(&arch, 13).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(30))
            .unwrap();
        let km = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        let forest = RandomForestClassifier::fit(&x, &y, 2, &ForestConfig::default()).unwrap();
        let irs = [
            ModelIr::Dnn(DnnIr::from_mlp(&net)),
            ModelIr::KMeans(KMeansIr::from_kmeans(&km, 4)),
            ModelIr::Tree(TreeIr::from_tree(&tree)),
            ModelIr::Forest(ForestIr::from_forest(&forest)),
            uneven_forest(),
        ];
        for ir in &irs {
            for pipeline in [
                CompiledPipeline::from_ir(ir, q()).unwrap(),
                CompiledPipeline::from_ir_scalar(ir, q()).unwrap(),
            ] {
                let per_row = classify_rows(&pipeline, &x);
                // Blocks of every size around the lane width and the block
                // size: partial lane groups, a ninth row, a 33rd.
                for block_rows in [1, 7, 8, 9, 31, 32, 33] {
                    let mut bs = Scratch::new();
                    let mut out = vec![0usize; x.rows()];
                    for (block, out) in x
                        .as_slice()
                        .chunks(block_rows * x.cols())
                        .zip(out.chunks_mut(block_rows))
                    {
                        pipeline.classify_block(block, None, out, &mut bs);
                    }
                    assert_eq!(out, per_row, "{} x {block_rows}", ir.family());
                }
            }
        }
    }

    #[test]
    fn shape_only_irs_are_rejected() {
        let arch = MlpArchitecture::new(4, vec![8], 2);
        let cases = [
            ModelIr::Dnn(DnnIr::from_architecture(&arch)),
            ModelIr::Svm(SvmIr::from_shape(4, 2)),
            ModelIr::KMeans(KMeansIr::from_shape(3, 4)),
            ModelIr::Tree(TreeIr::from_shape(3, 4, 8)),
            ModelIr::Forest(ForestIr::from_shape(3, 2, 4, 4)),
        ];
        for ir in cases {
            assert!(
                matches!(
                    CompiledPipeline::from_ir(&ir, q()),
                    Err(RuntimeError::MissingParams(_))
                ),
                "{} should be rejected",
                ir.family()
            );
        }
    }

    #[test]
    fn degenerate_ir_rejected_as_invalid() {
        let ir = ModelIr::Svm(SvmIr::from_shape(0, 2));
        assert!(matches!(
            CompiledPipeline::from_ir(&ir, q()),
            Err(RuntimeError::InvalidModel(_))
        ));
        // Tree with a dangling child index.
        let bad = ModelIr::Tree(TreeIr {
            depth: 1,
            n_features: 2,
            leaves: 1,
            n_classes: None,
            nodes: Some(vec![TreeNodeIr::Split {
                feature: 0,
                threshold: 0.5,
                left: 7,
                right: 8,
            }]),
        });
        assert!(matches!(
            CompiledPipeline::from_ir(&bad, q()),
            Err(RuntimeError::InvalidModel(_))
        ));
    }

    #[test]
    fn tree_pipeline_reports_declared_class_count() {
        // 5 declared classes, but a depth-1 tree only grows leaves for
        // two of them: n_classes() must still report 5.
        let x = Matrix::from_fn(50, 1, |r, _| r as f32 * 0.1);
        let y: Vec<usize> = (0..50).map(|r| (r / 10).min(4)).collect();
        let tree =
            DecisionTreeClassifier::fit(&x, &y, 5, &TreeConfig::default().max_depth(1)).unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Tree(TreeIr::from_tree(&tree)), q()).unwrap();
        assert_eq!(pipeline.n_classes(), 5);
    }

    #[test]
    fn cyclic_tree_arena_rejected_instead_of_looping() {
        // Children that do not point strictly forward would make
        // classify() spin forever; lowering must refuse them.
        let cyclic = ModelIr::Tree(TreeIr {
            depth: 1,
            n_features: 2,
            leaves: 1,
            n_classes: None,
            nodes: Some(vec![
                TreeNodeIr::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 0,
                    right: 1,
                },
                TreeNodeIr::Leaf { class: 0 },
            ]),
        });
        assert!(matches!(
            CompiledPipeline::from_ir(&cyclic, q()),
            Err(RuntimeError::InvalidModel(_))
        ));
    }

    fn leaf(class: usize) -> TreeNodeIr {
        TreeNodeIr::Leaf { class }
    }

    fn split(feature: usize, threshold: f32, left: usize, right: usize) -> TreeNodeIr {
        TreeNodeIr::Split {
            feature,
            threshold,
            left,
            right,
        }
    }

    fn tree_ir(n_features: usize, nodes: Vec<TreeNodeIr>) -> TreeIr {
        TreeIr {
            depth: 1,
            n_features,
            leaves: 1,
            n_classes: None,
            nodes: Some(nodes),
        }
    }

    /// Nine 4-feature trees (a partial second lane group) of heights 0 to
    /// 3: a lone leaf, a stump, and a spine with a leaf at depth 1.
    fn uneven_forest() -> ModelIr {
        let spine = |feature| {
            vec![
                split(feature, 0.0, 1, 2),
                leaf(0),
                split((feature + 1) % 4, 0.85, 3, 4),
                leaf(1),
                split((feature + 2) % 4, 0.95, 5, 6),
                leaf(0),
                leaf(1),
            ]
        };
        let mut trees = vec![
            tree_ir(4, vec![leaf(1)]),
            tree_ir(4, vec![split(2, 0.0, 1, 2), leaf(0), leaf(1)]),
        ];
        trees.extend((0..7).map(|f| tree_ir(4, spine(f % 4))));
        ModelIr::Forest(ForestIr {
            n_features: 4,
            n_classes: 2,
            trees,
        })
    }

    #[test]
    fn tree_indices_that_do_not_fit_a_flat_node_are_rejected() {
        // Feature 70 000 is in range for the tree but not for the node's
        // 16-bit feature index: refused, not truncated to 4 464.
        let wide = 1 << 17;
        let nodes = vec![split(70_000, 0.5, 1, 2), leaf(0), leaf(1)];
        let too_wide = ModelIr::Tree(tree_ir(wide, nodes.clone()));
        assert!(matches!(
            CompiledPipeline::from_ir(&too_wide, q()),
            Err(RuntimeError::InvalidModel(_))
        ));
        let too_many_classes = ModelIr::Tree(tree_ir(2, vec![leaf(1 << 16)]));
        assert!(matches!(
            CompiledPipeline::from_ir(&too_many_classes, q()),
            Err(RuntimeError::InvalidModel(_))
        ));
        // The largest feature index that does fit is served.
        let mut nodes = nodes;
        nodes[0] = split(65_535, 0.5, 1, 2);
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Tree(tree_ir(wide, nodes)), q()).unwrap();
        let mut row = vec![0.0f32; wide];
        assert_eq!(pipeline.classify(&row, &mut Scratch::new()), 0);
        row[65_535] = 1.0;
        assert_eq!(pipeline.classify(&row, &mut Scratch::new()), 1);
    }

    #[test]
    fn single_leaf_tree_classifies_in_zero_steps() {
        let ir = ModelIr::Tree(tree_ir(3, vec![leaf(1)]));
        for pipeline in [
            CompiledPipeline::from_ir(&ir, q()).unwrap(),
            CompiledPipeline::from_ir_scalar(&ir, q()).unwrap(),
        ] {
            let x = Matrix::from_fn(9, 3, |r, c| (r + c) as f32 * 0.1);
            assert_eq!(classify_rows(&pipeline, &x), vec![1; 9]);
            assert_eq!(pipeline.classify_batch(&x, 1), vec![1; 9]);
            assert_eq!(pipeline.trace(x.row(0)).verdict, 1);
        }
    }

    #[test]
    fn forest_of_uneven_heights_walks_each_group_to_its_tallest_tree() {
        // In `uneven_forest` the lone leaf and the stump share a lane group
        // with height-3 spines and must sit on their leaves while the
        // spines finish; the ninth tree is a group of its own.
        let ir = uneven_forest();
        let x = Matrix::from_fn(64, 4, |r, c| ((r * 7 + c * 5) % 23) as f32 / 11.0 - 1.0);
        for pipeline in [
            CompiledPipeline::from_ir(&ir, q()).unwrap(),
            CompiledPipeline::from_ir_scalar(&ir, q()).unwrap(),
        ] {
            let traced: Vec<usize> = x.iter_rows().map(|r| pipeline.trace(r).verdict).collect();
            assert!(traced.contains(&0) && traced.contains(&1), "{traced:?}");
            assert_eq!(classify_rows(&pipeline, &x), traced);
            assert_eq!(pipeline.classify_batch(&x, 1), traced);
        }
    }

    #[test]
    fn truncated_dnn_params_rejected() {
        let arch = MlpArchitecture::new(4, vec![8], 2);
        let net = Mlp::new(&arch, 1).unwrap();
        let mut ir = DnnIr::from_mlp(&net);
        ir.params.as_mut().unwrap().pop(); // drop the output layer
        assert!(matches!(
            CompiledPipeline::from_ir(&ModelIr::Dnn(ir), q()),
            Err(RuntimeError::InvalidModel(_))
        ));
    }

    #[test]
    fn svm_plane_count_must_match_classes() {
        // 5 classes but only 2 trained planes: classify() could never
        // return classes 2..5, so lowering must refuse.
        let ir = ModelIr::Svm(SvmIr {
            n_features: 3,
            n_classes: 5,
            planes: Some((vec![vec![0.1; 3]; 2], vec![0.0; 2])),
        });
        assert!(matches!(
            CompiledPipeline::from_ir(&ir, q()),
            Err(RuntimeError::InvalidModel(_))
        ));
    }

    #[test]
    fn binary_svm_scores_argmax_agrees_with_classify_on_zero() {
        // All-zero weights and bias make the raw score exactly 0; the
        // float rule (`>= 0` => class 1) must hold on both APIs.
        let ir = ModelIr::Svm(SvmIr {
            n_features: 2,
            n_classes: 2,
            planes: Some((vec![vec![0.0, 0.0]], vec![0.0])),
        });
        let pipeline = CompiledPipeline::from_ir(&ir, q()).unwrap();
        let mut scratch = Scratch::new();
        let class = pipeline.classify(&[0.5, -0.5], &mut scratch);
        let scores = pipeline.scores(&[0.5, -0.5], &mut scratch).unwrap();
        assert_eq!(class, 1);
        let score_argmax = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(score_argmax, class);
    }

    #[test]
    fn classify_is_deterministic_and_reuses_scratch() {
        let (x, y) = separable(40);
        let arch = MlpArchitecture::new(4, vec![8, 4], 2);
        let mut net = Mlp::new(&arch, 9).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(30))
            .unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Dnn(DnnIr::from_mlp(&net)), q()).unwrap();
        let mut scratch = Scratch::new();
        let first: Vec<usize> = x
            .iter_rows()
            .map(|row| pipeline.classify(row, &mut scratch))
            .collect();
        let second: Vec<usize> = x
            .iter_rows()
            .map(|row| pipeline.classify(row, &mut scratch))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "expected 4 features")]
    fn classify_rejects_wrong_dimension() {
        let (x, y) = separable(20);
        let arch = MlpArchitecture::new(4, vec![4], 2);
        let mut net = Mlp::new(&arch, 1).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(5))
            .unwrap();
        let pipeline =
            CompiledPipeline::from_ir(&ModelIr::Dnn(DnnIr::from_mlp(&net)), q()).unwrap();
        pipeline.classify(&[1.0, 2.0], &mut Scratch::new());
    }
}
