//! Multi-layer perceptrons with mini-batch backpropagation.
//!
//! This is the DNN trainer the Homunculus optimization core invokes for every
//! Bayesian-optimization suggestion: the hyper-parameters explored by the
//! paper (number of layers, neurons per layer, learning rate, batch size —
//! §3.2.2) map directly onto [`MlpArchitecture`] and [`TrainConfig`].
//!
//! The forward pass of each layer is `activation(x·W + b)` — on a Taurus
//! switch this lowers to a nested map/reduce (dot products) over the CU grid,
//! and the layer dimensions decide the CU/MU resource bill (see
//! `homunculus-backends`).
//!
//! # Collapsed nets and subnormal arithmetic
//!
//! Some draws of the design space collapse in training: a deep ReLU
//! stack at a high learning rate ends with most parameters subnormal
//! (below 2^-126). A 7-25-13-6-3-2-2-2-2-2-5 net on IoT traffic
//! (learning rate 0.0087, batch 16, 30 epochs: the shape of one DOE draw
//! of the compile-time search) ends with 595 of its 690 parameters
//! subnormal. On x86 such values are slow to multiply (scalar, a 2-vCPU
//! Xeon):
//!
//! | `f32` operation | cost |
//! |---|---|
//! | multiply, divide or `sqrt` whose operand or result is subnormal | ~40 ns |
//! | the same operation on normal values | ~1.4 ns |
//! | add, compare, `f32`↔`f64` conversion, `0 × subnormal` | no extra cost |
//!
//! Flushing subnormals to zero would remove the cost and change the
//! trained bits. Instead, the two places where collapsed nets spent their
//! time take an exact path there: `Matrix::matmul`, the forward pass (see
//! its docs), and the Adam update of the weights. The exact path computes
//! in `f64`, where every `f32` is normal, and converts each result back,
//! which rounds it to the nearest `f32` (into the subnormal range too)
//! and costs nothing extra:
//!
//! - the `f64` product of two `f32`s is exact (24 + 24 ≤ 53 bits), so
//!   one rounding gives the native product;
//! - an `f64` quotient or square root is rounded twice, and double
//!   rounding is harmless when the wide precision is at least twice the
//!   narrow one plus two (53 ≥ 2·24 + 2).
//!
//! So each operation returns the native result bit for bit, and which
//! path an element takes decides only its speed. An Adam step sorts a
//! layer's elements only after a step that left more than an eighth of
//! its weights as nonzeros below 2^-63 (counted as that step wrote them,
//! so a healthy layer runs one loop without branches); then each element
//! whose gradient, weight or moments hold such a value takes the exact
//! path. With fewer, the branches of sorting cost more than the assists
//! they save: a healthy ReLU net's dead units leave a few such weights.
//! The same count tells the next forward pass when a layer's weights
//! hold none, which spares `Matrix::matmul` its scan of them. The
//! backward kernels stay native: exact paths there measured slower. The
//! weights of a collapsed and of a healthy net are pinned
//! by `golden_weights_of_a_collapsed_and_a_healthy_net`, whose hashes
//! were taken before the exact path existed, and the operations
//! themselves are compared with the native ones on every `f32` by an
//! ignored test that `make exhaustive` runs.

use crate::tensor::Matrix;
use crate::{exact, MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Hidden-layer activation functions supported by the data-plane templates.
///
/// The backend code generators have a template per variant (Figure 5 of the
/// paper lists "Activation func." as a library template), so this enum is
/// shared vocabulary between the trainer and the code generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`. Cheap on CGRA and FPGA fabrics.
    #[default]
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)`. Implemented via LUT on hardware.
    Sigmoid,
    /// Hyperbolic tangent. Implemented via LUT on hardware.
    Tanh,
    /// Identity (no non-linearity).
    Linear,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *activated output* `y`.
    ///
    /// All four variants admit this form, which lets backprop reuse the
    /// forward activations instead of caching pre-activations.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
        }
    }

    /// Short lowercase name used in generated code and reports.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Linear => "linear",
        }
    }

    /// The inverse of [`Activation::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "relu" => Some(Activation::Relu),
            "sigmoid" => Some(Activation::Sigmoid),
            "tanh" => Some(Activation::Tanh),
            "linear" => Some(Activation::Linear),
            _ => None,
        }
    }
}

/// The architecture of an MLP: input width, hidden widths, and output width.
///
/// # Example
///
/// ```
/// use homunculus_ml::mlp::MlpArchitecture;
///
/// let arch = MlpArchitecture::new(7, vec![16, 4], 2);
/// assert_eq!(arch.param_count(), 7 * 16 + 16 + 16 * 4 + 4 + 4 * 2 + 2);
/// assert_eq!(arch.layer_dims(), vec![(7, 16), (16, 4), (4, 2)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MlpArchitecture {
    /// Number of input features.
    pub input_dim: usize,
    /// Width of each hidden layer, in order.
    pub hidden: Vec<usize>,
    /// Number of output classes (softmax width).
    pub output_dim: usize,
    /// Activation applied to every hidden layer.
    pub activation: Activation,
}

/// JSON document form: `{"input_dim", "hidden": [..], "output_dim",
/// "activation": "relu"}`.
impl serde_json::ToJson for MlpArchitecture {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "input_dim": self.input_dim,
            "hidden": self.hidden,
            "output_dim": self.output_dim,
            "activation": self.activation.name(),
        })
    }
}

impl MlpArchitecture {
    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MlError::InvalidArgument`] on missing fields or an
    /// unknown activation name.
    pub fn from_json(value: &serde_json::Value) -> Result<Self> {
        use crate::MlError;
        let dim = |field: &str| {
            value[field]
                .as_i64()
                .filter(|&v| v >= 0)
                .map(|v| v as usize)
                .ok_or_else(|| MlError::InvalidArgument(format!("architecture needs {field}")))
        };
        let hidden = value["hidden"]
            .as_array()
            .ok_or_else(|| MlError::InvalidArgument("architecture needs a hidden array".into()))?
            .iter()
            .map(|v| {
                v.as_i64()
                    .filter(|&w| w >= 0)
                    .map(|w| w as usize)
                    .ok_or_else(|| {
                        MlError::InvalidArgument(
                            "hidden widths must be non-negative integers".into(),
                        )
                    })
            })
            .collect::<Result<Vec<usize>>>()?;
        let activation = value["activation"]
            .as_str()
            .and_then(Activation::from_name)
            .ok_or_else(|| MlError::InvalidArgument("unknown activation name".into()))?;
        Ok(MlpArchitecture {
            input_dim: dim("input_dim")?,
            hidden,
            output_dim: dim("output_dim")?,
            activation,
        })
    }

    /// Creates an architecture with the default ReLU hidden activation.
    pub fn new(input_dim: usize, hidden: Vec<usize>, output_dim: usize) -> Self {
        MlpArchitecture {
            input_dim,
            hidden,
            output_dim,
            activation: Activation::Relu,
        }
    }

    /// Sets the hidden activation, consuming and returning the architecture.
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// `(in, out)` dimensions of every weight matrix, input to output.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_dim;
        for &h in &self.hidden {
            dims.push((prev, h));
            prev = h;
        }
        dims.push((prev, self.output_dim));
        dims
    }

    /// Total number of trainable parameters (weights + biases).
    ///
    /// This is the "# NN Param" column of the paper's Table 2 and the main
    /// driver of the backend resource estimators.
    pub fn param_count(&self) -> usize {
        self.layer_dims().iter().map(|(i, o)| i * o + o).sum()
    }

    /// Number of weight layers (hidden layers + output layer).
    pub fn depth(&self) -> usize {
        self.hidden.len() + 1
    }

    /// Width of the widest layer (including input and output).
    pub fn max_width(&self) -> usize {
        self.hidden
            .iter()
            .copied()
            .chain([self.input_dim, self.output_dim])
            .max()
            .unwrap_or(0)
    }

    /// Validates that all dimensions are non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidArgument`] for zero-width layers.
    pub fn validate(&self) -> Result<()> {
        if self.input_dim == 0 || self.output_dim == 0 {
            return Err(MlError::InvalidArgument(
                "input and output dimensions must be non-zero".into(),
            ));
        }
        if self.hidden.contains(&0) {
            return Err(MlError::InvalidArgument(
                "hidden layers must have non-zero width".into(),
            ));
        }
        Ok(())
    }
}

/// Gradient-descent flavor used by [`Mlp::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optim {
    /// Plain SGD with optional momentum.
    Sgd {
        /// Momentum coefficient in `[0, 1)`; `0.0` disables momentum.
        momentum: f32,
    },
    /// Adam with the usual bias-corrected first/second moments.
    Adam {
        /// First-moment decay (typically `0.9`).
        beta1: f32,
        /// Second-moment decay (typically `0.999`).
        beta2: f32,
    },
}

impl Default for Optim {
    fn default() -> Self {
        Optim::Adam {
            beta1: 0.9,
            beta2: 0.999,
        }
    }
}

/// Training-loop hyper-parameters.
///
/// These are exactly the *training parameters* the paper's design space
/// exposes to Bayesian optimization (learning rate, batch size — §3.2.2),
/// plus an epoch budget and seed for reproducibility.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Step size.
    pub learning_rate: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    /// Optimizer flavor.
    pub optim: Optim,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            batch_size: 32,
            learning_rate: 0.01,
            weight_decay: 1e-4,
            optim: Optim::default(),
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Sets the epoch budget.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the optimizer flavor.
    pub fn optim(mut self, optim: Optim) -> Self {
        self.optim = optim;
        self
    }
}

/// One dense layer: weights `(in x out)`, bias `(out)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weight matrix, `input_dim x output_dim`.
    pub weights: Matrix,
    /// Bias vector, length `output_dim`.
    pub bias: Vec<f32>,
}

impl Dense {
    fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        // He initialization keeps ReLU nets trainable across the layer-count
        // range the design space explores (1..=10 hidden layers).
        let scale = (2.0 / input as f32).sqrt();
        let weights = Matrix::from_fn(input, output, |_, _| {
            // Box-Muller from two uniforms.
            let u1: f32 = rng.gen_range(1e-7..1.0f32);
            let u2: f32 = rng.gen_range(0.0..1.0f32);
            let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            n * scale
        });
        Dense {
            weights,
            bias: vec![0.0; output],
        }
    }

    /// Number of parameters in this layer.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// A trained (or trainable) multi-layer perceptron.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    arch: MlpArchitecture,
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates a freshly initialized network for `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidArgument`] if the architecture has
    /// zero-width layers.
    pub fn new(arch: &MlpArchitecture, seed: u64) -> Result<Self> {
        arch.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = arch
            .layer_dims()
            .into_iter()
            .map(|(i, o)| Dense::new(i, o, &mut rng))
            .collect();
        Ok(Mlp {
            arch: arch.clone(),
            layers,
        })
    }

    /// The architecture this network was built from.
    pub fn architecture(&self) -> &MlpArchitecture {
        &self.arch
    }

    /// Borrows the trained layers (weights and biases), input to output.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Replaces the network's parameters with externally-trained layers
    /// (e.g. weights recovered from a compiled model IR).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when the layer shapes disagree
    /// with the architecture.
    pub fn set_layers(&mut self, layers: Vec<Dense>) -> Result<()> {
        let dims = self.arch.layer_dims();
        if layers.len() != dims.len() {
            return Err(MlError::ShapeMismatch {
                op: "set_layers",
                left: (dims.len(), 0),
                right: (layers.len(), 0),
            });
        }
        for (layer, &(input, output)) in layers.iter().zip(&dims) {
            if layer.weights.shape() != (input, output) || layer.bias.len() != output {
                return Err(MlError::ShapeMismatch {
                    op: "set_layers",
                    left: (input, output),
                    right: layer.weights.shape(),
                });
            }
        }
        self.layers = layers;
        Ok(())
    }

    /// Builds a network directly from an architecture and trained layers.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] / [`MlError::InvalidArgument`]
    /// when shapes disagree.
    pub fn from_parts(arch: &MlpArchitecture, layers: Vec<Dense>) -> Result<Self> {
        let mut net = Mlp::new(arch, 0)?;
        net.set_layers(layers)?;
        Ok(net)
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass: hands each layer's output to `each` as it is computed
    /// and returns the last one (the class probabilities). Only the layer
    /// being computed is held, so a prediction over a large batch costs
    /// two layers of memory, not the whole network's. `tiny_free[i]`
    /// says that layer `i`'s weights hold no nonzero below 2^-63, which
    /// spares `Matrix::matmul` its scan of them; a missing entry is
    /// scanned.
    fn forward(
        &self,
        x: &Matrix,
        tiny_free: &[bool],
        mut each: impl FnMut(&Matrix),
    ) -> Result<Matrix> {
        let last = self.layers.len() - 1;
        let mut current: Option<Matrix> = None;
        for (idx, layer) in self.layers.iter().enumerate() {
            let floor = match tiny_free.get(idx) {
                Some(true) => exact::TINY,
                _ => exact::normal_floor(layer.weights.as_slice()),
            };
            let mut z = current
                .as_ref()
                .unwrap_or(x)
                .matmul_above(&layer.weights, floor)?;
            z.add_row_vector(&layer.bias)?;
            if idx < last {
                let act = self.arch.activation;
                z.map_inplace(|v| act.apply(v));
            } else {
                softmax_rows(&mut z);
            }
            each(&z);
            current = Some(z);
        }
        Ok(current.expect("at least one layer"))
    }

    /// Forward pass returning per-layer activations (input excluded), for
    /// backpropagation.
    fn forward_cached(&self, x: &Matrix, tiny_free: &[bool]) -> Result<Vec<Matrix>> {
        let mut activations = Vec::with_capacity(self.layers.len());
        self.forward(x, tiny_free, |z| activations.push(z.clone()))?;
        Ok(activations)
    }

    /// Class probabilities for a batch, one row per sample.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `x.cols() != input_dim`.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        self.forward(x, &[], |_| {})
    }

    /// Predicted class index for each row of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `x.cols() != input_dim`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>> {
        Ok(self.predict_proba(x)?.argmax_rows())
    }

    /// Predicted class for a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `features.len() != input_dim`.
    pub fn predict_row(&self, features: &[f32]) -> Result<usize> {
        let x = Matrix::from_vec(1, features.len(), features.to_vec())?;
        Ok(self.predict(&x)?[0])
    }

    /// Pre-softmax output scores ("logits") for a single feature vector.
    ///
    /// Softmax is monotone, so `argmax(logits) == predict_row`; the raw
    /// scores are the float reference oracle the compiled fixed-point
    /// runtime is compared against (margins are meaningful in logit
    /// space, unlike post-softmax probabilities).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `features.len() != input_dim`.
    pub fn logits_row(&self, features: &[f32]) -> Result<Vec<f32>> {
        if features.len() != self.arch.input_dim {
            return Err(MlError::ShapeMismatch {
                op: "logits_row",
                left: (1, features.len()),
                right: (1, self.arch.input_dim),
            });
        }
        let mut current = features.to_vec();
        let last = self.layers.len() - 1;
        for (idx, layer) in self.layers.iter().enumerate() {
            let mut next = layer.bias.clone();
            for (k, &x) in current.iter().enumerate() {
                for (n, &w) in next.iter_mut().zip(layer.weights.row(k)) {
                    *n += x * w;
                }
            }
            if idx < last {
                let act = self.arch.activation;
                for v in &mut next {
                    *v = act.apply(*v);
                }
            }
            current = next;
        }
        Ok(current)
    }

    /// Mean cross-entropy loss of the network on `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] on shape problems and
    /// [`MlError::InvalidArgument`] if a label is out of range.
    pub fn loss(&self, x: &Matrix, y: &[usize]) -> Result<f32> {
        let proba = self.predict_proba(x)?;
        cross_entropy(&proba, y)
    }

    /// Trains the network in place with mini-batch backpropagation.
    ///
    /// Labels are class indices in `0..output_dim`.
    ///
    /// # Errors
    ///
    /// - [`MlError::EmptyInput`] if `x` has no rows.
    /// - [`MlError::ShapeMismatch`] if `x.rows() != y.len()` or
    ///   `x.cols() != input_dim`.
    /// - [`MlError::InvalidArgument`] if a label `>= output_dim`.
    /// - [`MlError::Diverged`] if the loss becomes non-finite.
    pub fn train(&mut self, x: &Matrix, y: &[usize], config: &TrainConfig) -> Result<TrainReport> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput("training set"));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                op: "train",
                left: x.shape(),
                right: (y.len(), 1),
            });
        }
        if x.cols() != self.arch.input_dim {
            return Err(MlError::ShapeMismatch {
                op: "train",
                left: x.shape(),
                right: (self.arch.input_dim, 0),
            });
        }
        if let Some(&bad) = y.iter().find(|&&c| c >= self.arch.output_dim) {
            return Err(MlError::InvalidArgument(format!(
                "label {bad} out of range for {} classes",
                self.arch.output_dim
            )));
        }

        let mut rng = StdRng::seed_from_u64(config.seed);
        let batch = config.batch_size.clamp(1, x.rows());
        let mut indices: Vec<usize> = (0..x.rows()).collect();

        // Per-layer optimizer state.
        let mut state: Vec<OptimState> = self
            .layers
            .iter()
            .map(|l| OptimState::new(l.weights.shape(), l.bias.len()))
            .collect();

        let mut step = 0usize;
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in indices.chunks(batch) {
                let bx = x.select_rows(chunk);
                let by: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
                step += 1;
                epoch_loss += self.train_batch(&bx, &by, config, &mut state, step)?;
                batches += 1;
            }
            let mean = epoch_loss / batches.max(1) as f32;
            if !mean.is_finite() {
                return Err(MlError::Diverged(format!("epoch loss = {mean}")));
            }
            epoch_losses.push(mean);
        }
        Ok(TrainReport { epoch_losses })
    }

    /// One gradient step on a mini-batch; returns the batch loss.
    fn train_batch(
        &mut self,
        bx: &Matrix,
        by: &[usize],
        config: &TrainConfig,
        state: &mut [OptimState],
        step: usize,
    ) -> Result<f32> {
        let tiny_free: Vec<bool> = state.iter().map(|s| s.tiny_free).collect();
        let activations = self.forward_cached(bx, &tiny_free)?;
        let proba = activations.last().expect("at least one layer");
        let loss = cross_entropy(proba, by)?;
        let n = bx.rows() as f32;

        // Output delta for softmax + cross-entropy: (p - onehot) / n.
        let mut delta = proba.clone();
        for (r, &label) in by.iter().enumerate() {
            let v = delta[(r, label)];
            delta.set(r, label, v - 1.0);
        }
        delta.scale(1.0 / n);

        // Walk layers backwards accumulating gradients.
        for l in (0..self.layers.len()).rev() {
            let input: &Matrix = if l == 0 { bx } else { &activations[l - 1] };
            let grad_w = input.transpose_matmul(&delta)?;
            let grad_b = delta.column_sums();

            // Propagate before updating weights (we need the old weights).
            if l > 0 {
                let mut prev_delta = delta.matmul_transpose(&self.layers[l].weights)?;
                let act = self.arch.activation;
                let outputs = &activations[l - 1];
                for (d, &o) in prev_delta.as_mut_slice().iter_mut().zip(outputs.as_slice()) {
                    *d *= act.derivative_from_output(o);
                }
                delta = prev_delta;
            }

            let layer = &mut self.layers[l];
            state[l].apply(
                &mut layer.weights,
                &mut layer.bias,
                &grad_w,
                &grad_b,
                config,
                step,
            )?;
        }
        Ok(loss)
    }
}

/// Loss trajectory returned by [`Mlp::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean cross-entropy per epoch.
    pub epoch_losses: Vec<f32>,
}

/// Optimizer state (momentum / Adam moments) for one layer.
#[derive(Debug, Clone)]
struct OptimState {
    m_w: Matrix,
    v_w: Matrix,
    m_b: Vec<f32>,
    v_b: Vec<f32>,
    /// Whether more than an eighth of this layer's weights were left as
    /// nonzeros below 2^-63 by the last Adam step, so that the next step
    /// sorts its elements onto the exact path. With fewer, the branches of
    /// sorting cost more than the assists they save.
    sort: bool,
    /// Whether the last Adam step left no weight of this layer a nonzero
    /// below 2^-63, so that the forward pass need not scan them.
    tiny_free: bool,
}

impl OptimState {
    fn new(w_shape: (usize, usize), b_len: usize) -> Self {
        OptimState {
            m_w: Matrix::zeros(w_shape.0, w_shape.1),
            v_w: Matrix::zeros(w_shape.0, w_shape.1),
            m_b: vec![0.0; b_len],
            v_b: vec![0.0; b_len],
            sort: false,
            tiny_free: false,
        }
    }

    fn apply(
        &mut self,
        weights: &mut Matrix,
        bias: &mut [f32],
        grad_w: &Matrix,
        grad_b: &[f32],
        config: &TrainConfig,
        step: usize,
    ) -> Result<()> {
        let lr = config.learning_rate;
        let wd = config.weight_decay;
        match config.optim {
            Optim::Sgd { momentum } => {
                for i in 0..weights.len() {
                    let g = grad_w.as_slice()[i] + wd * weights.as_slice()[i];
                    let m = momentum * self.m_w.as_slice()[i] + g;
                    self.m_w.as_mut_slice()[i] = m;
                    weights.as_mut_slice()[i] -= lr * m;
                }
                for i in 0..bias.len() {
                    let m = momentum * self.m_b[i] + grad_b[i];
                    self.m_b[i] = m;
                    bias[i] -= lr * m;
                }
            }
            Optim::Adam { beta1, beta2 } => {
                let eps = 1e-8;
                let bc1 = 1.0 - beta1.powi(step as i32);
                let bc2 = 1.0 - beta2.powi(step as i32);
                let step = AdamStep {
                    lr,
                    wd,
                    beta1,
                    beta2,
                    bc1,
                    bc2,
                    eps,
                };
                let tiny_weights = if self.sort {
                    step.weights::<true>(weights, grad_w, &mut self.m_w, &mut self.v_w)
                } else {
                    step.weights::<false>(weights, grad_w, &mut self.m_w, &mut self.v_w)
                };
                self.sort = tiny_weights * 8 > weights.len();
                self.tiny_free = tiny_weights == 0;
                for i in 0..bias.len() {
                    let g = grad_b[i];
                    let m = beta1 * self.m_b[i] + (1.0 - beta1) * g;
                    let v = beta2 * self.v_b[i] + (1.0 - beta2) * g * g;
                    self.m_b[i] = m;
                    self.v_b[i] = v;
                    bias[i] -= lr * (m / bc1) / ((v / bc2).sqrt() + eps);
                }
            }
        }
        Ok(())
    }
}

/// One Adam step's constants.
struct AdamStep {
    lr: f32,
    wd: f32,
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
}

impl AdamStep {
    /// Updates a layer's weights and moments in place and returns how many
    /// weights it left as nonzeros below 2^-63 (see [`crate::exact`]).
    /// With `SORT`, an element whose gradient, weight or moments hold such
    /// a value takes the exact twins of the operations (the same bits
    /// without the FPU's subnormal assist), and every other element the
    /// native ones; without it every element is native, in a loop without
    /// branches.
    fn weights<const SORT: bool>(
        &self,
        weights: &mut Matrix,
        grad_w: &Matrix,
        m_w: &mut Matrix,
        v_w: &mut Matrix,
    ) -> usize {
        let (beta1, beta2) = (self.beta1, self.beta2);
        // The exact path's constant factors, widened once.
        let [wd_x, beta1_x, rest1_x, beta2_x, rest2_x, lr_x, bc1_x, bc2_x] = [
            self.wd,
            beta1,
            1.0 - beta1,
            beta2,
            1.0 - beta2,
            self.lr,
            self.bc1,
            self.bc2,
        ]
        .map(exact::Wide::new);
        let mut tiny_weights = 0u32;
        for (((w, &grad), m), v) in weights
            .as_mut_slice()
            .iter_mut()
            .zip(grad_w.as_slice())
            .zip(m_w.as_mut_slice())
            .zip(v_w.as_mut_slice())
        {
            if SORT
                && (exact::is_tiny(grad)
                    | exact::is_tiny(*w)
                    | exact::is_tiny(*m)
                    | exact::is_tiny(*v))
            {
                #[cfg(test)]
                exact::tally::adam(1);
                let g = grad + wd_x.times(*w);
                *m = beta1_x.times(*m) + rest1_x.times(g);
                *v = beta2_x.times(*v) + exact::mul(rest2_x.times(g), g);
                *w -= exact::div(
                    lr_x.times(bc1_x.quotient_of(*m)),
                    exact::sqrt(bc2_x.quotient_of(*v)) + self.eps,
                );
            } else {
                let g = grad + self.wd * *w;
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                *w -= self.lr * (*m / self.bc1) / ((*v / self.bc2).sqrt() + self.eps);
            }
            // Only the weight is counted: counting all four halves the
            // speed of the loop without branches.
            tiny_weights += u32::from(exact::is_tiny(*w));
        }
        tiny_weights as usize
    }
}

/// In-place row-wise softmax with max subtraction for stability.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Mean cross-entropy of probability rows against integer labels.
///
/// # Errors
///
/// Returns [`MlError::ShapeMismatch`] if `proba.rows() != y.len()` and
/// [`MlError::InvalidArgument`] if a label is out of range.
pub fn cross_entropy(proba: &Matrix, y: &[usize]) -> Result<f32> {
    if proba.rows() != y.len() {
        return Err(MlError::ShapeMismatch {
            op: "cross_entropy",
            left: proba.shape(),
            right: (y.len(), 1),
        });
    }
    let mut total = 0.0;
    for (r, &label) in y.iter().enumerate() {
        let p = proba.get(r, label).ok_or_else(|| {
            MlError::InvalidArgument(format!(
                "label {label} out of range for {} classes",
                proba.cols()
            ))
        })?;
        total -= p.max(1e-12).ln();
    }
    Ok(total / y.len().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xor_data() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn param_count_matches_formula() {
        let arch = MlpArchitecture::new(7, vec![16, 4], 2);
        assert_eq!(arch.param_count(), 7 * 16 + 16 + 16 * 4 + 4 + 4 * 2 + 2);
        let net = Mlp::new(&arch, 0).unwrap();
        assert_eq!(net.param_count(), arch.param_count());
    }

    #[test]
    fn depth_and_width() {
        let arch = MlpArchitecture::new(30, vec![10, 10, 10, 10], 2);
        assert_eq!(arch.depth(), 5);
        assert_eq!(arch.max_width(), 30);
    }

    #[test]
    fn invalid_arch_rejected() {
        assert!(MlpArchitecture::new(0, vec![4], 2).validate().is_err());
        assert!(MlpArchitecture::new(4, vec![0], 2).validate().is_err());
        assert!(MlpArchitecture::new(4, vec![], 0).validate().is_err());
        assert!(Mlp::new(&MlpArchitecture::new(4, vec![0], 2), 0).is_err());
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let arch = MlpArchitecture::new(2, vec![8, 8], 2);
        let mut net = Mlp::new(&arch, 7).unwrap();
        let before = net.loss(&x, &y).unwrap();
        let report = net
            .train(
                &x,
                &y,
                &TrainConfig::default()
                    .epochs(800)
                    .learning_rate(0.05)
                    .batch_size(4),
            )
            .unwrap();
        let after = net.loss(&x, &y).unwrap();
        assert!(after < before, "loss should drop: {before} -> {after}");
        let final_loss = report.epoch_losses.last().copied().unwrap();
        assert!(final_loss < 0.1, "final loss {final_loss}");
        assert_eq!(net.predict(&x).unwrap(), y);
    }

    #[test]
    fn sgd_with_momentum_also_learns() {
        let (x, y) = xor_data();
        let arch = MlpArchitecture::new(2, vec![12], 2).with_activation(Activation::Tanh);
        let mut net = Mlp::new(&arch, 3).unwrap();
        let cfg = TrainConfig::default()
            .epochs(1500)
            .learning_rate(0.1)
            .batch_size(4)
            .optim(Optim::Sgd { momentum: 0.9 });
        net.train(&x, &y, &cfg).unwrap();
        assert_eq!(net.predict(&x).unwrap(), y);
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let (x, y) = xor_data();
        let arch = MlpArchitecture::new(2, vec![6], 2);
        let cfg = TrainConfig::default().epochs(50).seed(9);
        let mut a = Mlp::new(&arch, 5).unwrap();
        let mut b = Mlp::new(&arch, 5).unwrap();
        a.train(&x, &y, &cfg).unwrap();
        b.train(&x, &y, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn logits_row_matches_predict_and_proba() {
        let arch = MlpArchitecture::new(3, vec![5, 4], 3);
        let net = Mlp::new(&arch, 2).unwrap();
        for seed in 0..6 {
            let features: Vec<f32> = (0..3).map(|c| (seed * 3 + c) as f32 * 0.17 - 0.8).collect();
            let logits = net.logits_row(&features).unwrap();
            assert_eq!(logits.len(), 3);
            // Softmax is monotone: argmax of logits is the prediction.
            assert_eq!(
                crate::tensor::argmax(&logits),
                net.predict_row(&features).unwrap()
            );
            // Softmaxing the logits reproduces predict_proba.
            let x = Matrix::from_vec(1, 3, features.clone()).unwrap();
            let proba = net.predict_proba(&x).unwrap();
            let mut m = Matrix::from_vec(1, 3, logits).unwrap();
            softmax_rows(&mut m);
            for (a, b) in m.as_slice().iter().zip(proba.as_slice()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
        assert!(net.logits_row(&[1.0]).is_err());
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let arch = MlpArchitecture::new(3, vec![5], 4);
        let net = Mlp::new(&arch, 1).unwrap();
        let x = Matrix::from_fn(6, 3, |r, c| (r + c) as f32 * 0.1);
        let p = net.predict_proba(&x).unwrap();
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn train_rejects_bad_labels() {
        let (x, _) = xor_data();
        let arch = MlpArchitecture::new(2, vec![4], 2);
        let mut net = Mlp::new(&arch, 0).unwrap();
        let err = net.train(&x, &[0, 1, 2, 0], &TrainConfig::default());
        assert!(matches!(err, Err(MlError::InvalidArgument(_))));
    }

    #[test]
    fn train_rejects_shape_mismatch() {
        let (x, y) = xor_data();
        let arch = MlpArchitecture::new(3, vec![4], 2);
        let mut net = Mlp::new(&arch, 0).unwrap();
        assert!(net.train(&x, &y, &TrainConfig::default()).is_err());
        let arch = MlpArchitecture::new(2, vec![4], 2);
        let mut net = Mlp::new(&arch, 0).unwrap();
        assert!(net.train(&x, &y[..3], &TrainConfig::default()).is_err());
    }

    #[test]
    fn empty_training_set_rejected() {
        let arch = MlpArchitecture::new(2, vec![4], 2);
        let mut net = Mlp::new(&arch, 0).unwrap();
        let x = Matrix::zeros(0, 2);
        assert!(matches!(
            net.train(&x, &[], &TrainConfig::default()),
            Err(MlError::EmptyInput(_))
        ));
    }

    #[test]
    fn set_layers_validates_shapes() {
        let arch = MlpArchitecture::new(2, vec![3], 2);
        let donor = Mlp::new(&arch, 1).unwrap();
        let mut net = Mlp::new(&arch, 2).unwrap();
        net.set_layers(donor.layers().to_vec()).unwrap();
        assert_eq!(net.layers(), donor.layers());

        // Wrong layer count.
        assert!(net.set_layers(vec![donor.layers()[0].clone()]).is_err());
        // Wrong shape.
        let other = Mlp::new(&MlpArchitecture::new(2, vec![5], 2), 0).unwrap();
        assert!(net.set_layers(other.layers().to_vec()).is_err());

        // from_parts mirrors set_layers.
        let rebuilt = Mlp::from_parts(&arch, donor.layers().to_vec()).unwrap();
        assert_eq!(rebuilt.layers(), donor.layers());
    }

    #[test]
    fn activation_values() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-6);
        assert_eq!(Activation::Linear.apply(1.5), 1.5);
    }

    #[test]
    fn activation_derivatives_match_finite_difference() {
        let h = 1e-3;
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Linear] {
            for x in [-1.0f32, -0.3, 0.2, 1.7] {
                let y = act.apply(x);
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let an = act.derivative_from_output(y);
                assert!(
                    (fd - an).abs() < 1e-2,
                    "{:?} at {x}: fd={fd} analytic={an}",
                    act
                );
            }
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut m = Matrix::from_rows(&[vec![1000.0, 1001.0]]).unwrap();
        softmax_rows(&mut m);
        assert!(!m.has_non_finite());
        assert!((m.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(m[(0, 1)] > m[(0, 0)]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_zero() {
        let p = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let ce = cross_entropy(&p, &[0, 1]).unwrap();
        assert!(ce.abs() < 1e-5);
    }

    /// FNV-1a over the bits of every weight and bias, layer by layer.
    fn weight_fnv(net: &Mlp) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for layer in net.layers() {
            for v in layer.weights.as_slice().iter().chain(&layer.bias) {
                for byte in v.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// Trains `hidden` on 2 000 normalized IoT rows (the traffic
    /// classification data of the compile-time search) with Adam, 30
    /// epochs; returns the net and its subnormal parameter count.
    fn train_on_iot(
        hidden: Vec<usize>,
        activation: Activation,
        lr: f32,
        batch: usize,
    ) -> (Mlp, usize) {
        use homunculus_datasets::iot::IotTrafficGenerator;
        let split = IotTrafficGenerator::new(1)
            .generate(2_000)
            .stratified_split(0.3, 1)
            .unwrap();
        let train = split
            .train
            .normalized(&split.train.fit_normalizer())
            .unwrap();
        let f = train.features();
        let x = Matrix::from_vec(f.rows(), f.cols(), f.as_slice().to_vec()).unwrap();
        let arch = MlpArchitecture::new(7, hidden, 5).with_activation(activation);
        let mut net = Mlp::new(&arch, 2).unwrap();
        let config = TrainConfig::default()
            .epochs(30)
            .learning_rate(lr)
            .batch_size(batch)
            .seed(2);
        net.train(&x, train.labels(), &config).unwrap();
        let subnormal = net
            .layers()
            .iter()
            .flat_map(|l| l.weights.as_slice().iter().chain(&l.bias))
            .filter(|v| v.is_subnormal())
            .count();
        (net, subnormal)
    }

    /// The weights of a net that collapses into subnormals, and of a
    /// healthy one, pinned bit for bit (the hashes were taken before
    /// training had an exact path, so they hold that it changes no bit).
    /// The collapsed net must take the exact path and the healthy one
    /// never: a silent fall back into the FPU's assist fails here.
    #[test]
    fn golden_weights_of_a_collapsed_and_a_healthy_net() {
        exact::tally::take();
        let (collapsed, subnormal) = train_on_iot(
            vec![25, 13, 6, 3, 2, 2, 2, 2, 2],
            Activation::Relu,
            0.0087,
            16,
        );
        let (axpys, adam) = exact::tally::take();
        println!("exact axpys {axpys}, Adam elements {adam}");
        assert_eq!(collapsed.param_count(), 690);
        assert!(
            subnormal * 2 > collapsed.param_count(),
            "{subnormal} of 690 subnormal"
        );
        assert_eq!(weight_fnv(&collapsed), 0x5525_df47_4290_5ae3);
        assert!(
            axpys > 0 && adam > 0,
            "exact axpys {axpys}, Adam elements {adam}"
        );

        let (healthy, subnormal) = train_on_iot(vec![16, 8], Activation::Sigmoid, 0.01, 32);
        assert_eq!(subnormal, 0);
        assert_eq!(weight_fnv(&healthy), 0x717e_db72_38a3_c46f);
        assert_eq!(exact::tally::take(), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_proba_is_distribution(seed in 0u64..50, rows in 1usize..5) {
            let arch = MlpArchitecture::new(4, vec![6], 3);
            let net = Mlp::new(&arch, seed).unwrap();
            let x = Matrix::from_fn(rows, 4, |r, c| ((r * 7 + c * 3 + seed as usize) % 13) as f32 / 13.0);
            let p = net.predict_proba(&x).unwrap();
            for r in 0..rows {
                let s: f32 = p.row(r).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_gradient_step_reduces_loss_on_small_problem(seed in 0u64..20) {
            let (x, y) = xor_data();
            let arch = MlpArchitecture::new(2, vec![8], 2);
            let mut net = Mlp::new(&arch, seed).unwrap();
            let before = net.loss(&x, &y).unwrap();
            net.train(&x, &y, &TrainConfig::default().epochs(200).learning_rate(0.05).seed(seed)).unwrap();
            let after = net.loss(&x, &y).unwrap();
            prop_assert!(after <= before + 1e-3, "loss went {before} -> {after}");
        }
    }
}
