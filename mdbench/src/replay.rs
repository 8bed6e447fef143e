//! The traced run: replays a workload's calls into every layer through
//! public functions only, at the workload's own shapes, with spans kept in
//! memory by [`Tracer`].
//!
//! * **core** — `MdServer::generate_batches`, `MdWorker::process`,
//!   `MdServer::apply_feedbacks` and the swap, on parts forked from the
//!   master seed exactly as the runtimes fork them; interleaved
//!   iteration by iteration with an untraced `MdGan::step` on the same
//!   config, whose generator the replay must match bit for bit.
//! * **nn** — `Layer::forward`/`backward` on G/D stacks rebuilt from the
//!   `md_nn::layers` constructors as `arch.rs` builds them (checked
//!   parameter-for-parameter), against the whole `Generator` /
//!   `Discriminator` pass and their Adam steps.
//! * **tensor** — the `matmul_*` / `conv*` calls those layers issue, on
//!   the captured operands; pool and workspace counters over the untraced
//!   block; a single-thread 512³ GEMM as the roofline reference.
//! * **simnet** — per-link traffic of the untraced block and one
//!   batch-sized message through a `Router` endpoint pair.
//! * **data / eval** — the set-up phases, each in its own span.

use crate::e2e::Outcome;
use crate::report::{mean, median, quantile, Metrics};
use crate::spans::Tracer;
use crate::workload::{net_digest, param_digest, Runtime, UpdateCheck, Workload};
use md_nn::gan::{disc_loss_real, Discriminator, Generator};
use md_nn::init::Init;
use md_nn::layers::{
    BatchNorm, Conv2d, ConvTranspose2d, Dense, Flatten, LeakyRelu, MinibatchDiscrimination, Relu,
    Reshape, Tanh,
};
use md_nn::optim::Adam;
use md_nn::Layer;
use md_simnet::{LinkClass, Router};
use md_tensor::ops::conv::{
    conv2d_backward_acc, conv2d_forward, conv_transpose2d_backward_acc, conv_transpose2d_forward,
};
use md_tensor::ops::matmul::matmul_tn_acc_into;
use md_tensor::rng::Rng64;
use md_tensor::{parallel, pool, workspace, Tensor};
use mdgan_core::arch::ArchKind;
use mdgan_core::mdgan::server::MdServer;
use mdgan_core::mdgan::worker::MdWorker;
use mdgan_core::{ArchSpec, MdGan, MdGanConfig};
use std::path::Path;
use std::time::Instant;

/// Layer families, as the per-layer metrics name them; `kind as usize`
/// indexes per-kind tables.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Dense,
    Conv2d,
    ConvT2d,
    BatchNorm,
    Minibatch,
    Tanh,
    Act,
    Reshape,
}

/// Every kind, in declaration (index) order.
const KINDS: [Kind; 8] = [
    Kind::Dense,
    Kind::Conv2d,
    Kind::ConvT2d,
    Kind::BatchNorm,
    Kind::Minibatch,
    Kind::Tanh,
    Kind::Act,
    Kind::Reshape,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense",
            Kind::Conv2d => "conv2d",
            Kind::ConvT2d => "convt2d",
            Kind::BatchNorm => "batchnorm",
            Kind::Minibatch => "minibatch",
            Kind::Tanh => "tanh",
            Kind::Act => "act",
            Kind::Reshape => "reshape",
        }
    }
}

/// A network rebuilt layer by layer, so each layer can be timed alone.
pub(crate) struct Stack {
    layers: Vec<(Kind, Box<dyn Layer>)>,
}

impl Stack {
    fn push(&mut self, kind: Kind, layer: impl Layer + 'static) {
        self.layers.push((kind, Box::new(layer)));
    }

    pub(crate) fn params_flat(&self) -> Vec<f32> {
        self.layers
            .iter()
            .flat_map(|(_, l)| l.params().into_iter().flat_map(|p| p.data().to_vec()))
            .collect()
    }

    fn zero_grad(&mut self) {
        for (_, l) in &mut self.layers {
            l.zero_grad();
        }
    }
}

fn cnn_stages(spec: &ArchSpec) -> usize {
    (spec.img / 4).trailing_zeros() as usize
}

/// The generator stack, constructor by constructor as `arch.rs` builds it.
pub(crate) fn build_g(spec: &ArchSpec, rng: &mut Rng64) -> Stack {
    let mut s = Stack { layers: Vec::new() };
    let input = spec.latent + spec.classes;
    match spec.kind {
        ArchKind::Mlp => {
            let (d, w) = (spec.object_size(), spec.width);
            s.push(Kind::Dense, Dense::new(input, w, Init::XavierUniform, rng));
            s.push(Kind::Act, LeakyRelu::new(0.2));
            s.push(Kind::Dense, Dense::new(w, w, Init::XavierUniform, rng));
            s.push(Kind::Act, LeakyRelu::new(0.2));
            s.push(Kind::Dense, Dense::new(w, d, Init::XavierUniform, rng));
            s.push(Kind::Tanh, Tanh::new());
            s.push(
                Kind::Reshape,
                Reshape::new(&[spec.channels, spec.img, spec.img]),
            );
        }
        ArchKind::Cnn => {
            let stages = cnn_stages(spec);
            let f0 = spec.width << (stages - 1);
            s.push(Kind::Dense, Dense::new(input, f0 * 16, Init::Dcgan, rng));
            s.push(Kind::Reshape, Reshape::new(&[f0, 4, 4]));
            s.push(Kind::BatchNorm, BatchNorm::new(f0));
            s.push(Kind::Act, Relu::new());
            let mut fin = f0;
            for st in 0..stages {
                let last = st + 1 == stages;
                let fout = if last { spec.channels } else { fin / 2 };
                s.push(
                    Kind::ConvT2d,
                    ConvTranspose2d::new(fin, fout, 4, 2, 1, Init::Dcgan, rng),
                );
                if last {
                    s.push(Kind::Tanh, Tanh::new());
                } else {
                    s.push(Kind::BatchNorm, BatchNorm::new(fout));
                    s.push(Kind::Act, Relu::new());
                    fin = fout;
                }
            }
        }
    }
    s
}

/// The discriminator stack, constructor by constructor as `arch.rs`
/// builds it.
pub(crate) fn build_d(spec: &ArchSpec, rng: &mut Rng64) -> Stack {
    let mut s = Stack { layers: Vec::new() };
    let out = 1 + spec.classes;
    match spec.kind {
        ArchKind::Mlp => {
            let (d, w) = (spec.object_size(), spec.width);
            s.push(Kind::Reshape, Flatten::new());
            s.push(Kind::Dense, Dense::new(d, w, Init::XavierUniform, rng));
            s.push(Kind::Act, LeakyRelu::new(0.2));
            s.push(Kind::Dense, Dense::new(w, w, Init::XavierUniform, rng));
            s.push(Kind::Act, LeakyRelu::new(0.2));
            s.push(Kind::Dense, Dense::new(w, out, Init::XavierUniform, rng));
        }
        ArchKind::Cnn => {
            let (mut fin, mut fout) = (spec.channels, spec.width);
            for _ in 0..cnn_stages(spec) {
                s.push(
                    Kind::Conv2d,
                    Conv2d::new(fin, fout, 3, 2, 1, Init::Dcgan, rng),
                );
                s.push(Kind::Act, LeakyRelu::new(0.2));
                fin = fout;
                fout *= 2;
            }
            s.push(Kind::Reshape, Flatten::new());
            let mb = MinibatchDiscrimination::new(fin * 16, 8, 4, rng);
            let head_in = mb.out_features();
            s.push(Kind::Minibatch, mb);
            s.push(
                Kind::Dense,
                Dense::new(head_in, out, Init::XavierUniform, rng),
            );
        }
    }
    s
}

/// Operands captured from one layer call, replayed at the tensor level.
struct Captured {
    kind: Kind,
    layer: usize,
    input: Tensor,
    grad_out: Tensor,
}

/// Per-kind forward/backward nanoseconds of one pass.
type KindNs = [[u64; 2]; KINDS.len()];

/// Runs one traced forward + backward pass of `stack` layer by layer;
/// `grad_of` maps the output to the gradient fed back. Returns per-kind
/// times and the total of all layer spans.
fn layered_pass(
    tracer: &mut Tracer,
    pass: &str,
    stack: &mut Stack,
    x: &Tensor,
    grad_of: impl FnOnce(&Tensor) -> Tensor,
    capture: &mut Vec<Captured>,
) -> (KindNs, u64) {
    let mut ns: KindNs = [[0; 2]; KINDS.len()];
    let mut inputs: Vec<Option<Tensor>> = Vec::with_capacity(stack.layers.len());
    let id = tracer.open(pass);
    let mut h = x.clone();
    for (kind, layer) in stack.layers.iter_mut() {
        let keep = matches!(kind, Kind::Dense | Kind::Conv2d | Kind::ConvT2d);
        inputs.push(keep.then(|| h.clone()));
        let (out, t) = tracer.span(format!("nn.{}.fwd", kind.name()), |_| {
            layer.forward(&h, true)
        });
        ns[*kind as usize][0] += t;
        h = out;
    }
    let mut g = grad_of(&h);
    for (li, (kind, layer)) in stack.layers.iter_mut().enumerate().rev() {
        if let Some(input) = inputs[li].take() {
            capture.push(Captured {
                kind: *kind,
                layer: li,
                input,
                grad_out: g.clone(),
            });
        }
        let (gin, t) = tracer.span(format!("nn.{}.bwd", kind.name()), |_| layer.backward(&g));
        ns[*kind as usize][1] += t;
        g = gin;
    }
    tracer.close(id);
    stack.zero_grad();
    let total = ns.iter().map(|k| k[0] + k[1]).sum();
    (ns, total)
}

/// Replays the captured GEMM and convolution calls; returns
/// `(dense_flops, dense_ns, conv_flops, conv_ns)`.
fn tensor_replay(tracer: &mut Tracer, stack: &Stack, caps: &[Captured]) -> [f64; 4] {
    let mut acc = [0.0f64; 4];
    for c in caps {
        let params = stack.layers[c.layer].1.params();
        let (w, bias) = (params[0], params[1]);
        let (x, dy) = (&c.input, &c.grad_out);
        match c.kind {
            Kind::Dense => {
                let (b, i, o) = (x.shape()[0], w.shape()[0], w.shape()[1]);
                let mut gw = vec![0.0f32; i * o];
                let (_, t1) = tracer.span("tensor.matmul", |_| x.matmul(w));
                let (_, t2) = tracer.span("tensor.matmul_tn_acc", |_| {
                    matmul_tn_acc_into(x.data(), dy.data(), &mut gw, i, b, o)
                });
                let (_, t3) = tracer.span("tensor.matmul_nt", |_| dy.matmul_nt(w));
                acc[0] += 6.0 * (b * i * o) as f64;
                acc[1] += (t1 + t2 + t3) as f64;
            }
            Kind::Conv2d => {
                let (b, (o, ci, kh, kw)) = (x.shape()[0], dims4(w));
                let (oh, ow) = (dy.shape()[2], dy.shape()[3]);
                let mut gw = Tensor::zeros(w.shape());
                let mut gb = Tensor::zeros(bias.shape());
                let (_, t1) =
                    tracer.span("tensor.conv2d_fwd", |_| conv2d_forward(x, w, bias, 2, 1));
                let (_, t2) = tracer.span("tensor.conv2d_bwd_acc", |_| {
                    conv2d_backward_acc(x, w, dy, 2, 1, &mut gw, &mut gb)
                });
                acc[2] += 6.0 * (b * o * ci * kh * kw * oh * ow) as f64;
                acc[3] += (t1 + t2) as f64;
            }
            Kind::ConvT2d => {
                let (b, (ci, co, kh, kw)) = (x.shape()[0], dims4(w));
                let (h, wd) = (x.shape()[2], x.shape()[3]);
                let mut gw = Tensor::zeros(w.shape());
                let mut gb = Tensor::zeros(bias.shape());
                let (_, t1) = tracer.span("tensor.convt2d_fwd", |_| {
                    conv_transpose2d_forward(x, w, bias, 2, 1)
                });
                let (_, t2) = tracer.span("tensor.convt2d_bwd_acc", |_| {
                    conv_transpose2d_backward_acc(x, w, dy, 2, 1, &mut gw, &mut gb)
                });
                acc[2] += 6.0 * (b * ci * co * kh * kw * h * wd) as f64;
                acc[3] += (t1 + t2) as f64;
            }
            _ => unreachable!("only GEMM-backed layers are captured"),
        }
    }
    acc
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    (s[0], s[1], s[2], s[3])
}

/// `z ⊕ one-hot(labels)`, the generator's input row layout.
fn gen_input(spec: &ArchSpec, z: &Tensor, labels: &[usize]) -> Tensor {
    let b = z.shape()[0];
    let width = spec.latent + spec.classes;
    let mut data = vec![0.0f32; b * width];
    for i in 0..b {
        data[i * width..i * width + spec.latent].copy_from_slice(z.row(i));
        if spec.classes > 0 {
            data[i * width + spec.latent + labels[i]] = 1.0;
        }
    }
    Tensor::new(&[b, width], data)
}

/// Algorithm-1 parts forked from the master seed exactly as the runtimes
/// fork them (`build_parts`): server, workers and the swap stream.
pub(crate) struct Parts {
    pub(crate) server: MdServer,
    workers: Vec<MdWorker>,
    swap_rng: Rng64,
    k: usize,
    swap_interval: usize,
    iter: usize,
}

/// Component times of one replayed iteration, in nanoseconds.
pub(crate) struct CoreNs {
    step: u64,
    gen: u64,
    workers: Vec<u64>,
    apply: u64,
    swap: u64,
}

impl Parts {
    pub(crate) fn new(w: &Workload, shards: Vec<md_data::Dataset>, cfg: &MdGanConfig) -> Self {
        let shard_size = shards[0].len();
        let mut master = Rng64::seed_from_u64(cfg.seed);
        let mut srv_rng = master.fork(0);
        let server = MdServer::new(&w.spec, cfg.hyper, &mut srv_rng);
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let mut wrng = master.fork(1 + i as u64);
                MdWorker::new(i + 1, &w.spec, shard, cfg.hyper, &mut wrng)
            })
            .collect();
        Parts {
            server,
            workers,
            swap_rng: master.fork(0x5A3A9),
            k: cfg.k.resolve(cfg.workers),
            swap_interval: cfg.swap_interval(shard_size),
            iter: 0,
        }
    }

    /// One traced iteration; also returns the first generated batch and
    /// the first feedback, the operands of the layer replay.
    pub(crate) fn step(&mut self, tracer: &mut Tracer) -> (CoreNs, (Tensor, Vec<usize>), Tensor) {
        tracer.set_trace(self.iter as u64);
        let root = tracer.open("core.step");
        let k = self.k;
        let (batches, gen) = tracer.span("core.gen_batches", |_| self.server.generate_batches(k));
        let mut feedbacks = Vec::with_capacity(self.workers.len());
        let mut worker_ns = Vec::with_capacity(self.workers.len());
        for (wi, worker) in self.workers.iter_mut().enumerate() {
            let (g_id, d_id) = MdServer::assign(wi, k);
            let (f, t) = tracer.span("core.worker_process", |_| {
                worker.process(
                    &batches[d_id].0,
                    &batches[d_id].1,
                    &batches[g_id].0,
                    &batches[g_id].1,
                )
            });
            worker_ns.push(t);
            feedbacks.push((g_id, f));
        }
        let n = self.workers.len();
        let ((), apply) = tracer.span("core.apply_feedbacks", |_| {
            self.server.apply_feedbacks(&feedbacks, n)
        });
        let mut swap = 0;
        if (self.iter + 1).is_multiple_of(self.swap_interval) {
            let ((), t) = tracer.span("core.swap", |_| {
                let perm = self.swap_rng.derangement(n);
                let params: Vec<Vec<f32>> = self.workers.iter().map(|w| w.disc_params()).collect();
                for (j, p) in params.iter().enumerate() {
                    self.workers[perm[j]].set_disc_params(p);
                }
            });
            swap = t;
        }
        let step = tracer.close(root);
        self.iter += 1;
        let first = batches.into_iter().next().expect("k >= 1");
        let feedback = feedbacks.swap_remove(0).1;
        (
            CoreNs {
                step,
                gen,
                workers: worker_ns,
                apply,
                swap,
            },
            first,
            feedback,
        )
    }
}

fn ns_ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ns_us(ns: f64) -> f64 {
    ns / 1e3
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

/// Single-thread GFLOP/s of a square 512³ GEMM (best of 5): the roofline
/// reference for the kernel metrics.
fn gemm_peak_gflops(tracer: &mut Tracer, rng: &mut Rng64) -> f64 {
    let n = 512;
    let a = Tensor::randn(&[n, n], rng);
    let b = Tensor::randn(&[n, n], rng);
    let _one = parallel::scoped_max_threads(1);
    let best = (0..5)
        .map(|_| tracer.span("tensor.gemm_peak", |_| a.matmul(&b)).1)
        .min()
        .expect("five timings");
    2.0 * (n * n * n) as f64 / best as f64
}

/// Median microseconds of one batch-sized message through a `Router`
/// endpoint pair (server → worker 1).
fn send_recv_us(tracer: &mut Tracer, batch: &Tensor, reps: usize) -> f64 {
    let mut router: Router<Tensor> = Router::new(1);
    let server = router.endpoint(0);
    let worker = router.endpoint(1);
    let bytes = 4 * batch.len() as u64;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let msg = batch.clone();
        let (env, t) = tracer.span("simnet.send_recv", |_| {
            server.send(1, msg, bytes).expect("worker endpoint alive");
            worker.recv()
        });
        assert_eq!(env.bytes, bytes, "router must deliver the charged size");
        times.push(t as f64);
    }
    ns_us(median(&times))
}

pub(crate) fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Wall time of each set-up phase, in seconds.
struct SetupTimes {
    /// Data synthesis and sharding.
    data_s: f64,
    /// `MdGan::new`: server, workers, models and optimizers.
    build_s: f64,
    /// Reference-set synthesis and `Evaluator::new` (scorer fit).
    scorer_s: f64,
}

/// Set-ups per traced run; the phase metrics are their medians.
const SETUP_REPS: usize = 3;

/// Per-iteration samples of the interleaved replay.
#[derive(Default)]
struct Samples {
    step: Vec<f64>,
    replay_step: Vec<f64>,
    gen: Vec<f64>,
    workers: Vec<f64>,
    worker_calls: Vec<f64>,
    worker_max: Vec<f64>,
    apply: Vec<f64>,
    swap: Vec<f64>,
    kinds: Vec<KindNs>,
    layers: Vec<f64>,
    d_whole: Vec<f64>,
    g_whole: Vec<f64>,
    adam_d: Vec<f64>,
    adam_g: Vec<f64>,
    gemm: [f64; 4],
}

pub fn run(w: &Workload, seed: u64, calib_ms: f64, out_dir: &Path) -> Outcome {
    let mut tracer = Tracer::new();
    let mut errors = Vec::new();

    // data / core / eval: the set-up phases.
    tracer.set_trace(0);
    let mut phases: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let id = tracer.open("setup");
        let (shards, data_ns) = tracer.span("data.synth", |_| w.make_data(seed));
        let cfg = w.config();
        let (md, build_ns) = tracer.span("core.build", |_| {
            MdGan::new(&w.spec, shards.clone(), cfg.clone())
        });
        let (_, scorer_ns) = tracer.span("eval.scorer_fit", |_| w.fit_scorer());
        tracer.close(id);
        phases.push(SetupTimes {
            data_s: data_ns as f64 / 1e9,
            build_s: build_ns as f64 / 1e9,
            scorer_s: scorer_ns as f64 / 1e9,
        });
        built = Some((cfg, shards, md));
    }
    let (cfg, shards, mut md) = built.expect("at least one set-up");

    // nn: stacks rebuilt layer by layer, checked against the arch builders.
    let (g_seed, d_seed) = (seed ^ 0x6E6E, seed ^ 0xD1D1);
    let mut g_stack = build_g(&w.spec, &mut Rng64::seed_from_u64(g_seed));
    let mut d_stack = build_d(&w.spec, &mut Rng64::seed_from_u64(d_seed));
    let mut g_ref: Generator = w.spec.build_generator(&mut Rng64::seed_from_u64(g_seed));
    let mut d_ref: Discriminator = w
        .spec
        .build_discriminator(&mut Rng64::seed_from_u64(d_seed));
    if !same_bits(&g_stack.params_flat(), &g_ref.net.get_params_flat()) {
        errors.push(format!(
            "{}: rebuilt G stack differs from ArchSpec::build_generator",
            w.name
        ));
    }
    if !same_bits(&d_stack.params_flat(), &d_ref.net.get_params_flat()) {
        errors.push(format!(
            "{}: rebuilt D stack differs from ArchSpec::build_discriminator",
            w.name
        ));
    }
    let mut opt_g = Adam::new(cfg.hyper.adam_g);
    let mut opt_d = Adam::new(cfg.hyper.adam_d);
    let (classes, aux) = (w.spec.classes, cfg.hyper.aux_weight);
    let mut zrng = Rng64::seed_from_u64(seed ^ 0x2A2A);

    // core: the replica parts, stepped in lockstep with an untraced MdGan.
    let mut parts = Parts::new(w, shards.clone(), &cfg);
    let mut check = UpdateCheck::new(net_digest(&md.generator_mut().net));
    let mut s = Samples::default();
    let (mut pool_jobs, mut pool_inline, mut pool_busy, mut ws_hits, mut ws_misses) =
        (0, 0, 0, 0, 0);
    let mut traffic0 = md.traffic();
    let mut last_batch = None;
    for it in 0..w.warmup + w.trace_iters {
        let measured = it >= w.warmup;
        if it == w.warmup {
            traffic0 = md.traffic();
        }
        let (p0, w0) = (pool::stats(), workspace::stats());
        let ((), step_ns) = time_ns(|| md.step());
        let (p1, w1) = (pool::stats(), workspace::stats());
        check.record(net_digest(&md.generator_mut().net), 1);
        let (core, (xb, labels), fb) = parts.step(&mut tracer);

        let mut caps_d = Vec::new();
        let mut caps_g = Vec::new();
        let (kd, d_layers) = layered_pass(
            &mut tracer,
            "nn.d_pass",
            &mut d_stack,
            &xb,
            |logits| disc_loss_real(logits, &labels, classes, aux).1,
            &mut caps_d,
        );
        let (logits, d_fwd) = tracer.span("nn.d_whole.fwd", |_| d_ref.forward(&xb, true));
        let g_logits = disc_loss_real(&logits, &labels, classes, aux).1;
        let (_, d_bwd) = tracer.span("nn.d_whole.bwd", |_| d_ref.backward(&g_logits));
        let ((), adam_d) = tracer.span("nn.adam.d_step", |_| opt_d.step(&mut d_ref.net));
        d_ref.net.zero_grad();

        let z = g_ref.sample_z(xb.shape()[0], &mut zrng);
        let input = gen_input(&w.spec, &z, &labels);
        let (kg, g_layers) = layered_pass(
            &mut tracer,
            "nn.g_pass",
            &mut g_stack,
            &input,
            |_| fb.clone(),
            &mut caps_g,
        );
        let (_, g_fwd) = tracer.span("nn.g_whole.fwd", |_| g_ref.generate(&z, &labels, true));
        let ((), g_bwd) = tracer.span("nn.g_whole.bwd", |_| g_ref.backward(&fb));
        let ((), adam_g) = tracer.span("nn.adam.g_step", |_| opt_g.step(&mut g_ref.net));
        g_ref.net.zero_grad();

        let tid = tracer.open("tensor.replay");
        let gd = tensor_replay(&mut tracer, &d_stack, &caps_d);
        let gg = tensor_replay(&mut tracer, &g_stack, &caps_g);
        tracer.close(tid);

        if !measured {
            continue;
        }
        pool_jobs += p1.jobs - p0.jobs;
        pool_inline += p1.seq_jobs - p0.seq_jobs;
        pool_busy += p1.busy_ns - p0.busy_ns;
        ws_hits += w1.hits - w0.hits;
        ws_misses += w1.misses - w0.misses;
        s.step.push(step_ns as f64);
        s.replay_step.push(core.step as f64);
        s.gen.push(core.gen as f64);
        s.workers.push(core.workers.iter().sum::<u64>() as f64);
        s.worker_max
            .push(core.workers.iter().copied().max().unwrap_or(0) as f64);
        s.worker_calls
            .extend(core.workers.iter().map(|&t| t as f64));
        s.apply.push(core.apply as f64);
        s.swap.push(core.swap as f64);
        let mut kinds: KindNs = [[0; 2]; KINDS.len()];
        for (k, (a, b)) in kinds.iter_mut().zip(kd.iter().zip(kg.iter())) {
            k[0] = a[0] + b[0];
            k[1] = a[1] + b[1];
        }
        s.kinds.push(kinds);
        s.layers.push((d_layers + g_layers) as f64);
        s.d_whole.push((d_fwd + d_bwd) as f64);
        s.g_whole.push((g_fwd + g_bwd) as f64);
        s.adam_d.push(adam_d as f64);
        s.adam_g.push(adam_g as f64);
        for j in 0..4 {
            s.gemm[j] += gd[j] + gg[j];
        }
        last_batch = Some(xb);
    }
    let r = w.trace_iters as f64;
    if check.failed > 0 {
        errors.push(format!(
            "{}: {} of {} iterations skipped the generator update or left non-finite parameters",
            w.name, check.failed, check.attempted
        ));
    }
    if !same_bits(&parts.server.gen_params(), &md.gen_params()) {
        errors.push(format!(
            "{}: replayed parts diverged from MdGan::step after {} iterations",
            w.name,
            md.iterations()
        ));
    }
    let traffic = md.traffic();
    if let Err(e) = w.check_traffic(&traffic, md.iterations(), Runtime::Sequential) {
        errors.push(e);
    }
    let mut link = traffic.since(&traffic0);

    // The threaded workload's own runtime: iteration time, pool activity
    // and traffic come from `run_threaded`.
    let mut thr_share = 0.0;
    if w.runtime == Runtime::Threaded {
        let iters = w.trace_iters;
        let (p0, w0) = (pool::stats(), workspace::stats());
        let t = crate::e2e::threaded_timed(w, shards.clone(), cfg.clone(), iters, None);
        let (p1, w1) = (pool::stats(), workspace::stats());
        pool_jobs = p1.jobs - p0.jobs;
        pool_inline = p1.seq_jobs - p0.seq_jobs;
        pool_busy = p1.busy_ns - p0.busy_ns;
        ws_hits = w1.hits - w0.hits;
        ws_misses = w1.misses - w0.misses;
        if param_digest([t.result.gen_params.as_slice()]).is_none() {
            errors.push(format!("{}: threaded generator is not finite", w.name));
        }
        if let Err(e) = w.check_traffic(&t.result.traffic, iters, Runtime::Threaded) {
            errors.push(e);
        }
        link = t.result.traffic.clone();
        let critical = median(&s.gen) + median(&s.worker_max) + median(&s.apply);
        thr_share = 1.0 - ns_ms(critical) / median(&t.iter_ms);
    }

    let peak = gemm_peak_gflops(&mut tracer, &mut zrng);
    tracer.set_trace(u64::MAX);
    let batch = last_batch.expect("at least one measured iteration");
    let sr_us = send_recv_us(&mut tracer, &batch, 200);

    let mut m = Metrics::default();
    m.put("core.step_ms.p50", ns_ms(median(&s.step)), "ms");
    m.put("core.step_ms.p90", ns_ms(quantile(&s.step, 0.9)), "ms");
    m.put("core.step_ms.samples", s.step.len() as f64, "count");
    m.put("core.worker_process_ms", ns_ms(mean(&s.worker_calls)), "ms");
    m.put("core.workers_ms", ns_ms(mean(&s.workers)), "ms");
    m.put("core.gen_batches_ms", ns_ms(mean(&s.gen)), "ms");
    m.put("core.apply_feedbacks_ms", ns_ms(mean(&s.apply)), "ms");
    m.put("core.swap_ms", ns_ms(mean(&s.swap)), "ms");
    let parts_ns = mean(&s.gen) + mean(&s.workers) + mean(&s.apply) + mean(&s.swap);
    m.put(
        "core.orchestration_ms",
        ns_ms(mean(&s.step) - parts_ns),
        "ms",
    );
    m.put("core.coverage", parts_ns / mean(&s.step), "1");
    for kind in KINDS {
        let k = kind as usize;
        let fwd: Vec<f64> = s.kinds.iter().map(|x| x[k][0] as f64).collect();
        let bwd: Vec<f64> = s.kinds.iter().map(|x| x[k][1] as f64).collect();
        m.put(
            format!("nn.{}.fwd_us", kind.name()),
            ns_us(median(&fwd)),
            "us",
        );
        m.put(
            format!("nn.{}.bwd_us", kind.name()),
            ns_us(median(&bwd)),
            "us",
        );
    }
    m.put("nn.adam.d_step_us", ns_us(median(&s.adam_d)), "us");
    m.put("nn.adam.g_step_us", ns_us(median(&s.adam_g)), "us");
    m.put("nn.d_pass_us", ns_us(median(&s.d_whole)), "us");
    m.put("nn.g_pass_us", ns_us(median(&s.g_whole)), "us");
    let whole: f64 = s.d_whole.iter().chain(&s.g_whole).sum();
    m.put("nn.coverage", s.layers.iter().sum::<f64>() / whole, "1");
    let gflops = |flops: f64, ns: f64| if ns > 0.0 { flops / ns } else { 0.0 };
    m.put(
        "tensor.dense.gflops",
        gflops(s.gemm[0], s.gemm[1]),
        "GFLOP/s",
    );
    m.put(
        "tensor.conv.gflops",
        gflops(s.gemm[2], s.gemm[3]),
        "GFLOP/s",
    );
    m.put("tensor.gemm.peak_gflops", peak, "GFLOP/s");
    m.put("tensor.pool.jobs_per_iter", pool_jobs as f64 / r, "count");
    m.put(
        "tensor.pool.inline_per_iter",
        pool_inline as f64 / r,
        "count",
    );
    m.put(
        "tensor.pool.helper_busy_ms_per_iter",
        ns_ms(pool_busy as f64) / r,
        "ms",
    );
    m.put("tensor.ws.misses_per_iter", ws_misses as f64 / r, "count");
    m.put("tensor.ws.hits_per_iter", ws_hits as f64 / r, "count");
    let msgs: u64 = link.class_msgs.iter().sum();
    m.put("simnet.msgs_per_iter", msgs as f64 / r, "count");
    m.put(
        "simnet.c2w_bytes_per_iter",
        link.bytes(LinkClass::ServerToWorker) as f64 / r,
        "B",
    );
    m.put(
        "simnet.w2c_bytes_per_iter",
        link.bytes(LinkClass::WorkerToServer) as f64 / r,
        "B",
    );
    m.put(
        "simnet.w2w_bytes_per_iter",
        link.bytes(LinkClass::WorkerToWorker) as f64 / r,
        "B",
    );
    m.put("simnet.send_recv_us", sr_us, "us");
    m.put("thr.sync_overhead_share", thr_share, "1");
    let phase = |f: fn(&SetupTimes) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    m.put("data.synth_s", phase(|p| p.data_s), "s");
    m.put("core.build_s", phase(|p| p.build_s), "s");
    m.put("eval.scorer_fit_s", phase(|p| p.scorer_s), "s");
    m.put(
        "trace.overhead_pct",
        (median(&s.replay_step) / median(&s.step) - 1.0) * 100.0,
        "%",
    );
    m.put("host.calib_ms", calib_ms, "ms");

    let trace_dir = out_dir.join("traces");
    let trace_path = trace_dir.join(format!("{}-seed{seed}.trace.json", w.name));
    if let Err(e) = std::fs::create_dir_all(&trace_dir)
        .and_then(|_| std::fs::write(&trace_path, tracer.chrome_json()))
    {
        errors.push(format!("cannot write {}: {e}", trace_path.display()));
    }
    let detail = format!(
        "\"samples\":{{\"iterations\":{},\"worker_calls\":{},\"setup_reps\":{},\"send_recv\":200,\"gemm_peak\":5}},\
         \"trace_file\":{},\"spans\":{},\"self_time\":{}",
        s.step.len(),
        s.worker_calls.len(),
        phases.len(),
        crate::report::json_str(&trace_path.display().to_string()),
        tracer.spans().len(),
        tracer.self_times_json()
    );
    Outcome {
        metrics: m,
        attempted: check.attempted,
        failed: check.failed,
        errors,
        detail,
    }
}
