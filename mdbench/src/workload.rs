//! The three Algorithm-1 workloads, their seeded set-up, and the
//! correctness checks every run applies.

use md_data::{DataSpec, Dataset, Family};
use md_nn::Layer;
use md_simnet::{LinkClass, TrafficReport};
use md_tensor::rng::Rng64;
use mdgan_core::complexity::{ModelSize, SysParams};
use mdgan_core::{ArchSpec, Evaluator, GanHyper, KPolicy, MdGan, MdGanConfig, SwapPolicy};

/// Which runtime drives Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    /// `MdGan::new` + `MdGan::step` on the calling thread.
    Sequential,
    /// `mdgan::threaded::run_threaded`: one OS thread per node over simnet.
    Threaded,
}

/// A fixed workload definition.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub spec: ArchSpec,
    pub workers: usize,
    pub batch: usize,
    pub runtime: Runtime,
    /// Training images before sharding (a multiple of `workers · batch`,
    /// so the swap interval `m/b` is whole and Table III's swap count is
    /// exact).
    pub train_n: usize,
    /// Held-out reference images; the FID real sample is drawn from them.
    pub test_n: usize,
    /// Generated and real samples per FID evaluation.
    pub eval_n: usize,
    /// Untimed iterations before the measured block.
    pub warmup: usize,
    /// Measured iterations per second of `--seconds` (fixed, so a seed
    /// always trains the same number of iterations and `fid_final`
    /// repeats exactly).
    pub iters_per_second: usize,
    /// Replayed iterations in a traced run.
    pub trace_iters: usize,
}

pub const IMG: usize = 16;

/// Training is scored every `1/EVAL_SLICES` of the run.
pub const EVAL_SLICES: usize = 8;

/// Seed of the models, the training RNG streams and the sharding.
const MODEL_SEED: u64 = 0x3D3D;

/// Seed of the reference set the FID scorer is fitted on.
const REFERENCE_SEED: u64 = 0x5C0E;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mlp-seq",
        family: Family::MnistLike,
        spec: ArchSpec {
            kind: mdgan_core::arch::ArchKind::Mlp,
            img: IMG,
            channels: 1,
            latent: 32,
            classes: 10,
            width: 128,
        },
        workers: 10,
        batch: 10,
        runtime: Runtime::Sequential,
        train_n: 4000,
        test_n: 500,
        eval_n: 500,
        warmup: 40,
        iters_per_second: 150,
        trace_iters: 120,
    },
    Workload {
        name: "cnn-seq",
        family: Family::CifarLike,
        spec: ArchSpec {
            kind: mdgan_core::arch::ArchKind::Cnn,
            img: IMG,
            channels: 3,
            latent: 32,
            classes: 10,
            width: 16,
        },
        workers: 10,
        batch: 10,
        runtime: Runtime::Sequential,
        train_n: 4000,
        test_n: 500,
        eval_n: 500,
        warmup: 20,
        iters_per_second: 40,
        trace_iters: 60,
    },
    Workload {
        name: "cnn-thr-b100",
        family: Family::CifarLike,
        spec: ArchSpec {
            kind: mdgan_core::arch::ArchKind::Cnn,
            img: IMG,
            channels: 3,
            latent: 32,
            classes: 10,
            width: 16,
        },
        workers: 2,
        batch: 100,
        runtime: Runtime::Threaded,
        train_n: 4000,
        test_n: 500,
        eval_n: 500,
        warmup: 5,
        iters_per_second: 18,
        trace_iters: 30,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything a run needs, built from the seed.
pub struct Setup {
    pub cfg: MdGanConfig,
    pub shards: Vec<Dataset>,
    pub md: MdGan,
    pub evaluator: Evaluator,
}

impl Workload {
    /// The Algorithm-1 configuration. The model initialisation and every
    /// training RNG stream derive from [`MODEL_SEED`]: they are part of the
    /// workload, like its architecture, while the seed only generates the
    /// training data.
    pub fn config(&self) -> MdGanConfig {
        MdGanConfig {
            workers: self.workers,
            k: KPolicy::LogN,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Derangement,
            hyper: GanHyper {
                batch: self.batch,
                ..GanHyper::default()
            },
            seed: MODEL_SEED,
            ..MdGanConfig::default()
        }
    }

    /// Iterations a `seconds`-long run trains (warm-up included), a
    /// multiple of [`EVAL_SLICES`].
    pub fn total_iters(&self, seconds: u64) -> usize {
        (self.warmup + seconds as usize * self.iters_per_second).next_multiple_of(EVAL_SLICES)
    }

    fn data_spec(&self, n: usize, seed: u64) -> DataSpec {
        match self.family {
            Family::MnistLike => DataSpec::mnist(IMG, n, seed),
            _ => DataSpec::cifar(IMG, n, seed),
        }
    }

    /// Synthesizes the seed's training set and shards it over the workers
    /// (the workload's fixed i.i.d. assignment).
    pub fn make_data(&self, seed: u64) -> Vec<Dataset> {
        let train = self.data_spec(self.train_n, seed).generate();
        train.shard_iid(self.workers, &mut Rng64::seed_from_u64(MODEL_SEED))
    }

    /// The scorer behind `fid_final`: fitted on the workload's fixed
    /// reference set and scoring against its fixed test draw, so the ruler
    /// is the same for every seed.
    pub fn fit_scorer(&self) -> Evaluator {
        let reference = self.data_spec(self.train_n + self.test_n, REFERENCE_SEED);
        let (train, test) = reference.generate().split_test(self.test_n);
        Evaluator::new(&train, &test, self.eval_n, REFERENCE_SEED)
    }

    /// Data synthesis, sharding, `MdGan::new` and `Evaluator::new`: the
    /// set-up up to the first iteration.
    pub fn setup(&self, seed: u64) -> Setup {
        let shards = self.make_data(seed);
        let cfg = self.config();
        let md = MdGan::new(&self.spec, shards.clone(), cfg.clone());
        let evaluator = self.fit_scorer();
        Setup {
            cfg,
            shards,
            md,
            evaluator,
        }
    }

    /// Table III parameters for `iters` iterations of this workload.
    pub fn sys_params(&self, iters: usize) -> SysParams {
        let mut rng = Rng64::seed_from_u64(0);
        SysParams {
            n: self.workers,
            b: self.batch,
            d: self.spec.object_size(),
            k: KPolicy::LogN.resolve(self.workers),
            m: self.train_n / self.workers,
            e: 1.0,
            iters,
            model: ModelSize {
                gen: self.spec.build_generator(&mut rng).num_params(),
                disc: self.spec.build_discriminator(&mut rng).num_params(),
            },
        }
    }

    /// Checks the per-class traffic of `iters` iterations of `runtime`
    /// against the Table III closed forms. Returns a description of the
    /// first mismatch.
    pub fn check_traffic(
        &self,
        r: &TrafficReport,
        iters: usize,
        runtime: Runtime,
    ) -> Result<(), String> {
        let p = self.sys_params(iters);
        let swaps = p.mdgan_swaps();
        let n = self.workers as u64;
        let expect = [
            (
                "C→W bytes",
                r.bytes(LinkClass::ServerToWorker),
                p.mdgan_c2w_server_bytes() * iters as u64,
            ),
            (
                "W→C bytes",
                r.bytes(LinkClass::WorkerToServer),
                p.mdgan_w2c_server_bytes() * iters as u64,
            ),
            (
                "W→W bytes",
                r.bytes(LinkClass::WorkerToWorker),
                p.mdgan_w2w_bytes() * n * swaps,
            ),
            (
                "W→C msgs",
                r.msgs(LinkClass::WorkerToServer),
                n * iters as u64,
            ),
            ("W→W msgs", r.msgs(LinkClass::WorkerToWorker), n * swaps),
        ];
        // The threaded runtime also counts its zero-byte control messages
        // (swap orders, stop) on the C→W link; the data messages are one
        // batch pair per worker per iteration in both runtimes.
        let control = match runtime {
            Runtime::Sequential => 0,
            Runtime::Threaded => n * (swaps + 1),
        };
        let c2w_msgs = (
            "C→W msgs",
            r.msgs(LinkClass::ServerToWorker),
            n * iters as u64 + control,
        );
        for (what, got, want) in expect.into_iter().chain([c2w_msgs]) {
            if got != want {
                return Err(format!(
                    "{}: {what} after {iters} iterations = {got}, Table III gives {want}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Fingerprint of a parameter set: `None` when any value is non-finite,
/// otherwise an order-sensitive hash of the bit patterns (a skipped
/// generator update leaves it unchanged).
pub fn param_digest<'a>(params: impl IntoIterator<Item = &'a [f32]>) -> Option<u64> {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for chunk in params {
        for &v in chunk {
            if !v.is_finite() {
                return None;
            }
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01B3);
        }
    }
    Some(h)
}

/// [`param_digest`] over a generator network, without copying it.
pub fn net_digest(net: &impl Layer) -> Option<u64> {
    param_digest(net.params().into_iter().map(|t| t.data()))
}

/// Counts failed iterations: a step whose generator parameters turned
/// non-finite or did not change.
pub struct UpdateCheck {
    last: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl UpdateCheck {
    pub fn new(initial: Option<u64>) -> Self {
        UpdateCheck {
            last: initial,
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one (or `iters`, for a whole threaded run) attempted
    /// iteration(s) ending at `digest`.
    pub fn record(&mut self, digest: Option<u64>, iters: u64) {
        self.attempted += iters;
        if digest.is_none() || digest == self.last {
            self.failed += iters;
        }
        if digest.is_some() {
            self.last = digest;
        }
    }
}
