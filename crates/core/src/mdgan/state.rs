//! The checkpoint sections every MD-GAN runtime shares: the generator and
//! its Adam moments, the RNG streams, each live worker's discriminator,
//! moments and sampler position, the alive mask, the counters and the
//! traffic totals.
//!
//! One encode/decode pair serves all runtimes, so a checkpoint written by
//! the threaded runtime restores into the sequential one and vice versa.

use crate::checkpoint::Checkpoint;
use crate::error::TrainError;
use crate::mdgan::server::MdServer;
use crate::mdgan::worker::MdWorker;
use md_nn::optim::AdamState;
use md_simnet::TrafficStats;
use md_tensor::rng::Rng64;

/// One worker's resumable state.
#[derive(Clone, Debug)]
pub struct WorkerSnapshot {
    /// Flat discriminator parameters `θ`.
    pub disc: Vec<f32>,
    /// Discriminator optimizer state.
    pub opt: AdamState,
    /// Shard-sampler RNG stream position.
    pub sampler: [u64; Rng64::STATE_WORDS],
}

impl WorkerSnapshot {
    /// Captures `w`'s resumable state.
    pub fn of(w: &MdWorker) -> Self {
        WorkerSnapshot {
            disc: w.disc_params(),
            opt: w.opt_state(),
            sampler: w.sampler_state_words(),
        }
    }
}

fn ckerr(e: std::io::Error) -> TrainError {
    TrainError::Checkpoint(e.to_string())
}

/// Encodes the shared sections. `rngs` names the runtime's RNG streams
/// besides the server's; `workers[i]` is slot `i`'s state (`None`: dead).
pub(crate) fn encode(
    iteration: u64,
    server: &MdServer,
    rngs: &[(&str, &Rng64)],
    workers: Vec<Option<WorkerSnapshot>>,
    counters: Vec<u64>,
    traffic: Vec<u64>,
) -> Checkpoint {
    let mut ck = Checkpoint::new(iteration);
    ck.push("generator", server.gen_params());
    let g_opt = server.opt_state();
    ck.push("opt_g_m", g_opt.m);
    ck.push("opt_g_v", g_opt.v);
    let mut adam_t = vec![0u64; 1 + workers.len()];
    adam_t[0] = g_opt.t;
    ck.push_u64("rng_server", server.rng_state_words().to_vec());
    for (name, rng) in rngs {
        ck.push_u64(*name, rng.state_words().to_vec());
    }
    let alive: Vec<u64> = workers.iter().map(|w| u64::from(w.is_some())).collect();
    for (i, w) in workers.into_iter().enumerate() {
        let Some(w) = w else { continue };
        let id = i + 1;
        ck.push(format!("disc_{id}"), w.disc);
        adam_t[id] = w.opt.t;
        ck.push(format!("opt_d_{id}_m"), w.opt.m);
        ck.push(format!("opt_d_{id}_v"), w.opt.v);
        ck.push_u64(format!("rng_sampler_{id}"), w.sampler.to_vec());
    }
    ck.push_u64("adam_t", adam_t);
    ck.push_u64("alive", alive);
    ck.push_u64("counters", counters);
    ck.push_u64("traffic", traffic);
    ck
}

/// Restores what [`encode`] wrote into an identically configured system
/// and returns the `counters` section (`counters` words long).
///
/// Workers dead at capture time are dropped here too; missing or
/// length-mismatched sections are errors, not silent skips. A legacy
/// parameter-only checkpoint (no `alive` section) restores the generator
/// and discriminators only — a worker without a `disc_n` section is
/// treated as crashed — and returns `None`.
pub(crate) fn decode(
    ck: &Checkpoint,
    server: &mut MdServer,
    rngs: &mut [(&str, &mut Rng64)],
    workers: &mut [Option<MdWorker>],
    stats: &TrafficStats,
    counters: usize,
) -> Result<Option<Vec<u64>>, TrainError> {
    let n = workers.len();
    let gen = ck
        .require_len("generator", server.gen_params_len())
        .map_err(ckerr)?;
    server.set_gen_params(gen);

    if ck.get_u64("alive").is_none() {
        for (i, slot) in workers.iter_mut().enumerate() {
            let name = format!("disc_{}", i + 1);
            match (ck.get(&name), slot.as_mut()) {
                (None, _) => *slot = None,
                (Some(params), Some(w)) if params.len() != w.disc_params_len() => {
                    return Err(TrainError::Checkpoint(format!(
                        "{name} has {} params, worker expects {}",
                        params.len(),
                        w.disc_params_len()
                    )));
                }
                (Some(params), Some(w)) => w.set_disc_params(params),
                (Some(_), None) => {}
            }
        }
        return Ok(None);
    }
    let alive = ck.require_u64_len("alive", n).map_err(ckerr)?;
    let adam_t = ck.require_u64_len("adam_t", 1 + n).map_err(ckerr)?;
    let g_state = AdamState {
        t: adam_t[0],
        m: ck.require("opt_g_m").map_err(ckerr)?.to_vec(),
        v: ck.require("opt_g_v").map_err(ckerr)?.to_vec(),
    };
    server
        .import_opt_state(&g_state)
        .map_err(TrainError::Checkpoint)?;

    let words = |name: &str| -> Result<[u64; Rng64::STATE_WORDS], TrainError> {
        let w = ck
            .require_u64_len(name, Rng64::STATE_WORDS)
            .map_err(ckerr)?;
        Ok(std::array::from_fn(|i| w[i]))
    };
    server.set_rng_state_words(words("rng_server")?);
    for (name, rng) in rngs.iter_mut() {
        **rng = Rng64::from_state_words(words(name)?);
    }

    for (i, slot) in workers.iter_mut().enumerate() {
        let id = i + 1;
        if alive[i] == 0 {
            *slot = None;
            continue;
        }
        let Some(w) = slot.as_mut() else {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint has worker {id} alive but it already crashed here"
            )));
        };
        let disc = ck
            .require_len(&format!("disc_{id}"), w.disc_params_len())
            .map_err(ckerr)?;
        w.set_disc_params(disc);
        let d_state = AdamState {
            t: adam_t[id],
            m: ck
                .require(&format!("opt_d_{id}_m"))
                .map_err(ckerr)?
                .to_vec(),
            v: ck
                .require(&format!("opt_d_{id}_v"))
                .map_err(ckerr)?
                .to_vec(),
        };
        w.import_opt_state(&d_state)
            .map_err(TrainError::Checkpoint)?;
        w.set_sampler_state_words(words(&format!("rng_sampler_{id}"))?);
    }

    let counters = ck.require_u64_len("counters", counters).map_err(ckerr)?;
    stats
        .load_state_words(ck.require_u64("traffic").map_err(ckerr)?)
        .map_err(TrainError::Checkpoint)?;
    Ok(Some(counters.to_vec()))
}
