//! The untraced end-to-end run: set-up, warm-up, the measured training
//! block through the public runtime entry points, and the final score.

use crate::host;
use crate::report::{median, quantile, Metrics};
use crate::workload::{
    net_digest, param_digest, Runtime, Setup, UpdateCheck, Workload, EVAL_SLICES,
};
use md_telemetry::{Event, Phase, Recorder};
use mdgan_core::mdgan::threaded::{run_threaded_with, ThreadedResult};
use mdgan_core::Evaluator;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What a run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Extra record fields (sample counts, quantiles, scores) as JSON members.
    pub detail: String,
}

/// Builds the workload `SETUP_REPS` times; returns the last set-up and
/// the median total set-up time in seconds.
pub fn timed_setup(w: &Workload, seed: u64) -> (Setup, f64, Vec<f64>) {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let s = w.setup(seed);
        totals.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), median(&totals), totals)
}

/// `iter_ms` is this quantile of the per-iteration wall times, on both
/// runtimes. The host moves between speed modes 35–70% apart for seconds at
/// a time, so the block mean and the median follow the host; the fast tail
/// is the program's own iteration time. Over ten seeds the 5th percentile
/// spread (IQR ÷ median) by 0.015–0.03 on the sequential workloads and 0.11
/// on the threaded one, against 0.15–0.24 for the median.
const ITER_QUANTILE: f64 = 0.05;

/// `fid_final` is the mean of the scores taken after 1/8, 1/4, 1/2 and all
/// of training: one score per doubling of training, a convergence summary
/// that varies across data seeds by a few percent where the last score
/// alone varies by 20–50%.
const FID_AT: [usize; 4] = [1, 2, 4, 8];

pub fn run(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let (setup, setup_s, setup_all) = timed_setup(w, seed);
    let total = w.total_iters(seconds);
    let eval_every = total / EVAL_SLICES;
    let mut errors = Vec::new();
    let Setup {
        mut md,
        mut evaluator,
        cfg,
        shards,
    } = setup;
    // A threaded run starts from this generator too.
    let mut check = UpdateCheck::new(param_digest([md.gen_params().as_slice()]));
    let mut fids = Vec::with_capacity(EVAL_SLICES);
    let (iter_ms, wall_s, cpu_s, wire) = match w.runtime {
        Runtime::Sequential => {
            let mut iter_ms = Vec::with_capacity(total);
            let (mut wall_s, mut cpu_s) = (0.0, 0.0);
            for i in 0..total {
                let (c0, t) = (host::process_cpu_s(), Instant::now());
                md.step();
                let dt = t.elapsed().as_secs_f64();
                let cpu = host::process_cpu_s() - c0;
                check.record(net_digest(&md.generator_mut().net), 1);
                if i >= w.warmup {
                    iter_ms.push(dt * 1e3);
                    wall_s += dt;
                    cpu_s += cpu;
                }
                if (i + 1) % eval_every == 0 {
                    fids.push(evaluator.evaluate(md.generator_mut()).fid);
                }
            }
            let traffic = md.traffic();
            if let Err(e) = w.check_traffic(&traffic, total, Runtime::Sequential) {
                errors.push(e);
            }
            let wire = traffic.total_bytes() as f64 / total as f64;
            (iter_ms, wall_s, cpu_s, wire)
        }
        Runtime::Threaded => {
            drop(md);
            let t = threaded_timed(w, shards, cfg, total, Some((&mut evaluator, eval_every)));
            check.record(param_digest([t.result.gen_params.as_slice()]), total as u64);
            if let Err(e) = w.check_traffic(&t.result.traffic, total, Runtime::Threaded) {
                errors.push(e);
            }
            fids.extend(
                t.result
                    .timeline
                    .points()
                    .iter()
                    .filter(|(i, _)| *i > 0)
                    .map(|(_, s)| s.fid),
            );
            let wire = t.result.traffic.total_bytes() as f64 / total as f64;
            // `iter_ms[j]` times iteration j + 1; the warm-up is not timed.
            let timed = t.iter_ms[w.warmup.saturating_sub(1)..].to_vec();
            (timed, t.wall_s, t.cpu_s, wire)
        }
    };
    if check.failed > 0 {
        errors.push(format!(
            "{}: {} of {} iterations skipped the generator update or left non-finite parameters",
            w.name, check.failed, check.attempted
        ));
    }
    let fid = if fids.len() == EVAL_SLICES {
        FID_AT.iter().map(|&s| fids[s - 1]).sum::<f64>() / FID_AT.len() as f64
    } else {
        errors.push(format!(
            "{}: {} of {EVAL_SLICES} scores taken",
            w.name,
            fids.len()
        ));
        f64::NAN
    };
    if !fid.is_finite() {
        errors.push(format!("{}: fid_final is not finite", w.name));
    }
    let iter = quantile(&iter_ms, ITER_QUANTILE);
    let utilization = cpu_s / wall_s;
    // The highest whole percentile with at least ten samples above it.
    let high = (100.0 * (1.0 - 10.0 / iter_ms.len() as f64))
        .floor()
        .max(50.0);
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("iter_ms", iter, "ms");
    metrics.put("cpu_ms_per_iter", iter * utilization, "ms");
    metrics.put("fid_final", fid, "1");
    metrics.put("wire_bytes_per_iter", wire, "B");
    metrics.put("peak_rss_mb", host::peak_rss_mb(), "MB");
    let detail = format!(
        "\"samples\":{{\"setup_s\":{},\"iter_ms\":{},\"iter_quantile\":{ITER_QUANTILE},\"fid_scores\":{}}},\
         \"iter_ms_quantiles\":{{\"min\":{},\"p1\":{},\"p5\":{},\"p50\":{},\"p{high}\":{}}},\"iter_ms_mean\":{},\"cpu_utilization\":{utilization},\
         \"setup_s_all\":{setup_all:?},\"fid_along_training\":{fids:?},\"iter_ms_series\":{iter_ms:?}",
        setup_all.len(),
        iter_ms.len(),
        FID_AT.len(),
        quantile(&iter_ms, 0.0),
        quantile(&iter_ms, 0.01),
        quantile(&iter_ms, 0.05),
        median(&iter_ms),
        quantile(&iter_ms, high / 100.0),
        wall_s * 1e3 / iter_ms.len() as f64,
    );
    Outcome {
        metrics,
        attempted: check.attempted,
        failed: check.failed,
        errors,
        detail,
    }
}

/// One timed `run_threaded` call.
pub struct ThreadedTimed {
    /// Wall time of every iteration after the first (the interval between
    /// consecutive `IterDone` events of the runtime's recorder, enabled with
    /// tracing off), minus the scoring that follows a scored iteration.
    pub iter_ms: Vec<f64>,
    /// Wall and CPU time of the call, scoring excluded.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub result: ThreadedResult,
}

/// Runs the threaded runtime for `iters` iterations from the seed's
/// initial state, timing every iteration and optionally scoring every
/// `eval_every` iterations.
pub fn threaded_timed(
    w: &Workload,
    shards: Vec<md_data::Dataset>,
    cfg: mdgan_core::MdGanConfig,
    iters: usize,
    eval: Option<(&mut Evaluator, usize)>,
) -> ThreadedTimed {
    let rec = Arc::new(Recorder::enabled());
    let (evaluator, eval_every) = match eval {
        Some((e, every)) => (Some(e), every),
        None => (None, iters),
    };
    let (t0, c0) = (Instant::now(), host::process_cpu_s());
    let result = run_threaded_with(
        &w.spec,
        shards,
        cfg,
        evaluator,
        iters,
        eval_every,
        Arc::clone(&rec),
    );
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), host::process_cpu_s() - c0);
    // Scoring runs on the server thread while every other thread waits.
    let eval_s = rec.phase_stats(Phase::Eval).sum as f64 / 1e9;
    let mut stamps = Vec::with_capacity(iters);
    let mut eval_ns = Vec::with_capacity(iters);
    for e in rec.events() {
        match e.event {
            Event::IterDone { .. } => {
                stamps.push(e.t_ns);
                eval_ns.push(0);
            }
            Event::EvalDone { .. } => {
                if let Some(last) = eval_ns.last_mut() {
                    *last = e.t_ns - stamps[stamps.len() - 1];
                }
            }
            _ => {}
        }
    }
    let iter_ms = stamps
        .windows(2)
        .zip(&eval_ns)
        .map(|(p, &ev)| (p[1] - p[0] - ev) as f64 / 1e6)
        .collect();
    ThreadedTimed {
        iter_ms,
        wall_s: wall_s - eval_s,
        cpu_s: cpu_s - eval_s,
        result,
    }
}
