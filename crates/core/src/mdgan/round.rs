//! The server's round bookkeeping, shared by the sequential and threaded
//! runtimes.
//!
//! Both synchronous runtimes execute the same Algorithm-1 iteration; they
//! differ only in how messages move (in-process calls versus routed
//! channels). Everything the server *decides* in a round lives here, so
//! the two cannot drift apart:
//!
//! 1. crash-schedule and churn-plan events due at the start of the round
//!    ([`ServerBook::begin`]);
//! 2. the addressed set — the server's view, minus evicted workers, minus
//!    suspects outside probe rounds, restricted to discriminator hosts
//!    ([`ServerBook::addressed`]) — and its SPLIT ([`ServerBook::split`]);
//! 3. forensics → failure detector → eviction, and the quorum gate
//!    ([`ServerBook::close`]);
//! 4. the swap candidates ([`ServerBook::swap_candidates`]);
//! 5. graceful leaves at the end of the round ([`ServerBook::finish`]).
//!
//! `cfg.is_robust()` only changes what the server is *told*: an announced
//! crash (the default) drops the slot from the view at once — the crash
//! oracle is a zero-latency detector — while a silent crash (robust mode)
//! leaves the slot in the view until the [`FailureDetector`] infers it
//! from missed deadlines. On a perfect network with announced crashes every
//! addressed worker answers, so the detector never fires.

use crate::config::MdGanConfig;
use crate::defense::FeedbackForensics;
use crate::mdgan::server::MdServer;
use md_simnet::{
    ChurnKind, ChurnPlan, FailureDetector, FaultState, Liveness, MemberStatus, Membership,
    TrafficStats,
};
use md_telemetry::{Counter, Event, Recorder, SpanKind, TraceCtx, Track};
use md_tensor::Tensor;

/// A membership change applied at the start of a round; the runtime
/// carries out its side (dropping or stopping the worker, shipping the
/// joiner its bootstrap snapshot).
#[derive(Debug)]
pub(crate) enum Change {
    /// The worker in this slot crashed (fail-stop).
    Crashed(usize),
    /// The worker in `slot` joined and bootstraps from `source`, the
    /// lowest-id running member at that moment (`None`: keep the fresh
    /// init).
    Joined { slot: usize, source: Option<usize> },
}

/// Server-side state of the synchronous runtimes besides models and RNGs.
pub(crate) struct ServerBook {
    /// Epoch-numbered cluster view; tracks churn-plan joins, leaves and
    /// crashes, and detector evictions.
    pub(crate) membership: Membership,
    /// Timeout-based liveness inference over the addressed workers.
    detector: FailureDetector,
    /// Free-rider forensics (scores every gathered feedback when
    /// `cfg.defense.enabled`).
    forensics: FeedbackForensics,
    /// Ground truth: the worker still runs. Crashes and graceful leaves
    /// clear it whether or not the server is told.
    pub(crate) running: Vec<bool>,
}

impl ServerBook {
    /// Bookkeeping for `cfg`, every slot running.
    ///
    /// # Panics
    /// Panics on an invalid churn plan, and on a robust config whose churn
    /// plan joins or leaves (the silent-crash view is static).
    pub(crate) fn new(cfg: &MdGanConfig) -> Self {
        if !cfg.churn.is_none() {
            ChurnPlan::from_events(cfg.workers, cfg.churn.events().to_vec())
                .expect("invalid churn plan");
        }
        assert!(
            !cfg.is_robust()
                || cfg
                    .churn
                    .events()
                    .iter()
                    .all(|e| e.kind == ChurnKind::Crash),
            "robust mode supports crash-only churn plans (a silent-crash view admits no joins or leaves)"
        );
        let total = cfg.total_workers();
        ServerBook {
            membership: Membership::new(cfg.workers, total),
            detector: FailureDetector::new(cfg.workers, cfg.robust.suspect_after)
                .expect("suspect_after must be at least 1")
                .with_eviction(cfg.robust.evict_after),
            forensics: FeedbackForensics::new(cfg.defense, total),
            running: vec![true; total],
        }
    }

    /// Whether slot `w` is a running member (ground truth).
    fn is_alive(&self, w: usize) -> bool {
        self.running[w] && self.membership.is_alive(w)
    }

    /// Running members (0-based slots, ascending) — the ground-truth alive
    /// set a run reports.
    pub(crate) fn alive(&self) -> Vec<usize> {
        (0..self.running.len())
            .filter(|&w| self.is_alive(w))
            .collect()
    }

    /// Whether `w` is in the server's view: with announced crashes the
    /// running members, with silent ones every member that has joined and
    /// not left (the detector narrows it from there).
    fn in_view(&self, cfg: &MdGanConfig, w: usize) -> bool {
        if cfg.is_robust() {
            !matches!(
                self.membership.status(w),
                MemberStatus::Pending | MemberStatus::Left
            )
        } else {
            self.is_alive(w)
        }
    }

    /// Applies the crash schedule and the churn plan's crashes and joins
    /// due at iteration `i`, in plan order.
    pub(crate) fn begin(
        &mut self,
        cfg: &MdGanConfig,
        i: usize,
        telemetry: &Recorder,
    ) -> Vec<Change> {
        let mut changes = Vec::new();
        for w in 0..self.running.len() {
            if self.running[w] && cfg.crash.is_crashed(w + 1, i) {
                self.running[w] = false;
                self.membership.crash(w);
                telemetry.event(Event::WorkerFault {
                    iter: i,
                    worker: w + 1,
                });
                changes.push(Change::Crashed(w));
            }
        }
        for ev in cfg.churn.events_at(i) {
            let slot = ev.worker - 1;
            match ev.kind {
                ChurnKind::Crash => {
                    if self.membership.apply(ev).is_ok() {
                        self.running[slot] = false;
                        telemetry.event(Event::WorkerFault {
                            iter: i,
                            worker: ev.worker,
                        });
                        changes.push(Change::Crashed(slot));
                    }
                }
                ChurnKind::Join => {
                    self.membership.apply(ev).expect("validated churn plan");
                    self.detector.track(slot);
                    telemetry.event(Event::WorkerJoined {
                        iter: i,
                        worker: ev.worker,
                    });
                    let source = self
                        .membership
                        .alive()
                        .into_iter()
                        .find(|&s| s != slot && self.running[s]);
                    changes.push(Change::Joined { slot, source });
                }
                ChurnKind::Leave => {}
            }
        }
        changes
    }

    /// The workers the server sends batches to in round `i`: the view
    /// minus evicted workers, minus suspects (except on probe rounds, so
    /// false suspects can rejoin), restricted to `hosts` (in host order)
    /// when only some workers hold a discriminator.
    pub(crate) fn addressed(
        &self,
        cfg: &MdGanConfig,
        i: usize,
        hosts: Option<&[usize]>,
    ) -> Vec<usize> {
        let probe = cfg.robust.probe_period > 0 && i.is_multiple_of(cfg.robust.probe_period);
        let addressable = |w: usize| {
            self.in_view(cfg, w)
                && !self.detector.is_evicted(w)
                && (!self.detector.is_suspected(w) || probe)
        };
        match hosts {
            None => (0..self.running.len())
                .filter(|&w| addressable(w))
                .collect(),
            Some(h) => h.iter().copied().filter(|&w| addressable(w)).collect(),
        }
    }

    /// The round's SPLIT: the number of generated batches and each
    /// addressed worker's `(g_id, d_id)`. A server that sees churn
    /// rebalances `k` over its current view by view position; otherwise
    /// the construction-time `k` is kept, assigned by slot.
    pub(crate) fn split(
        &self,
        cfg: &MdGanConfig,
        k: usize,
        addressed: &[usize],
    ) -> (usize, Vec<(usize, usize)>) {
        if cfg.churn.is_none() || cfg.is_robust() {
            let split = addressed.iter().map(|&w| MdServer::assign(w, k)).collect();
            (k, split)
        } else {
            let k = cfg.k.resolve(addressed.len());
            let split = (0..addressed.len())
                .map(|pos| MdServer::assign(pos, k))
                .collect();
            (k, split)
        }
    }

    /// Closes round `i` over the `(slot, g_id, feedback)` triples that
    /// arrived: feedback forensics, one detector transition per addressed
    /// worker (a flagged free-rider's feedback counts as missed, so the
    /// suspect → evict machinery graduates it out of the view), then the
    /// quorum gate. Returns the `(g_id, feedback)` pairs to aggregate, or
    /// `None` when the round must not touch the generator.
    pub(crate) fn close(
        &mut self,
        cfg: &MdGanConfig,
        i: usize,
        addressed: &[usize],
        feedbacks: Vec<(usize, usize, Tensor)>,
        stats: &TrafficStats,
        telemetry: &Recorder,
    ) -> Option<Vec<(usize, Tensor)>> {
        let defense_on = cfg.defense.enabled;
        let mut quarantined = vec![false; feedbacks.len()];
        if defense_on {
            let items: Vec<(usize, usize, &Tensor)> =
                feedbacks.iter().map(|(w, g, f)| (*w, *g, f)).collect();
            for (n, v) in self.forensics.observe(&items).iter().enumerate() {
                quarantined[n] = v.quarantined;
                if v.newly_flagged {
                    telemetry.event(Event::WorkerFlagged {
                        iter: i,
                        worker: v.worker + 1,
                        norm_score: f64::from(v.norm_score),
                        self_cos: f64::from(v.self_cos),
                        peer_cos: f64::from(v.peer_cos),
                    });
                }
                if v.cleared {
                    telemetry.event(Event::WorkerCleared {
                        iter: i,
                        worker: v.worker + 1,
                    });
                }
            }
        }
        for &w in addressed {
            let flagged = defense_on && self.forensics.is_flagged(w);
            if !flagged && feedbacks.iter().any(|f| f.0 == w) {
                if self.detector.heard(w) == Liveness::Rejoined {
                    telemetry.event(Event::WorkerRejoined {
                        iter: i,
                        worker: w + 1,
                    });
                }
                continue;
            }
            match self.detector.missed(w) {
                Liveness::Suspected => telemetry.event(Event::WorkerSuspected {
                    iter: i,
                    worker: w + 1,
                }),
                Liveness::Evicted => {
                    // Permanent: the view records the eviction and the
                    // peer's traffic counters freeze at their last values.
                    self.membership.evict(w);
                    stats.retire(w + 1);
                    self.forensics.retire(w);
                    if flagged {
                        telemetry.event(Event::FreeriderEvicted {
                            iter: i,
                            worker: w + 1,
                        });
                    }
                    telemetry.event(Event::WorkerEvicted {
                        iter: i,
                        worker: w + 1,
                    });
                }
                _ => {}
            }
        }
        let heard = feedbacks.len();
        let kept: Vec<(usize, Tensor)> = feedbacks
            .into_iter()
            .zip(quarantined)
            .filter(|(_, q)| !q)
            .map(|((_, g, f), _)| (g, f))
            .collect();
        if heard >= cfg.robust.quorum(addressed.len()) && !kept.is_empty() {
            Some(kept)
        } else {
            if heard > 0 {
                telemetry.event(Event::Custom {
                    name: "quorum_missed",
                    value: i as f64,
                });
            }
            None
        }
    }

    /// Swap candidates: the view minus suspects. A silently crashed
    /// candidate sends nothing, and its destination keeps its old
    /// discriminator.
    pub(crate) fn swap_candidates(&self, cfg: &MdGanConfig) -> Vec<usize> {
        (0..self.running.len())
            .filter(|&w| self.in_view(cfg, w) && !self.detector.is_suspected(w))
            .collect()
    }

    /// Applies the graceful leaves due at iteration `i`: the leaver drained
    /// its batches, sent its final feedback and took part in any swap
    /// before its slot is released. Returns the departed slots.
    pub(crate) fn finish(
        &mut self,
        cfg: &MdGanConfig,
        i: usize,
        stats: &TrafficStats,
        telemetry: &Recorder,
    ) -> Vec<usize> {
        let mut left = Vec::new();
        for ev in cfg
            .churn
            .events_at(i)
            .filter(|e| e.kind == ChurnKind::Leave)
        {
            if self.membership.apply(ev).is_ok() {
                let slot = ev.worker - 1;
                self.running[slot] = false;
                self.detector.forget(slot);
                stats.retire(ev.worker);
                telemetry.event(Event::WorkerLeft {
                    iter: i,
                    worker: ev.worker,
                });
                left.push(slot);
            }
        }
        left
    }
}

/// The simulated network of the in-process runtimes: every data message
/// crosses the seeded fault layer (a perfect network is
/// [`FaultPlan::none`](md_simnet::FaultPlan::none)), so traffic stats and
/// telemetry counters are charged on one path.
pub(crate) struct Wire<'a> {
    pub(crate) faults: &'a FaultState,
    pub(crate) stats: &'a TrafficStats,
    pub(crate) telemetry: &'a Recorder,
    pub(crate) retries: u32,
}

impl Wire<'_> {
    /// Sends one logical data message of `bytes` from node `from` to node
    /// `to` at virtual tick `tick`. On delivery, returns the receiver's
    /// `recv` span id (0 when untraced), recorded where the threaded
    /// runtime's endpoint records it when it pops the envelope.
    pub(crate) fn send(
        &self,
        from: usize,
        to: usize,
        bytes: u64,
        tick: u64,
        ctx: TraceCtx,
    ) -> Option<u64> {
        let mut recv = 0;
        let telemetry = self.telemetry;
        let d = self.faults.transmit(
            from,
            to,
            tick,
            bytes,
            self.retries,
            self.stats,
            Some(telemetry),
            ctx,
            |dup, sent| {
                if !dup && sent != 0 {
                    recv = telemetry.trace_instant(
                        SpanKind::Recv {
                            from: from as u32,
                            bytes,
                        },
                        Track::node(to),
                        TraceCtx {
                            trace: ctx.trace,
                            span: sent,
                        },
                        tick,
                    );
                }
            },
        );
        d.delivered.then_some(recv)
    }

    /// Charges one control-plane transfer, which is never subject to
    /// faults (bootstrap snapshots).
    pub(crate) fn send_reliable(&self, from: usize, to: usize, bytes: u64) {
        self.stats.record(from, to, bytes);
        self.telemetry.incr(Counter::MsgsSent, 1);
        self.telemetry.incr(Counter::BytesSent, bytes);
    }
}
