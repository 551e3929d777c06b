//! Online, profile-guided schedule autotuning (closing the loop the
//! paper opens in §6.2).
//!
//! The static heuristic picks one schedule per matrix from three summary
//! statistics — but the paper's own results show no single schedule wins
//! across sparsity patterns, and the dispatch engine made every schedule
//! interchangeable behind a [`KernelPlan`]. This module walks the
//! candidate space *online*: each plan-cache miss for a tuned key serves
//! the request under one candidate ([`loops::dispatch::candidates`]
//! enumerates the space, including group-size and chunk-width variants)
//! and records the **simulated cost** the launch reports. The simulator
//! is deterministic, so one measurement per candidate is exact — no
//! repetition, no noise floor. When every candidate is measured, the
//! winner's prepared plan is **promoted** into the plan cache, and from
//! then on requests take the ordinary warm path (prepartitioned
//! merge-path tables, cached LRB bins) with zero tuner involvement.
//!
//! The policy is seeded epsilon-greedy: the first serve of a key always
//! explores (nothing is known), after that each miss explores the next
//! unmeasured candidate with probability `epsilon` and otherwise
//! exploits the best-measured one — so request latency stays close to
//! best-known while the sweep trickles to completion. Exploration order
//! is a seeded shuffle of the candidate list, decorrelating which
//! schedules pay the early-exploration cost across keys without losing
//! determinism: the same seed and request stream reproduce the same
//! choices, measurements, and promotions bitwise.
//!
//! Costs are measured on the *planned* (warm) path: the tuner prepares
//! the candidate's plan first and serves through it, so what it compares
//! is exactly the steady-state cost the cache will serve afterwards —
//! a cold merge-path launch would be charged for in-kernel diagonal
//! searches the warm path never runs, biasing the sweep against the
//! schedules that benefit most from caching.

use std::collections::HashMap;
use std::sync::Arc;

use loops::dispatch::{Candidate, KernelPlan};
use sparse::{FormatKind, Prng};

use crate::cache::PlanKey;

/// Autotuner knobs. Off by default: a runtime with a default config
/// serves bit-for-bit as it did before the tuner existed.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Master switch. When `false` the tuner is never consulted and the
    /// static heuristic picks every schedule.
    pub enabled: bool,
    /// Probability that a plan-cache miss explores the next unmeasured
    /// candidate once at least one cost is known (the first miss always
    /// explores). Higher converges faster; lower keeps pre-promotion
    /// latency closer to best-known.
    pub epsilon: f64,
    /// Maximum number of plan keys tracked; keys arriving after the
    /// table is full are served by the static heuristic (bounding tuner
    /// memory on long-tailed corpora).
    pub max_keys: usize,
    /// Whether the sweep includes non-CSR format candidates. `false`
    /// restricts the space to the schedule axis (the pre-format tuner,
    /// kept as the ablation baseline).
    pub formats: bool,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            epsilon: 0.4,
            max_keys: 256,
            formats: true,
        }
    }
}

/// Seed for the exploration-order shuffle and the epsilon draws. The
/// tuner has its own generator so enabling it never perturbs the
/// runtime's retry/chaos stream.
const TUNE_SEED: u64 = 0x70e5;

/// What the tuner asks the caller to do for one plan-cache miss.
#[derive(Debug, Clone)]
pub(crate) enum TuneAction {
    /// Serve under this unmeasured (schedule × format) candidate, then
    /// report the measured cost and the prepared plan back through
    /// [`Autotuner::record`].
    Explore(Candidate),
    /// Serve under the best-measured candidate; nothing to report.
    Exploit {
        /// The best-measured (schedule × format) cell so far.
        candidate: Candidate,
        /// Its recorded plan (serve through it).
        plan: Arc<KernelPlan>,
        /// `true` if this key already promoted a winner but the plan
        /// cache has since evicted it — the caller should re-insert
        /// `plan` so the warm path resumes.
        promote: bool,
    },
}

/// A completed sweep: the winning candidate to install in the plan
/// cache.
#[derive(Debug, Clone)]
pub(crate) struct Promotion {
    /// The winning (schedule × format) cell.
    pub candidate: Candidate,
    /// Its prepared plan, ready to insert into the cache.
    pub plan: Arc<KernelPlan>,
    /// Its measured warm-path cost in simulated milliseconds.
    pub cost_ms: f64,
}

/// Lifetime counters (monotone; serve-level reports diff snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Requests served under an unmeasured candidate.
    pub explores: usize,
    /// Sweeps completed (winner promoted into the plan cache).
    pub promotes: usize,
    /// Plan keys currently tracked.
    pub keys: usize,
}

/// Per-key sweep state.
#[derive(Debug)]
struct KeyState {
    /// Candidates in (seeded-shuffled) exploration order.
    order: Vec<Candidate>,
    /// Measured warm-path cost per candidate, parallel to `order`.
    costs: Vec<Option<f64>>,
    /// Index, cost and prepared plan of the best-measured candidate.
    best: Option<(usize, f64, Arc<KernelPlan>)>,
    /// The sweep finished and its winner was handed out.
    promoted: bool,
}

impl KeyState {
    fn next_unmeasured(&self) -> Option<usize> {
        self.costs.iter().position(Option::is_none)
    }
}

/// The online schedule autotuner: per-[`PlanKey`] sweep state plus the
/// seeded exploration stream. See the module docs for the policy.
#[derive(Debug)]
pub(crate) struct Autotuner {
    cfg: TuneConfig,
    rng: Prng,
    states: HashMap<PlanKey, KeyState>,
    explores: usize,
    promotes: usize,
}

impl Autotuner {
    /// A tuner with its own generator, seeded from [`TUNE_SEED`].
    pub fn new(cfg: TuneConfig) -> Self {
        Self {
            rng: Prng::seed_from_u64(TUNE_SEED),
            cfg,
            states: HashMap::new(),
            explores: 0,
            promotes: 0,
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TuneStats {
        TuneStats {
            explores: self.explores,
            promotes: self.promotes,
            keys: self.states.len(),
        }
    }

    /// Decide how to serve a plan-cache miss for `key`. Returns `None`
    /// when the caller should use the static-heuristic path unchanged:
    /// tuning disabled, the key table full, or an empty candidate space.
    /// `enumerate` is only invoked the first time a key is seen; its
    /// non-CSR cells are dropped unless [`TuneConfig::formats`] is on.
    pub fn choose(
        &mut self,
        key: PlanKey,
        enumerate: impl FnOnce() -> Vec<Candidate>,
    ) -> Option<TuneAction> {
        if !self.cfg.enabled {
            return None;
        }
        if !self.states.contains_key(&key) {
            if self.states.len() >= self.cfg.max_keys {
                return None;
            }
            let mut order = enumerate();
            if !self.cfg.formats {
                order.retain(|&(_, f)| f == FormatKind::Csr);
            }
            // Seeded Fisher–Yates: unbias which candidate eats the
            // first-exploration latency, deterministically.
            for i in (1..order.len()).rev() {
                let j = self.rng.index(0, i + 1);
                order.swap(i, j);
            }
            let costs = vec![None; order.len()];
            self.states.insert(
                key,
                KeyState {
                    order,
                    costs,
                    best: None,
                    promoted: false,
                },
            );
        }
        // Epsilon draw happens before borrowing the state so the
        // generator is consumed in a fixed order.
        let coin = self.rng.f64();
        let state = &self.states[&key];
        match (state.next_unmeasured(), &state.best) {
            // Nothing measured yet, the only way to learn is to explore;
            // after that, explore with probability epsilon.
            (Some(i), best) if best.is_none() || coin < self.cfg.epsilon => {
                Some(TuneAction::Explore(state.order[i]))
            }
            // Exploit the best so far. A promoted key only misses when
            // LRU eviction dropped its winner, which the caller
            // re-installs.
            (_, Some((bi, _, plan))) => Some(TuneAction::Exploit {
                candidate: state.order[*bi],
                plan: Arc::clone(plan),
                promote: state.promoted,
            }),
            // An empty candidate space.
            (_, None) => None,
        }
    }

    /// Report the measured warm-path cost of an explored candidate.
    /// Returns the [`Promotion`] when this measurement completes the
    /// key's sweep; the caller installs it in the plan cache. Repeat
    /// measurements of an already-measured candidate are ignored (the
    /// simulator is deterministic, so they carry no new information).
    pub fn record(
        &mut self,
        key: PlanKey,
        candidate: Candidate,
        cost_ms: f64,
        plan: Arc<KernelPlan>,
    ) -> Option<Promotion> {
        let state = self.states.get_mut(&key)?;
        let slot = state.order.iter().position(|k| *k == candidate)?;
        if state.costs[slot].is_none() {
            state.costs[slot] = Some(cost_ms);
            self.explores += 1;
            // Strict less-than: ties keep the earlier-measured candidate,
            // so the winner never depends on float comparison quirks.
            if state.best.as_ref().is_none_or(|(_, best, _)| cost_ms < *best) {
                state.best = Some((slot, cost_ms, plan));
            }
        }
        if state.next_unmeasured().is_none() && !state.promoted {
            state.promoted = true;
            self.promotes += 1;
            let (bi, best_cost, plan) = state.best.as_ref().expect("measured sweep has a best");
            return Some(Promotion {
                candidate: state.order[*bi],
                plan: Arc::clone(plan),
                cost_ms: *best_cost,
            });
        }
        None
    }

    /// Drop sweep state for every key over fingerprint `fp`. A mutated
    /// matrix's old fingerprint never arrives again, so its sweep slots
    /// would otherwise sit in the key table forever — a mutate-heavy
    /// stream leaks toward [`TuneConfig::max_keys`] and then refuses to
    /// tune anything new. Returns how many keys were dropped; the
    /// lifetime `explores`/`promotes` counters are unaffected.
    pub fn retire_fingerprint(&mut self, fp: &crate::fingerprint::Fingerprint) -> usize {
        let before = self.states.len();
        self.states.retain(|k, _| k.fp != *fp);
        before - self.states.len()
    }

    /// The promoted winner for `key`, if its sweep completed.
    pub fn winner(&self, key: &PlanKey) -> Option<Candidate> {
        let state = self.states.get(key)?;
        if !state.promoted {
            return None;
        }
        state.best.as_ref().map(|(i, _, _)| state.order[*i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use loops::dispatch::KernelKind;
    use loops::schedule::ScheduleKind;

    fn key(rows: usize) -> PlanKey {
        // Distinct row counts guarantee distinct fingerprints (the
        // generator may drop colliding nonzeros, so distinct *nnz*
        // requests would not).
        PlanKey {
            kernel: KernelKind::Spmv,
            format: FormatKind::Csr,
            fp: Fingerprint::of(&sparse::gen::uniform(rows, 16, 4 * rows, 1)),
        }
    }

    fn csr(kind: ScheduleKind) -> Candidate {
        (kind, FormatKind::Csr)
    }

    fn plan(candidate: Candidate) -> Arc<KernelPlan> {
        Arc::new(KernelPlan {
            schedule: candidate.0,
            block_dim: 256,
            merge_starts: None,
            lrb: None,
            setup_ms: 0.0,
        })
    }

    fn drive_sweep(tuner: &mut Autotuner, k: PlanKey, cost_of: impl Fn(Candidate) -> f64) -> Promotion {
        let space = || {
            vec![
                csr(ScheduleKind::ThreadMapped),
                csr(ScheduleKind::MergePath),
                (ScheduleKind::ThreadMapped, FormatKind::Hybrid),
            ]
        };
        for _ in 0..1000 {
            match tuner.choose(k, space) {
                Some(TuneAction::Explore(c)) => {
                    if let Some(p) = tuner.record(k, c, cost_of(c), plan(c)) {
                        return p;
                    }
                }
                Some(TuneAction::Exploit { .. }) => {}
                None => panic!("tuner gave up mid-sweep"),
            }
        }
        panic!("sweep did not converge in 1000 requests");
    }

    #[test]
    fn disabled_tuner_is_never_consulted() {
        let mut t = Autotuner::new(TuneConfig::default());
        assert!(t.choose(key(32), || vec![csr(ScheduleKind::ThreadMapped)]).is_none());
        assert_eq!(t.stats(), TuneStats::default());
    }

    #[test]
    fn sweep_measures_every_candidate_once_and_promotes_the_cheapest() {
        let cfg = TuneConfig {
            enabled: true,
            ..TuneConfig::default()
        };
        let mut t = Autotuner::new(cfg);
        let k = key(48);
        // The hybrid cell wins: the sweep must compare across formats,
        // not just schedules.
        let winner = (ScheduleKind::ThreadMapped, FormatKind::Hybrid);
        let promo = drive_sweep(&mut t, k, |c| {
            if c == winner {
                0.25
            } else if c.0 == ScheduleKind::MergePath {
                0.5
            } else {
                1.0
            }
        });
        assert_eq!(promo.candidate, winner);
        assert_eq!(promo.cost_ms, 0.25);
        assert_eq!(t.stats().explores, 3, "each candidate measured exactly once");
        assert_eq!(t.stats().promotes, 1);
        assert_eq!(t.winner(&k), Some(winner));
        // After promotion the tuner hands back the winner for cache
        // re-insertion instead of exploring again.
        match t.choose(k, || panic!("candidate space must not be re-enumerated")) {
            Some(TuneAction::Exploit { candidate, plan, promote }) => {
                assert_eq!(candidate, winner);
                assert!(promote);
                assert_eq!(plan.schedule, ScheduleKind::ThreadMapped);
            }
            other => panic!("expected promoted exploit, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_choice_sequence() {
        let cfg = TuneConfig {
            enabled: true,
            ..TuneConfig::default()
        };
        let run = || {
            let mut t = Autotuner::new(cfg);
            let k = key(64);
            let mut seq = Vec::new();
            for _ in 0..20 {
                match t.choose(k, || {
                    vec![
                        csr(ScheduleKind::ThreadMapped),
                        csr(ScheduleKind::MergePath),
                        csr(ScheduleKind::WarpMapped),
                        (ScheduleKind::ThreadMapped, FormatKind::Ell),
                    ]
                }) {
                    Some(TuneAction::Explore((kind, fmt))) => {
                        seq.push(format!("explore {kind}/{fmt}"));
                        t.record(k, (kind, fmt), 1.0 + seq.len() as f64, plan((kind, fmt)));
                    }
                    Some(TuneAction::Exploit { candidate: (kind, fmt), .. }) => {
                        seq.push(format!("exploit {kind}/{fmt}"));
                    }
                    None => seq.push("none".into()),
                }
            }
            seq
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn key_table_is_bounded() {
        let cfg = TuneConfig {
            enabled: true,
            max_keys: 2,
            ..TuneConfig::default()
        };
        let mut t = Autotuner::new(cfg);
        assert!(t.choose(key(16), || vec![csr(ScheduleKind::ThreadMapped)]).is_some());
        assert!(t.choose(key(17), || vec![csr(ScheduleKind::ThreadMapped)]).is_some());
        // A third distinct key is refused; the caller serves statically.
        assert!(t.choose(key(18), || vec![csr(ScheduleKind::ThreadMapped)]).is_none());
        assert_eq!(t.stats().keys, 2);
        // Known keys keep tuning.
        assert!(t.choose(key(16), || panic!("no re-enumeration")).is_some());
    }

    #[test]
    fn exploit_between_explorations_serves_best_so_far() {
        let cfg = TuneConfig {
            enabled: true,
            epsilon: 0.0, // never explore once something is measured
            ..TuneConfig::default()
        };
        let mut t = Autotuner::new(cfg);
        let k = key(80);
        let space = || vec![csr(ScheduleKind::ThreadMapped), csr(ScheduleKind::MergePath)];
        let Some(TuneAction::Explore(first)) = t.choose(k, space) else {
            panic!("first serve must explore");
        };
        t.record(k, first, 2.0, plan(first));
        // With epsilon 0 the sweep stalls on exploit — always best-so-far.
        for _ in 0..10 {
            match t.choose(k, space) {
                Some(TuneAction::Exploit { candidate, promote, .. }) => {
                    assert_eq!(candidate, first);
                    assert!(!promote);
                }
                other => panic!("expected exploit, got {other:?}"),
            }
        }
        assert_eq!(t.stats().promotes, 0);
    }
}
