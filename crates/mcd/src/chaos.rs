//! Deterministic fault injection: [`ChaosBackend`], a wrapper that
//! makes any [`BayesBackend`] misbehave *on a replayable schedule*.
//!
//! The serving stack's robustness claims — panic quarantine, circuit
//! breaking, graceful drain, bounded tail latency under slow backends
//! — cannot be trusted without a way to provoke the failures on
//! demand. This module is that provocation, built to the same
//! determinism standard as the sampling engine itself: every fault
//! decision is a **pure function of the chaos seed and a call index**
//! ([`fault_at`]), so a chaos run is replayable bit-for-bit — the same
//! seed produces the same panics and the same delays, and any observed
//! failure can be reproduced offline from `(seed, index)` alone.
//!
//! Faults are injected at [`BayesBackend::prepare`], which the engine
//! calls exactly once per served request (or per predictive call), so
//! one fault decision maps to one request — the granularity the
//! serving layer's containment guarantees are stated at. All other
//! trait methods delegate untouched, which yields the transparency
//! contract conformance check 7 pins down: with faults disabled a
//! [`ChaosBackend`] is **bit-identical** to its inner backend, and
//! under active injection every *non-faulted* call's result is
//! bit-identical to the fault-free run.
//!
//! The engine runs a plan's groups in order on the one resident
//! backend, so fault index `i` is always the `i`-th request the
//! wrapper prepares.

use crate::backend::{BayesBackend, ModelCost, ModelInfo};
use crate::predict::BayesConfig;
use bnn_nn::MaskSet;
use bnn_rng::SoftRng;
use bnn_tensor::{Shape4, Tensor};
use std::time::Duration;

/// Per-call fault probabilities and the seed their schedule derives
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the fault schedule ([`fault_at`] is pure in this).
    pub seed: u64,
    /// Probability that a call panics (checked first).
    pub panic_prob: f64,
    /// Probability that a non-panicking call is delayed by
    /// [`ChaosConfig::delay`].
    pub delay_prob: f64,
    /// The injected delay for delayed calls.
    pub delay: Duration,
}

impl ChaosConfig {
    /// A schedule that injects nothing — the transparency baseline
    /// (conformance check 7 asserts a backend wrapped with this is
    /// bit-identical to the bare backend).
    pub fn disabled(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// A schedule with the given panic and delay probabilities and a
    /// small (1 ms) injected delay.
    pub fn new(seed: u64, panic_prob: f64, delay_prob: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_prob,
            delay_prob,
            delay: Duration::from_millis(1),
        }
    }

    /// The first `calls` fault decisions of this schedule — the
    /// replay/inspection hook for tests and offline debugging.
    pub fn schedule(&self, calls: u64) -> Vec<Fault> {
        (0..calls).map(|i| fault_at(self, i)).collect()
    }
}

/// One fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The call proceeds untouched.
    None,
    /// The call is delayed by [`ChaosConfig::delay`], then proceeds.
    Delay,
    /// The call panics (`"chaos: injected panic at call <i>"`).
    Panic,
}

/// The fault decision for call `index` under `cfg` — a pure function,
/// so any chaos run is replayable offline from the seed alone.
///
/// One SplitMix64 stream per `(seed, index)` pair (the same derivation
/// idiom as `bnn_serve::request_seed`): the first uniform draw decides
/// panic, the second decides delay.
pub fn fault_at(cfg: &ChaosConfig, index: u64) -> Fault {
    let mut rng = SoftRng::new(cfg.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if rng.next_f64() < cfg.panic_prob {
        Fault::Panic
    } else if rng.next_f64() < cfg.delay_prob {
        Fault::Delay
    } else {
        Fault::None
    }
}

/// A [`BayesBackend`] wrapper injecting seeded panics and delays at
/// [`BayesBackend::prepare`] (once per served request), per
/// [`ChaosConfig`]. Everything else delegates to the inner backend
/// untouched — see the module docs for the transparency contract.
#[derive(Debug)]
pub struct ChaosBackend<B> {
    inner: B,
    cfg: ChaosConfig,
    /// Prepare calls made so far.
    calls: u64,
}

impl<B> ChaosBackend<B> {
    /// Wrap a backend with a fault schedule.
    pub fn new(inner: B, cfg: ChaosConfig) -> ChaosBackend<B> {
        ChaosBackend {
            inner,
            cfg,
            calls: 0,
        }
    }

    /// Prepare calls made so far — the next call takes fault index
    /// `calls()`.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// This wrapper's fault schedule.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }
}

impl<B: BayesBackend> BayesBackend for ChaosBackend<B> {
    type Scratch = B::Scratch;

    fn info(&self, input: Shape4) -> ModelInfo {
        ModelInfo {
            name: "chaos",
            ..self.inner.info(input)
        }
    }

    fn prepare(&mut self, x: &Tensor, active: &[bool]) {
        let index = self.calls;
        self.calls += 1;
        match fault_at(&self.cfg, index) {
            Fault::Panic => panic!("chaos: injected panic at call {index}"),
            Fault::Delay => std::thread::sleep(self.cfg.delay),
            Fault::None => {}
        }
        self.inner.prepare(x, active);
    }

    fn scratches(&mut self) -> &mut Vec<Self::Scratch> {
        self.inner.scratches()
    }

    fn forward_batch(&self, mask_sets: &[MaskSet], scratch: &mut Self::Scratch) -> Vec<Tensor> {
        self.inner.forward_batch(mask_sets, scratch)
    }

    fn model_cost(&self, bayes: BayesConfig) -> Option<ModelCost> {
        self.inner.model_cost(bayes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Engine, FloatBackend, Plan, RequestResult};
    use crate::source::SoftwareMaskSource;

    /// Serial one-group run on the software stream seeded 3.
    fn predictive<B: BayesBackend>(backend: &mut B, x: &Tensor, cfg: BayesConfig) -> RequestResult {
        let mut src = SoftwareMaskSource::new(3);
        RequestResult::single(Engine::serial().run(backend, Plan::one(x, &mut src), cfg))
    }
    use bnn_nn::models;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fault_schedule_is_pure_and_seed_sensitive() {
        let a = ChaosConfig::new(7, 0.5, 0.3);
        assert_eq!(a.schedule(64), a.schedule(64), "same seed, same schedule");
        let b = ChaosConfig::new(8, 0.5, 0.3);
        assert_ne!(
            a.schedule(64),
            b.schedule(64),
            "different seeds must decorrelate"
        );
        // Probabilities are honoured roughly (pure smoke; the exact
        // stream is pinned by the equality above).
        let faults = a.schedule(1000);
        let panics = faults.iter().filter(|f| **f == Fault::Panic).count();
        assert!((300..700).contains(&panics), "panic rate wildly off");
    }

    #[test]
    fn disabled_chaos_is_bit_transparent() {
        let net = models::lenet5(10, 1, 16, 4);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.2);
        let cfg = BayesConfig::new(2, 5);
        let mut bare = FloatBackend::new(&net);
        let want = predictive(&mut bare, &x, cfg).probs;
        let mut wrapped = ChaosBackend::new(FloatBackend::new(&net), ChaosConfig::disabled(9));
        let got = predictive(&mut wrapped, &x, cfg);
        assert_eq!(got.probs.as_slice(), want.as_slice());
        assert_eq!(wrapped.calls(), 1);
        assert!(got.cost.model.is_some(), "cost model must delegate");
    }

    #[test]
    fn injected_panic_fires_at_the_scheduled_call() {
        let net = models::lenet5(10, 1, 16, 4);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.2);
        let cfg = BayesConfig::new(1, 2);
        // Find a seed whose schedule is [None, Panic, ...] so the
        // first call succeeds and the second panics — deterministic,
        // no flakiness.
        let chaos = (0..10_000u64)
            .map(|seed| ChaosConfig::new(seed, 0.5, 0.0))
            .find(|c| fault_at(c, 0) == Fault::None && fault_at(c, 1) == Fault::Panic)
            .expect("a seed with schedule [ok, panic] exists");
        let mut wrapped = ChaosBackend::new(FloatBackend::new(&net), chaos);
        let first = predictive(&mut wrapped, &x, cfg).probs;
        assert!(first.as_slice().iter().all(|v| v.is_finite()));
        let err = catch_unwind(AssertUnwindSafe(|| predictive(&mut wrapped, &x, cfg)))
            .expect_err("call 1 is scheduled to panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(msg.contains("chaos: injected panic at call 1"), "{msg}");
    }
}
