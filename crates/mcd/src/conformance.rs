//! Backend conformance harness: agreement coverage for any
//! [`BayesBackend`] in one line.
//!
//! Every execution substrate must honour the same engine contract —
//! consume the seeded mask stream identically, be bit-identical to
//! itself at any thread count, and serve batched exactly like
//! unbatched. [`assert_backend_agrees`] checks all of that for a
//! candidate backend against a reference backend under a single shared
//! seed, with the agreement strictness chosen per pair:
//!
//! * [`Tolerance::BitExact`] for substrates that are exact
//!   re-schedulings of the reference (fused vs. float, accelerator
//!   vs. int8) — not a single ulp may move;
//! * [`Tolerance::L1`] for substrates with intrinsic numeric drift
//!   (int8 vs. float quantization error).
//!
//! Checks 1–6 live in [`assert_backend_agrees`]; check 7 — chaos
//! transparency, fault containment and replayability under the
//! [`crate::chaos::ChaosBackend`] fault injector — lives in
//! [`assert_chaos_agrees`] (it builds backends through a factory
//! because the wrapper takes ownership).
//!
//! The facade's `tests/backends.rs` runs this suite over float, fused,
//! int8 and accelerator; a future `impl BayesBackend` plugs in with
//! one call:
//!
//! ```
//! use bnn_mcd::conformance::{assert_backend_agrees, Tolerance};
//! use bnn_mcd::{BayesConfig, FloatBackend};
//! use bnn_nn::models;
//! use bnn_tensor::{Shape4, Tensor};
//!
//! let net = models::lenet5(10, 1, 16, 2);
//! let x = Tensor::full(Shape4::new(2, 1, 16, 16), 0.1);
//! assert_backend_agrees(
//!     &mut FloatBackend::new(&net),
//!     &mut FloatBackend::fused(&net),
//!     &x,
//!     BayesConfig::new(2, 6),
//!     7,
//!     Tolerance::BitExact,
//! );
//! ```

use crate::backend::{BayesBackend, CostReport, Engine, Plan, RequestResult};
use crate::chaos::{fault_at, ChaosBackend, ChaosConfig, Fault};
use crate::pool::WorkerPool;
use crate::predict::{BayesConfig, ParallelConfig};
use crate::source::SoftwareMaskSource;
use bnn_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How closely a candidate backend must agree with the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Byte-equal probabilities: the candidate is an exact
    /// re-scheduling of the reference computation.
    BitExact,
    /// Per-item L1 distance below the bound: the candidate carries
    /// intrinsic numeric drift (e.g. quantization).
    L1(f32),
}

/// The thread counts every candidate is exercised at (the engine's
/// bit-identical-at-any-parallelism guarantee is asserted between
/// them).
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Unbatched predictive of `x` on a fresh software stream from `seed`.
fn predictive<B: BayesBackend>(
    engine: Engine<'_>,
    backend: &mut B,
    x: &Tensor,
    cfg: BayesConfig,
    seed: u64,
) -> (Tensor, CostReport) {
    let mut src = SoftwareMaskSource::new(seed);
    let out = RequestResult::single(engine.run(backend, Plan::one(x, &mut src), cfg));
    (out.probs, out.cost)
}

/// `x` served one item per group on a fresh software stream from
/// `seed`, rows stacked.
fn predictive_by_item<B: BayesBackend>(
    engine: Engine<'_>,
    backend: &mut B,
    x: &Tensor,
    cfg: BayesConfig,
    seed: u64,
) -> Tensor {
    let mut src = SoftwareMaskSource::new(seed);
    RequestResult::stacked(&engine.run(backend, Plan::batched(x, 1, &mut src), cfg)).0
}

fn check_close(want: &Tensor, got: &Tensor, tol: Tolerance, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape mismatch");
    match tol {
        Tolerance::BitExact => {
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "{what}: probabilities moved"
            );
        }
        Tolerance::L1(bound) => {
            for i in 0..want.shape().n {
                let l1: f32 = want
                    .item(i)
                    .iter()
                    .zip(got.item(i))
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(l1 < bound, "{what}: item {i} drifted, L1 = {l1} >= {bound}");
            }
        }
    }
}

/// Run the conformance suite: `candidate` against `reference` on input
/// `x` under one shared seeded mask stream.
///
/// Checks performed:
///
/// 1. *Agreement* — the candidate's predictive matches the reference's
///    (serial) within `tol`, at every thread count in `{1, 4}`.
/// 2. *Thread invariance* — the candidate's predictions at 1 and 4
///    threads are byte-equal regardless of `tol` (the engine contract
///    extends to every backend, including fused chunking).
/// 3. *Batched serving* — [`Plan::batched`] with `batch = 1` agrees
///    across backends within `tol`, is thread-invariant, and — for
///    single-item inputs — is byte-equal to the unbatched predictive.
/// 4. *Cost accounting* — both backends report the configured sample
///    count.
/// 5. *Pooled engine* — one long-lived [`WorkerPool`] per pool size in
///    `{1, 4}` serves repeated sample-parallel predictive calls and an
///    uneven three-chunk split (`threads = 3`), all byte-equal to the
///    candidate's serial predictions.
/// 6. *Coalescing invariance* — the request-serving path
///    ([`Plan::requests`], what `bnn-serve` runs): a
///    request carrying the shared seed is byte-equal to the
///    candidate's solo predictive whether served alone (serially) or
///    coalesced between neighbors with foreign seeds (at four
///    sample-axis threads), at pool sizes `{1, 4}`.
///
/// The input's batch size must satisfy both backends' constraints
/// (pass a single-item `x` when the accelerator is involved).
///
/// # Panics
///
/// Panics (with a message naming the backends and the failing check)
/// on any disagreement.
pub fn assert_backend_agrees<R: BayesBackend, C: BayesBackend>(
    reference: &mut R,
    candidate: &mut C,
    x: &Tensor,
    cfg: BayesConfig,
    seed: u64,
    tol: Tolerance,
) {
    let c_name = candidate.info(x.shape()).name;
    let r_name = reference.info(x.shape()).name;
    let pair = format!("{c_name} vs {r_name}");

    // Pool for the `threads = 4` splits of checks 1-3.
    let fan_out = WorkerPool::new(ParallelConfig::with_threads(4).pool_workers());
    let (r_probs, r_cost) = predictive(Engine::serial(), reference, x, cfg, seed);
    assert_eq!(
        r_cost.samples, cfg.s,
        "{}: reference cost lost samples",
        r_name
    );

    let mut per_threads = Vec::new();
    for threads in THREAD_COUNTS {
        let engine = Engine::new(&fan_out, ParallelConfig::with_threads(threads));
        let (c_probs, c_cost) = predictive(engine, candidate, x, cfg, seed);
        check_close(
            &r_probs,
            &c_probs,
            tol,
            &format!("{pair} (threads={threads}, unbatched)"),
        );
        assert_eq!(
            c_cost.samples, cfg.s,
            "{}: candidate cost lost samples",
            c_name
        );
        per_threads.push(c_probs);
    }
    assert_eq!(
        per_threads[0].as_slice(),
        per_threads[1].as_slice(),
        "{}: thread fan-out changed the prediction",
        c_name
    );

    // Batched serving, one item at a time — the deployment shape every
    // backend (including the batch-1 accelerator) supports.
    let r_batched = predictive_by_item(Engine::serial(), reference, x, cfg, seed);
    let mut batched = Vec::new();
    for threads in THREAD_COUNTS {
        let engine = Engine::new(&fan_out, ParallelConfig::with_threads(threads));
        let c_batched = predictive_by_item(engine, candidate, x, cfg, seed);
        check_close(
            &r_batched,
            &c_batched,
            tol,
            &format!("{pair} (threads={threads}, batched)"),
        );
        batched.push(c_batched);
    }
    assert_eq!(
        batched[0].as_slice(),
        batched[1].as_slice(),
        "{}: thread fan-out changed the batched prediction",
        c_name
    );
    if x.shape().n == 1 {
        assert_eq!(
            batched[0].as_slice(),
            per_threads[0].as_slice(),
            "{}: batched serving diverged from unbatched",
            c_name
        );
    }

    // Pooled engine: one long-lived pool per size, serving repeated
    // calls at several sample splits — every prediction must be
    // byte-equal to the candidate's own serial results above.
    for workers in [1usize, 4] {
        let pool = WorkerPool::new(workers);
        let repeats = if workers == 1 { 1 } else { 2 };
        for repeat in 0..repeats {
            let engine = Engine::new(&pool, ParallelConfig::with_threads(4));
            let (p_probs, _) = predictive(engine, candidate, x, cfg, seed);
            assert_eq!(
                p_probs.as_slice(),
                per_threads[0].as_slice(),
                "{}: pooled sample-parallel call {repeat} on {workers} worker(s) \
                 changed the prediction",
                c_name
            );
        }
        let engine = Engine::new(&pool, ParallelConfig::with_threads(3));
        let (chunked, _) = predictive(engine, candidate, x, cfg, seed);
        assert_eq!(
            chunked.as_slice(),
            per_threads[0].as_slice(),
            "{}: pooled three-chunk split on {workers} worker(s) changed the prediction",
            c_name
        );

        // Coalescing invariance: the request with this suite's seed
        // must come back byte-equal to the candidate's solo predictive
        // above, alone or sandwiched between foreign-seeded neighbors.
        let solo = Engine::new(&pool, ParallelConfig::serial()).run(
            candidate,
            Plan::requests(&[(x, seed)]),
            cfg,
        );
        assert_eq!(
            solo[0].probs.as_slice(),
            per_threads[0].as_slice(),
            "{}: request-path solo serving on {workers} worker(s) diverged from predictive",
            c_name
        );
        let neighbors = [
            (x, seed.wrapping_add(101)),
            (x, seed),
            (x, seed.wrapping_add(202)),
        ];
        let coalesced = Engine::new(&pool, ParallelConfig::with_threads(4)).run(
            candidate,
            Plan::requests(&neighbors),
            cfg,
        );
        assert_eq!(
            coalesced[1].probs.as_slice(),
            per_threads[0].as_slice(),
            "{}: coalescing with neighbors moved the prediction ({workers} worker(s))",
            c_name
        );
    }
}

/// Conformance check 7 — *chaos transparency and containment* — for
/// any backend, via a factory (the [`ChaosBackend`] wrapper takes
/// ownership of its inner backend, so the harness builds instances as
/// it needs them).
///
/// Three properties are asserted, all on the request-serving path the
/// `bnn-serve` dispatcher uses ([`Plan::requests`], whose groups run
/// in order, so fault indices map 1:1 onto requests):
///
/// 1. *Transparency* — a [`ChaosBackend`] with faults disabled
///    ([`ChaosConfig::disabled`]) is **byte-equal** to the bare
///    backend, request for request.
/// 2. *Containment* — under an active schedule mixing panics and
///    delays, a panic-faulted micro-batch fails (panics, here caught
///    like the server's quarantine catches them) while every
///    *non-faulted* request — including delayed ones — stays
///    byte-equal to the fault-free run.
/// 3. *Replayability* — the observed fault positions equal the pure
///    [`fault_at`] schedule, and a second run under the same chaos
///    seed reproduces outcomes bit-for-bit.
///
/// The active chaos schedule is derived from `seed` by a bounded
/// deterministic search so it always contains at least one panic, one
/// delay and one clean call — no flakiness, no degenerate all-fault
/// or no-fault schedules.
///
/// # Panics
///
/// Panics (naming the failing property) on any violation.
pub fn assert_chaos_agrees<B, F>(mut make: F, x: &Tensor, cfg: BayesConfig, seed: u64)
where
    B: BayesBackend,
    F: FnMut() -> B,
{
    let engine = Engine::serial();
    let n_requests = 6u64;
    let requests: Vec<(&Tensor, u64)> =
        (0..n_requests).map(|i| (x, seed.wrapping_add(i))).collect();
    let mut bare = make();
    let b_name = bare.info(x.shape()).name;
    // Fault-free reference, bare backend.
    let want: Vec<Tensor> = engine
        .run(&mut bare, Plan::requests(&requests), cfg)
        .into_iter()
        .map(|r| r.probs)
        .collect();

    // 1. Transparency: disabled chaos is byte-equal to bare.
    let mut quiet = ChaosBackend::new(make(), ChaosConfig::disabled(seed));
    let got = engine.run(&mut quiet, Plan::requests(&requests), cfg);
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(
            w.as_slice(),
            g.probs.as_slice(),
            "{b_name}: disabled chaos moved request {i} (transparency)"
        );
    }
    assert_eq!(
        quiet.calls(),
        n_requests,
        "{b_name}: chaos call accounting lost requests"
    );

    // 2 + 3. Active schedule: search (deterministically, from
    // `seed`) for one holding all three fault kinds over the run.
    let chaos = (0..10_000u64)
        .map(|k| ChaosConfig::new(seed.wrapping_add(k), 0.35, 0.35))
        .find(|c| {
            let s = c.schedule(n_requests);
            s.contains(&Fault::Panic) && s.contains(&Fault::Delay) && s.contains(&Fault::None)
        })
        .expect("a mixed fault schedule exists within the search bound");
    let mut run = || -> Vec<Option<Tensor>> {
        let mut faulty = ChaosBackend::new(make(), chaos);
        requests
            .iter()
            .map(|req| {
                // One request per micro-batch, panics quarantined
                // exactly like the serving dispatcher does.
                catch_unwind(AssertUnwindSafe(|| {
                    let solo = Plan::requests(std::slice::from_ref(req));
                    RequestResult::single(engine.run(&mut faulty, solo, cfg)).probs
                }))
                .ok()
            })
            .collect()
    };
    let first = run();
    for (i, outcome) in first.iter().enumerate() {
        let scheduled = fault_at(&chaos, i as u64);
        match outcome {
            None => assert_eq!(
                scheduled,
                Fault::Panic,
                "{b_name}: request {i} failed off-schedule (containment)"
            ),
            Some(probs) => {
                assert_ne!(
                    scheduled,
                    Fault::Panic,
                    "{b_name}: request {i} survived a scheduled panic (containment)"
                );
                assert_eq!(
                    probs.as_slice(),
                    want[i].as_slice(),
                    "{b_name}: non-faulted request {i} diverged from the \
                     fault-free run (containment)"
                );
            }
        }
    }
    let second = run();
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        match (a, b) {
            (None, None) => {}
            (Some(pa), Some(pb)) => assert_eq!(
                pa.as_slice(),
                pb.as_slice(),
                "{b_name}: replay moved request {i} (replayability)"
            ),
            _ => panic!("{b_name}: replay changed request {i}'s fault outcome (replayability)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FloatBackend;
    use bnn_nn::models;
    use bnn_tensor::Shape4;

    #[test]
    fn float_agrees_with_itself() {
        let net = models::lenet5(10, 1, 16, 6);
        let x = Tensor::full(Shape4::new(2, 1, 16, 16), 0.15);
        assert_backend_agrees(
            &mut FloatBackend::new(&net),
            &mut FloatBackend::new(&net),
            &x,
            BayesConfig::new(2, 5),
            3,
            Tolerance::BitExact,
        );
    }

    #[test]
    fn fused_passes_conformance_against_float() {
        let net = models::lenet5(10, 1, 16, 6);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.15);
        assert_backend_agrees(
            &mut FloatBackend::new(&net),
            &mut FloatBackend::fused(&net),
            &x,
            BayesConfig::new(3, 9),
            11,
            Tolerance::BitExact,
        );
    }

    #[test]
    #[should_panic(expected = "probabilities moved")]
    fn bit_exact_tolerance_rejects_different_seeds_worth_of_drift() {
        // A backend serving a *different* network must be caught.
        let net = models::lenet5(10, 1, 16, 6);
        let other = models::lenet5(10, 1, 16, 7);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.15);
        assert_backend_agrees(
            &mut FloatBackend::new(&net),
            &mut FloatBackend::new(&other),
            &x,
            BayesConfig::new(2, 4),
            5,
            Tolerance::BitExact,
        );
    }
}
