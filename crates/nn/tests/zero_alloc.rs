//! Steady-state zero-allocation check for full training steps: a small
//! MLP, a conv/conv-transpose stack and the CNN discriminator's
//! minibatch-discrimination head run forward / backward / Adam updates,
//! and after a few warmup iterations the workspace miss counter must stay
//! flat — every tensor buffer the step needs (activations, gradients,
//! im2col-free GEMM packing panels, pair matrices, optimizer temporaries)
//! is served by recycling. The conv phase runs under a 4-thread budget so
//! the shared-panel GEMM's parallel pack/compute schedule is exercised,
//! not just the serial fallback.
//!
//! This file deliberately holds a **single** test: the workspace counters
//! are process-global, and a concurrently running test binary would make
//! flatness assertions racy.

use md_nn::init::Init;
use md_nn::layer::Layer;
use md_nn::layers::{
    Conv2d, ConvTranspose2d, Dense, Flatten, LeakyRelu, MinibatchDiscrimination, Sequential, Tanh,
};
use md_nn::optim::{Adam, AdamConfig};
use md_tensor::parallel::scoped_max_threads;
use md_tensor::rng::Rng64;
use md_tensor::workspace;
use md_tensor::Tensor;

fn train_step(net: &mut Sequential, opt: &mut Adam, x: &Tensor, target: &Tensor) {
    net.zero_grad();
    let y = net.forward(x, true);
    // d/dy of 0.5*||y - target||^2: no loss-module allocation paths, just
    // tensor ops, so the whole step draws from the workspace.
    let grad = y.sub(target);
    let _ = net.backward(&grad);
    opt.step(net);
}

/// Runs `warmup` steps to populate the shelf, then `measure` steps that
/// must not miss once.
fn assert_steady_state(
    net: &mut Sequential,
    opt: &mut Adam,
    x: &Tensor,
    target: &Tensor,
    warmup: usize,
    measure: usize,
    what: &str,
) {
    for _ in 0..warmup {
        train_step(net, opt, x, target);
    }
    let warm = workspace::stats();
    for _ in 0..measure {
        train_step(net, opt, x, target);
    }
    let end = workspace::stats();
    assert_eq!(
        end.misses, warm.misses,
        "steady-state {} step must not allocate: ws_misses went {} -> {}",
        what, warm.misses, end.misses
    );
    assert!(
        end.hits > warm.hits,
        "the {what} step should be drawing buffers from the shelf"
    );
}

#[test]
fn training_step_allocates_nothing_after_warmup() {
    // Phase 1: MLP under the default thread budget.
    let mut rng = Rng64::seed_from_u64(41);
    let mut net = Sequential::new()
        .push(Dense::new(64, 128, Init::XavierUniform, &mut rng))
        .push(LeakyRelu::new(0.2))
        .push(Dense::new(128, 64, Init::XavierUniform, &mut rng))
        .push(Tanh::new());
    let mut opt = Adam::new(AdamConfig::default());
    let x = Tensor::randn(&[32, 64], &mut rng);
    let target = Tensor::randn(&[32, 64], &mut rng);
    assert_steady_state(&mut net, &mut opt, &x, &target, 3, 8, "MLP");

    // Phase 2: implicit-GEMM conv + conv-transpose under a 4-thread budget.
    // b=4 samples at 8x32x32 with 32 filters make each layer one whole-batch
    // GEMM of 32 x 72 x 4096 (≈ 9.4M) above PAR_THRESHOLD, so it really runs
    // on pool workers — and its packing panels must still come from the
    // shared shelf, with zero steady-state misses.
    let _threads = scoped_max_threads(4);
    let mut conv_net = Sequential::new()
        .push(Conv2d::new(8, 32, 3, 1, 1, Init::HeNormal, &mut rng))
        .push(LeakyRelu::new(0.2))
        .push(ConvTranspose2d::new(
            32,
            8,
            3,
            1,
            1,
            Init::HeNormal,
            &mut rng,
        ))
        .push(Tanh::new());
    let mut conv_opt = Adam::new(AdamConfig::default());
    let cx = Tensor::randn(&[4, 8, 32, 32], &mut rng);
    let ct = Tensor::randn(&[4, 8, 32, 32], &mut rng);
    // Extra warmup: concurrent same-size takes can transiently mis-assign
    // shelf buffers across sizes within the 4x waste window; the shelf
    // converges to a superset after the first couple of steps.
    assert_steady_state(&mut conv_net, &mut conv_opt, &cx, &ct, 4, 4, "conv");

    // Phase 3: the CNN discriminator's head at the Table IV batch size b=100:
    // Flatten -> MinibatchDiscrimination(512, 8, 4) -> Dense. The layer's
    // feature-major M copy, its 100x100x8 pair matrix and its gradient
    // scratch must all be recycled buffers.
    let mut head = Sequential::new()
        .push(Flatten::new())
        .push(MinibatchDiscrimination::new(512, 8, 4, &mut rng))
        .push(Dense::new(520, 1, Init::XavierUniform, &mut rng));
    let mut head_opt = Adam::new(AdamConfig::default());
    let hx = Tensor::randn(&[100, 32, 4, 4], &mut rng);
    let ht = Tensor::randn(&[100, 1], &mut rng);
    assert_steady_state(
        &mut head,
        &mut head_opt,
        &hx,
        &ht,
        4,
        4,
        "minibatch-discrimination",
    );
}
