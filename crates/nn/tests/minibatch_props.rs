//! Property tests pinning `MinibatchDiscrimination` **bitwise** to the
//! straightforward ordered-pair implementation.
//!
//! The reference below is the layer's original scalar code: every ordered
//! pair `(i, j)` computes its own `exp`, and the backward pass scatters
//! `∓w·s` into rows `i` and `j`, skipping pairs whose `c` underflowed to 0.
//! The production layer computes each unordered pair once and vectorises
//! the gradient scatter; since `|a − b| ≡ |b − a|` and every gradient
//! element still receives the same terms in the same order, the forward
//! output, the input gradient and the accumulated `dL/dT` must match the
//! reference bit for bit — including all-tie batches (`c = 1`), batches
//! whose similarities underflow to 0 (the skip), and `±inf` gradients.

use md_nn::layer::Layer;
use md_nn::layers::MinibatchDiscrimination;
use md_tensor::parallel::scoped_max_threads;
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use proptest::prelude::*;

/// Forward of the ordered-pair reference: `(output, m, c)`.
fn ref_forward(x: &Tensor, t: &Tensor, nb: usize, nc: usize) -> (Tensor, Tensor, Vec<f32>) {
    let (b, a) = (x.shape()[0], x.shape()[1]);
    let m = x.matmul(t);
    let mut c = vec![0.0f32; b * b * nb];
    let mut o = vec![0.0f32; b * nb];
    for i in 0..b {
        for j in 0..b {
            if i == j {
                continue;
            }
            for f in 0..nb {
                let mi = &m.data()[i * nb * nc + f * nc..i * nb * nc + (f + 1) * nc];
                let mj = &m.data()[j * nb * nc + f * nc..j * nb * nc + (f + 1) * nc];
                let l1: f32 = mi.iter().zip(mj).map(|(a, b)| (a - b).abs()).sum();
                let cv = (-l1).exp();
                c[(i * b + j) * nb + f] = cv;
                o[i * nb + f] += cv;
            }
        }
    }
    let mut out = Vec::with_capacity(b * (a + nb));
    for i in 0..b {
        out.extend_from_slice(x.row(i));
        out.extend_from_slice(&o[i * nb..(i + 1) * nb]);
    }
    (Tensor::new(&[b, a + nb], out), m, c)
}

/// Backward of the ordered-pair reference: `(grad_x, grad_t)`.
fn ref_backward(
    x: &Tensor,
    t: &Tensor,
    m: &Tensor,
    c: &[f32],
    grad_out: &Tensor,
    nb: usize,
    nc: usize,
) -> (Tensor, Tensor) {
    let (b, a) = (x.shape()[0], x.shape()[1]);
    let mut gx_direct = vec![0.0f32; b * a];
    let mut go = vec![0.0f32; b * nb];
    for i in 0..b {
        let row = grad_out.row(i);
        gx_direct[i * a..(i + 1) * a].copy_from_slice(&row[..a]);
        go[i * nb..(i + 1) * nb].copy_from_slice(&row[a..]);
    }
    let mut gm = vec![0.0f32; b * nb * nc];
    let md = m.data();
    for i in 0..b {
        for j in 0..b {
            if i == j {
                continue;
            }
            for f in 0..nb {
                let cv = c[(i * b + j) * nb + f];
                if cv == 0.0 {
                    continue;
                }
                let w = go[i * nb + f] * cv;
                for cdim in 0..nc {
                    let mi = md[i * nb * nc + f * nc + cdim];
                    let mj = md[j * nb * nc + f * nc + cdim];
                    let s = if mi > mj {
                        1.0
                    } else if mi < mj {
                        -1.0
                    } else {
                        0.0
                    };
                    gm[i * nb * nc + f * nc + cdim] -= w * s;
                    gm[j * nb * nc + f * nc + cdim] += w * s;
                }
            }
        }
    }
    let gm = Tensor::new(&[b, nb * nc], gm);
    let mut grad_t = Tensor::zeros(t.shape());
    grad_t.add_assign(&x.matmul_tn(&gm));
    let mut gx = Tensor::new(&[b, a], gx_direct);
    gx.add_assign(&gm.matmul_nt(t));
    (gx, grad_t)
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what} shape");
    for (k, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} element {k}: layer {x} vs reference {y}"
        );
    }
}

/// Normal input rows scaled by `scale`: 0 makes every pair a tie (`c = 1`,
/// all signs 0), 1e3 drives most `c` to 0 (the skip).
fn input(b: usize, a: usize, scale: f32, seed: u64) -> Tensor {
    let mut rng = Rng64::seed_from_u64(seed);
    Tensor::randn(&[b, a], &mut rng).scale(scale)
}

/// Normal upstream gradient; `inf_every > 0` replaces every
/// `inf_every`-th entry by `±inf` (alternating sign).
fn grad(b: usize, width: usize, inf_every: usize, seed: u64) -> Tensor {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut g = Tensor::randn(&[b, width], &mut rng);
    if inf_every > 0 {
        for (k, v) in g.data_mut().iter_mut().enumerate() {
            if k % inf_every == inf_every - 1 {
                *v = if (k / inf_every).is_multiple_of(2) {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
            }
        }
    }
    g
}

/// Runs the layer (forward + backward twice, so `dL/dT` accumulates) under
/// a 1- and a 4-thread budget and compares every output with the reference.
fn check(b: usize, a: usize, nb: usize, nc: usize, scale: f32, inf_every: usize, seed: u64) {
    let x = input(b, a, scale, seed);
    let g = grad(b, a + nb, inf_every, seed ^ 0x5eed);
    let what = format!("b={b} A={a} nb={nb} nc={nc} scale={scale} inf_every={inf_every}");
    let t = MinibatchDiscrimination::new(a, nb, nc, &mut Rng64::seed_from_u64(seed)).params()[0]
        .clone();
    let (want_y, m, c) = ref_forward(&x, &t, nb, nc);
    let (want_gx, want_gt) = ref_backward(&x, &t, &m, &c, &g, nb, nc);
    let mut want_gt_twice = want_gt.clone();
    want_gt_twice.add_assign(&want_gt);

    for threads in [1, 4] {
        let _guard = scoped_max_threads(threads);
        let what = format!("{what} threads={threads}");
        let mut layer = MinibatchDiscrimination::new(a, nb, nc, &mut Rng64::seed_from_u64(seed));
        let y = layer.forward(&x, true);
        assert_bits_eq(&y, &want_y, &format!("{what} output"));
        let gx = layer.backward(&g);
        assert_bits_eq(&gx, &want_gx, &format!("{what} grad_x"));
        assert_bits_eq(layer.grads()[0], &want_gt, &format!("{what} grad_t"));
        // A second pass reuses the recycled buffers and accumulates dL/dT.
        let y = layer.forward(&x, true);
        assert_bits_eq(&y, &want_y, &format!("{what} second output"));
        let gx = layer.backward(&g);
        assert_bits_eq(&gx, &want_gx, &format!("{what} second grad_x"));
        assert_bits_eq(
            layer.grads()[0],
            &want_gt_twice,
            &format!("{what} accumulated grad_t"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matches_ordered_pair_reference_bitwise(
        shape in (1usize..131, 0usize..12, 1usize..10, 1usize..8),
        mode in (0usize..4, 0usize..3, 0u64..1_000_000),
    ) {
        let (b, half_a, nb, nc) = shape;
        let (scale_pick, inf_pick, seed) = mode;
        let a = 2 * half_a + 1;
        let scale = [1.0, 0.0, 1e3, 0.01][scale_pick];
        let inf_every = [0, 7, 3][inf_pick];
        check(b, a, nb, nc, scale, inf_every, seed);
    }
}

/// The discriminator's own shape (A=512, nb=8, nc=4) at the paper's batch
/// sizes, including the edge batches 0, 1 and 2, for every input scale with
/// and without infinite upstream gradients.
#[test]
fn cnn_discriminator_shape_matches_reference_bitwise() {
    for b in [0, 1, 2, 10, 37, 64, 100] {
        for scale in [1.0, 0.0, 1e3, 0.01] {
            for inf_every in [0, 5] {
                check(b, 512, 8, 4, scale, inf_every, 61 + b as u64);
            }
        }
    }
}
