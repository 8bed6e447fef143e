//! Minibatch discrimination (Salimans et al., "Improved Techniques for
//! Training GANs" — reference \[20\] of the paper).
//!
//! The paper's CNN discriminators include one of these layers: it lets the
//! discriminator look at relationships *between* samples in a batch, a
//! standard counter-measure to generator mode collapse.
//!
//! Given input `x: (B, A)` and a learned tensor `T: (A, nb*nc)`, compute
//! `M = x·T` reshaped to `(B, nb, nc)`. For each pair of samples `(i, j)`
//! and each feature `f`, `c_ijf = exp(-||M_if - M_jf||_1)`. The layer output
//! appends `o_if = Σ_{j≠i} c_ijf` to the input: `(B, A + nb)`.
//!
//! The pair work is O(B²) and dominates the discriminator at large batches,
//! so both passes run on sample-contiguous (feature-major) copies of `M`
//! and vectorise across the partner sample `j`, while keeping every output
//! bitwise identical to the plain ordered-pair loops (pinned by
//! `tests/minibatch_props.rs`):
//!
//! * `|a − b| ≡ |b − a|` in IEEE-754, so `c` is symmetric bit for bit and
//!   each unordered pair's `exp` is computed once and mirrored;
//! * the backward pass visits ordered pairs with `i` outermost, as the
//!   ordered-pair loops do, so every element of `dL/dM` receives the same
//!   terms in the same order;
//! * a pair whose `c` underflowed to 0 gets a zero weight instead of a skip.
//!   `dL/dM` starts at `+0`, and a float sum is `−0` only when both operands
//!   are `−0`, so it never holds `−0` and adding `±0` leaves it bit for bit
//!   unchanged. The zero weight also keeps `±inf · 0 = NaN` out of the sum
//!   when `dL/do` is infinite, which is what the skip guarded against.

use crate::init::Init;
use crate::layer::Layer;
use md_tensor::rng::Rng64;
use md_tensor::workspace;
use md_tensor::Tensor;

/// The minibatch-discrimination layer.
pub struct MinibatchDiscrimination {
    t: Tensor, // (A, nb*nc)
    grad_t: Tensor,
    in_features: usize,
    nb: usize,
    nc: usize,
    cache: Option<Cache>,
}

struct Cache {
    x: Tensor,
    mt: Tensor, // Mᵀ: (nb*nc, B), mt[k*B + j] = M[j, k]
    c: Tensor,  // (nb, B, B): c[(f*B + i)*B + j] = c_ijf, zero diagonal
}

impl MinibatchDiscrimination {
    /// Creates the layer with `nb` output features of `nc` kernel dims each.
    pub fn new(in_features: usize, nb: usize, nc: usize, rng: &mut Rng64) -> Self {
        MinibatchDiscrimination {
            t: Init::XavierUniform.sample(&[in_features, nb * nc], in_features, nb * nc, rng),
            grad_t: Tensor::zeros(&[in_features, nb * nc]),
            in_features,
            nb,
            nc,
            cache: None,
        }
    }

    /// Output width = input width + `nb`.
    pub fn out_features(&self) -> usize {
        self.in_features + self.nb
    }
}

/// `sign(a − b)` from comparisons: `±1`, or `+0` for ties (and NaN).
#[inline]
fn sign(a: f32, b: f32) -> f32 {
    (a > b) as i32 as f32 - (a < b) as i32 as f32
}

/// `acc[k] -= v[k*b + j]` for ascending `j`, eight lanes at a time so their
/// dependency chains overlap (each lane's own order is unchanged).
fn subtract_columns(acc: &mut [f32], v: &[f32], b: usize) {
    const G: usize = 8;
    let mut acc_groups = acc.chunks_exact_mut(G);
    let mut v_groups = v.chunks_exact(G * b);
    for (a, vg) in (&mut acc_groups).zip(&mut v_groups) {
        let rows: [&[f32]; G] = std::array::from_fn(|u| &vg[u * b..(u + 1) * b]);
        let mut r = [0.0f32; G];
        r.copy_from_slice(a);
        for j in 0..b {
            for (ru, row) in r.iter_mut().zip(&rows) {
                *ru -= row[j];
            }
        }
        a.copy_from_slice(&r);
    }
    for (a, vk) in acc_groups
        .into_remainder()
        .iter_mut()
        .zip(v_groups.remainder().chunks_exact(b))
    {
        for &vj in vk {
            *a -= vj;
        }
    }
}

impl Layer for MinibatchDiscrimination {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "MinibatchDiscrimination expects (B, A)");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "MinibatchDiscrimination width mismatch"
        );
        let b = x.shape()[0];
        let (a, nb, nc) = (self.in_features, self.nb, self.nc);
        let mt = x.matmul(&self.t).t();
        let mtd = mt.data();

        // Each unordered pair i < j once: the L1 sum over the nc dims runs in
        // ascending order from f32's `Sum` seed (−0) with `M_i − M_j`
        // operands, vectorised across j, then c_ijf is mirrored into c_jif.
        let mut c = workspace::take_uninit(nb * b * b);
        for f in 0..nb {
            let cf = &mut c[f * b * b..(f + 1) * b * b];
            for i in 0..b {
                cf[i * b + i] = 0.0;
                let l1 = &mut cf[i * b + i + 1..(i + 1) * b];
                l1.fill(-0.0);
                for col in mtd[f * nc * b..(f + 1) * nc * b].chunks_exact(b) {
                    let mi = col[i];
                    for (s, &mj) in l1.iter_mut().zip(&col[i + 1..]) {
                        *s += (mi - mj).abs();
                    }
                }
                for j in i + 1..b {
                    let cv = (-cf[i * b + j]).exp();
                    cf[i * b + j] = cv;
                    cf[j * b + i] = cv;
                }
            }
        }

        // o_if = Σ_j c_ijf over ascending j, vectorised across i (row j of
        // the symmetric c[f] is its column j). The diagonal adds +0 to a sum
        // of non-negative terms, which changes nothing.
        let mut o = workspace::take_zeroed(nb * b);
        for f in 0..nb {
            let of = &mut o[f * b..(f + 1) * b];
            for j in 0..b {
                for (ov, &cv) in of.iter_mut().zip(&c[(f * b + j) * b..][..b]) {
                    *ov += cv;
                }
            }
        }
        let mut out = workspace::take_uninit(b * (a + nb));
        for (i, row) in out.chunks_exact_mut(a + nb).enumerate() {
            row[..a].copy_from_slice(x.row(i));
            for (f, v) in row[a..].iter_mut().enumerate() {
                *v = o[f * b + i];
            }
        }
        workspace::recycle(o);
        self.cache = Some(Cache {
            x: x.clone(),
            mt,
            c: Tensor::new(&[nb, b, b], c),
        });
        Tensor::new(&[b, a + nb], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("MinibatchDiscrimination::backward before forward");
        let b = cache.x.shape()[0];
        let (a, nb, nc) = (self.in_features, self.nb, self.nc);
        let k = nb * nc;
        assert_eq!(
            grad_out.shape(),
            &[b, a + nb],
            "MinibatchDiscrimination grad shape mismatch"
        );
        let god = grad_out.data();
        let (mtd, cd) = (cache.mt.data(), cache.c.data());

        // dL/dM, feature-major like mt. c_ijf feeds o_if only, so the
        // ordered pair (i, j) contributes v = w·s with w = dL/do_if · c_ijf
        // and s = sign(M_if − M_jf): row j gets +v and row i gets −v, over
        // ascending j. The pass over j is vectorised; j = i contributes
        // w = 0 (zero diagonal), so v = +0 and nothing changes.
        let mut gmt = workspace::take_zeroed(k * b);
        let mut scratch = workspace::take_uninit((k + 1) * b + k);
        let (w, rest) = scratch.split_at_mut(b);
        let (v, acc) = rest.split_at_mut(k * b);
        for i in 0..b {
            for f in 0..nb {
                let go = god[i * (a + nb) + a + f];
                let ci = &cd[(f * b + i) * b..(f * b + i + 1) * b];
                for (wj, &cv) in w.iter_mut().zip(ci) {
                    *wj = if cv == 0.0 { 0.0 } else { go * cv };
                }
                let lanes = f * nc * b..(f + 1) * nc * b;
                for ((mk, gk), vk) in mtd[lanes.clone()]
                    .chunks_exact(b)
                    .zip(gmt[lanes.clone()].chunks_exact_mut(b))
                    .zip(v[lanes].chunks_exact_mut(b))
                {
                    let mi = mk[i];
                    for (((vj, g), &wj), &mj) in vk.iter_mut().zip(gk.iter_mut()).zip(&*w).zip(mk) {
                        let x = wj * sign(mi, mj);
                        *vj = x;
                        *g += x;
                    }
                }
            }
            for (ak, gk) in acc.iter_mut().zip(gmt.chunks_exact(b)) {
                *ak = gk[i];
            }
            subtract_columns(acc, v, b);
            for (&ak, gk) in acc.iter().zip(gmt.chunks_exact_mut(b)) {
                gk[i] = ak;
            }
        }
        workspace::recycle(scratch);
        let gm = Tensor::new(&[k, b], gmt).t();

        // dL/dT = x^T · gm ; dL/dx = gx_direct + gm · T^T
        self.grad_t.add_assign(&cache.x.matmul_tn(&gm));
        let mut gx = gm.matmul_nt(&self.t);
        for (g_row, out_row) in gx
            .data_mut()
            .chunks_exact_mut(a)
            .zip(god.chunks_exact(a + nb))
        {
            for (g, &d) in g_row.iter_mut().zip(&out_row[..a]) {
                *g += d;
            }
        }
        gx
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.t]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.t]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_t]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_t]
    }

    fn zero_grad(&mut self) {
        self.grad_t.fill(0.0);
    }

    fn name(&self) -> String {
        format!(
            "MinibatchDisc(A={}, nb={}, nc={})",
            self.in_features, self.nb, self.nc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_concatenates_similarity_features() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut l = MinibatchDiscrimination::new(4, 3, 2, &mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[5, 7]);
        // First 4 features are passed through unchanged.
        for i in 0..5 {
            assert_eq!(&y.row(i)[..4], x.row(i));
        }
        // Similarity features are positive and bounded by B-1.
        for i in 0..5 {
            for f in 4..7 {
                let v = y.row(i)[f];
                assert!((0.0..=4.0).contains(&v), "o value {v}");
            }
        }
    }

    #[test]
    fn identical_samples_have_max_similarity() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut l = MinibatchDiscrimination::new(3, 2, 2, &mut rng);
        let row = [0.3f32, -0.7, 1.1];
        let x = Tensor::new(&[2, 3], [row, row].concat());
        let y = l.forward(&x, true);
        // L1 distance 0 => c = exp(0) = 1 for the single other sample.
        for f in 3..5 {
            assert!((y.row(0)[f] - 1.0).abs() < 1e-5);
            assert!((y.row(1)[f] - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck() {
        crate::gradcheck::check_layer(
            |rng| Box::new(MinibatchDiscrimination::new(3, 2, 2, rng)),
            &[4, 3],
            1e-3,
            5e-2,
        );
    }

    #[test]
    fn batch_of_one_has_zero_similarity() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut l = MinibatchDiscrimination::new(2, 2, 2, &mut rng);
        let x = Tensor::randn(&[1, 2], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.row(0)[2], 0.0);
        assert_eq!(y.row(0)[3], 0.0);
    }
}
