//! The benchmark's self-test:
//! `cargo test --release --offline --manifest-path mdbench/Cargo.toml`.

use crate::replay::{build_d, build_g, same_bits, Parts};
use crate::spans::Tracer;
use crate::workload::{by_name, Runtime, WORKLOADS};
use md_tensor::rng::Rng64;
use mdgan_core::mdgan::threaded::run_threaded;
use mdgan_core::MdGan;

#[test]
fn threaded_run_matches_sequential_bitwise() {
    let w = by_name("cnn-thr-b100").expect("workload");
    let (shards, cfg) = (w.make_data(3), w.config());
    let iters = 3;
    let mut md = MdGan::new(&w.spec, shards.clone(), cfg.clone());
    for _ in 0..iters {
        md.step();
    }
    let thr = run_threaded(&w.spec, shards, cfg, None, iters, iters);
    assert!(same_bits(&thr.gen_params, &md.gen_params()));
    w.check_traffic(&thr.traffic, iters, Runtime::Threaded)
        .unwrap();
    w.check_traffic(&md.traffic(), iters, Runtime::Sequential)
        .unwrap();
}

#[test]
fn rebuilt_stacks_match_the_arch_builders() {
    for w in WORKLOADS {
        let g = build_g(&w.spec, &mut Rng64::seed_from_u64(11));
        let d = build_d(&w.spec, &mut Rng64::seed_from_u64(12));
        let g_ref = w.spec.build_generator(&mut Rng64::seed_from_u64(11));
        let d_ref = w.spec.build_discriminator(&mut Rng64::seed_from_u64(12));
        assert!(
            same_bits(&g.params_flat(), &g_ref.net.get_params_flat()),
            "{}",
            w.name
        );
        assert!(
            same_bits(&d.params_flat(), &d_ref.net.get_params_flat()),
            "{}",
            w.name
        );
    }
}

#[test]
fn replayed_parts_track_mdgan_across_a_swap() {
    let w = by_name("mlp-seq").expect("workload");
    let (shards, cfg) = (w.make_data(5), w.config());
    let mut md = MdGan::new(&w.spec, shards.clone(), cfg.clone());
    let mut parts = Parts::new(&w, shards, &cfg);
    let mut tracer = Tracer::new();
    let iters = md.swap_interval() + 1;
    for _ in 0..iters {
        md.step();
        parts.step(&mut tracer);
    }
    assert_eq!(md.swaps(), 1);
    assert!(same_bits(&parts.server.gen_params(), &md.gen_params()));
    w.check_traffic(&md.traffic(), iters, Runtime::Sequential)
        .unwrap();
}

#[test]
fn traffic_check_rejects_a_wrong_count() {
    let w = by_name("mlp-seq").expect("workload");
    let (shards, cfg) = (w.make_data(1), w.config());
    let mut md = MdGan::new(&w.spec, shards, cfg);
    md.step();
    assert!(w
        .check_traffic(&md.traffic(), 2, Runtime::Sequential)
        .is_err());
}
