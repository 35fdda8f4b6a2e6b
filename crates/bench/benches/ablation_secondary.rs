//! Ablation A3: secondary-delta strategy — from the view (§5.2) vs from
//! base tables (§5.3), for both update directions. There is no policy
//! switch: the engine takes §5.2 for every term whose columns the view
//! outputs, so the from-base arm maintains V3 under a projection that hides
//! every term key (`v3_keyless_def`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ojv_bench::harness::{Config, Env};
use ojv_bench::views::{v3_def, v3_keyless_def};
use ojv_core::maintain::maintain;
use ojv_core::materialize::MaterializedView;
use ojv_core::policy::MaintenancePolicy;

fn bench(c: &mut Criterion) {
    let cfg = Config {
        sf: 0.01,
        seed: 42,
        batch_sizes: vec![600],
        repetitions: 1,
        verify: false,
    };
    let batch = cfg.batch_sizes[0];
    let env = Env::new(&cfg);
    let mut group = c.benchmark_group("ablation_secondary");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));

    let policy = MaintenancePolicy::paper();
    for (label, def) in [("from_view", v3_def()), ("from_base", v3_keyless_def())] {
        let fresh = || {
            let catalog = env.catalog.clone();
            let view = MaterializedView::create(&catalog, def.clone()).expect("view materializes");
            (catalog, view)
        };
        group.bench_function(BenchmarkId::new(label, format!("insert_{batch}")), |b| {
            b.iter_batched(
                || {
                    let (mut catalog, view) = fresh();
                    let rows = env.gen.lineitem_insert_batch(batch, 0);
                    let update = catalog.insert("lineitem", rows).expect("batch applies");
                    (catalog, view, update)
                },
                |(catalog, mut view, update)| {
                    let report =
                        maintain(&mut view, &catalog, &update, &policy).expect("maintenance");
                    (report, catalog, view, update)
                },
                criterion::BatchSize::PerIteration,
            );
        });
        group.bench_function(BenchmarkId::new(label, format!("delete_{batch}")), |b| {
            b.iter_batched(
                || {
                    let (mut catalog, view) = fresh();
                    let keys = env.gen.lineitem_delete_keys(batch, 0);
                    let update = catalog.delete("lineitem", &keys).expect("batch applies");
                    (catalog, view, update)
                },
                |(catalog, mut view, update)| {
                    let report =
                        maintain(&mut view, &catalog, &update, &policy).expect("maintenance");
                    (report, catalog, view, update)
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
