//! Service-layer throughput: registry sessions per second (in-process, no
//! TCP) and parallel `EvaluateBatch` scaling vs the single-threaded
//! `exec::execute` baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qhorn_core::Obj;
use qhorn_engine::exec;
use qhorn_engine::plan::CompiledQuery;
use qhorn_engine::session::LearnerKind;
use qhorn_engine::storage::Store;
use qhorn_service::batch::{execute_parallel, execute_parallel_with_stats};
use qhorn_service::registry::{CreateSpec, Registry, RegistryConfig, StepOutcome};
use qhorn_service::store::{FsyncPolicy, StoreConfig};
use qhorn_sim::genobject::random_dense_object;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// One full learning dialogue through the registry (create → answer* →
/// learned), driven by an in-process model user.
fn run_session(registry: &Registry, target: &qhorn_core::Query) -> usize {
    let spec = CreateSpec {
        dataset: "chocolates".into(),
        size: 30,
        learner: LearnerKind::Qhorn1,
        max_questions: Some(10_000),
    };
    let (id, mut outcome) = registry.create_session(spec).expect("create");
    let mut answers = 0usize;
    loop {
        match outcome {
            StepOutcome::Question(q) => {
                answers += 1;
                outcome = registry
                    .answer(id, target.eval(&q.question))
                    .expect("answer");
            }
            StepOutcome::Learned { .. } => return answers,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

fn bench_registry_sessions(c: &mut Criterion) {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let mut group = c.benchmark_group("registry_sessions");
    group.sample_size(10);
    // Sessions per second through the full registry and learner steps.
    group.throughput(Throughput::Elements(1));
    for shards in [1usize, 16] {
        group.bench_with_input(
            BenchmarkId::new("full_dialogue", shards),
            &shards,
            |b, &shards| {
                let registry = Registry::open(RegistryConfig {
                    shards,
                    ..RegistryConfig::default()
                })
                .expect("open registry");
                b.iter(|| black_box(run_session(&registry, &target)));
            },
        );
    }
    group.finish();
}

/// Restore-from-store cost: a completed session over a large catalog
/// dataset is evicted (TTL 0 sweep) to a temporary store and touched back
/// to life on every iteration. The dominant term is how the registry
/// obtains the dataset's built store — rebuilding it from scratch per
/// restore vs sharing one catalog-cached `Arc<DataStore>`.
fn bench_restore_from_snapshot(c: &mut Criterion) {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let mut group = c.benchmark_group("restore_from_snapshot");
    group.sample_size(10);
    for size in [1_000usize, 20_000] {
        group.bench_with_input(BenchmarkId::new("chocolates", size), &size, |b, &size| {
            let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("bench-restore-{size}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let registry = Registry::open(RegistryConfig {
                ttl: std::time::Duration::from_millis(0),
                store: Some(StoreConfig {
                    fsync: FsyncPolicy::Never,
                    ..StoreConfig::new(dir.clone())
                }),
                ..RegistryConfig::default()
            })
            .expect("open registry");
            let spec = CreateSpec {
                dataset: "chocolates".into(),
                size,
                learner: LearnerKind::Qhorn1,
                max_questions: Some(10_000),
            };
            let (id, mut outcome) = registry.create_session(spec).expect("create");
            loop {
                match outcome {
                    StepOutcome::Question(q) => {
                        outcome = registry
                            .answer(id, target.eval(&q.question))
                            .expect("answer");
                    }
                    StepOutcome::Learned { .. } => break,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            b.iter(|| {
                // TTL 0: the sweep evicts the (idle) session to the
                // store; the learned_query touch restores it.
                registry.sweep();
                black_box(registry.learned_query(id).expect("restore"))
            });
            drop(registry);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
    group.finish();
}

fn make_store(n: u16, objects: usize, distinct: usize) -> Store {
    let mut rng = SmallRng::seed_from_u64(11);
    let signatures: Vec<Obj> = (0..distinct)
        .map(|_| random_dense_object(n, 24, &mut rng))
        .collect();
    let mut store = Store::new(n);
    for i in 0..objects {
        store.insert(signatures[i % signatures.len()].clone());
    }
    store
}

fn bench_parallel_batch(c: &mut Criterion) {
    // Worker scaling is bounded by the hardware: on a 1-core box the
    // parallel path can only show (absence of) overhead; speedups appear
    // from 2 cores up.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("(available parallelism: {cores} core(s))");
    let n = 12u16;
    let target = qhorn_bench::bench_role_preserving_target(n);
    let plan = CompiledQuery::compile(&target);
    // Many distinct signatures: the signature index cannot collapse the
    // work, so the parallel split has real work to distribute.
    let store = make_store(n, 40_000, 40_000);
    let mut group = c.benchmark_group("evaluate_batch_40k_objects");
    group.sample_size(10);
    group.throughput(Throughput::Elements(40_000));
    group.bench_function("sequential_execute", |b| {
        b.iter(|| black_box(exec::execute(&plan, &store).len()))
    });
    for workers in [1usize, 2, 4, 8] {
        // Record the pool actually spawned (the splitter caps it at the
        // group count) so per-thread throughput can be read off the
        // criterion totals: total ops/s ÷ threads_used.
        let (_, stats) = execute_parallel_with_stats(&plan, &store, workers);
        println!(
            "parallel/{workers}: threads_used={} (divide group throughput by this for per-thread ops/s)",
            stats.threads_used
        );
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(execute_parallel(&plan, &store, workers).len())),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_registry_sessions,
    bench_restore_from_snapshot,
    bench_parallel_batch
);
criterion_main!(benches);
