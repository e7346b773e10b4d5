//! Zero-allocation contract of the compiled-plan hot path.
//!
//! This binary installs a counting global allocator and asserts that once a
//! plan has been warmed up (arena is sized at compile time; per-thread
//! im2col/packing scratch grows on the first executions), further
//! `execute_into` calls perform **no heap allocation at all** — at batch 1
//! and batch 8, the sizes `seal-serve` runs, on a plan compiled for 8.
//! This is the runtime proof behind every "off the steady-state path"
//! comment in the kernels and the plan executor.
//!
//! Runs single-threaded (`Pool::new(1)` executes inline on the caller), so
//! the counter observes every allocation of the execution path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use seal_nn::models::{mlp, resnet, vgg16, MlpConfig, ResNetConfig, VggConfig};
use seal_nn::{CompiledModel, Sequential};
use seal_pool::{with_pool, Pool};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::Shape;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The plan's capacity and the batch sizes `seal-serve` runs it at: a
/// lone request and a full lock-step batch.
const MAX_BATCH: usize = 8;
const SERVED_BATCHES: [usize; 2] = [1, MAX_BATCH];

/// Warm a plan up at every served batch size, then assert one more
/// `execute_into` at each size allocates nothing and reproduces the
/// warm-up's logits bit for bit.
fn assert_steady_state_is_allocation_free(
    model: &Sequential,
    (c, hw): (usize, usize),
    quantized: bool,
    rng: &mut StdRng,
) {
    let input = Shape::nchw(1, c, hw, hw);
    let batches =
        SERVED_BATCHES.map(|n| seal_tensor::uniform(rng, Shape::nchw(n, c, hw, hw), -1.0, 1.0));
    let pool = Pool::new(1);
    let mut plan = CompiledModel::compile(model, &input, MAX_BATCH, quantized).unwrap();
    with_pool(&pool, || {
        // Warm-up: grows the per-thread im2col/packing scratch.
        let mut warm = Vec::new();
        for batch in &batches {
            assert!(plan
                .execute_into(batch)
                .unwrap()
                .iter()
                .all(|v| v.is_finite()));
            warm.push(plan.execute_into(batch).unwrap().to_vec());
        }
        for (batch, warm) in batches.iter().zip(&warm) {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let steady = plan.execute_into(batch).unwrap();
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert_eq!(
                after - before,
                0,
                "steady-state execute_into of {} at batch {} allocated {} times (quantized {quantized})",
                model.name(),
                batch.shape().dim(0),
                after - before
            );
            assert!(steady
                .iter()
                .zip(warm)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    });
}

// One test function: the allocation counter is process-global, so the
// plans must not run on parallel test threads.
#[test]
fn steady_state_execute_performs_zero_allocations() {
    let mut rng = StdRng::seed_from_u64(41);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    for quantized in [false, true] {
        assert_steady_state_is_allocation_free(
            &model,
            (cfg.input_channels, cfg.input_hw),
            quantized,
            &mut rng,
        );
    }
    // The other two zoo models. f32: the padded
    // image and the pooled convolution's slab scratch (stride-2 and 1×1
    // projection convolutions, residual branches, a plan with no
    // convolution at all) grow on the warm-up call and never again. int8
    // with mixed edges: u8 inside each residual main branch and f32 at
    // every add / the average pool (resnet18), and u8 linear-to-linear
    // rows behind an f32 entry (mlp).
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    for quantized in [false, true] {
        assert_steady_state_is_allocation_free(
            &model,
            (cfg.input_channels, cfg.input_hw),
            quantized,
            &mut rng,
        );
    }
    let model = mlp(&mut rng, &MlpConfig::reduced()).unwrap();
    for quantized in [false, true] {
        assert_steady_state_is_allocation_free(&model, (3, 8), quantized, &mut rng);
    }
}
