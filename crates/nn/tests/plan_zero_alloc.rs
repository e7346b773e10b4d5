//! Zero-allocation contract of the compiled-plan hot path.
//!
//! This binary installs a counting global allocator and asserts that once a
//! plan has been warmed up (arena is sized at compile time; per-thread
//! im2col/packing scratch grows on the first executions), further
//! `execute_into` calls perform **no heap allocation at all**.
//!
//! Runs single-threaded (`Pool::new(1)` executes inline on the caller), so
//! the counter observes every allocation of the execution path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use seal_nn::models::{mlp, resnet, vgg16, MlpConfig, ResNetConfig, VggConfig};
use seal_nn::{CompiledModel, PlanOptions, Sequential};
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

/// Warm a plan up, then assert one more `execute_into` allocates nothing
/// and reproduces the warm-up's logits bit for bit.
fn assert_steady_state_is_allocation_free(
    model: &Sequential,
    (c, hw): (usize, usize),
    options: PlanOptions,
    rng: &mut StdRng,
) {
    let input = Shape::nchw(1, c, hw, hw);
    let batch = seal_tensor::uniform(rng, Shape::nchw(2, c, hw, hw), -1.0, 1.0);
    let pool = Pool::new(1);
    let mut plan = CompiledModel::compile(model, &input, 2, options).unwrap();
    with_pool(&pool, || {
        // Warm-up: grows the per-thread im2col/packing scratch.
        let warm = plan.execute_into(&batch).unwrap();
        assert!(warm.iter().all(|v| v.is_finite()));
        let warm2 = plan.execute_into(&batch).unwrap().to_vec();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let steady = plan.execute_into(&batch).unwrap();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "steady-state execute_into of {} allocated {} times (options {options:?})",
            model.name(),
            after - before
        );
        assert!(steady
            .iter()
            .zip(&warm2)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    });
}

// One test function: the allocation counter is process-global, so the
// plans must not run on parallel test threads.
#[test]
fn steady_state_execute_performs_zero_allocations() {
    let mut rng = StdRng::seed_from_u64(41);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    for options in [
        PlanOptions::default(),
        PlanOptions::fused(),
        PlanOptions::quantized(),
    ] {
        assert_steady_state_is_allocation_free(
            &model,
            (cfg.input_channels, cfg.input_hw),
            options,
            &mut rng,
        );
    }
    // The other two zoo models. f32 at the default options: the padded
    // image and the pooled convolution's slab scratch (stride-2 and 1×1
    // projection convolutions, residual branches, a plan with no
    // convolution at all) grow on the warm-up call and never again. int8
    // with mixed edges: u8 inside each residual main branch and f32 at
    // every add / the average pool (resnet18), and u8 linear-to-linear
    // rows behind an f32 entry (mlp).
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    for options in [PlanOptions::default(), PlanOptions::quantized()] {
        assert_steady_state_is_allocation_free(
            &model,
            (cfg.input_channels, cfg.input_hw),
            options,
            &mut rng,
        );
    }
    let model = mlp(&mut rng, &MlpConfig::reduced()).unwrap();
    for options in [PlanOptions::default(), PlanOptions::quantized()] {
        assert_steady_state_is_allocation_free(&model, (3, 8), options, &mut rng);
    }
}
