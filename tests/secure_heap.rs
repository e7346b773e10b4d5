//! Integration tests of the `emalloc` secure heap against the functional
//! crypto substrate: what a bus snooper captures, and that the accelerator
//! can always recover its own data.

use seal::core::{EncryptionPlan, SePolicy, SecureHeap};
use seal::crypto::Key128;
use seal::nn::models::{vgg16, VggConfig};
use seal_tensor::rng::SeedableRng;

#[test]
fn model_weights_in_emalloc_regions_never_leak() {
    let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(1);
    let model = vgg16(&mut rng, &VggConfig::reduced()).unwrap();
    let plan = EncryptionPlan::from_model(&model, SePolicy::paper_default()).unwrap();

    let mut heap = SecureHeap::new(Key128::from_seed(5));
    // Serialise each layer's weights into one region tagged by its plan.
    let matrices = model.kernel_matrices();
    let params = model.params();
    let mut pi = 0usize;
    for (m, lp) in matrices.iter().zip(plan.layers()) {
        // Find the weight tensor for this kernel matrix in param order.
        while params[pi].value.shape().rank() < 2 {
            pi += 1;
        }
        let bytes: Vec<u8> = params[pi]
            .value
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        pi += 1;
        let encrypted = lp.fully_encrypted || !lp.encrypted_rows.is_empty();
        let id = if encrypted {
            heap.emalloc(bytes.len()).unwrap()
        } else {
            heap.malloc(bytes.len()).unwrap()
        };
        heap.write(id, 0, &bytes).unwrap();
        let bus = heap.bus_view(id).unwrap();
        if encrypted {
            assert_ne!(
                &bus[..bytes.len().min(64)],
                &bytes[..bytes.len().min(64)],
                "layer {} leaked plaintext on the bus",
                m.name
            );
            // And the on-chip engine recovers it exactly.
            let recovered = heap.decrypt_bus_view(id, &bus).unwrap();
            assert_eq!(&recovered[..bytes.len()], &bytes[..]);
        } else {
            assert_eq!(&bus[..bytes.len()], &bytes[..]);
        }
    }
}

#[test]
fn heap_roundtrip_through_read_api() {
    let mut heap = SecureHeap::new(Key128::from_seed(9));
    let id = heap.emalloc(256).unwrap();
    let payload: Vec<u8> = (0..=255).collect();
    heap.write(id, 0, &payload).unwrap();
    assert_eq!(heap.read(id, 0, 256).unwrap(), payload);
    assert_eq!(heap.read(id, 100, 28).unwrap(), payload[100..128]);
}

#[test]
fn different_keys_produce_unrelated_bus_views() {
    let mut a = SecureHeap::new(Key128::from_seed(1));
    let mut b = SecureHeap::new(Key128::from_seed(2));
    let (ia, ib) = (a.emalloc(64).unwrap(), b.emalloc(64).unwrap());
    a.write(ia, 0, &[0x77; 64]).unwrap();
    b.write(ib, 0, &[0x77; 64]).unwrap();
    assert_ne!(a.bus_view(ia).unwrap(), b.bus_view(ib).unwrap());
}
