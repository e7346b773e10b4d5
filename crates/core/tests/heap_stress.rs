//! Stress and failure-injection tests for the `emalloc` secure heap and
//! plan machinery.

use seal_core::{EncryptionPlan, RegionId, SePolicy, SecureHeap};
use seal_crypto::Key128;
use seal_nn::models::{resnet34_topology, vgg16_topology};

#[test]
fn many_regions_keep_distinct_contents() {
    let mut heap = SecureHeap::new(Key128::from_seed(77));
    let mut ids: Vec<(RegionId, Vec<u8>)> = Vec::new();
    for i in 0..200usize {
        let bytes = 16 + (i % 7) * 16;
        let id = if i % 2 == 0 {
            heap.emalloc(bytes).unwrap()
        } else {
            heap.malloc(bytes).unwrap()
        };
        let payload: Vec<u8> = (0..bytes).map(|b| ((b * 31 + i) % 251) as u8).collect();
        heap.write(id, 0, &payload).unwrap();
        ids.push((id, payload));
    }
    for (id, payload) in &ids {
        assert_eq!(&heap.read(*id, 0, payload.len()).unwrap(), payload);
        let bus = heap.bus_view(*id).unwrap();
        let leaked = bus.starts_with(&payload[..8]);
        assert_eq!(
            leaked,
            !heap.is_encrypted(*id).unwrap(),
            "bus view leaks exactly the malloc regions"
        );
    }
}

#[test]
fn ciphertext_tampering_does_not_roundtrip() {
    let mut heap = SecureHeap::new(Key128::from_seed(3));
    let id = heap.emalloc(64).unwrap();
    heap.write(id, 0, &[0x11; 64]).unwrap();
    let mut bus = heap.bus_view(id).unwrap();
    bus[5] ^= 0x80;
    let recovered = heap.decrypt_bus_view(id, &bus).unwrap();
    assert_ne!(
        recovered,
        vec![0x11u8; 64],
        "bit-flip must corrupt plaintext"
    );
}

#[test]
fn plans_for_every_builtin_network_are_constructible_at_every_decile() {
    for topo in [vgg16_topology(), resnet34_topology()] {
        for d in 0..=10 {
            let ratio = d as f64 / 10.0;
            let plan = EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(ratio))
                .unwrap();
            // Encrypted-row counts respect the ratio in every SE layer.
            for l in plan.layers().iter().filter(|l| !l.fully_encrypted) {
                let expected = (l.rows as f64 * ratio).round() as usize;
                assert_eq!(l.encrypted_rows.len(), expected, "{} @ {ratio}", l.name);
            }
        }
    }
}

#[test]
fn mean_encrypted_fraction_is_monotone_in_ratio() {
    let topo = vgg16_topology();
    let mut last = -1.0f64;
    for d in 0..=10 {
        let plan =
            EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(d as f64 / 10.0))
                .unwrap();
        let f = plan.mean_encrypted_fraction();
        assert!(f >= last, "fraction {f} decreased at decile {d}");
        last = f;
    }
    assert!((last - 1.0).abs() < 1e-9, "ratio 1.0 encrypts everything");
}
