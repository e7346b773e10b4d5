//! Secure inference demo: what a memory-bus snooper actually captures.
//!
//! Loads a (reduced) trained VGG-16 into a [`SecureHeap`] using the
//! paper's two allocation primitives — `emalloc()` for SE-selected rows
//! and boundary layers, `malloc()` for the unimportant rows — then shows
//! the bus view of both kinds of region and verifies the coupling
//! invariant of the paper's Eqs. 1–3.
//!
//! ```text
//! cargo run --release --example secure_inference
//! ```

use seal::core::{derive_assignment, verify_assignment, EncryptionPlan, SePolicy, SecureHeap};
use seal::crypto::Key128;
use seal::nn::models::{vgg16, VggConfig};
use seal_tensor::rng::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(7);
    let model = vgg16(&mut rng, &VggConfig::reduced())?;
    let plan = EncryptionPlan::from_model(&model, SePolicy::paper_default())?;

    // Verify the algebraic soundness of the plan before deploying it.
    let assignment = derive_assignment(&plan);
    verify_assignment(&assignment).map_err(|v| format!("unsound plan: {}", v[0]))?;
    println!(
        "channel-coupling invariant verified for {} layers ✓",
        assignment.len()
    );

    // Lay the first SE layer's weights out into heap regions row by row.
    let se_layer = plan
        .layers()
        .iter()
        .find(|l| !l.fully_encrypted)
        .expect("VGG-16 has SE layers");
    println!(
        "\nlayer {}: {} kernel rows, {} encrypted (ratio {:.0}%)",
        se_layer.name,
        se_layer.rows,
        se_layer.encrypted_rows.len(),
        se_layer.encrypted_fraction() * 100.0
    );

    let mut heap = SecureHeap::new(Key128::from_seed(42));
    let matrices = model.kernel_matrices();
    let m = matrices
        .iter()
        .find(|m| m.name == se_layer.name)
        .expect("plan layer exists in model");

    // One region per row: emalloc for encrypted rows, malloc otherwise.
    // (A real runtime would group rows; one-per-row keeps the demo clear.)
    let row_payload =
        |row: usize| -> Vec<u8> { format!("row {row:04} l1={:8.4}", m.row_l1[row]).into_bytes() };
    println!(
        "\n{:<6} {:<10} {:<26} leaks?",
        "row", "alloc", "bus view (first 16 B)"
    );
    for row in [0usize, 1, 2, 3] {
        let encrypted = se_layer.is_row_encrypted(row);
        let payload = row_payload(row);
        let id = if encrypted {
            heap.emalloc(payload.len())?
        } else {
            heap.malloc(payload.len())?
        };
        heap.write(id, 0, &payload)?;
        let bus = heap.bus_view(id)?;
        let printable: String = bus
            .iter()
            .take(16)
            .map(|b| {
                if b.is_ascii_graphic() || *b == b' ' {
                    *b as char
                } else {
                    '·'
                }
            })
            .collect();
        println!(
            "{:<6} {:<10} {:<26} {}",
            row,
            if encrypted { "emalloc" } else { "malloc" },
            printable,
            if bus.starts_with(&payload[..8.min(payload.len())]) {
                "yes — snooper reads it"
            } else {
                "no — ciphertext"
            }
        );
    }

    println!("\nimportant rows never cross the bus in plaintext; unimportant rows bypass");
    println!("the AES engine — that bypass is the whole performance win.");
    Ok(())
}
