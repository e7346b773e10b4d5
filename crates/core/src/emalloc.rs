//! The `emalloc()` programming primitive (Sec. III-A).
//!
//! SEAL exposes a new allocation primitive to programs: memory allocated
//! with `emalloc()` is encrypted whenever it crosses the memory bus, while
//! ordinary `malloc()` regions bypass the engine. [`SecureHeap`] is a
//! functional model of that contract: it tracks tagged regions and can show
//! the *bus view* — exactly the bytes a snooper on the memory bus would
//! capture — which is real AES ciphertext for `emalloc` regions and raw
//! plaintext for `malloc` regions.

use seal_crypto::{Aes128, DirectCipher, Key128, BLOCK_BYTES};

use crate::CoreError;

/// Handle to a heap region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(usize);

#[derive(Debug)]
struct HeapRegion {
    base: u64,
    data: Vec<u8>,
    encrypted: bool,
}

/// A model of accelerator DRAM with SEAL's two allocation primitives.
///
/// ```
/// use seal_core::SecureHeap;
/// use seal_crypto::Key128;
///
/// # fn main() -> Result<(), seal_core::CoreError> {
/// let mut heap = SecureHeap::new(Key128::from_seed(7));
/// let secret = heap.emalloc(64)?;
/// let public = heap.malloc(64)?;
/// heap.write(secret, 0, b"important kernel row weights....")?;
/// heap.write(public, 0, b"unimportant kernel row weights..")?;
/// // A bus snooper sees ciphertext for the emalloc region only.
/// assert_ne!(&heap.bus_view(secret)?[..4], b"impo");
/// assert_eq!(&heap.bus_view(public)?[..4], b"unim");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SecureHeap {
    cipher: DirectCipher,
    regions: Vec<HeapRegion>,
    next_base: u64,
}

impl SecureHeap {
    /// Creates an empty heap keyed by `key` (the on-chip engine key).
    pub fn new(key: Key128) -> Self {
        SecureHeap {
            cipher: DirectCipher::new(Aes128::new(&key)),
            regions: Vec::new(),
            next_base: 0x1000,
        }
    }

    /// Allocates `bytes` of **encrypted** memory (the paper's `emalloc()`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for zero-sized allocations.
    pub fn emalloc(&mut self, bytes: usize) -> Result<RegionId, CoreError> {
        self.alloc(bytes, true)
    }

    /// Allocates `bytes` of plain memory (ordinary `malloc()`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for zero-sized allocations.
    pub fn malloc(&mut self, bytes: usize) -> Result<RegionId, CoreError> {
        self.alloc(bytes, false)
    }

    fn alloc(&mut self, bytes: usize, encrypted: bool) -> Result<RegionId, CoreError> {
        if bytes == 0 {
            return Err(CoreError::InvalidPolicy {
                reason: "zero-sized allocation".into(),
            });
        }
        // Round the footprint up to whole AES blocks.
        let padded = bytes.div_ceil(BLOCK_BYTES) * BLOCK_BYTES;
        let id = RegionId(self.regions.len());
        let base = self.next_base;
        self.next_base += padded as u64 + 0x1000;
        self.regions.push(HeapRegion {
            base,
            data: vec![0u8; padded],
            encrypted,
        });
        Ok(id)
    }

    fn region(&self, id: RegionId) -> Result<&HeapRegion, CoreError> {
        self.regions
            .get(id.0)
            .ok_or_else(|| CoreError::InvalidPolicy {
                reason: format!("unknown region {id:?}"),
            })
    }

    /// Whether the region was allocated with `emalloc`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for an unknown id.
    pub fn is_encrypted(&self, id: RegionId) -> Result<bool, CoreError> {
        Ok(self.region(id)?.encrypted)
    }

    /// The region's size in bytes (padded to AES blocks).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for an unknown id.
    pub fn size(&self, id: RegionId) -> Result<usize, CoreError> {
        Ok(self.region(id)?.data.len())
    }

    /// Writes `data` at `offset` (the accelerator-side view: plaintext).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for out-of-bounds writes.
    pub fn write(&mut self, id: RegionId, offset: usize, data: &[u8]) -> Result<(), CoreError> {
        let region = self
            .regions
            .get_mut(id.0)
            .ok_or_else(|| CoreError::InvalidPolicy {
                reason: format!("unknown region {id:?}"),
            })?;
        if offset + data.len() > region.data.len() {
            return Err(CoreError::InvalidPolicy {
                reason: format!(
                    "write of {} bytes at {offset} exceeds region of {}",
                    data.len(),
                    region.data.len()
                ),
            });
        }
        region.data[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads plaintext back (the accelerator-side view).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for out-of-bounds reads.
    pub fn read(&self, id: RegionId, offset: usize, len: usize) -> Result<Vec<u8>, CoreError> {
        let region = self.region(id)?;
        if offset + len > region.data.len() {
            return Err(CoreError::InvalidPolicy {
                reason: "read out of bounds".into(),
            });
        }
        Ok(region.data[offset..offset + len].to_vec())
    }

    /// The address-space layout of every region, in allocation order:
    /// `(base address, padded size in bytes, encrypted)`. This is the
    /// static view the plan analyzer checks for overlaps — an `emalloc`
    /// region sharing bytes with a plain region would leak those bytes on
    /// the bus whenever the plain alias is accessed.
    pub fn layout(&self) -> Vec<(u64, u64, bool)> {
        self.regions
            .iter()
            .map(|r| (r.base, r.data.len() as u64, r.encrypted))
            .collect()
    }

    /// The bytes a bus snooper captures for this region: AES ciphertext if
    /// `emalloc`ed, raw plaintext otherwise.
    ///
    /// # Errors
    ///
    /// Propagates crypto errors (cannot occur for block-padded regions).
    pub fn bus_view(&self, id: RegionId) -> Result<Vec<u8>, CoreError> {
        let region = self.region(id)?;
        if region.encrypted {
            Ok(self.cipher.encrypt(region.base, &region.data)?)
        } else {
            Ok(region.data.clone())
        }
    }

    /// What the on-chip engine recovers from a captured bus view — the
    /// inverse of [`bus_view`](Self::bus_view) for encrypted regions.
    ///
    /// # Errors
    ///
    /// Propagates crypto errors.
    pub fn decrypt_bus_view(&self, id: RegionId, captured: &[u8]) -> Result<Vec<u8>, CoreError> {
        let region = self.region(id)?;
        if region.encrypted {
            Ok(self.cipher.decrypt(region.base, captured)?)
        } else {
            Ok(captured.to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> SecureHeap {
        SecureHeap::new(Key128::from_seed(99))
    }

    #[test]
    fn emalloc_hides_data_on_the_bus() {
        let mut h = heap();
        let id = h.emalloc(32).unwrap();
        h.write(id, 0, &[7u8; 32]).unwrap();
        let bus = h.bus_view(id).unwrap();
        assert_ne!(bus, vec![7u8; 32]);
        assert_eq!(h.decrypt_bus_view(id, &bus).unwrap(), vec![7u8; 32]);
    }

    #[test]
    fn malloc_leaks_data_on_the_bus() {
        let mut h = heap();
        let id = h.malloc(16).unwrap();
        h.write(id, 0, &[9u8; 16]).unwrap();
        assert_eq!(h.bus_view(id).unwrap(), vec![9u8; 16]);
    }

    #[test]
    fn sizes_round_to_blocks() {
        let mut h = heap();
        let id = h.emalloc(17).unwrap();
        assert_eq!(h.size(id).unwrap(), 32);
        assert!(h.is_encrypted(id).unwrap());
    }

    #[test]
    fn bounds_checked() {
        let mut h = heap();
        let id = h.malloc(16).unwrap();
        assert!(h.write(id, 10, &[0u8; 10]).is_err());
        assert!(h.read(id, 0, 17).is_err());
        assert!(h.emalloc(0).is_err());
    }

    #[test]
    fn distinct_regions_have_distinct_bases() {
        let mut h = heap();
        let a = h.emalloc(16).unwrap();
        let b = h.emalloc(16).unwrap();
        h.write(a, 0, &[1u8; 16]).unwrap();
        h.write(b, 0, &[1u8; 16]).unwrap();
        // Same plaintext, different addresses → different ciphertext.
        assert_ne!(h.bus_view(a).unwrap(), h.bus_view(b).unwrap());
    }

    #[test]
    fn read_returns_written_plaintext() {
        let mut h = heap();
        let id = h.emalloc(64).unwrap();
        h.write(id, 16, b"weights").unwrap();
        assert_eq!(h.read(id, 16, 7).unwrap(), b"weights");
    }
}
