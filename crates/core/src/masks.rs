//! Base/Offset mask configuration registers.
//!
//! All the hardware structures of the protocol track data at a fixed
//! granularity: the SPM buffer size chosen by the runtime library before the
//! loop starts (§3.1 of the paper).  That size is notified to the hardware,
//! which derives the masks that reduce any 64-bit GM virtual address to its
//! *base address*, the CAM search key.  The paper also adds the address's
//! offset to the SPM buffer base when an access is diverted; the simulator
//! models a diverted access by its latency and target only, so it computes
//! no offset.

use serde::{Deserialize, Serialize};
use simkernel::ByteSize;

use mem::Addr;

/// The Base Mask / Offset Mask register pair.
///
/// The tracking granularity is the largest power of two not larger than the
/// SPM buffer size, so a single AND finds an address's base.
///
/// # Example
///
/// ```
/// use spm_coherence::AddressMasks;
/// use mem::Addr;
/// use simkernel::ByteSize;
///
/// let masks = AddressMasks::for_buffer_size(ByteSize::kib(16));
/// assert_eq!(masks.base(Addr::new(0x12_3456)), Addr::new(0x12_0000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddressMasks {
    granularity: u64,
}

impl AddressMasks {
    /// Derives the masks for an SPM buffer of `buffer_size` bytes.
    ///
    /// The granularity is rounded down to a power of two (and clamped to at
    /// least one cache line, 64 bytes), which is what a real implementation
    /// with simple mask registers would do.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_size` is zero.
    pub fn for_buffer_size(buffer_size: ByteSize) -> Self {
        let bytes = buffer_size.bytes();
        assert!(bytes > 0, "buffer size must be non-zero");
        let granularity = if bytes.is_power_of_two() {
            bytes
        } else {
            1u64 << (63 - bytes.leading_zeros())
        };
        AddressMasks {
            granularity: granularity.max(64),
        }
    }

    /// The tracking granularity in bytes (a power of two).
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// The base address of the chunk containing `addr` (the base mask
    /// applied to it).
    pub fn base(&self, addr: Addr) -> Addr {
        Addr::new(addr.raw() & !(self.granularity - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_buffer_is_exact() {
        let m = AddressMasks::for_buffer_size(ByteSize::kib(8));
        assert_eq!(m.granularity(), 8192);
        assert_eq!(m.base(Addr::new(0x1_3fff)), Addr::new(0x1_2000));
    }

    #[test]
    fn non_power_of_two_rounds_down() {
        // 32 KiB / 3 buffers = 10922 bytes -> 8 KiB granularity.
        let m = AddressMasks::for_buffer_size(ByteSize::bytes_exact(10922));
        assert_eq!(m.granularity(), 8192);
    }

    #[test]
    fn tiny_buffers_clamp_to_a_line() {
        let m = AddressMasks::for_buffer_size(ByteSize::bytes_exact(80));
        assert_eq!(m.granularity(), 64);
    }

    #[test]
    fn decompose_recomposes() {
        let m = AddressMasks::for_buffer_size(ByteSize::kib(16));
        for raw in [0u64, 0x3fff, 0x4000, 0x1234_5678, 0xffff_ffff_ffff_ffff] {
            let base = m.base(Addr::new(raw)).raw();
            assert_eq!(base % m.granularity(), 0);
            assert!(base <= raw && raw - base < m.granularity());
        }
    }

    #[test]
    fn addresses_in_same_chunk_share_base() {
        let m = AddressMasks::for_buffer_size(ByteSize::kib(4));
        assert_eq!(m.base(Addr::new(0x9000)), m.base(Addr::new(0x9fff)));
        assert_ne!(m.base(Addr::new(0x9000)), m.base(Addr::new(0xa000)));
    }

    #[test]
    #[should_panic]
    fn zero_buffer_size_panics() {
        let _ = AddressMasks::for_buffer_size(ByteSize::ZERO);
    }
}
