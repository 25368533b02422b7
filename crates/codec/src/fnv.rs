//! FNV-1a, 64 bit: the one non-cryptographic hash the workspace keys
//! and tags with — a tile's tag (spec §8), a principal's admission key,
//! replica spreading, busy-backoff jitter and seeded world ids. Stable
//! across processes and platforms, so seeded runs replay bit for bit.

/// An incremental FNV-1a-64 hash. Writing parts one after another
/// hashes their concatenation:
///
/// ```
/// use openflame_codec::Fnv1a;
/// let whole = Fnv1a::new().write(b"tile runs").finish();
/// assert_eq!(Fnv1a::new().write(b"tile").write(b" runs").finish(), whole);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The hash of no bytes: the offset basis.
    pub const fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    /// Folds `bytes` in, one at a time.
    #[must_use]
    pub fn write(self, bytes: &[u8]) -> Self {
        Self(
            bytes
                .iter()
                .fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(Self::PRIME)),
        )
    }

    /// The hash of every byte written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a-64 test vectors.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().write(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }
}
