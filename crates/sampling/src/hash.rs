//! The one hasher of the sampling loops' maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use imc_sim::splitmix64;

/// A `HashMap` keyed through [`WordHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// An unkeyed hasher for integer keys (states, transitions, count tables):
/// one multiply-rotate step per word, finished by [`splitmix64`].
///
/// No caller lets a map's iteration order reach a float sum or an output
/// order, so the hasher decides speed, never a result. The keys come from
/// sampling a model: a model shaped to make them collide only slows its
/// own run, as a larger trace budget in its manifest already could.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}
