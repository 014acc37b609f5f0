//! Sparse copies of large, mostly-reset tables.
//!
//! A snapshot of a simulated machine (see `paradet_core::SystemSnapshot`)
//! must not cost a dense copy of every table it holds: the L2's tag, flag,
//! fill-time and LRU arrays alone are ~410 KB, yet a run of a few thousand
//! instructions touches only a fraction of their lines. [`Sparse`] keeps
//! just the entries that differ from the table's reset value, and
//! restores them into a freshly reset table.

/// `flags` eight bytes at a time, each word with one bit (the low bit of
/// its byte) set per nonzero byte.
fn nonzero_masks(flags: &[u8]) -> impl Iterator<Item = u64> + '_ {
    flags.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        let w = w | (w >> 4);
        let w = w | (w >> 2);
        (w | (w >> 1)) & 0x0101_0101_0101_0101
    })
}

/// The number of nonzero bytes of `flags`.
pub(crate) fn count_nonzero_bytes(flags: &[u8]) -> usize {
    nonzero_masks(flags).map(|m| m.count_ones() as usize).sum()
}

/// Indices of the nonzero bytes of `flags`, ascending — a flag array
/// scanned eight bytes at a time.
pub(crate) fn nonzero_bytes(flags: &[u8]) -> impl Iterator<Item = usize> + '_ {
    nonzero_masks(flags).enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let byte = bits.trailing_zeros() as usize / 8;
                bits &= bits - 1;
                8 * w + byte
            })
        })
    })
}

/// The entries of a table that differ from its reset state, in index
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sparse<T> {
    idx: Vec<u32>,
    val: Vec<T>,
}

impl<T: Copy> Sparse<T> {
    /// `entry(i)` for each of the `n` indices in `live`, which must
    /// ascend: the caller decides which entries are live (a cache walks
    /// the nonzero bytes of its flag array, say, instead of every metadata
    /// array).
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds `u32::MAX`.
    pub fn gather(
        n: usize,
        live: impl Iterator<Item = usize>,
        mut entry: impl FnMut(usize) -> T,
    ) -> Sparse<T> {
        // Snapshots live as long as their campaign: size exactly, once.
        let (mut idx, mut val) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in live {
            idx.push(u32::try_from(i).expect("table index fits in u32"));
            val.push(entry(i));
        }
        Sparse { idx, val }
    }

    /// The entries of `table` that differ from `reset`.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than `u32::MAX` entries.
    pub fn of(table: &[T], reset: T) -> Sparse<T>
    where
        T: PartialEq,
    {
        // Two passes (count, then fill) size the vectors exactly; both skip
        // all-reset blocks with a branchless test, which vectorizes on the
        // primitive tables this mostly sees.
        const BLOCK: usize = 16;
        let live_blocks = || {
            table
                .chunks(BLOCK)
                .enumerate()
                .filter(move |(_, block)| !block.iter().fold(true, |all, &v| all & (v == reset)))
        };
        let n = live_blocks().map(|(_, block)| block.iter().filter(|&&v| v != reset).count()).sum();
        let (mut idx, mut val) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (b, block) in live_blocks() {
            for (i, &v) in block.iter().enumerate() {
                if v != reset {
                    idx.push(u32::try_from(b * BLOCK + i).expect("table index fits in u32"));
                    val.push(v);
                }
            }
        }
        Sparse { idx, val }
    }

    /// Writes every stored entry back into `table` (which should be at its
    /// reset state).
    pub fn restore(&self, table: &mut [T]) {
        for (i, v) in self.iter() {
            table[i] = v;
        }
    }

    /// The stored `(index, value)` entries, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        self.idx.iter().map(|&i| i as usize).zip(self.val.iter().copied())
    }

    /// Bytes the stored entries occupy.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.idx.as_slice()) + std::mem::size_of_val(self.val.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_changed_entries_and_restores_them() {
        let mut table = vec![3u8; 64];
        table[5] = 0;
        table[63] = 7;
        let sparse = Sparse::of(&table, 3);
        assert_eq!(sparse.iter().collect::<Vec<_>>(), [(5, 0), (63, 7)]);
        let flags = [0u8, 1, 0, 0, 0, 0, 0, 0x80, 0, 2];
        assert_eq!(nonzero_bytes(&flags).collect::<Vec<_>>(), [1, 7, 9]);
        assert_eq!(count_nonzero_bytes(&flags), 3);
        assert_eq!(sparse.bytes(), 2 * (4 + 1));
        let mut fresh = vec![3u8; 64];
        sparse.restore(&mut fresh);
        assert_eq!(fresh, table);
    }
}
