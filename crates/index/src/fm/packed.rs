//! Fixed-width unsigned fields packed end to end into `u64` words: the
//! sampled suffix array's quotients, `⌈log₂(text_len / sa_sample + 1)⌉`
//! bits each instead of a `u32`.

use repute_genome::wire::reserve_within;

/// Bits in one storage word.
const WORD_BITS: usize = 64;

/// Bytes in one storage word.
const WORD_BYTES: usize = 8;

/// A growable array of `width`-bit fields, `1 ≤ width ≤ 32`.
///
/// Field `i` occupies bits `i·width ..` of the words read as one
/// little-endian bit string. The words, kept as their little-endian
/// bytes, always number `⌊len·width / 64⌋ + 2`: the word the next field
/// starts in and one more, so the eight bytes from the one any field
/// starts in are always there, and a field is one unaligned load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct PackedFields {
    bytes: Vec<u8>,
    width: u32,
    len: usize,
}

impl PackedFields {
    /// The field width that holds every value up to `max`: its bit
    /// length, and at least one bit.
    pub(super) fn width_for(max: usize) -> u32 {
        (usize::BITS - max.leading_zeros()).max(1)
    }

    /// An empty array of `width`-bit fields with room for `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=32`.
    pub(super) fn with_capacity(width: u32, capacity: usize) -> PackedFields {
        assert!(
            (1..=32).contains(&width),
            "field width {width} out of 1..=32"
        );
        let mut bytes = Vec::with_capacity(WORD_BYTES * words_for(width, capacity));
        bytes.resize(2 * WORD_BYTES, 0);
        PackedFields {
            bytes,
            width,
            len: 0,
        }
    }

    /// Number of fields.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Makes room for `more` fields, the words growing at most to what
    /// `cap` fields need — a count a stream claimed — and otherwise by
    /// doubling ([`reserve_within`]).
    pub(super) fn reserve_within(&mut self, more: usize, cap: usize) {
        let wanted = WORD_BYTES * words_for(self.width, self.len + more);
        let more_bytes = wanted.saturating_sub(self.bytes.len());
        let cap_bytes = WORD_BYTES * words_for(self.width, cap);
        reserve_within(&mut self.bytes, more_bytes, cap_bytes);
    }

    /// Appends `value`, which must fit the field width.
    pub(super) fn push(&mut self, value: u32) {
        self.extend(std::iter::once(value));
    }

    /// Appends every value of `values`, each of which must fit the field
    /// width. The words are sized for all of them first; the fields are
    /// gathered in a register and each word is stored once it is full.
    pub(super) fn extend(&mut self, values: impl ExactSizeIterator<Item = u32>) {
        let width = self.width as usize;
        let bit = self.len * width;
        self.len += values.len();
        self.bytes
            .resize(WORD_BYTES * words_for(self.width, self.len), 0);
        let (mut at, mut fill) = (bit / WORD_BITS, bit % WORD_BITS);
        let mut word = self.word(at);
        for value in values {
            debug_assert!(
                value >> (width - 1) >> 1 == 0,
                "{value} exceeds {width} bits"
            );
            let value = u64::from(value);
            word |= value << fill;
            fill += width;
            if fill >= WORD_BITS {
                self.set_word(at, word);
                at += 1;
                fill -= WORD_BITS;
                // The bits that did not fit; none when the field ended
                // the word (`value >> width` is 0).
                word = value >> (width - fill);
            }
        }
        self.set_word(at, word);
    }

    /// Field `index`: the eight bytes from the one it starts in, read as
    /// one little-endian word and shifted by the bits before it there —
    /// at most 7, so any field up to 57 bits fits.
    #[inline]
    pub(super) fn get(&self, index: usize) -> u32 {
        debug_assert!(index < self.len, "field {index} of {}", self.len);
        let bit = index * self.width as usize;
        let at = bit / 8;
        let bytes: [u8; WORD_BYTES] = self.bytes[at..at + WORD_BYTES]
            .try_into()
            .expect("eight bytes");
        let mask = u32::MAX >> (32 - self.width);
        (u64::from_le_bytes(bytes) >> (bit % 8)) as u32 & mask
    }

    /// Every field in order, unpacked a word at a time.
    pub(super) fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        let width = self.width as usize;
        let mask = u64::from(u32::MAX >> (32 - self.width));
        let mut words = self
            .bytes
            .chunks_exact(WORD_BYTES)
            .map(|word| u64::from_le_bytes(word.try_into().expect("eight bytes")));
        // `word` holds the bits from `fill` on of the word being read.
        let (mut word, mut fill) = (words.next().unwrap_or(0), 0);
        (0..self.len).map(move |_| {
            let mut value = word >> fill;
            fill += width;
            if fill >= WORD_BITS {
                fill -= WORD_BITS;
                word = words.next().unwrap_or(0);
                if fill > 0 {
                    value |= word << (width - fill);
                }
            }
            (value & mask) as u32
        })
    }

    /// Heap bytes of the words.
    pub(super) fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Word `at` of the bit string.
    fn word(&self, at: usize) -> u64 {
        let bytes = &self.bytes[WORD_BYTES * at..WORD_BYTES * (at + 1)];
        u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
    }

    /// Stores word `at` of the bit string.
    fn set_word(&mut self, at: usize, word: u64) {
        self.bytes[WORD_BYTES * at..WORD_BYTES * (at + 1)].copy_from_slice(&word.to_le_bytes());
    }
}

/// Words `len` fields of `width` bits are held in: their whole words,
/// the word the next field starts in, and the one after it.
fn words_for(width: u32, len: usize) -> usize {
    len * width as usize / WORD_BITS + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_every_width_read_back_across_word_boundaries() {
        for width in 1..=32u32 {
            let mask = u32::MAX >> (32 - width);
            let values: Vec<u32> = (0..200u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(i) & mask)
                .collect();
            let mut fields = PackedFields::with_capacity(width, values.len());
            for &v in &values {
                fields.push(v);
            }
            assert_eq!(fields.len(), values.len());
            assert_eq!(fields.heap_bytes(), 8 * words_for(width, values.len()));
            assert!(fields.iter().eq(values.iter().copied()), "width {width}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(fields.get(i), v, "width {width} field {i}");
            }
        }
    }

    #[test]
    fn extending_in_runs_packs_what_one_at_a_time_packs() {
        for width in 1..=32u32 {
            let mask = u32::MAX >> (32 - width);
            let values: Vec<u32> = (0..300u32)
                .map(|i| i.wrapping_mul(0x85EB_CA6B).rotate_left(i) & mask)
                .collect();
            let mut pushed = PackedFields::with_capacity(width, 0);
            let mut extended = PackedFields::with_capacity(width, 0);
            let mut at = 0;
            for (i, &v) in values.iter().enumerate() {
                pushed.push(v);
                // Runs of 0, 1, 2, … values, so runs start at every offset.
                if i + 1 - at == at % 7 || i + 1 == values.len() {
                    extended.extend(values[at..=i].iter().copied());
                    extended.extend([].into_iter());
                    at = i + 1;
                }
                assert_eq!(extended.len(), at);
            }
            assert_eq!(extended, pushed, "width {width}");
        }
    }

    #[test]
    fn the_width_is_the_bit_length_of_the_largest_value() {
        assert_eq!(PackedFields::width_for(0), 1);
        assert_eq!(PackedFields::width_for(1), 1);
        assert_eq!(PackedFields::width_for(2), 2);
        assert_eq!(PackedFields::width_for(1_000_000), 20);
        assert_eq!(PackedFields::width_for(5_000_000), 23);
        assert_eq!(PackedFields::width_for(u32::MAX as usize), 32);
    }

    #[test]
    fn growing_within_a_claimed_count_ends_at_its_exact_size() {
        let mut fields = PackedFields::with_capacity(20, 0);
        for chunk in 0..10u32 {
            fields.reserve_within(100, 1_000);
            for i in 0..100 {
                fields.push(chunk * 100 + i);
            }
        }
        assert_eq!(fields.bytes.capacity(), 8 * words_for(20, 1_000));
        assert!((0..1_000).all(|i| fields.get(i) == i as u32));
    }
}
