//! Fixed-width unsigned fields packed end to end into `u64` words: the
//! sampled suffix array's quotients, `⌈log₂(text_len / sa_sample + 1)⌉`
//! bits each instead of a `u32`.

use repute_genome::wire::reserve_within;

/// Bits in one storage word.
const WORD_BITS: usize = 64;

/// A growable array of `width`-bit fields, `1 ≤ width ≤ 32`.
///
/// Field `i` occupies bits `i·width ..` of the words read as one
/// little-endian bit string. The words always number
/// `⌊len·width / 64⌋ + 2`: the word the next field starts in and one
/// more, so every field, read or written, is one two-word window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct PackedFields {
    words: Vec<u64>,
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
        let mut words = Vec::with_capacity(words_for(width, capacity));
        words.extend([0, 0]);
        PackedFields {
            words,
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
        let wanted = words_for(self.width, self.len + more);
        let more_words = wanted.saturating_sub(self.words.len());
        reserve_within(&mut self.words, more_words, words_for(self.width, cap));
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
        self.words.resize(words_for(self.width, self.len), 0);
        let (mut at, mut fill) = (bit / WORD_BITS, bit % WORD_BITS);
        let words = &mut self.words[..];
        let mut word = words[at];
        for value in values {
            debug_assert!(
                value >> (width - 1) >> 1 == 0,
                "{value} exceeds {width} bits"
            );
            let value = u64::from(value);
            word |= value << fill;
            fill += width;
            if fill >= WORD_BITS {
                words[at] = word;
                at += 1;
                fill -= WORD_BITS;
                // The bits that did not fit; none when the field ended
                // the word (`value >> width` is 0).
                word = value >> (width - fill);
            }
        }
        words[at] = word;
    }

    /// Field `index`: one window over the two words it may span.
    #[inline]
    pub(super) fn get(&self, index: usize) -> u32 {
        debug_assert!(index < self.len, "field {index} of {}", self.len);
        let bit = index * self.width as usize;
        let (at, shift) = (bit / WORD_BITS, bit % WORD_BITS);
        let pair = u128::from(self.words[at]) | u128::from(self.words[at + 1]) << WORD_BITS;
        let mask = u32::MAX >> (32 - self.width);
        (pair >> shift) as u32 & mask
    }

    /// Heap bytes of the words.
    pub(super) fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
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
        assert_eq!(fields.words.capacity(), words_for(20, 1_000));
        assert!((0..1_000).all(|i| fields.get(i) == i as u32));
    }
}
