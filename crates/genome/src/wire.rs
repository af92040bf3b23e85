//! How bytes on disk are framed, checksummed and bounded: the one
//! module every on-disk format of the workspace goes through (the six
//! magics and their layouts: DESIGN.md, "On-disk formats"). All
//! little-endian. Every decoder keeps three rules:
//!
//! * fields come out of a [`Reader`], which returns a [`WireError`]
//!   where a slice index would panic;
//! * a count read from input may not exceed the bytes left ÷ the
//!   smallest encoding of one item, checked *before* anything is
//!   allocated for it ([`Reader::count`], [`Reader::items`]);
//! * a run whose length came from input is read from a stream by
//!   growth ([`read_run`]), or in bounded pieces straight into the
//!   decoder's own arrays ([`read_pieces`], [`reserve_within`]): a
//!   forged length costs what the stream holds, not what it claims.
//!
//! The journals share a frame codec on top: checksummed header, frames,
//! a durable append handle ([`FrameLog`]). [`frames`] reports *why* it
//! stopped; what a [`Stop`] means — torn tail or corruption — is each
//! journal's policy.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3 polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit streaming hasher — the fingerprint currency.
///
/// Two multipliers are frozen in files and digests, so both stay:
/// [`Fnv64::new`] multiplies by 2⁴⁸ + 0x1b3 (run and journal
/// fingerprints, the `RPXC` fingerprint, every pinned test digest),
/// [`Fnv64::standard`] by the FNV prime 2⁴⁰ + 0x1b3 (`RPFM` trailer).
#[derive(Debug, Clone)]
pub struct Fnv64 {
    hash: u64,
    prime: u64,
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    const fn at_offset_basis(prime: u64) -> Fnv64 {
        let hash = 0xcbf2_9ce4_8422_2325;
        Fnv64 { hash, prime }
    }

    /// A fresh fingerprint hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::at_offset_basis(0x1_0000_0000_01b3)
    }

    /// A fresh hasher computing standard FNV-1a 64.
    pub fn standard() -> Fnv64 {
        Fnv64::at_offset_basis(0x0100_0000_01b3)
    }

    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(self.prime);
        }
    }

    /// Folds one little-endian word into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Appends `v`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as `[len u32][bytes]`.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Why a decoder refused its input. Each boundary maps it to what it
/// returns: the stream decoders to an [`io::Error`] (`UnexpectedEof` /
/// `InvalidData`), the journals to their `JournalCorrupt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ends inside a field.
    Truncated,
    /// A field holds what the format does not allow; the text says what.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireError::Truncated => "input ends inside a field",
            WireError::Invalid(what) => what,
        })
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        let kind = match e {
            WireError::Truncated => io::ErrorKind::UnexpectedEof,
            WireError::Invalid(_) => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e)
    }
}

/// A bounded little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(|[b]| b)
    }

    /// One `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// One `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// One `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `[len u32][bytes]` string, as [`put_str`] writes it.
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| WireError::Invalid("a string is not UTF-8"))
    }

    /// Accepts `n` as an item count only if the bytes left could hold
    /// it, every item taking at least `min_item_bytes`: a larger count
    /// is corruption, refused before anything is allocated for it.
    pub fn bounded(&self, n: u64, min_item_bytes: usize) -> Result<usize, WireError> {
        match usize::try_from(n) {
            Ok(n) if n <= self.buf.len() / min_item_bytes => Ok(n),
            _ => Err(WireError::Invalid("a count exceeds the bytes left")),
        }
    }

    /// Reads a `u32` item count under the rule of [`Reader::bounded`].
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        self.bounded(u64::from(n), min_item_bytes)
    }

    /// A `u32` count under the rule of [`Reader::bounded`], then that
    /// many items, each decoded by `item`.
    pub fn items<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_item_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Succeeds only when every byte was read.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Invalid("bytes left over after the last field"))
        }
    }
}

/// Reads exactly `len` bytes from a stream, where `len` came from the
/// stream itself: the buffer grows only as bytes arrive. A stream that
/// ends early is [`io::ErrorKind::UnexpectedEof`].
pub fn read_run<R: Read>(input: R, len: u64) -> io::Result<Vec<u8>> {
    let mut run = Vec::new();
    if input.take(len).read_to_end(&mut run)? as u64 != len {
        return Err(WireError::Truncated.into());
    }
    Ok(run)
}

/// The most bytes [`read_pieces`] hands over at once: 64 KiB, a whole
/// number of items of every size a decoder reads in pieces (4 and 8).
pub const PIECE_BYTES: usize = 1 << 16;

/// Reads exactly `len` bytes from a stream, where `len` came from the
/// stream itself, handing them to `piece` in order, [`PIECE_BYTES`] at a
/// time (the last piece may be shorter) — so a decoder can put a large
/// array straight where it belongs instead of holding its bytes first.
/// One buffer of at most [`PIECE_BYTES`] is all this allocates. A stream
/// that ends early is [`io::ErrorKind::UnexpectedEof`], and the piece it
/// ends in is not handed over.
pub fn read_pieces<R: Read>(
    mut input: R,
    len: u64,
    mut piece: impl FnMut(&[u8]),
) -> io::Result<()> {
    let mut buf = vec![0u8; len.min(PIECE_BYTES as u64) as usize];
    let mut left = len;
    while left > 0 {
        let n = left.min(PIECE_BYTES as u64) as usize;
        input
            .read_exact(&mut buf[..n])
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => WireError::Truncated.into(),
                _ => e,
            })?;
        piece(&buf[..n]);
        left -= n as u64;
    }
    Ok(())
}

/// Makes room in `items` for `more` items, the total growing at most to
/// `cap` — a count the stream claimed — and otherwise by doubling: a
/// decoder that trusts no count still allocates only for items that have
/// arrived, and ends with an array of exactly the claimed size.
pub fn reserve_within<T>(items: &mut Vec<T>, more: usize, cap: usize) {
    let wanted = items.len() + more;
    if items.capacity() >= wanted {
        return;
    }
    let total = (items.capacity() * 2).min(cap).max(wanted);
    items.reserve_exact(total - items.len());
}

/// The little-endian `u64`s of `bytes` (a whole number of them).
pub fn le_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|w| {
        let mut word = [0; 8];
        word.copy_from_slice(w);
        u64::from_le_bytes(word)
    })
}

/// The little-endian `u32`s of `bytes` (a whole number of them).
pub fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|w| {
        let mut word = [0; 4];
        word.copy_from_slice(w);
        u32::from_le_bytes(word)
    })
}

/// Length of a journal header: magic, three fingerprint words, CRC32 of
/// the words.
pub const HEADER_LEN: usize = 8 + 3 * 8 + 4;

/// Sanity cap on one frame's payload (a batch of reads never comes
/// close; anything larger is a corrupt length prefix).
pub const MAX_FRAME_BYTES: u32 = 1 << 28;

/// Appends a journal header: `magic`, `words`, CRC32 of the words.
pub fn put_header(out: &mut Vec<u8>, magic: &[u8; 8], words: [u64; 3]) {
    out.extend_from_slice(magic);
    let covered = out.len();
    for word in words {
        put_u64(out, word);
    }
    put_u32(out, crc32(&out[covered..]));
}

/// The three words of the journal header at the start of `bytes`:
/// [`WireError::Truncated`] for fewer than [`HEADER_LEN`] bytes,
/// `Invalid` for another magic or a CRC mismatch.
pub fn parse_header(bytes: &[u8], magic: &[u8; 8]) -> Result<[u64; 3], WireError> {
    let mut r = Reader::new(bytes.get(..HEADER_LEN).ok_or(WireError::Truncated)?);
    if r.bytes(magic.len())? != magic {
        return Err(WireError::Invalid("bad magic"));
    }
    let covered = r.clone().bytes(3 * 8)?;
    let words = [r.u64()?, r.u64()?, r.u64()?];
    if crc32(covered) != r.u32()? {
        return Err(WireError::Invalid("header checksum mismatch"));
    }
    Ok(words)
}

/// Appends one frame: `[len u32][payload][crc32(payload) u32]`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
}

/// Bytes `payload` takes up as a frame.
pub fn frame_len(payload: &[u8]) -> usize {
    payload.len() + 8
}

/// Why [`frames`] yielded nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every byte belonged to a valid frame.
    End,
    /// The final frame is cut short, or runs to the last byte of the
    /// input and fails its CRC: an append the crash interrupted.
    TornTail,
    /// A frame fails its CRC and more bytes follow it.
    CrcBreak,
    /// A length prefix exceeds [`MAX_FRAME_BYTES`].
    OverLong,
}

/// Walks a journal body (the file minus its header): the payloads of
/// the CRC-valid frames it starts with, and why the walk stopped.
pub fn frames(body: &[u8]) -> (Vec<&[u8]>, Stop) {
    let mut payloads = Vec::new();
    let mut r = Reader::new(body);
    let stop = loop {
        if r.buf.is_empty() {
            break Stop::End;
        }
        let Ok(len) = r.u32() else {
            break Stop::TornTail;
        };
        if len > MAX_FRAME_BYTES {
            break Stop::OverLong;
        }
        let (Ok(payload), Ok(stored)) = (r.bytes(len as usize), r.u32()) else {
            break Stop::TornTail;
        };
        if crc32(payload) != stored {
            break if r.buf.is_empty() {
                Stop::TornTail
            } else {
                Stop::CrcBreak
            };
        }
        payloads.push(payload);
    };
    (payloads, stop)
}

/// The append handle of a journal file: every append is one frame,
/// durable (`sync_data`) when the call returns.
#[derive(Debug)]
pub struct FrameLog {
    file: File,
}

impl FrameLog {
    /// Creates `path` (truncating an existing file) holding just
    /// `header`, synced to disk.
    pub fn create(path: &Path, header: &[u8]) -> io::Result<FrameLog> {
        let mut file = File::create(path)?;
        file.write_all(header)?;
        file.sync_all()?;
        Ok(FrameLog { file })
    }

    /// Opens `path` for appends after its first `durable_len` bytes.
    /// Whatever follows them — a torn tail — is truncated away, and the
    /// truncation synced before anything is appended behind it.
    pub fn open(path: &Path, durable_len: u64) -> io::Result<FrameLog> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        if file.metadata()?.len() > durable_len {
            file.set_len(durable_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(durable_len))?;
        Ok(FrameLog { file })
    }

    /// Appends `payload` as one frame and syncs it.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(frame_len(payload));
        put_frame(&mut frame, payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()
    }

    /// Current size of the file in bytes.
    pub fn size_bytes(&self) -> io::Result<u64> {
        self.file.metadata().map(|m| m.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_match_known_vectors() {
        // The IEEE check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // The published FNV-1a 64 test vector for "a".
        let mut h = Fnv64::standard();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_ne!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn reader_refuses_instead_of_slicing_past_the_end() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, 9);
        put_str(&mut out, "chr1");
        let mut r = Reader::new(&out);
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(9));
        assert_eq!(r.string().as_deref(), Ok("chr1"));
        assert_eq!(r.clone().finish(), Ok(()));
        assert_eq!(r.u8(), Err(WireError::Truncated));

        let mut r = Reader::new(&out[..out.len() - 1]);
        r.bytes(12).expect("fixed fields");
        assert_eq!(r.string(), Err(WireError::Truncated));
        assert!(matches!(
            Reader::new(&out).finish(),
            Err(WireError::Invalid(_))
        ));
        assert!(matches!(
            Reader::new(&[1, 0, 0, 0, 0xFF]).string(),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_that_are_left() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 12]);
        let refused = Err(WireError::Invalid("a count exceeds the bytes left"));
        assert_eq!(Reader::new(&out).count(4), Ok(3));
        assert_eq!(Reader::new(&out).count(5), refused);
        assert_eq!(Reader::new(&u32::MAX.to_le_bytes()).count(1), refused);
        let r = Reader::new(&out);
        assert_eq!(r.bounded(u64::MAX, 1), refused);
        assert_eq!(r.bounded(16, 1), Ok(16));
    }

    #[test]
    fn runs_are_read_by_growth() {
        assert_eq!(read_run(&b"abcdef"[..], 4).expect("run"), b"abcd");
        let err = read_run(&b"abc"[..], u64::MAX).expect_err("short");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn pieces_arrive_in_order_and_arrays_grow_to_their_claim() {
        let bytes: Vec<u8> = (0..3 * PIECE_BYTES + 24).map(|i| i as u8).collect();
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        read_pieces(bytes.as_slice(), bytes.len() as u64, |p| {
            sizes.push(p.len());
            seen.extend_from_slice(p);
        })
        .expect("whole");
        assert_eq!(seen, bytes);
        assert_eq!(sizes, [PIECE_BYTES, PIECE_BYTES, PIECE_BYTES, 24]);
        let mut handed = 0;
        let err =
            read_pieces(&bytes[..PIECE_BYTES + 1], u64::MAX, |_| handed += 1).expect_err("short");
        assert_eq!((err.kind(), handed), (io::ErrorKind::UnexpectedEof, 1));

        let words: Vec<u64> = le_u64s(&bytes[..PIECE_BYTES]).collect();
        let mut grown: Vec<u64> = Vec::new();
        for chunk in words.chunks(1000) {
            reserve_within(&mut grown, chunk.len(), words.len());
            grown.extend_from_slice(chunk);
        }
        assert_eq!(grown, words);
        assert_eq!(grown.capacity(), words.len(), "exactly the claim");
        assert_eq!(
            le_u32s(&[1, 0, 0, 0, 2, 1, 0, 0]).collect::<Vec<_>>(),
            [1, 258]
        );
    }

    #[test]
    fn header_round_trips_and_names_what_broke() {
        let magic = b"RPTEST01";
        let mut header = Vec::new();
        put_header(&mut header, magic, [1, 2, 3]);
        assert_eq!(header.len(), HEADER_LEN);
        assert_eq!(parse_header(&header, magic), Ok([1, 2, 3]));
        assert_eq!(
            parse_header(&header[..HEADER_LEN - 1], magic),
            Err(WireError::Truncated)
        );
        assert_eq!(
            parse_header(&header, b"RPTEST02"),
            Err(WireError::Invalid("bad magic"))
        );
        header[9] ^= 1;
        assert_eq!(
            parse_header(&header, magic),
            Err(WireError::Invalid("header checksum mismatch"))
        );
    }

    #[test]
    fn walker_reports_why_it_stopped() {
        let mut body = Vec::new();
        put_frame(&mut body, b"first");
        let first = body.len();
        put_frame(&mut body, b"second!");

        let walk = |bytes: &[u8]| {
            let (payloads, stop) = frames(bytes);
            let taken: usize = payloads.iter().map(|p| frame_len(p)).sum();
            (payloads.len(), taken, stop)
        };
        assert_eq!(walk(&body), (2, body.len(), Stop::End));
        assert_eq!(frames(&body).0, [&b"first"[..], b"second!"]);
        for cut in first + 1..body.len() {
            assert_eq!(walk(&body[..cut]), (1, first, Stop::TornTail));
        }
        let mut bad = body.clone();
        bad[first + 5] ^= 1; // payload of the final frame
        assert_eq!(walk(&bad), (1, first, Stop::TornTail));
        let mut bad = body.clone();
        bad[5] ^= 1; // payload of an interior frame
        assert_eq!(walk(&bad), (0, 0, Stop::CrcBreak));
        let mut bad = body.clone();
        bad[first + 3] = 0x7F; // length prefix far past the cap
        assert_eq!(walk(&bad), (1, first, Stop::OverLong));
    }

    #[test]
    fn log_truncates_a_torn_tail_and_appends_behind_it() {
        let path = std::env::temp_dir().join(format!("repute-wire-log-{}", std::process::id()));
        let mut log = FrameLog::create(&path, b"HEAD").expect("create");
        log.append(b"one").expect("append");
        let durable = log.size_bytes().expect("size");
        log.append(b"two").expect("append");
        drop(log);

        let mut log = FrameLog::open(&path, durable).expect("open");
        assert_eq!(log.size_bytes().expect("size"), durable);
        log.append(b"three").expect("append");
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(frames(&bytes[4..]).0, [&b"one"[..], b"three"]);
        std::fs::remove_file(&path).expect("cleanup");
    }
}
