//! `repute index` and `repute simulate`, and how every subcommand gets
//! its reference: FASTA, a prebuilt index, or the `RPXC` index cache.

use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::path::Path;

use repute_core::journal::Fnv64;
use repute_core::{write_atomic, ReputeError};
use repute_genome::fasta::{read_fasta, AmbiguityPolicy};
use repute_genome::wire::{put_u64, read_run, Reader};
use repute_mappers::multiref::ReferenceSet;

use crate::args::{Cursor, ParseArgsError};

/// Parsed command-line options for `repute index`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexOptions {
    /// Path to the FASTA reference.
    pub reference: String,
    /// Output path for the binary index.
    pub output: String,
}

/// Parses `repute index` arguments.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or missing options.
pub fn parse_index_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<IndexOptions, ParseArgsError> {
    let mut opts = IndexOptions::default();
    let mut cur = Cursor::new(args);
    while cur.advance()? {
        match cur.flag() {
            "--reference" => opts.reference = cur.value()?,
            "--output" => opts.output = cur.value()?,
            _ => return Err(cur.unknown()),
        }
    }
    if opts.reference.is_empty() {
        return Err(ParseArgsError::new("--reference is required"));
    }
    if opts.output.is_empty() {
        return Err(ParseArgsError::new("--output is required"));
    }
    Ok(opts)
}

/// Parsed command-line options for `repute simulate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateOptions {
    /// Directory the FASTA/FASTQ/truth files are written into.
    pub out_dir: String,
    /// Reference length in bases.
    pub length: usize,
    /// Number of reads.
    pub reads: usize,
    /// Read length in bases.
    pub read_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Error profile name.
    pub profile: String,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        SimulateOptions {
            out_dir: String::new(),
            length: 1_000_000,
            reads: 10_000,
            read_len: 100,
            seed: 42,
            profile: "err012100".into(),
        }
    }
}

/// Parses `repute simulate` arguments.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or missing options.
pub fn parse_simulate_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<SimulateOptions, ParseArgsError> {
    let mut opts = SimulateOptions::default();
    let mut cur = Cursor::new(args);
    while cur.advance()? {
        match cur.flag() {
            "--out-dir" => opts.out_dir = cur.value()?,
            "--length" => opts.length = cur.integer()?,
            "--reads" => opts.reads = cur.integer()?,
            "--read-len" => opts.read_len = cur.integer()?,
            "--seed" => opts.seed = cur.integer()?,
            "--profile" => opts.profile = cur.value()?,
            _ => return Err(cur.unknown()),
        }
    }
    if opts.out_dir.is_empty() {
        return Err(ParseArgsError::new("--out-dir is required"));
    }
    if !matches!(opts.profile.as_str(), "err012100" | "srr826460" | "perfect") {
        return Err(ParseArgsError::new(format!(
            "unknown profile {:?} (err012100, srr826460, perfect)",
            opts.profile
        )));
    }
    Ok(opts)
}

/// Runs `repute simulate`: writes `reference.fa`, `reads.fq` and
/// `truth.tsv` into the output directory.
///
/// # Errors
///
/// Propagates I/O and generation errors.
pub fn run_simulate(opts: &SimulateOptions) -> Result<(), ReputeError> {
    use repute_genome::fasta::{write_fasta, FastaRecord};
    use repute_genome::fastq::write_fastq;
    use repute_genome::reads::{ErrorProfile, ReadSimulator};
    use repute_genome::synth::ReferenceBuilder;

    let dir = Path::new(&opts.out_dir);
    std::fs::create_dir_all(dir).map_err(|e| ReputeError::io_at(dir, e))?;
    eprintln!("generating a {} bp reference…", opts.length);
    let reference = ReferenceBuilder::new(opts.length).seed(opts.seed).build();
    let profile = match opts.profile.as_str() {
        "err012100" => ErrorProfile::err012100(),
        "srr826460" => ErrorProfile::srr826460(),
        _ => ErrorProfile::perfect(),
    };
    let sim = ReadSimulator::new(opts.read_len, opts.reads)
        .profile(profile)
        .seed(opts.seed ^ 0x5EED);
    let records = sim.simulate_fastq(&reference);

    let fa = File::create(dir.join("reference.fa"))?;
    write_fasta(
        BufWriter::new(fa),
        &[FastaRecord::new("chrSim", reference)],
        70,
    )?;
    let fq = File::create(dir.join("reads.fq"))?;
    write_fastq(
        BufWriter::new(fq),
        &records.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
    )?;
    let mut truth = BufWriter::new(File::create(dir.join("truth.tsv"))?);
    writeln!(truth, "read	strand	position	edits")?;
    for (record, origin) in &records {
        match origin {
            Some(o) => writeln!(
                truth,
                "{}	{}	{}	{}",
                record.id,
                o.strand.symbol(),
                o.position,
                o.edits
            )?,
            None => writeln!(truth, "{}	*	*	*", record.id)?,
        }
    }
    truth.flush()?;
    eprintln!(
        "wrote reference.fa ({} bp), reads.fq ({} reads), truth.tsv into {:?}",
        opts.length, opts.reads, opts.out_dir
    );
    Ok(())
}

/// Loads the reference set from a prebuilt `index` when one is named,
/// else from the `reference` FASTA — through `index_cache` when given.
pub(crate) fn load_reference_set(
    reference: &str,
    index: Option<&str>,
    index_cache: Option<&str>,
) -> Result<ReferenceSet, ReputeError> {
    if let Some(index_path) = index {
        let path = Path::new(index_path);
        let file = File::open(path).map_err(|e| ReputeError::io_at(path, e))?;
        eprintln!("loading prebuilt index {index_path:?}…");
        // A file that decodes to nonsense and one that ends early are
        // both bad input, not a failing disk.
        return ReferenceSet::read_from(BufReader::new(file)).map_err(|e| match e.kind() {
            ErrorKind::InvalidData | ErrorKind::UnexpectedEof => {
                ReputeError::InputParse(format!("index {index_path:?}: {e}"))
            }
            _ => ReputeError::io_at(path, e),
        });
    }
    let path = Path::new(reference);
    let source = std::fs::read(path).map_err(|e| ReputeError::io_at(path, e))?;
    if let Some(cache) = index_cache {
        if let Some(set) = try_load_index_cache(cache, &source) {
            eprintln!("index cache hit: loaded {cache:?} (fingerprint matches the reference)");
            return Ok(set);
        }
    }
    let records = read_fasta(source.as_slice(), AmbiguityPolicy::Randomize(0))?;
    if records.is_empty() {
        return Err(ReputeError::InputParse(
            "reference FASTA contains no sequence".into(),
        ));
    }
    let total: usize = records.iter().map(|r| r.seq.len()).sum();
    eprintln!("indexing {} record(s), {total} bp…", records.len());
    let set = ReferenceSet::build(records.into_iter().map(|r| (r.id, r.seq)).collect());
    if let Some(cache) = index_cache {
        save_index_cache(cache, &source, &set)?;
        eprintln!("index cache miss: rebuilt the index and saved it to {cache:?}");
    }
    Ok(set)
}

/// Magic prefix of an `--index-cache` file; followed by the FNV-64
/// fingerprint of the reference FASTA bytes (little-endian) and the
/// serialized [`ReferenceSet`].
const INDEX_CACHE_MAGIC: &[u8; 4] = b"RPXC";

/// FNV-64 over the raw reference FASTA bytes — the validity condition of
/// a cached index.
fn index_cache_fingerprint(source: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(source);
    h.finish()
}

/// Loads a cached index when the magic and fingerprint match `source`.
/// Any mismatch, corruption, or absence returns `None`: a stale cache is
/// never an error, just a rebuild.
fn try_load_index_cache(cache: &str, source: &[u8]) -> Option<ReferenceSet> {
    let mut input = BufReader::new(File::open(cache).ok()?);
    let head = read_run(&mut input, 12).ok()?;
    let mut r = Reader::new(&head);
    if r.bytes(4).ok()? != INDEX_CACHE_MAGIC || r.u64().ok()? != index_cache_fingerprint(source) {
        return None;
    }
    ReferenceSet::read_from(input).ok()
}

/// Atomically writes `set` to the cache path, stamped with the
/// fingerprint of the reference bytes it was built from.
fn save_index_cache(cache: &str, source: &[u8], set: &ReferenceSet) -> Result<(), ReputeError> {
    let cache_path = Path::new(cache);
    let mut bytes = INDEX_CACHE_MAGIC.to_vec();
    put_u64(&mut bytes, index_cache_fingerprint(source));
    set.write_to(&mut bytes)
        .map_err(|e| ReputeError::io_at(cache_path, e))?;
    write_atomic(cache_path, &bytes)
}

/// Runs `repute index`: builds the reference set and writes the binary
/// index.
///
/// # Errors
///
/// Propagates I/O, format and construction errors.
pub fn run_index(opts: &IndexOptions) -> Result<(), ReputeError> {
    let set = load_reference_set(&opts.reference, None, None)?;
    let out_path = Path::new(&opts.output);
    let out = File::create(out_path).map_err(|e| ReputeError::io_at(out_path, e))?;
    set.write_to(BufWriter::new(out))
        .map_err(|e| ReputeError::io_at(out_path, e))?;
    eprintln!(
        "wrote index for {} record(s) to {:?}",
        set.records().len(),
        opts.output
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_map_args, run_map};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn index_subcommand_round_trips_and_multi_ref_maps() {
        use repute_genome::fasta::{write_fasta, FastaRecord};
        use repute_genome::fastq::{write_fastq, FastqRecord};
        use repute_genome::synth::ReferenceBuilder;

        let dir = std::env::temp_dir().join("repute-cli-index-test");
        std::fs::create_dir_all(&dir).unwrap();
        let chr_a = ReferenceBuilder::new(60_000).seed(15).build();
        let chr_b = ReferenceBuilder::new(40_000).seed(16).build();
        let ref_path = dir.join("ref.fa");
        let index_path = dir.join("ref.rpx");
        let reads_path = dir.join("reads.fq");
        let out_path = dir.join("out.sam");

        let mut f = Vec::new();
        write_fasta(
            &mut f,
            &[
                FastaRecord::new("chrA", chr_a.clone()),
                FastaRecord::new("chrB", chr_b.clone()),
            ],
            70,
        )
        .unwrap();
        std::fs::write(&ref_path, f).unwrap();

        // Build the index once.
        run_index(&IndexOptions {
            reference: ref_path.to_string_lossy().into_owned(),
            output: index_path.to_string_lossy().into_owned(),
        })
        .unwrap();

        // One read from each chromosome.
        let reads = vec![
            FastqRecord::with_uniform_quality("fromA", chr_a.subseq(20_000..20_100), 40),
            FastqRecord::with_uniform_quality("fromB", chr_b.subseq(5_000..5_100), 40),
        ];
        let mut f = Vec::new();
        write_fastq(&mut f, &reads).unwrap();
        std::fs::write(&reads_path, f).unwrap();

        // Map via the prebuilt index.
        let opts = parse_map_args(
            format!(
                "--index {} --reads {} --delta 3 --s-min 15 --output {}",
                index_path.display(),
                reads_path.display(),
                out_path.display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        let (mapped, _) = run_map(&opts).unwrap();
        assert_eq!(mapped, 2);
        let sam = std::fs::read_to_string(&out_path).unwrap();
        assert!(sam.contains("@SQ\tSN:chrA\tLN:60000"));
        assert!(sam.contains("@SQ\tSN:chrB\tLN:40000"));
        // Each read resolves to its own chromosome with a local position.
        let line_a = sam.lines().find(|l| l.starts_with("fromA\t")).unwrap();
        assert!(line_a.contains("\tchrA\t"), "{line_a}");
        let line_b = sam.lines().find(|l| l.starts_with("fromB\t")).unwrap();
        assert!(
            line_b.contains("\tchrB\t5001\t") || line_b.contains("\tchrB\t"),
            "{line_b}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_cache_hits_validates_and_rebuilds_on_stale() {
        use repute_genome::fasta::{write_fasta, FastaRecord};
        use repute_genome::fastq::{write_fastq, FastqRecord};
        use repute_genome::synth::ReferenceBuilder;

        let dir = std::env::temp_dir().join("repute-cli-index-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let reference = ReferenceBuilder::new(50_000).seed(21).build();
        let ref_path = dir.join("ref.fa");
        let cache_path = dir.join("ref.rpxc");
        let reads_path = dir.join("reads.fq");
        let out_a = dir.join("a.sam");
        let out_b = dir.join("b.sam");

        let mut f = Vec::new();
        write_fasta(&mut f, &[FastaRecord::new("chrC", reference.clone())], 70).unwrap();
        std::fs::write(&ref_path, f).unwrap();
        let reads = vec![FastqRecord::with_uniform_quality(
            "r0",
            reference.subseq(30_000..30_100),
            40,
        )];
        let mut f = Vec::new();
        write_fastq(&mut f, &reads).unwrap();
        std::fs::write(&reads_path, f).unwrap();

        let map_with_cache = |out: &Path| {
            let opts = parse_map_args(
                format!(
                    "--reference {} --index-cache {} --reads {} --delta 3 --s-min 15 --output {}",
                    ref_path.display(),
                    cache_path.display(),
                    reads_path.display(),
                    out.display()
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            run_map(&opts).unwrap()
        };

        // First run: cache miss, builds and saves.
        assert!(!cache_path.exists());
        map_with_cache(&out_a);
        assert!(cache_path.exists());
        let cached = std::fs::read(&cache_path).unwrap();
        assert_eq!(&cached[..4], b"RPXC");

        // Second run: cache hit; output is byte-identical.
        map_with_cache(&out_b);
        assert_eq!(
            std::fs::read(&out_a).unwrap(),
            std::fs::read(&out_b).unwrap()
        );

        // A stale cache (reference changed) is rebuilt, not trusted: the
        // run still resolves against the *new* reference.
        let other = ReferenceBuilder::new(50_000).seed(22).build();
        let mut f = Vec::new();
        write_fasta(&mut f, &[FastaRecord::new("chrD", other)], 70).unwrap();
        std::fs::write(&ref_path, f).unwrap();
        map_with_cache(&out_b);
        let sam = std::fs::read_to_string(&out_b).unwrap();
        assert!(sam.contains("SN:chrD"), "{sam}");
        let rebuilt = std::fs::read(&cache_path).unwrap();
        assert_ne!(cached, rebuilt, "stale cache must be replaced");

        // Corruption is also a silent rebuild, never an error.
        std::fs::write(&cache_path, b"RPXCgarbage").unwrap();
        map_with_cache(&out_b);
        assert!(std::fs::read(&cache_path).unwrap().len() > 12);

        // So is a cache with the right prefix and a forged record count
        // (it used to abort asking for 137 GB): same SAM as the rebuild
        // that has just run cold.
        let cold = std::fs::read(&out_b).unwrap();
        let mut forged = b"RPXC".to_vec();
        put_u64(
            &mut forged,
            index_cache_fingerprint(&std::fs::read(&ref_path).unwrap()),
        );
        forged.extend_from_slice(b"RPST\x01\x00\xFF\xFF\xFF\xFF");
        std::fs::write(&cache_path, &forged).unwrap();
        map_with_cache(&out_b);
        assert_eq!(std::fs::read(&out_b).unwrap(), cold);
        assert!(std::fs::read(&cache_path).unwrap().len() > forged.len());

        // So is a cache from before the FM stream's version 2, while a
        // prebuilt `--index` of that age is a typed error that says so.
        let mut old = rebuilt;
        let fm_at = old.windows(4).position(|w| w == b"RPFM").unwrap();
        old[fm_at + 4] = 1;
        std::fs::write(&cache_path, &old).unwrap();
        map_with_cache(&out_b);
        assert_eq!(std::fs::read(&cache_path).unwrap()[fm_at + 4], 2);
        let index_path = dir.join("old.rpx");
        std::fs::write(&index_path, &old[12..]).unwrap();
        let err = load_reference_set("", Some(&index_path.to_string_lossy()), None).unwrap_err();
        assert!(
            matches!(&err, ReputeError::InputParse(m) if m.contains("version 1") && m.contains("repute index")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_args_validation() {
        let opts = parse_simulate_args(args(
            "--out-dir d --length 5000 --reads 10 --read-len 80 --seed 7 --profile perfect",
        ))
        .unwrap();
        assert_eq!(opts.length, 5000);
        assert_eq!(opts.profile, "perfect");
        assert!(parse_simulate_args(args("--length 100")).is_err());
        assert!(parse_simulate_args(args("--out-dir d --profile nope")).is_err());
    }

    #[test]
    fn simulate_then_map_end_to_end() {
        let dir = std::env::temp_dir().join("repute-cli-simulate-test");
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 80_000,
            reads: 25,
            read_len: 100,
            seed: 11,
            profile: "err012100".into(),
        })
        .unwrap();
        assert!(dir.join("reference.fa").exists());
        assert!(dir.join("truth.tsv").exists());
        let truth = std::fs::read_to_string(dir.join("truth.tsv")).unwrap();
        assert_eq!(truth.lines().count(), 26); // header + 25 reads

        let out_path = dir.join("out.sam");
        let opts = parse_map_args(
            format!(
                "--reference {}/reference.fa --reads {}/reads.fq --delta 5 --output {}",
                dir_s,
                dir_s,
                out_path.display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        let (mapped, _) = run_map(&opts).unwrap();
        assert!(mapped >= 23, "only {mapped}/25 simulated reads mapped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_args_validation() {
        assert!(parse_index_args(args("--reference r.fa --output o.rpx")).is_ok());
        assert!(parse_index_args(args("--reference r.fa")).is_err());
        assert!(parse_index_args(args("--output o.rpx")).is_err());
        assert!(parse_index_args(args("--wat")).is_err());
    }
}
