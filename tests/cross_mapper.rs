//! Cross-mapper integration: the relationships the paper's tables rest on.

use std::sync::Arc;

use repute_core::journal::Fnv64;
use repute_core::{ReputeConfig, ReputeMapper};
use repute_genome::reads::{ErrorProfile, ReadSimulator, SimRead};
use repute_genome::synth::ReferenceBuilder;
use repute_genome::{DnaSeq, Strand};
use repute_mappers::{
    bwamem::BwaMemLike, coral::CoralLike, gem::GemLike, hobbes3::Hobbes3Like, razers3::Razers3Like,
    yara::YaraLike, IndexedReference, Mapper,
};
use repute_obs::MapMetrics;
use repute_prefilter::PrefilterMode;

fn workload() -> (Arc<IndexedReference>, Vec<SimRead>) {
    let reference = ReferenceBuilder::new(300_000).seed(2001).build();
    let reads = ReadSimulator::new(100, 50)
        .profile(ErrorProfile::err012100())
        .seed(2002)
        .simulate(&reference);
    (Arc::new(IndexedReference::build(reference)), reads)
}

fn origin_found(mapper: &dyn Mapper, read: &SimRead, tolerance: i64) -> bool {
    let origin = read.origin.expect("genomic read");
    mapper.map_read(&read.seq).mappings.iter().any(|m| {
        m.strand == origin.strand && (m.position as i64 - origin.position as i64).abs() <= tolerance
    })
}

#[test]
fn all_mappers_find_low_error_reads() {
    let (indexed, reads) = workload();
    let delta = 5u32;
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(Razers3Like::new(Arc::clone(&indexed), delta)),
        Box::new(Hobbes3Like::new(Arc::clone(&indexed), delta)),
        Box::new(YaraLike::new(Arc::clone(&indexed), delta)),
        Box::new(BwaMemLike::new(Arc::clone(&indexed))),
        Box::new(GemLike::new(Arc::clone(&indexed), delta)),
        Box::new(CoralLike::new(Arc::clone(&indexed), delta)),
        Box::new(ReputeMapper::new(
            Arc::clone(&indexed),
            ReputeConfig::new(delta, 12).expect("valid"),
        )),
    ];
    for mapper in &mappers {
        let mut found = 0usize;
        let mut eligible = 0usize;
        for read in &reads {
            let origin = read.origin.expect("genomic");
            if origin.edits > 1 {
                continue; // every strategy must find near-perfect reads
            }
            eligible += 1;
            if origin_found(mapper.as_ref(), read, 5) {
                found += 1;
            }
        }
        assert!(
            found * 100 >= eligible * 90,
            "{}: {found}/{eligible} near-perfect reads found",
            mapper.name()
        );
    }
}

#[test]
fn full_sensitivity_mappers_lose_nothing_within_delta() {
    let (indexed, reads) = workload();
    let delta = 5u32;
    let all_mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(Razers3Like::new(Arc::clone(&indexed), delta)),
        Box::new(Hobbes3Like::new(Arc::clone(&indexed), delta)),
        Box::new(CoralLike::new(Arc::clone(&indexed), delta)),
        Box::new(ReputeMapper::new(
            Arc::clone(&indexed),
            ReputeConfig::new(delta, 12).expect("valid"),
        )),
    ];
    for mapper in &all_mappers {
        for read in &reads {
            let origin = read.origin.expect("genomic");
            if origin.edits > delta {
                continue;
            }
            assert!(
                origin_found(mapper.as_ref(), read, delta as i64),
                "{} lost read {} ({} edits)",
                mapper.name(),
                read.id,
                origin.edits
            );
        }
    }
}

#[test]
fn best_mappers_report_subset_of_gold_locations() {
    let (indexed, reads) = workload();
    let delta = 4u32;
    let gold = Razers3Like::new(Arc::clone(&indexed), delta).with_max_locations(10_000);
    let best_mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(YaraLike::new(Arc::clone(&indexed), delta)),
        Box::new(GemLike::new(Arc::clone(&indexed), delta)),
    ];
    for mapper in &best_mappers {
        for read in reads.iter().take(20) {
            let gold_maps = gold.map_read(&read.seq).mappings;
            let got = mapper.map_read(&read.seq).mappings;
            for m in &got {
                assert!(
                    gold_maps.iter().any(|g| {
                        g.strand == m.strand && g.position.abs_diff(m.position) <= delta
                    }),
                    "{} reported {:?} unknown to the gold standard",
                    mapper.name(),
                    m
                );
            }
        }
    }
}

#[test]
fn repute_produces_at_most_as_many_candidates_as_coral() {
    // RazerS3's SWIFT bands are not comparable candidate units, so the
    // mapper-level comparison is REPUTE vs CORAL (the paper's headline);
    // the uniform-partition comparison lives at selection level in the
    // `repute-filter` tests.
    let (indexed, reads) = workload();
    let delta = 6u32;
    let repute = ReputeMapper::new(
        Arc::clone(&indexed),
        ReputeConfig::new(delta, 12).expect("valid"),
    );
    let coral = CoralLike::new(Arc::clone(&indexed), delta);
    let (mut r, mut c) = (0u64, 0u64);
    for read in &reads {
        r += repute.map_read(&read.seq).candidates;
        c += coral.map_read(&read.seq).candidates;
    }
    assert!(r <= c, "REPUTE {r} candidates vs CORAL {c}");
}

#[test]
fn reported_distances_never_exceed_delta() {
    let (indexed, reads) = workload();
    for delta in [3u32, 5, 7] {
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(Razers3Like::new(Arc::clone(&indexed), delta)),
            Box::new(Hobbes3Like::new(Arc::clone(&indexed), delta)),
            Box::new(CoralLike::new(Arc::clone(&indexed), delta)),
            Box::new(YaraLike::new(Arc::clone(&indexed), delta)),
            Box::new(GemLike::new(Arc::clone(&indexed), delta)),
            Box::new(ReputeMapper::new(
                Arc::clone(&indexed),
                ReputeConfig::new(delta, 12).expect("valid"),
            )),
        ];
        for mapper in &mappers {
            for read in reads.iter().take(15) {
                for m in mapper.map_read(&read.seq).mappings {
                    assert!(
                        m.distance <= delta,
                        "{} reported distance {} > δ {}",
                        mapper.name(),
                        m.distance,
                        delta
                    );
                }
            }
        }
    }
}

/// The workload of [`every_mappers_output_and_accounting_is_pinned`]: a
/// 150 kbp reference in which one 160-base unit recurs 140 times (copy
/// `i` carries `i % 4` substitutions, so its hits fall in several
/// strata), and reads of every shape a mapper's strand loop treats
/// differently.
fn pinned_workload() -> (Arc<IndexedReference>, Vec<DnaSeq>) {
    let mut codes = ReferenceBuilder::new(150_000).seed(2401).build().to_codes();
    let unit = codes[1_000..1_160].to_vec();
    for copy in 0..140usize {
        let at = 5_000 + copy * 1_000;
        codes[at..at + 160].copy_from_slice(&unit);
        for edit in 0..copy % 4 {
            codes[at + 20 + 37 * edit] ^= 1 + (copy % 3) as u8;
        }
    }
    let reference = DnaSeq::from_codes(&codes).expect("2-bit codes");
    let simulated = |len, count, profile, seed| {
        ReadSimulator::new(len, count)
            .profile(profile)
            .seed(seed)
            .simulate(&reference)
            .into_iter()
            .map(|read| read.seq)
    };
    let mut reads: Vec<DnaSeq> = simulated(100, 10, ErrorProfile::err012100(), 2402)
        .chain(simulated(150, 8, ErrorProfile::srr826460(), 2403))
        .collect();
    // Repeat-rich: inside the unit, on either strand, and a tandem.
    reads.push(reference.subseq(1_010..1_110));
    reads.push(reference.subseq(1_005..1_155).reverse_complement());
    reads.push("AC".repeat(50).parse().expect("bases"));
    // An exact read, so a first-n limit of 1 is met by one strand alone.
    reads.push(reference.subseq(77_000..77_100).reverse_complement());
    // Too short for δ+1 seeds of S_min = 12 at δ = 5 (60), at δ = 3
    // too (30), shorter than Hobbes3's q = 10 (9) and SWIFT's 8 (5).
    for len in [60, 30, 9, 5] {
        reads.push(reference.subseq(40_000..40_000 + len));
    }
    (Arc::new(IndexedReference::build(reference)), reads)
}

/// FNV-64 of everything `mapper` reports for `reads`: per read the
/// mappings in order, `candidates`, `work` and every metric field.
fn digest_mapper(h: &mut Fnv64, mapper: &dyn Mapper, reads: &[DnaSeq]) {
    for read in reads {
        let mut metrics = MapMetrics::new();
        let out = mapper.map_read_metered(read, &mut metrics);
        assert_eq!(
            out,
            mapper.map_read(read),
            "{}: two entry points",
            mapper.name()
        );
        h.write_u64(out.mappings.len() as u64);
        for m in &out.mappings {
            h.write_u64(u64::from(m.position));
            h.write_u64(u64::from(m.strand == Strand::Reverse));
            h.write_u64(u64::from(m.distance));
        }
        h.write_u64(out.candidates);
        h.write_u64(out.work);
        for (_, value) in metrics.fields() {
            h.write_u64(value);
        }
    }
}

/// One digest per mapper over δ ∈ {3, 5} × `max_locations` ∈ {1, 100}
/// of [`pinned_workload`], generated before the per-read pipeline was
/// written once (PR 24) and held unedited across it. A mismatch prints
/// the computed table in source form.
const MAPPER_DIGESTS: &[(&str, u64)] = &[
    ("REPUTE", 0x3f6a5a54656aa940),
    ("REPUTE/prefilter-both", 0x4bc8f0862992ed99),
    ("CORAL", 0xcef8ef78addd0e71),
    ("GEM", 0x6d52243da4873c88),
    ("Yara", 0x2a2438dca648a16c),
    ("BWA-MEM", 0x1cf1165141ba8c95),
    ("Hobbes3", 0xda4bd7d602bd6344),
    ("RazerS3", 0x1d4112202d1b8ab6),
];

#[test]
fn every_mappers_output_and_accounting_is_pinned() {
    let (indexed, reads) = pinned_workload();
    let repute = |delta, limit, mode| {
        let config = ReputeConfig::new(delta, 12)
            .expect("valid")
            .with_max_locations(limit)
            .with_prefilter(mode);
        ReputeMapper::new(Arc::clone(&indexed), config)
    };
    // The first-n cut-off must land both ways: a full forward strand
    // keeps the reverse strand unseeded, and a limit of 1 is also met
    // on the reverse strand after an empty forward one.
    let first_100 = repute(5, 100, PrefilterMode::None);
    assert!(reads.iter().any(|read| {
        let out = first_100.map_read(read);
        out.mappings.len() == 100 && out.mappings.iter().all(|m| m.strand == Strand::Forward)
    }));
    let first_1 = repute(5, 1, PrefilterMode::None);
    assert!(reads.iter().any(|read| {
        let out = first_1.map_read(read);
        out.mappings.len() == 1 && out.mappings[0].strand == Strand::Reverse
    }));

    let names = [
        "REPUTE",
        "REPUTE/prefilter-both",
        "CORAL",
        "GEM",
        "Yara",
        "BWA-MEM",
        "Hobbes3",
        "RazerS3",
    ];
    let mut hashers: Vec<Fnv64> = names.iter().map(|_| Fnv64::new()).collect();
    for delta in [3u32, 5] {
        for limit in [1usize, 100] {
            let ix = || Arc::clone(&indexed);
            let mappers: [Box<dyn Mapper>; 8] = [
                Box::new(repute(delta, limit, PrefilterMode::None)),
                Box::new(repute(delta, limit, PrefilterMode::Both)),
                Box::new(CoralLike::new(ix(), delta).with_max_locations(limit)),
                Box::new(GemLike::new(ix(), delta).with_max_locations(limit)),
                Box::new(YaraLike::new(ix(), delta).with_max_locations(limit)),
                Box::new(BwaMemLike::new(ix()).with_max_locations(limit)),
                Box::new(Hobbes3Like::new(ix(), delta).with_max_locations(limit)),
                Box::new(Razers3Like::new(ix(), delta).with_max_locations(limit)),
            ];
            for (h, mapper) in hashers.iter_mut().zip(&mappers) {
                h.write_u64(u64::from(delta));
                h.write_u64(limit as u64);
                digest_mapper(h, mapper.as_ref(), &reads);
            }
        }
    }
    let computed: Vec<(&str, u64)> = names
        .iter()
        .zip(&hashers)
        .map(|(&name, h)| (name, h.finish()))
        .collect();
    if computed != MAPPER_DIGESTS {
        let mut table = String::from("const MAPPER_DIGESTS: &[(&str, u64)] = &[\n");
        for (name, digest) in &computed {
            table += &format!("    ({name:?}, {digest:#018x}),\n");
        }
        panic!("mapper digests moved; computed:\n{table}];");
    }
}
