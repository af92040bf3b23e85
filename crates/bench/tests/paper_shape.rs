//! The shape gate at tier-1 scale: every artefact of the `paper` binary
//! runs at [`Scale::tiny`], over the paper's whole grid, and every claim
//! expected to hold at any scale must hold there.

use repute_bench::paper::{self, Claim, Report, ARTEFACTS};
use repute_bench::workload::{Scale, Workload, DEFAULT_REF_LEN};

#[test]
fn every_scale_free_claim_holds_at_tiny_scale() {
    let scale = Scale::tiny();
    let w = Workload::generate(scale);
    let mut checked = 0;
    for name in ARTEFACTS {
        let report = paper::run(name, &w).expect("listed artefacts run");
        assert_eq!(report.claims.is_empty(), name == "work_profile", "{name}");
        let text = report.render(scale);
        for claim in &report.claims {
            if claim.min_ref_len == 0 {
                assert!(claim.holds, "{name}: {} does not hold\n{text}", claim.label);
                assert!(text.contains(&format!("shape: {} … ok\n", claim.label)));
                checked += 1;
            } else {
                // Who-wins claims wait for the default scale.
                assert_eq!(claim.min_ref_len, DEFAULT_REF_LEN);
                let line = format!("shape: {} … skipped (needs ≥ 4 Mbp)\n", claim.label);
                assert!(text.contains(&line), "{text}");
            }
        }
        assert_eq!(report.failures(scale).count(), 0, "{name}");
        assert!(!text.contains("paper shape check"));
    }
    assert_eq!(checked, 19, "scale-free claims evaluated");
    assert!(paper::run("table5", &w).is_none());
}

#[test]
fn a_broken_claim_fails_where_it_applies_and_only_there() {
    let report = Report {
        text: "body\n".to_string(),
        claims: vec![
            Claim::new("holds everywhere", false),
            Claim::at_full_scale("needs the full reference", false),
        ],
    };
    let tiny = Scale::tiny();
    assert_eq!(
        report.render(tiny),
        "body\n\nshape: holds everywhere … FAILED\n\
         shape: needs the full reference … skipped (needs ≥ 4 Mbp)\n"
    );
    let failed: Vec<&str> = report.failures(tiny).map(|c| c.label.as_str()).collect();
    assert_eq!(failed, ["holds everywhere"]);
    let full = Scale {
        reference_len: DEFAULT_REF_LEN,
        ..tiny
    };
    assert_eq!(report.failures(full).count(), 2);
    assert!(report
        .render(full)
        .ends_with("needs the full reference … FAILED\n"));
}
