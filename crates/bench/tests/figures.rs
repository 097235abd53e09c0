//! Every `repro` figure is pinned by a digest of its text.
//!
//! Runs `repro all --jobs 2`, splits stdout at the `=====` separator
//! lines and compares an FNV-1a 64 digest of each figure with the table
//! below, in `repro`'s canonical figure order. A change that moves a
//! figure on purpose updates that figure's row; the failure message
//! prints the figure's name, its new digest and its text.

use std::process::Command;

/// `(figure, FNV-1a 64 of its text)`, in `repro --help` order.
const DIGESTS: &[(&str, u64)] = &[
    ("fig5-1", 0x423b_f2a8_b816_e7ef),
    ("table5-1", 0x15ea_0cde_3185_1476),
    ("fig5-2", 0x79cd_26d9_17f9_6f37),
    ("table5-2", 0xa5f4_f5ae_c8cf_4a6d),
    ("fig5-3", 0x6bba_9569_8548_cec1),
    ("fig5-4", 0x40ff_efb5_2fba_8ed1),
    ("fig5-5", 0xe497_81c8_c212_0a2c),
    ("fig5-6", 0x0453_a14c_c664_ce4d),
    ("network-idle", 0xb198_0de0_0647_2c03),
    ("greedy", 0x9da9_8f64_0b81_99ee),
    ("probmodel", 0x73d6_77b6_9912_0646),
    ("continuum", 0xd412_e3f5_648b_fc33),
    ("shared-bus", 0x886a_d67d_e209_41e3),
    ("termination-cost", 0x21b2_a8fa_f5bf_6016),
    ("era", 0xcceb_3840_26fb_8f00),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The figures' texts: what lies between separator lines, each line
/// with its newline.
fn split_figures(stdout: &str) -> Vec<String> {
    let mut figures: Vec<String> = Vec::new();
    for line in stdout.split_inclusive('\n') {
        let bare = line.trim_end_matches('\n');
        if bare.len() >= 5 && bare.bytes().all(|b| b == b'=') {
            figures.push(String::new());
        } else if let Some(text) = figures.last_mut() {
            text.push_str(line);
        } else {
            panic!("repro printed text before its first separator: {line:?}");
        }
    }
    figures
}

#[test]
fn every_figure_matches_its_pinned_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--jobs", "2"])
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let figures = split_figures(&stdout);
    assert_eq!(
        figures.len(),
        DIGESTS.len(),
        "repro printed {} figures, the table pins {}",
        figures.len(),
        DIGESTS.len()
    );
    let mut moved = Vec::new();
    for ((name, pinned), text) in DIGESTS.iter().zip(&figures) {
        let digest = fnv1a64(text.as_bytes());
        if digest != *pinned {
            eprintln!("figure {name}: digest {digest:#018x} (pinned {pinned:#018x})\n{text}");
            moved.push(*name);
        }
    }
    assert!(moved.is_empty(), "figures moved: {moved:?}");
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
