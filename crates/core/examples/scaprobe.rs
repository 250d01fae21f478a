//! Measures the SCA-side Table II columns (read / #equiv / SBIF / rewrite):
//! the verifier's flow with `check_vc2 = false`, for widths where vc2
//! does not finish.
use sbif_core::verify::{DividerVerifier, VerifierConfig};
use sbif_netlist::build::nonrestoring_divider;
use sbif_netlist::io::{read_bnet, write_bnet};
use std::time::Instant;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(48);
    let div = nonrestoring_divider(n);
    let text = write_bnet(&div.netlist);
    let t = Instant::now();
    let parsed = read_bnet(&text).expect("parses");
    let read = t.elapsed();
    assert_eq!(parsed.num_signals(), div.netlist.num_signals());
    let config = VerifierConfig { check_vc2: false, ..VerifierConfig::default() };
    let report = DividerVerifier::new(&div).with_config(config).verify().expect("fits");
    assert!(report.is_correct());
    let vc1 = &report.vc1;
    println!(
        "n={n} read={:.2}s equiv={} sbif={:.2}s rewrite={:.2}s peak={}",
        read.as_secs_f64(),
        vc1.sbif.proven,
        vc1.sbif_time.as_secs_f64(),
        vc1.rewrite_time.as_secs_f64(),
        vc1.rewrite.peak_terms
    );
}
