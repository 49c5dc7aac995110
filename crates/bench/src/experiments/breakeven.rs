//! Sect. III.B: compression pays only below `R = N_b / N_B = 0.4`.

use crate::report::{section, Table};
use tepics_core::params::{breakeven_ratio, compressed_bits, raw_bits};
use tepics_core::stream::{StreamWriter, FRAME_RECORD_BYTES, STREAM_HEADER_BYTES};
use tepics_core::{FrameHeader, StrategyKind, WireProfile};

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from("# Break-even — bits on the wire vs compression ratio\n");

    out.push_str(&section(
        "Payload accounting (64×64, 8b pixels, 20b samples)",
    ));
    let raw = raw_bits(64, 64, 8);
    let mut t = Table::new(&["R", "K", "compressed bits", "raw bits", "verdict"]);
    for r in [0.05f64, 0.1, 0.2, 0.3, 0.39, 0.40, 0.41, 0.5] {
        let k = (r * 4096.0).round() as u32;
        let c = compressed_bits(k, 20);
        t.row_owned(vec![
            format!("{r:.2}"),
            k.to_string(),
            c.to_string(),
            raw.to_string(),
            if c < raw {
                "compressed wins".into()
            } else if c == raw {
                "tie".to_string()
            } else {
                "raw wins".into()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nClosed form: R* = N_b/N_B = {:.2} — matching the paper's \"needs to\n\
         be below 0.4\". The crossover lands exactly between R = 0.39 and\n\
         R = 0.41 above.\n",
        breakeven_ratio(8, 20)
    ));

    out.push_str(&section(
        "Including real header overhead (one-record TEPS stream)",
    ));
    let header = FrameHeader {
        rows: 64,
        cols: 64,
        code_bits: 8,
        sample_bits: 20,
        strategy: StrategyKind::rule30(256),
        seed: 0,
    };
    let mut t = Table::new(&["R", "wire bits (stream)", "raw bits", "saving"]);
    for r in [0.1f64, 0.2, 0.3, 0.39] {
        let k = (r * 4096.0).round() as usize;
        let mut writer =
            StreamWriter::new(header, None, WireProfile::Compact).expect("valid header");
        writer.push_samples(&vec![0; k]).expect("k fits the frame");
        let wire = writer.wire_bits() as u64;
        t.row_owned(vec![
            format!("{r:.2}"),
            wire.to_string(),
            raw.to_string(),
            format!("{:.1}%", (1.0 - wire as f64 / raw as f64) * 100.0),
        ]);
    }
    out.push_str(&t.render());
    let overhead_bits = (STREAM_HEADER_BYTES + FRAME_RECORD_BYTES) * 8;
    out.push_str(&format!(
        "\nThe {overhead_bits} bits of stream header and record prefix (the header\n\
         carries the 64-bit CA seed — the entire 'measurement matrix' on the\n\
         wire) move the crossover from R = {:.4} to R = {:.4}.\n",
        breakeven_ratio(8, 20),
        (raw as f64 - overhead_bits as f64) / (20.0 * 4096.0),
    ));
    out
}
