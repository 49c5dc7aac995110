//! Measurement-strategy selection.
//!
//! The encoder and decoder must build *identical* pattern sources from
//! the frame header alone — [`StrategyKind`] is that header field. The
//! paper's chip uses [`StrategyKind::CellularAutomaton`] with Rule 30;
//! the alternatives are the cited baselines, kept wire-compatible so
//! every experiment can swap strategies without touching the pipeline.

use crate::error::CoreError;
use tepics_ca::{
    BernoulliSource, BitPatternSource, CaSource, ElementaryRule, HadamardSource, LfsrSource,
};

/// The generator family used for row/column selection patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StrategyKind {
    /// 1-D cellular automaton ring (the paper's design).
    CellularAutomaton {
        /// Wolfram rule number (30 for the chip).
        rule: u8,
        /// Warm-up steps before the first pattern.
        warmup: u16,
        /// Automaton steps between patterns.
        steps_per_sample: u8,
    },
    /// Maximal-length LFSR (ref. \[14\]).
    Lfsr {
        /// Register width in bits (2..=32).
        width: u8,
    },
    /// Shuffled Walsh–Hadamard rows (ref. \[13\]).
    Hadamard,
    /// Software i.i.d. balanced Bernoulli (the idealized sub-Gaussian
    /// strategy; not implementable on chip without storing Φ).
    Bernoulli,
}

impl StrategyKind {
    /// The paper's configuration: Rule 30, warm-up `2·(M+N)` is applied
    /// by [`StrategyKind::default_for`].
    pub fn rule30(warmup: u16) -> StrategyKind {
        StrategyKind::CellularAutomaton {
            rule: 30,
            warmup,
            steps_per_sample: 1,
        }
    }

    /// The default strategy for an `m × n` sensor: Rule 30 with a
    /// `2·(m+n)`-step warm-up.
    pub fn default_for(m: usize, n: usize) -> StrategyKind {
        StrategyKind::rule30((2 * (m + n)).min(u16::MAX as usize) as u16)
    }

    /// Builds the pattern source for `pattern_len` bits from `seed`.
    ///
    /// Encoder and decoder both call this; equal inputs give equal
    /// sources, which integration tests verify end-to-end.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for out-of-range parameters
    /// (a CA step outside `1..=15`, an unsupported LFSR width).
    pub fn build_source(
        &self,
        pattern_len: usize,
        seed: u64,
    ) -> Result<Box<dyn BitPatternSource>, CoreError> {
        self.validate()?;
        Ok(self.source(pattern_len, seed))
    }

    /// Checks the parameters [`StrategyKind::source`] needs, without
    /// building anything.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a CA step outside
    /// `1..=15` (the wire carries it in 4 bits) or an LFSR width outside
    /// `2..=32`.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        match *self {
            StrategyKind::CellularAutomaton {
                steps_per_sample, ..
            } if !(1..=15).contains(&steps_per_sample) => Err(CoreError::InvalidConfig(format!(
                "steps_per_sample {steps_per_sample} outside 1..=15"
            ))),
            StrategyKind::Lfsr { width } if !(2..=32).contains(&width) => Err(
                CoreError::InvalidConfig(format!("LFSR width {width} outside 2..=32")),
            ),
            _ => Ok(()),
        }
    }

    /// The pattern source of a strategy that passed
    /// [`StrategyKind::validate`]; the CA warm-up runs here.
    pub(crate) fn source(&self, pattern_len: usize, seed: u64) -> Box<dyn BitPatternSource> {
        match *self {
            StrategyKind::CellularAutomaton {
                rule,
                warmup,
                steps_per_sample,
            } => Box::new(CaSource::new(
                pattern_len,
                seed,
                ElementaryRule::new(rule),
                warmup as usize,
                steps_per_sample as usize,
            )),
            StrategyKind::Lfsr { width } => {
                Box::new(LfsrSource::new(pattern_len, width as u32, seed))
            }
            StrategyKind::Hadamard => Box::new(HadamardSource::new(pattern_len, seed)),
            StrategyKind::Bernoulli => Box::new(BernoulliSource::balanced(pattern_len, seed)),
        }
    }

    /// Wire encoding: `(tag, p0, p1, p2)`, for a strategy that passed
    /// [`StrategyKind::validate`] (the CA step fills the tag's low
    /// nibble).
    pub(crate) fn to_wire(self) -> [u8; 4] {
        match self {
            StrategyKind::CellularAutomaton {
                rule,
                warmup,
                steps_per_sample,
            } => {
                let w = warmup.to_le_bytes();
                [0x10 | steps_per_sample, rule, w[0], w[1]]
            }
            StrategyKind::Lfsr { width } => [0x20, width, 0, 0],
            StrategyKind::Hadamard => [0x30, 0, 0, 0],
            StrategyKind::Bernoulli => [0x40, 0, 0, 0],
        }
    }

    /// Wire decoding (inverse of [`StrategyKind::to_wire`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] on an unknown tag.
    pub(crate) fn from_wire(bytes: [u8; 4]) -> Result<StrategyKind, CoreError> {
        match bytes[0] & 0xF0 {
            0x10 => Ok(StrategyKind::CellularAutomaton {
                rule: bytes[1],
                warmup: u16::from_le_bytes([bytes[2], bytes[3]]),
                steps_per_sample: bytes[0] & 0x0F,
            }),
            0x20 => Ok(StrategyKind::Lfsr { width: bytes[1] }),
            0x30 => Ok(StrategyKind::Hadamard),
            0x40 => Ok(StrategyKind::Bernoulli),
            other => Err(CoreError::MalformedFrame(format!(
                "unknown strategy tag {other:#x}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<StrategyKind> {
        vec![
            StrategyKind::rule30(128),
            StrategyKind::CellularAutomaton {
                rule: 90,
                warmup: 7,
                steps_per_sample: 3,
            },
            StrategyKind::Lfsr { width: 16 },
            StrategyKind::Hadamard,
            StrategyKind::Bernoulli,
        ]
    }

    #[test]
    fn wire_roundtrip_preserves_kind() {
        for kind in all_kinds() {
            let back = StrategyKind::from_wire(kind.to_wire()).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn encoder_and_decoder_sources_agree() {
        for kind in all_kinds() {
            let mut enc = kind.build_source(48, 99).unwrap();
            let mut dec = kind.build_source(48, 99).unwrap();
            for i in 0..10 {
                assert_eq!(
                    enc.next_pattern(),
                    dec.next_pattern(),
                    "{kind:?} diverged at pattern {i}"
                );
            }
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let bad_steps = StrategyKind::CellularAutomaton {
            rule: 30,
            warmup: 0,
            steps_per_sample: 0,
        };
        assert!(bad_steps.build_source(16, 1).is_err());
        assert!(StrategyKind::Lfsr { width: 64 }
            .build_source(16, 1)
            .is_err());
    }

    /// The CA step travels in the tag's low nibble, so 16 must be
    /// refused everywhere a strategy enters, not written as 15.
    #[test]
    fn ca_steps_must_fit_the_wire_nibble() {
        use crate::frame::{CompressedFrame, FrameHeader};
        use crate::imager::CompressiveImager;
        use crate::stream::{StreamParser, StreamWriter, WireProfile};

        let ca = |steps_per_sample| StrategyKind::CellularAutomaton {
            rule: 30,
            warmup: 64,
            steps_per_sample,
        };
        let header = |steps| FrameHeader {
            rows: 16,
            cols: 16,
            code_bits: 8,
            sample_bits: 20,
            strategy: ca(steps),
            seed: 3,
        };
        let build = |steps| {
            CompressiveImager::builder(16, 16)
                .ratio(0.35)
                .seed(3)
                .strategy(ca(steps))
                .build()
        };
        assert!(matches!(build(16), Err(CoreError::InvalidConfig(_))));
        assert!(matches!(
            StreamWriter::new(header(16), None, WireProfile::Compact),
            Err(CoreError::MalformedFrame(msg)) if msg.contains("steps_per_sample 16")
        ));

        // 15, the largest step the nibble holds, round-trips.
        assert!(build(15).is_ok());
        let mut writer = StreamWriter::new(header(15), None, WireProfile::Compact).unwrap();
        writer
            .push_frame(&CompressedFrame {
                header: header(15),
                samples: vec![7; 90],
            })
            .unwrap();
        let mut parser = StreamParser::new();
        parser.push_bytes(writer.bytes());
        let frame = parser.next_frame().unwrap().unwrap();
        assert_eq!(frame.header.strategy, ca(15));

        // The nibble cannot carry 16; the out-of-range step it can
        // carry, 0, fails the parser's header check.
        let mut bytes = writer.bytes().to_vec();
        bytes[11] &= 0xF0;
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        assert!(matches!(
            parser.next_frame(),
            Err(CoreError::MalformedFrame(msg)) if msg.contains("steps_per_sample 0")
        ));
    }

    #[test]
    fn unknown_wire_tag_is_malformed() {
        assert!(StrategyKind::from_wire([0xF0, 0, 0, 0]).is_err());
    }

    #[test]
    fn default_strategy_is_rule30() {
        match StrategyKind::default_for(64, 64) {
            StrategyKind::CellularAutomaton { rule, warmup, .. } => {
                assert_eq!(rule, 30);
                assert_eq!(warmup, 256);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }
}
