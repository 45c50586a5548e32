//! Progressive JPEG (SOF2) subsystem: multi-scan parsing, progressive
//! Huffman entropy decoding with coefficient accumulation, and a
//! scan-script encoder for corpus generation.
//!
//! Baseline JPEG carries every coefficient of a block in one scan;
//! progressive JPEG spreads them over many scans by spectral band
//! (Ss..Se) and bit plane (Ah/Al, successive approximation). The paper's
//! pipeline split — sequential Huffman on the CPU, data-parallel IDCT
//! everywhere — survives intact: *all* scans decode sequentially into the
//! shared [`crate::coef::CoefBuffer`], and once accumulation finishes the
//! downstream dequant/IDCT/color stages run unchanged. What changes is
//! the bookkeeping: per-block EOB classes and per-row work histograms are
//! meaningless mid-script, so they are derived from the accumulated state
//! — each block's nonzero-history mask — after the last decoded scan
//! ([`decode::decode_scans`]),
//! keeping the sparse-IDCT dispatch and the §5.1 cost model honest for
//! progressive inputs.
//!
//! Decoding a *prefix* of the scan script is well-defined by construction
//! (that is the whole point of the format) — `max_scans` support and
//! damaged-stream tolerance both fall out of the same accumulate-then-
//! finalize design.

pub mod decode;
pub mod encode;
pub mod parse;
#[cfg(test)]
mod reference;

pub use decode::{decode_scans, ProgressiveOutcome};
pub use encode::{encode_rgb_progressive, ScanPreset, ScanSpec};
pub use parse::{is_progressive, parse_progressive, ProgressiveParsed, Scan, ScanHeader};

/// Counters describing progressive decode activity, aggregated per
/// workspace and rolled up into session/server statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressiveStats {
    /// Entropy scans decoded (including partially decoded damaged scans).
    pub scans_decoded: u64,
    /// Successive-approximation refinement passes among them.
    pub refine_passes: u64,
    /// Renders produced from a proper prefix of the scan script — via
    /// `max_scans`, a deadline, or tolerated stream damage.
    pub partial_renders: u64,
}

impl ProgressiveStats {
    /// Fold another accumulator into this one.
    pub fn merge(&mut self, other: &ProgressiveStats) {
        self.scans_decoded += other.scans_decoded;
        self.refine_passes += other.refine_passes;
        self.partial_renders += other.partial_renders;
    }
}
