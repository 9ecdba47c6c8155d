//! Store-level encoding policy: when block encoding runs and with which
//! knobs.
//!
//! The block formats and the per-block chooser live in
//! [`tsunami_core::encode`]; this module only decides *whether* a store
//! encodes at all and how aggressively. One environment switch lets the CI
//! matrix and benchmarks flip encoding without code changes —
//! `TSUNAMI_ENCODE` (default on; `0`/`off`/`false`/`no` disables block
//! encoding entirely). The finer knobs (`min_blocks`, the FOR bit-width
//! and dictionary-size limits in [`EncodeOptions`]) are plain struct
//! fields: pass an explicit policy to `ColumnStore::encode_blocks_with`.

use tsunami_core::EncodeOptions;

/// Whether and how a [`crate::ColumnStore`] encodes its blocks.
#[derive(Debug, Clone, Copy)]
pub struct EncodePolicy {
    /// Master switch; when false, `encode_blocks` is a no-op and every
    /// column stays a plain `Vec<u64>`.
    pub enabled: bool,
    /// Stores with fewer than this many full blocks skip encoding — tiny
    /// tables gain nothing and tests sometimes want guaranteed-plain stores.
    pub min_blocks: usize,
    /// Per-block format knobs passed through to the chooser.
    pub opts: EncodeOptions,
}

impl Default for EncodePolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            min_blocks: 1,
            opts: EncodeOptions::default(),
        }
    }
}

impl EncodePolicy {
    /// The default policy with the `TSUNAMI_ENCODE` environment switch
    /// applied (see the module docs); unset means enabled.
    pub fn from_env() -> Self {
        let mut p = Self::default();
        if let Ok(v) = std::env::var("TSUNAMI_ENCODE") {
            let v = v.trim().to_ascii_lowercase();
            p.enabled = !matches!(v.as_str(), "0" | "off" | "false" | "no");
        }
        p
    }

    /// A policy that never encodes (plain `Vec<u64>` storage throughout).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_encoding() {
        let p = EncodePolicy::default();
        assert!(p.enabled);
        assert_eq!(p.min_blocks, 1);
        assert!(!EncodePolicy::disabled().enabled);
    }
}
