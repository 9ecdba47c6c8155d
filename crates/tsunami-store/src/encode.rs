//! Store-level encoding policy: whether block encoding runs.
//!
//! The block formats and the per-block chooser live in
//! [`tsunami_core::encode`]; this module only decides *whether* a store
//! encodes at all. One environment switch lets the CI matrix and benchmarks
//! flip encoding without code changes — `TSUNAMI_ENCODE`: unset or
//! `1`/`on`/`true`/`yes`/`auto` encodes, `0`/`off`/`false`/`no` disables
//! block encoding entirely, and anything else panics at the first store
//! that asks, so a typo cannot run the wrong leg. It is read once per
//! process; pass an explicit policy to `ColumnStore::encode_blocks_with` to
//! override it.

use std::sync::OnceLock;

/// Whether a [`crate::ColumnStore`] encodes its blocks.
#[derive(Debug, Clone, Copy)]
pub struct EncodePolicy {
    /// Master switch; when false, `encode_blocks` is a no-op and every
    /// column stays a plain `Vec<u64>`.
    pub enabled: bool,
}

impl Default for EncodePolicy {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl EncodePolicy {
    /// The default policy with the `TSUNAMI_ENCODE` environment switch
    /// applied (see the module docs); unset means enabled. Panics on an
    /// unrecognised value.
    pub fn from_env() -> Self {
        static ENABLED: OnceLock<bool> = OnceLock::new();
        let enabled = *ENABLED.get_or_init(|| {
            let value =
                std::env::var_os("TSUNAMI_ENCODE").map(|v| v.to_string_lossy().into_owned());
            parse_switch(value.as_deref()).unwrap_or_else(|bad| panic!("{bad}"))
        });
        Self { enabled }
    }

    /// A policy that never encodes (plain `Vec<u64>` storage throughout).
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Parses the `TSUNAMI_ENCODE` switch; `None` (unset) means enabled.
fn parse_switch(value: Option<&str>) -> Result<bool, String> {
    let Some(value) = value else { return Ok(true) };
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" | "auto" => Ok(true),
        "0" | "off" | "false" | "no" => Ok(false),
        _ => Err(format!(
            "TSUNAMI_ENCODE={value:?} is not recognised: use on (1, true, yes, auto) or off \
             (0, false, no)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_environment_switch_is_strict() {
        assert_eq!(parse_switch(None), Ok(true));
        assert_eq!(parse_switch(Some("auto")), Ok(true));
        assert_eq!(parse_switch(Some(" OFF ")), Ok(false));
        assert_eq!(parse_switch(Some("0")), Ok(false));
        // A typo of "off" must not silently mean "on".
        assert!(parse_switch(Some("of")).is_err());
        assert!(parse_switch(Some("")).is_err());
    }

    #[test]
    fn defaults_enable_encoding() {
        assert!(EncodePolicy::default().enabled);
        assert!(!EncodePolicy::disabled().enabled);
    }
}
