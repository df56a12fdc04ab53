//! Label normalisation.
//!
//! Library lookups are case-insensitive and whitespace/underscore-agnostic
//! so that `"audi tt"`, `"Audi_TT"` and `"AUDI TT"` all address the same
//! record — mirroring how entity labels vary between query formulations and
//! knowledge-graph dumps.

/// Normalises a label: lowercase, underscores → spaces, collapsed internal
/// whitespace, trimmed.
pub fn normalize_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    normalize_into(label, &mut out);
    out
}

/// [`normalize_label`] into a caller-owned buffer: clears `out` and writes
/// the normalised form of `label` there, so a loop over many labels can
/// reuse one allocation.
pub(crate) fn normalize_into(label: &str, out: &mut String) {
    out.clear();
    let mut last_space = true; // suppress leading space
    for ch in label.chars() {
        if ch == '_' || ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            // `char::to_lowercase` walks the case-mapping tables; ASCII
            // chars, which most graph names are made of, skip them.
            if ch.is_ascii() {
                out.push(ch.to_ascii_lowercase());
            } else {
                out.extend(ch.to_lowercase());
            }
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_forms_collapse() {
        assert_eq!(normalize_label("Audi_TT"), "audi tt");
        assert_eq!(normalize_label("audi tt"), "audi tt");
        assert_eq!(normalize_label("  AUDI   TT  "), "audi tt");
    }

    #[test]
    fn empty_and_space_only() {
        assert_eq!(normalize_label(""), "");
        assert_eq!(normalize_label("   "), "");
        assert_eq!(normalize_label("___"), "");
    }

    #[test]
    fn unicode_lowercase() {
        assert_eq!(normalize_label("MÜNCHEN"), "münchen");
    }

    /// Label pieces: the six ASCII whitespace bytes (U+000B among them),
    /// `_` and mixed-case ASCII text, then U+0085, U+00A0 and mixed-case
    /// non-ASCII text. The first [`ASCII_PIECES`] are ASCII.
    const PIECES: [&str; 20] = [
        " ", "\t", "\n", "\u{b}", "\u{c}", "\r", "_", "a", "B", "Tt", "9", "\u{85}", "\u{a0}", "É",
        "é", "ß", "ẞ", "Σ", "Straße", "ÖL",
    ];
    const ASCII_PIECES: usize = 11;

    fn label(pieces: &[usize]) -> String {
        pieces.iter().map(|&i| PIECES[i]).collect()
    }

    /// The rule spelled out char by char: split on `_` and
    /// `char::is_whitespace`, drop empty words, lowercase each char, join
    /// with one space.
    fn char_reference(label: &str) -> String {
        label
            .split(|c: char| c == '_' || c.is_whitespace())
            .filter(|word| !word.is_empty())
            .map(|word| {
                word.chars()
                    .flat_map(char::to_lowercase)
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn vertical_tab_is_whitespace() {
        assert_eq!(normalize_label("A\u{b}B"), "a b");
        assert_eq!(normalize_label("\u{b}Audi\u{b}_\u{b}TT\u{b}"), "audi tt");
    }

    proptest! {
        #[test]
        fn prop_idempotent(p in collection::vec(0..PIECES.len(), 0..24)) {
            let once = normalize_label(&label(&p));
            prop_assert_eq!(normalize_label(&once), once);
        }

        #[test]
        fn prop_no_leading_trailing_space(p in collection::vec(0..PIECES.len(), 0..24)) {
            let n = normalize_label(&label(&p));
            prop_assert!(!n.starts_with(' '));
            prop_assert!(!n.ends_with(' '));
        }

        #[test]
        fn prop_matches_char_reference(p in collection::vec(0..PIECES.len(), 0..24)) {
            let s = label(&p);
            prop_assert_eq!(normalize_label(&s), char_reference(&s), "label {:?}", s);
        }

        /// Pure-ASCII labels take only the ASCII lowercase branch; they
        /// must agree with the char rule too, U+000B included.
        #[test]
        fn prop_ascii_matches_char_reference(p in collection::vec(0..ASCII_PIECES, 0..24)) {
            let s = label(&p);
            prop_assert!(s.is_ascii());
            prop_assert_eq!(normalize_label(&s), char_reference(&s), "label {:?}", s);
        }
    }
}
