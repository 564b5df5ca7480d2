//! Minimal XML text/attribute escaping.

use std::borrow::Cow;

/// Escapes text content (`&`, `<`, `>`).
pub fn escape_text(s: &str, out: &mut String) {
    escape_into(s, out, false);
}

/// Escapes attribute values (adds `"` to the text set).
pub fn escape_attr(s: &str, out: &mut String) {
    escape_into(s, out, true);
}

/// Appends `s` with its markup characters (and `"` when `quote`) replaced
/// by entities. Each run between them is copied whole: they are all ASCII,
/// so every run starts and ends on a character boundary.
fn escape_into(s: &str, out: &mut String, quote: bool) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quote => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Reverses both escapings. Text without an `&` is returned as it is,
/// borrowed.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let known = [
            ("&amp;", '&'),
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ];
        let mut matched = false;
        for (ent, ch) in known {
            if let Some(tail) = rest.strip_prefix(ent) {
                out.push(ch);
                rest = tail;
                matched = true;
                break;
            }
        }
        if !matched {
            out.push('&');
            rest = &rest[1..];
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escape_round_trip() {
        let original = r#"a & b < c > d " e"#;
        let mut esc = String::new();
        escape_attr(original, &mut esc);
        assert!(!esc.contains('<'));
        assert_eq!(unescape(&esc), original);
    }

    #[test]
    fn control_chars_round_trip() {
        // The escaper passes control characters through untouched; the
        // round trip must still be lossless.
        let original = "line1\nline2\ttab\u{1}end\r";
        for esc_fn in [escape_text, escape_attr] {
            let mut esc = String::new();
            esc_fn(original, &mut esc);
            assert_eq!(unescape(&esc), original);
        }
    }

    #[test]
    fn non_ascii_round_trip() {
        let original = "café 日本語 🗺 straße — ± <&> \"quoted\"";
        let mut esc = String::new();
        escape_attr(original, &mut esc);
        assert!(!esc.contains('<') && !esc.contains('"'));
        assert_eq!(unescape(&esc), original);
        let mut text = String::new();
        escape_text(original, &mut text);
        assert_eq!(unescape(&text), original);
    }

    #[test]
    fn apostrophe_entity_unescapes() {
        assert_eq!(unescape("it&apos;s"), "it's");
    }

    /// The per-character escaper the run-copying one must match byte for
    /// byte.
    fn escape_per_char(s: &str, quote: bool) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if quote => out.push_str("&quot;"),
                other => out.push(other),
            }
        }
        out
    }

    // A pool mixing markup characters, entity-prefix fragments, controls
    // and multi-byte sequences: the adversarial inputs for an escaper.
    const POOL: &[&str] = &[
        "&", "<", ">", "\"", "'", "&amp", "&#38;", ";", "a", " ", "\n", "\t", "\u{1}", "é", "日",
        "🦀",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escape_unescape_is_identity(
            picks in prop::collection::vec(0usize..POOL.len(), 0..24)
        ) {
            let original: String = picks.iter().map(|&i| POOL[i]).collect();
            let mut text = String::new();
            escape_text(&original, &mut text);
            prop_assert_eq!(&text, &escape_per_char(&original, false));
            prop_assert_eq!(unescape(&text), original.clone());
            let mut attr = String::new();
            escape_attr(&original, &mut attr);
            prop_assert_eq!(&attr, &escape_per_char(&original, true));
            prop_assert!(!attr.contains('<') && !attr.contains('"'));
            prop_assert_eq!(unescape(&attr), original);
        }
    }

    #[test]
    fn text_escape_leaves_quotes() {
        let mut esc = String::new();
        escape_text("say \"hi\"", &mut esc);
        assert_eq!(esc, "say \"hi\"");
    }

    #[test]
    fn unknown_entity_passes_through() {
        assert_eq!(unescape("a &bogus; b"), "a &bogus; b");
    }
}
