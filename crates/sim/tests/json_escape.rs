//! String-escaping coverage for `wfd_sim::json`.
//!
//! Lint diagnostics embed arbitrary source excerpts (quotes, escapes,
//! control characters, non-ASCII) in their JSON reports, so the escaping
//! path is now load-bearing for more than repro artifacts: every byte a
//! source file can contain must survive a render→parse round trip.

use wfd_sim::json::{escape, render_validated, Json};

fn round_trip(s: &str) -> String {
    let rendered = Json::Str(s.to_string()).to_string();
    Json::parse(&rendered)
        .unwrap_or_else(|e| panic!("rendering of {s:?} must parse back: {e}"))
        .as_str()
        .expect("a string renders to a string")
        .to_string()
}

#[test]
fn quotes_and_backslashes() {
    for s in [
        "\"",
        "\\",
        "\\\"",
        "a\"b",
        "a\\b",
        "ends with backslash\\",
        "\\\\\\", // three backslashes
        "say \\\"hi\\\"",
        r#"let s = "nested \"deep\" quote";"#,
    ] {
        assert_eq!(round_trip(s), s);
    }
}

#[test]
fn every_control_character_escapes_and_parses() {
    // All of U+0000..U+001F, each alone and embedded.
    for code in 0u32..0x20 {
        let c = char::from_u32(code).expect("control chars are scalar values");
        let alone = c.to_string();
        assert_eq!(round_trip(&alone), alone, "control char {code:#04x}");
        let embedded = format!("a{c}b");
        assert_eq!(round_trip(&embedded), embedded, "embedded {code:#04x}");
        // The rendered form must stay ASCII: raw control bytes inside a
        // JSON string are invalid per RFC 8259.
        let rendered = Json::Str(alone).to_string();
        assert!(
            rendered.chars().all(|ch| (ch as u32) >= 0x20),
            "rendered {code:#04x} must not contain raw control bytes: {rendered:?}"
        );
    }
}

#[test]
fn named_escapes_render_compactly() {
    assert_eq!(escape("\n"), "\"\\n\"");
    assert_eq!(escape("\r"), "\"\\r\"");
    assert_eq!(escape("\t"), "\"\\t\"");
    assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    assert_eq!(escape("\u{1f}"), "\"\\u001f\"");
    assert_eq!(escape("plain"), "\"plain\"");
    assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

#[test]
fn non_ascii_passes_through_verbatim() {
    for s in [
        "é",
        "uni→code",
        "日本語のコメント",
        "emoji 🦀 in a source line",
        "mixed \"quotes\" → and 中文 with \t tabs",
        "\u{7f}",            // DEL is not < 0x20: passes through raw, still valid JSON
        "\u{2028}",          // line separator: legal raw inside JSON strings
        "a\u{0}b\u{1F600}c", // NUL next to an astral-plane scalar
    ] {
        assert_eq!(round_trip(s), s);
    }
}

#[test]
fn source_excerpt_shapes_survive() {
    // The kinds of lines wfd-lint embeds as excerpts.
    for s in [
        r#"let t_start = obs.is_on().then(Instant::now); // wfd-lint: allow(d2-wall-clock, reason)"#,
        "write!(w, \"{procs:?}|{inboxes:?}\")",
        "let s = r#\"raw \"quoted\" text\"#;",
        "\tindented\twith\ttabs",
    ] {
        assert_eq!(round_trip(s), s);
    }
}

#[test]
fn escaping_composes_inside_nested_values() {
    let v = Json::Obj(vec![
        ("k\"ey".into(), Json::str("v\\al\nue")),
        (
            "arr".into(),
            Json::Arr(vec![Json::str("\u{2}"), Json::str("日本")]),
        ),
    ]);
    let rendered = render_validated(&v);
    let back = Json::parse(&rendered).expect("validated render parses");
    assert_eq!(back.get("k\"ey").and_then(Json::as_str), Some("v\\al\nue"));
    let arr = back.get("arr").and_then(Json::as_array).expect("arr");
    assert_eq!(arr[0].as_str(), Some("\u{2}"));
    assert_eq!(arr[1].as_str(), Some("日本"));
}

#[test]
fn render_validated_returns_the_plain_rendering() {
    let v = Json::Obj(vec![("n".into(), Json::u64(7))]);
    assert_eq!(render_validated(&v), v.to_string());
}

#[test]
#[should_panic(expected = "round-trip")]
fn render_validated_catches_corrupt_numbers() {
    // Num keeps raw tokens; a garbage token is the one way a caller can
    // build an unserializable value, and the shared emit path must catch
    // it before it reaches an artifact.
    let v = Json::Obj(vec![("n".into(), Json::Num("not-a-number".into()))]);
    let _ = render_validated(&v);
}
