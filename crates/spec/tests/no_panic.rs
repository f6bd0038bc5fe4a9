//! Deterministic no-panic corpus for the spec front end.
//!
//! A hand-written corpus of malformed, truncated, and garbage inputs,
//! seeded mutations of the bundled `specs/` files, and seeded random
//! inputs (arbitrary text, DSL and JSON token soup). The contract: the
//! parser returns `Err`, it never panics, and a parse error points at a
//! real line and column.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rascad_spec::SystemSpec;

/// Parses `input` with both front ends inside a panic trap; returns a
/// description of the panic if one escaped.
fn parse_both(input: &str) -> Result<(), String> {
    for (name, f) in [
        ("from_dsl", SystemSpec::from_dsl as fn(&str) -> _),
        ("from_json", SystemSpec::from_json as fn(&str) -> _),
    ] {
        if catch_unwind(AssertUnwindSafe(|| {
            let _ = f(input);
        }))
        .is_err()
        {
            return Err(format!("{name} panicked on {:?}", truncate(input)));
        }
    }
    Ok(())
}

fn truncate(s: &str) -> String {
    let mut t: String = s.chars().take(120).collect();
    if t.len() < s.len() {
        t.push_str("...");
    }
    t
}

/// Minimal deterministic PRNG (64-bit LCG, Knuth constants) so the
/// mutation corpus is reproducible without a `rand` dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The bundled example specs, read from the repository root.
fn bundled_specs() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("specs/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rascad") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path.file_name().unwrap().to_string_lossy().into_owned(), text));
        }
    }
    assert!(!out.is_empty(), "no bundled specs found in {}", dir.display());
    out
}

#[test]
fn malformed_inputs_error_and_never_panic() {
    // Each case must produce an error from the DSL parser (and must not
    // panic in either front end).
    let cases: &[&str] = &[
        "",
        " ",
        "\n\n\n",
        "{",
        "}",
        "{{{{{{{{",
        "}}}}}}}}",
        "diagram",
        "diagram \"",
        "diagram \"X",
        "diagram \"X\"",
        "diagram \"X\" {",
        "diagram \"X\" { block }",
        "diagram \"X\" { block \"A\" { quantity = } }",
        "diagram \"X\" { block \"A\" { quantity = -1 } }",
        "diagram \"X\" { block \"A\" { quantity = 1e999 } }",
        "diagram \"X\" { block \"A\" { mtbf = 10 parsecs } }",
        "diagram \"X\" { block \"A\" { bogus_key = 1 } }",
        "diagram \"X\" { block \"A\" { redundancy { recovery = sideways } } }",
        "diagram \"X\" { block \"A\" { subdiagram \"Y\" { } }",
        "global { mission_time = }",
        "global { mission_time = \"soon\" }",
        "block \"orphan\" { quantity = 1 }",
        "diagram \"X\" { block \"A\" { quantity = 1 } } trailing garbage",
        "diagram \"X\" { block \"\u{FFFD}\u{FFFD}\" { quantity = \u{1F600} } }",
        "# only a comment",
        "= = = = =",
        "\"\"\"\"\"\"",
    ];
    for case in cases {
        parse_both(case).unwrap();
        assert!(
            SystemSpec::from_dsl(case).is_err(),
            "expected a parse error for {:?}",
            truncate(case)
        );
    }

    // Grammatically valid but hostile inputs: parse outcome is not
    // asserted, only the no-panic contract.
    let hostile: &[&str] = &["diagram \"\u{0}\" { }", "diagram \"X\" { }"];
    for case in hostile {
        parse_both(case).unwrap();
    }
}

#[test]
fn truncations_of_bundled_specs_never_panic() {
    for (name, text) in bundled_specs() {
        // Cut at every 7th byte boundary (char-aligned) to keep the
        // corpus cheap but dense.
        for end in (0..text.len()).step_by(7) {
            if text.is_char_boundary(end) {
                parse_both(&text[..end]).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }
}

#[test]
fn seeded_mutations_of_bundled_specs_never_panic() {
    const MUTANTS_PER_SPEC: usize = 200;
    let replacements: &[&str] = &["{", "}", "=", "\"", "#", "-", "9", "\u{0}", " ", "\n"];
    for (name, text) in bundled_specs() {
        let mut rng = Lcg(0x5eed_0000 + name.len() as u64);
        for i in 0..MUTANTS_PER_SPEC {
            let mut mutant = text.clone();
            // 1–3 point mutations: replace, delete, or insert.
            for _ in 0..=rng.below(3) {
                let at = loop {
                    let at = rng.below(mutant.len());
                    if mutant.is_char_boundary(at) {
                        break at;
                    }
                };
                match rng.below(3) {
                    0 => {
                        let ch = mutant[at..].chars().next().map_or(0, char::len_utf8);
                        mutant.replace_range(
                            at..at + ch,
                            replacements[rng.below(replacements.len())],
                        );
                    }
                    1 => {
                        let ch = mutant[at..].chars().next().map_or(0, char::len_utf8);
                        mutant.replace_range(at..at + ch, "");
                    }
                    _ => mutant.insert_str(at, replacements[rng.below(replacements.len())]),
                }
            }
            parse_both(&mutant).unwrap_or_else(|e| panic!("{name} mutant {i}: {e}"));
        }
    }
}

#[test]
fn bundled_specs_still_parse_clean() {
    // Guards the corpus itself: if a bundled spec stops parsing, the
    // mutation tests above would silently degrade to garbage-in tests.
    for (name, text) in bundled_specs() {
        SystemSpec::from_dsl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Random inputs per fuzz property; a failure names the seed.
const FUZZ_CASES: u64 = 512;

/// Any non-control character: printable ASCII half the time, otherwise
/// any Unicode scalar value.
fn any_char(rng: &mut Lcg) -> char {
    loop {
        let c = if rng.below(2) == 0 {
            char::from(b' ' + rng.below(95) as u8)
        } else {
            match char::from_u32(rng.below(0x11_0000) as u32) {
                Some(c) => c,
                None => continue,
            }
        };
        if !c.is_control() {
            return c;
        }
    }
}

/// Arbitrary text never panics the parser.
#[test]
fn parser_never_panics_on_arbitrary_input() {
    for seed in 0..FUZZ_CASES {
        let mut rng = Lcg(seed);
        let input: String = (0..rng.below(65)).map(|_| any_char(&mut rng)).collect();
        parse_both(&input).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Arbitrary token soup built from DSL vocabulary never panics.
#[test]
fn parser_never_panics_on_token_soup() {
    let tokens: Vec<&str> = "diagram block global redundancy subdiagram { } = \"x\" mtbf \
                             quantity 3 4.5 h min transparent #c recovery"
        .split_whitespace()
        .collect();
    for seed in 0..FUZZ_CASES {
        let mut rng = Lcg(seed);
        let input: Vec<&str> =
            (0..rng.below(40)).map(|_| tokens[rng.below(tokens.len())]).collect();
        parse_both(&input.join(" ")).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// JSON-ish input — the loader's own punctuation, keys and literals,
/// mixed with arbitrary characters — never panics the JSON loader.
#[test]
fn json_loader_never_panics() {
    let tokens: Vec<&str> = r#"{ } [ ] : , " "root" "blocks" "params" "subdiagram" "globals"
                               "name" "quantity" "mtbf" "redundancy" "recovery" "transparent"
                               1 -2.5e3 1e999 null true \u12 \"#
        .split_whitespace()
        .collect();
    for seed in 0..FUZZ_CASES {
        let mut rng = Lcg(seed);
        let input: String = (0..rng.below(48))
            .map(|_| match rng.below(tokens.len() + 1) {
                i if i < tokens.len() => tokens[i].to_string(),
                _ => any_char(&mut rng).to_string(),
            })
            .collect();
        parse_both(&input).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Every parse error carries a plausible position.
#[test]
fn parse_errors_have_positions() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz{}=\" ";
    for seed in 0..FUZZ_CASES {
        let mut rng = Lcg(seed);
        let input: String =
            (0..rng.below(61)).map(|_| char::from(ALPHABET[rng.below(ALPHABET.len())])).collect();
        if let Err(rascad_spec::SpecError::Parse { line, column, .. }) =
            SystemSpec::from_dsl(&input)
        {
            assert!(line >= 1, "seed {seed}: line {line} in {input:?}");
            assert!(column >= 1, "seed {seed}: column {column} in {input:?}");
        }
    }
}
