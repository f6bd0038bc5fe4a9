//! Prometheus text exposition (format 0.0.4): encoder and validator.
//!
//! [`encode`] renders a [`RegistrySnapshot`] as a scrape-ready page:
//! dotted metric names become `rascad_`-prefixed underscore names,
//! counters and gauges are emitted per labeled series, and value
//! histograms become native Prometheus histograms — cumulative
//! `_bucket{le="..."}` series over the sparse log-bucket edges, plus
//! `_sum`/`_count` and exact-`_min`/`_max` gauges (the log buckets
//! approximate quantiles, so the exact extremes ride along).
//!
//! [`validate`] is a small hand-rolled checker for the same format —
//! enough to gate CI on "the page parses": comment/TYPE/HELP syntax,
//! metric and label name character sets, label escaping, numeric
//! sample values, TYPE-before-samples ordering, and histogram
//! completeness (`le` labels, an `+Inf` bucket, `_sum`/`_count`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{MetricKind, RegistrySnapshot, SeriesId, CATALOG};

/// Prefix for every exposed metric family.
const PREFIX: &str = "rascad_";

/// Maps a dotted metric name to an exposition family name:
/// `core.cache.hits` → `rascad_core_cache_hits`.
#[must_use]
pub fn family_name(name: &str) -> String {
    let mut out = String::with_capacity(PREFIX.len() + name.len());
    out.push_str(PREFIX);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes HELP text (backslash and newline only, per the format).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders `{k="v",...}` for a series, optionally with an extra label
/// (the histogram `le`) appended.
fn label_block(id: &SeriesId, extra: Option<(&str, &str)>) -> String {
    if id.labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in &id.labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Formats a sample value: integers stay integral, non-finite values
/// use the exposition spellings.
#[allow(clippy::float_cmp)] // exact trunc check decides integer formatting
fn fmt_sample(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn help_for(name: &str) -> String {
    crate::registry::describe(name)
        .map_or_else(|| format!("rascad metric {name}"), |d| d.help.to_string())
}

fn write_header(out: &mut String, family: &str, name: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {family} {}", escape_help(&help_for(name)));
    let _ = writeln!(out, "# TYPE {family} {kind}");
}

/// Encodes a registry snapshot as one exposition page.
///
/// Catalogued counters with no recorded series are zero-filled (one
/// unlabeled `0` sample), so a scrape target's metric set is stable
/// from the first request — rates and alerts never see a series pop
/// into existence.
#[must_use]
pub fn encode(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();

    // Group counter series by family so HELP/TYPE appear once.
    let mut counter_families: BTreeMap<&str, Vec<(&SeriesId, u64)>> = BTreeMap::new();
    for (id, v) in &snap.counters {
        counter_families.entry(id.name).or_default().push((id, *v));
    }
    // Zero-fill catalogued counters that never fired.
    let zero = SeriesId::plain("");
    for desc in CATALOG {
        if desc.kind == MetricKind::Counter && !counter_families.contains_key(desc.name) {
            counter_families.insert(desc.name, vec![(&zero, 0)]);
        }
    }
    for (name, series) in &counter_families {
        let family = family_name(name);
        write_header(&mut out, &family, name, "counter");
        for (id, v) in series {
            let labels = if id.name.is_empty() { String::new() } else { label_block(id, None) };
            let _ = writeln!(out, "{family}{labels} {v}");
        }
    }

    let mut gauge_families: BTreeMap<&str, Vec<(&SeriesId, f64)>> = BTreeMap::new();
    for (id, v) in &snap.gauges {
        gauge_families.entry(id.name).or_default().push((id, *v));
    }
    for (name, series) in &gauge_families {
        let family = family_name(name);
        write_header(&mut out, &family, name, "gauge");
        for (id, v) in series {
            let _ = writeln!(out, "{family}{} {}", label_block(id, None), fmt_sample(*v));
        }
    }

    let mut value_families: BTreeMap<&str, Vec<&SeriesId>> = BTreeMap::new();
    let by_id: BTreeMap<&SeriesId, &crate::Histogram> =
        snap.values.iter().map(|(id, h)| (id, h)).collect();
    for (id, _) in &snap.values {
        value_families.entry(id.name).or_default().push(id);
    }
    for (name, ids) in &value_families {
        let family = family_name(name);
        write_header(&mut out, &family, name, "histogram");
        for id in ids {
            let h = by_id[*id];
            let mut cum = 0u64;
            for (upper, n) in h.bucket_counts() {
                cum += n;
                let le = fmt_sample(upper);
                let _ =
                    writeln!(out, "{family}_bucket{} {cum}", label_block(id, Some(("le", &le))));
            }
            let _ =
                writeln!(out, "{family}_bucket{} {}", label_block(id, Some(("le", "+Inf"))), cum);
            let _ = writeln!(out, "{family}_sum{} {}", label_block(id, None), fmt_sample(h.sum()));
            let _ = writeln!(out, "{family}_count{} {}", label_block(id, None), h.count());
        }
        // The log buckets bound quantiles to ~6% relative error; the
        // exact extremes are exported alongside as gauges.
        for (suffix, pick) in [("min", true), ("max", false)] as [(&str, bool); 2] {
            let sub = format!("{family}_{suffix}");
            let _ = writeln!(out, "# TYPE {sub} gauge");
            for id in ids {
                let s = by_id[*id].snapshot();
                let v = if pick { s.min } else { s.max };
                let _ = writeln!(out, "{sub}{} {}", label_block(id, None), fmt_sample(v));
            }
        }
    }
    out
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn parse_name(s: &str) -> Option<(&str, &str)> {
    let mut end = 0;
    for (i, c) in s.char_indices() {
        if i == 0 {
            if !is_name_start(c) {
                return None;
            }
        } else if !is_name_char(c) {
            break;
        }
        end = i + c.len_utf8();
    }
    if end == 0 {
        None
    } else {
        Some((&s[..end], &s[end..]))
    }
}

/// Label pairs plus the unparsed remainder of the sample line.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parses the `{k="v",...}` block; returns the label pairs and the
/// rest of the line.
fn parse_labels(s: &str) -> Result<ParsedLabels<'_>, String> {
    let mut rest = s.strip_prefix('{').ok_or("expected '{'")?;
    let mut labels = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((labels, r));
        }
        let (key, r) = parse_name(rest).ok_or_else(|| format!("bad label name at `{rest}`"))?;
        let r = r.trim_start();
        let r = r.strip_prefix('=').ok_or_else(|| format!("missing '=' after label {key}"))?;
        let r = r.trim_start();
        let mut chars = r.strip_prefix('"').ok_or("label value must be quoted")?.chars();
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape \\{other:?} in label {key}")),
                },
                '\n' => return Err(format!("raw newline in label {key}")),
                other => value.push(other),
            }
        }
        if !closed {
            return Err(format!("unterminated label value for {key}"));
        }
        labels.push((key.to_string(), value));
        rest = chars.as_str().trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        }
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other.parse::<f64>().map_err(|_| format!("bad sample value `{other}`")),
    }
}

/// Base family of a sample name: strips histogram/summary suffixes
/// when that family was TYPE-declared.
fn sample_family(name: &str, types: &BTreeMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count", "_total"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.contains_key(base) {
                return base.to_string();
            }
        }
    }
    name.to_string()
}

/// Checks one exposition page; returns a description of the first
/// problem found.
///
/// # Errors
///
/// A `line N: <problem>` message on malformed syntax, a sample before
/// its TYPE line, a duplicate TYPE, or an incomplete histogram family.
pub fn validate(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // family -> (saw +Inf bucket, saw _sum, saw _count)
    let mut histograms: BTreeMap<String, (bool, bool, bool)> = BTreeMap::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        let err = |msg: String| format!("line {n}: {msg}");
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let (name, rest) =
                    parse_name(rest).ok_or_else(|| err("bad TYPE metric name".into()))?;
                let kind = rest.trim();
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(err(format!("unknown TYPE `{kind}`")));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(err(format!("duplicate TYPE for {name}")));
                }
                if kind == "histogram" {
                    histograms.insert(name.to_string(), (false, false, false));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                parse_name(rest).ok_or_else(|| err("bad HELP metric name".into()))?;
            }
            // Other comments are allowed and ignored.
            continue;
        }
        let (name, rest) = parse_name(line).ok_or_else(|| err("bad metric name".into()))?;
        let (labels, rest) = if rest.starts_with('{') {
            parse_labels(rest).map_err(&err)?
        } else {
            (Vec::new(), rest)
        };
        let mut parts = rest.split_whitespace();
        let value = parse_value(parts.next().ok_or_else(|| err("missing sample value".into()))?)
            .map_err(&err)?;
        if let Some(ts) = parts.next() {
            ts.parse::<i64>().map_err(|_| err(format!("bad timestamp `{ts}`")))?;
        }
        if parts.next().is_some() {
            return Err(err("trailing tokens after sample".into()));
        }
        let family = sample_family(name, &types);
        if !types.contains_key(&family) {
            return Err(err(format!("sample `{name}` has no preceding TYPE line")));
        }
        if let Some(flags) = histograms.get_mut(&family) {
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| err(format!("bucket sample `{name}` without le label")))?;
                if le.1 == "+Inf" {
                    flags.0 = true;
                } else {
                    parse_value(&le.1).map_err(&err)?;
                }
                let _ = value;
            } else if name.ends_with("_sum") {
                flags.1 = true;
            } else if name.ends_with("_count") {
                flags.2 = true;
            } else {
                return Err(err(format!("histogram family {family} has plain sample `{name}`")));
            }
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    for (family, (inf, sum, count)) in &histograms {
        if !inf {
            return Err(format!("histogram {family} lacks an le=\"+Inf\" bucket"));
        }
        if !sum || !count {
            return Err(format!("histogram {family} lacks _sum/_count"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn sample_snapshot() -> RegistrySnapshot {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 4.0, 100.0] {
            h.record(v);
        }
        RegistrySnapshot {
            counters: vec![
                (SeriesId::with_labels("core.cache.hits", &[("kind", "steady")]), 5),
                (SeriesId::with_labels("core.cache.hits", &[("kind", "mission")]), 2),
                (SeriesId::plain("core.blocks_generated"), 11),
            ],
            gauges: vec![(SeriesId::with_labels("core.cache.entries", &[("kind", "steady")]), 3.0)],
            values: vec![(SeriesId::plain("markov.lu.fill"), h)],
        }
    }

    #[test]
    fn encode_emits_families_and_validates() {
        let text = encode(&sample_snapshot());
        validate(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert!(text.contains("# TYPE rascad_core_cache_hits counter"), "{text}");
        assert!(text.contains("rascad_core_cache_hits{kind=\"steady\"} 5"), "{text}");
        assert!(text.contains("rascad_core_cache_hits{kind=\"mission\"} 2"), "{text}");
        assert!(text.contains("rascad_core_blocks_generated 11"), "{text}");
        assert!(text.contains("# TYPE rascad_core_cache_entries gauge"), "{text}");
        // Native histogram with cumulative buckets, sum, count, and
        // the exact-extreme gauges.
        assert!(text.contains("# TYPE rascad_markov_lu_fill histogram"), "{text}");
        assert!(text.contains("rascad_markov_lu_fill_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("rascad_markov_lu_fill_sum 107"), "{text}");
        assert!(text.contains("rascad_markov_lu_fill_count 4"), "{text}");
        assert!(text.contains("rascad_markov_lu_fill_min 1"), "{text}");
        assert!(text.contains("rascad_markov_lu_fill_max 100"), "{text}");
    }

    #[test]
    fn encode_zero_fills_catalogued_counters() {
        let text = encode(&RegistrySnapshot::default());
        validate(&text).unwrap();
        // Robustness counters appear as 0 even when nothing fired.
        assert!(text.contains("rascad_engine_worker_panics 0"), "{text}");
        assert!(text.contains("rascad_solve_timeouts 0"), "{text}");
        // Histograms/gauges are not zero-filled (no meaningful zero).
        assert!(!text.contains("rascad_markov_lu_fill_bucket"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_cover_count() {
        let text = encode(&sample_snapshot());
        let mut last = 0u64;
        let mut inf = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("rascad_markov_lu_fill_bucket") {
                let v: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
                assert!(v >= last, "buckets must be cumulative: {text}");
                last = v;
                if rest.contains("+Inf") {
                    inf = v;
                }
            }
        }
        assert_eq!(inf, 4);
    }

    #[test]
    fn label_values_are_escaped() {
        let snap = RegistrySnapshot {
            counters: vec![(SeriesId::with_labels("x", &[("path", "a\\b \"q\"\nend")]), 1)],
            gauges: vec![],
            values: vec![],
        };
        let text = encode(&snap);
        validate(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert!(text.contains("path=\"a\\\\b \\\"q\\\"\\nend\""), "{text}");
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        for (page, why) in [
            ("rascad_x 1\n", "sample without TYPE"),
            ("# TYPE rascad_x counter\nrascad_x one\n", "non-numeric value"),
            ("# TYPE rascad_x counter\n# TYPE rascad_x counter\nrascad_x 1\n", "duplicate TYPE"),
            ("# TYPE rascad_x counter\nrascad_x{k=unquoted} 1\n", "unquoted label"),
            ("# TYPE rascad_x counter\n9bad 1\n", "bad name"),
            ("# TYPE rascad_x widget\nrascad_x 1\n", "unknown type"),
            ("", "empty page"),
            (
                "# TYPE rascad_h histogram\nrascad_h_bucket{le=\"1\"} 1\nrascad_h_sum 1\nrascad_h_count 1\n",
                "histogram without +Inf",
            ),
            (
                "# TYPE rascad_h histogram\nrascad_h_bucket{le=\"+Inf\"} 1\n",
                "histogram without sum/count",
            ),
        ] {
            assert!(validate(page).is_err(), "validator accepted: {why}");
        }
    }

    #[test]
    fn validator_accepts_timestamps_and_comments() {
        let page = "\
# scraped by test
# HELP rascad_x a counter
# TYPE rascad_x counter
rascad_x{a=\"b\"} 4 1700000000
";
        validate(page).unwrap();
    }

    #[test]
    fn family_name_sanitizes() {
        assert_eq!(family_name("core.cache.hits"), "rascad_core_cache_hits");
        assert_eq!(family_name("weird-name 2"), "rascad_weird_name_2");
    }
}
