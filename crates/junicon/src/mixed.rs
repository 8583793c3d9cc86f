//! Mixed-language driver: the cascading-interpreter harness of Sec. VI.
//!
//! "The harness provides a cascading set of interpreters that at each stage
//! transforms its input and either executes it on a script engine ... or
//! chooses another interpreter to pass to for further transformation. In
//! particular the outermost instantiation of the harness is a
//! meta-interpreter that detects the embedded language and its context using
//! scoped annotations, and dispatches statements to the appropriate
//! sub-interpreter."
//!
//! Here the meta-interpreter is [`crate::annot::parse_annotated`]; the two
//! sub-interpreters are the Junicon [`crate::Interp`] (interactive path) and
//! the [`crate::emit`] transpiler (compilation path). Host-language text is
//! left untouched in both paths — the transformations "leave code foreign to
//! Unicon unchanged".

use crate::annot::{parse_annotated, AnnotError, Region, Segment};
use crate::interp::{Interp, JuniconError};
use crate::lower::w;
use crate::parse::ParseError;
use std::fmt::{self, Write};

/// Error from mixed-language processing.
#[derive(Debug)]
pub enum MixedError {
    Annot(AnnotError),
    Parse(ParseError),
}

impl fmt::Display for MixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixedError::Annot(e) => write!(f, "{e}"),
            MixedError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MixedError {}

impl From<AnnotError> for MixedError {
    fn from(e: AnnotError) -> Self {
        MixedError::Annot(e)
    }
}

impl From<ParseError> for MixedError {
    fn from(e: ParseError) -> Self {
        MixedError::Parse(e)
    }
}

impl From<JuniconError> for MixedError {
    fn from(e: JuniconError) -> Self {
        match e {
            JuniconError::Parse(p) => MixedError::Parse(p),
        }
    }
}

/// Is this region embedded Junicon? (`@<script lang="junicon">` — an
/// unqualified `script` tag defaults to junicon, matching the paper's
/// examples where the lang attribute is always explicit.)
fn is_junicon(region: &Region) -> bool {
    region.tag == "script" && region.lang().unwrap_or("junicon") == "junicon"
}

/// Extract `(lang, text)` for every embedded region, in order (nested
/// regions are flattened depth-first).
pub fn extract_regions(src: &str) -> Result<Vec<(String, String)>, MixedError> {
    let segments = parse_annotated(src)?;
    let mut out = Vec::new();
    fn walk(segs: &[Segment], out: &mut Vec<(String, String)>) {
        for seg in segs {
            if let Segment::Embedded(r) = seg {
                out.push((r.lang().unwrap_or_default().to_string(), r.text()));
                walk(&r.body, out);
            }
        }
    }
    walk(&segments, &mut out);
    Ok(out)
}

/// The interactive path: load every Junicon region of a mixed source into
/// the interpreter, in order. Host text and foreign regions are skipped
/// (they belong to the host compiler). Returns how many regions were
/// loaded.
pub fn run_mixed(src: &str, interp: &Interp) -> Result<usize, MixedError> {
    let segments = parse_annotated(src)?;
    let mut loaded = 0;
    for seg in &segments {
        if let Segment::Embedded(r) = seg {
            if is_junicon(r) {
                interp.load(&r.text())?;
                loaded += 1;
            }
        }
    }
    Ok(loaded)
}

/// The compilation path: transpile a mixed source, replacing every Junicon
/// region with a generated Rust module (`mod junicon_region_N`, indented)
/// and leaving host text verbatim. Foreign embedded regions (`lang="java"`
/// etc.) are passed through as their raw text, i.e. they are "exempted from
/// being transformed" (Sec. IV). The result's capacity is its length.
pub fn transpile_mixed(src: &str) -> Result<String, MixedError> {
    let segments = parse_annotated(src)?;
    let mut out = String::new();
    let mut n = 0;
    for seg in &segments {
        match seg {
            Segment::Host(text) => out.push_str(text),
            Segment::Embedded(r) if is_junicon(r) => {
                let module = crate::emit::emit_program_source(&r.text())?;
                w!(out, "mod junicon_region_{n} {{\n");
                for line in module.lines() {
                    if !line.is_empty() {
                        out.push_str("    ");
                    }
                    out.push_str(line);
                    out.push('\n');
                }
                out.push_str("}\n");
                n += 1;
            }
            Segment::Embedded(r) => out.push_str(&r.text()),
        }
    }
    out.shrink_to_fit();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde::Value;

    #[test]
    fn extract_finds_regions_in_order() {
        let src = r#"
            fn host() {}
            @<script lang="junicon"> def f(x) { return x; } @</script>
            more host
            @<script lang="java"> native(); @</script>
        "#;
        let regions = extract_regions(src).unwrap();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].0, "junicon");
        assert!(regions[0].1.contains("def f"));
        assert_eq!(regions[1].0, "java");
    }

    #[test]
    fn run_mixed_loads_junicon_only() {
        let interp = Interp::new();
        let src = r#"
            // host comment
            @<script lang="junicon"> def sq(x) { return x * x; } @</script>
            @<script lang="java"> int unused = 0; @</script>
            @<script lang="junicon"> answer := sq(7); @</script>
        "#;
        let loaded = run_mixed(src, &interp).unwrap();
        assert_eq!(loaded, 2);
        assert_eq!(interp.globals().get("answer").as_int(), Some(49));
    }

    #[test]
    fn run_mixed_interop_both_directions() {
        // Host pre-sets a global, embedded code computes, host reads back —
        // the "native types can be transparently passed" property.
        let interp = Interp::new();
        interp
            .globals()
            .declare("data", Value::list(vec![Value::from(3), Value::from(4)]));
        run_mixed(
            r#"@<script lang="junicon">
                total := 0;
                every total := total + !data;
            @</script>"#,
            &interp,
        )
        .unwrap();
        assert_eq!(interp.globals().get("total").as_int(), Some(7));
    }

    #[test]
    fn transpile_replaces_regions_and_keeps_host() {
        let src =
            "// before\n@<script lang=\"junicon\"> def id(x) { return x; } @</script>\n// after\n";
        let out = transpile_mixed(src).unwrap();
        assert!(out.contains("// before"));
        assert!(out.contains("// after"));
        assert!(out.contains("mod junicon_region_0"));
        assert!(out.contains("pub fn proc_id"));
        assert!(!out.contains("@<script"));
        assert_eq!(out.capacity(), out.len());
    }

    #[test]
    fn transpile_passes_foreign_regions_through() {
        let src = "@<script lang=\"java\"> keep_this_text(); @</script>";
        let out = transpile_mixed(src).unwrap();
        assert!(out.contains("keep_this_text()"));
        assert!(!out.contains("mod junicon_region"));
    }

    #[test]
    fn annotation_errors_propagate() {
        assert!(run_mixed("@<script lang=\"junicon\"> x", &Interp::new()).is_err());
        assert!(transpile_mixed("@<script lang=\"junicon\"> 1 + @</script>").is_err());
    }
}
