//! Scoped annotations: the mixed-language region metaparser.
//!
//! Scoped annotations "blend Java annotations and XML" (Sec. IV). The
//! admissible forms are:
//!
//! ```text
//! @<tag attr1=x1 ... attrn=xn> expression @</tag>
//! @<tag attr1=x1 ... attrn=xn/>
//! @<tag(attr1=x1, ..., attrn=xn)> expression @</tag>
//! @<tag(attr1=x1, ..., attrn=xn)/>
//! ```
//!
//! Tags may be namespace-qualified (`ns:tag` or `pkg.tag`); annotations may
//! surround multiple statements and may nest. The metaparser is oblivious
//! to the host grammar: it only tracks string/char literals (so an `@<`
//! inside a quoted literal is not a region start) and scans for the
//! annotation markers themselves.

use crate::parse::MAX_DEPTH;
use std::fmt;

/// One attribute of a scoped annotation, e.g. `lang="junicon"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attr {
    pub name: String,
    /// Attribute value with surrounding quotes removed (bare values are
    /// taken verbatim).
    pub value: String,
}

/// A parsed piece of a mixed-language source file.
#[derive(Clone, Debug, PartialEq)]
pub enum Segment {
    /// Host-language text, passed through untouched.
    Host(String),
    /// A scoped annotation region.
    Embedded(Region),
}

/// The contents of one scoped annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct Region {
    /// Tag name, possibly qualified (`script`, `ns:tag`, `pkg.tag`).
    pub tag: String,
    pub attrs: Vec<Attr>,
    /// Child segments: embedded regions nest.
    pub body: Vec<Segment>,
    /// True for `@<tag .../>`.
    pub self_closing: bool,
}

impl Region {
    /// Look up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// The region's `lang` attribute (the common case:
    /// `@<script lang="junicon">`).
    pub fn lang(&self) -> Option<&str> {
        self.attr("lang")
    }

    /// Concatenated host text of the body (ignoring nested regions) —
    /// the embedded program text.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for seg in &self.body {
            if let Segment::Host(t) = seg {
                out.push_str(t);
            }
        }
        out
    }
}

/// Error from the metaparser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnnotError {
    /// `@</tag>` without a matching opener, or mismatched tag name.
    MismatchedClose {
        found: String,
        expected: Option<String>,
        at: usize,
    },
    /// Reached end of input inside an open region.
    UnclosedRegion { tag: String, opened_at: usize },
    /// Malformed annotation syntax at the given byte offset.
    Malformed { at: usize, what: &'static str },
    /// A region opened inside [`MAX_DEPTH`] open regions. The nested tree
    /// is dropped recursively, so deeper input would overflow the stack.
    TooDeep { at: usize },
}

impl fmt::Display for AnnotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnotError::MismatchedClose {
                found,
                expected,
                at,
            } => match expected {
                Some(e) => write!(f, "mismatched @</{found}> at byte {at}, expected @</{e}>"),
                None => write!(f, "stray @</{found}> at byte {at}"),
            },
            AnnotError::UnclosedRegion { tag, opened_at } => {
                write!(f, "unclosed @<{tag}> opened at byte {opened_at}")
            }
            AnnotError::Malformed { at, what } => {
                write!(f, "malformed annotation at byte {at}: {what}")
            }
            AnnotError::TooDeep { at } => {
                write!(f, "region at byte {at} nests past {MAX_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for AnnotError {}

/// Split a mixed-language source into host text and (possibly nested)
/// scoped-annotation regions.
pub fn parse_annotated(src: &str) -> Result<Vec<Segment>, AnnotError> {
    let bytes = src.as_bytes();
    let mut root: Vec<Segment> = Vec::new();
    // Stack of open regions: (region under construction, open offset).
    let mut stack: Vec<(Region, usize)> = Vec::new();
    let mut host_start = 0usize;
    let mut i = 0usize;

    fn push_host(dst: &mut Vec<Segment>, src: &str, from: usize, to: usize) {
        if to > from {
            dst.push(Segment::Host(src[from..to].to_string()));
        }
    }

    while i < bytes.len() {
        match bytes[i] {
            // Skip string/char literals so quoted "@<" is not a marker.
            b'"' | b'\'' => {
                let quote = bytes[i];
                i += 1;
                while i < bytes.len() && bytes[i] != quote {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1; // closing quote (or EOF)
            }
            b'@' if bytes.get(i + 1) == Some(&b'<') => {
                let target = if let Some((r, _)) = stack.last_mut() {
                    &mut r.body
                } else {
                    &mut root
                };
                push_host(target, src, host_start, i);
                if bytes.get(i + 2) == Some(&b'/') {
                    // @</tag>
                    let start = i + 3;
                    let end = find_byte(bytes, start, b'>').ok_or(AnnotError::Malformed {
                        at: i,
                        what: "unterminated close tag",
                    })?;
                    let name = src[start..end].trim().to_string();
                    match stack.pop() {
                        Some((region, _)) if region.tag == name => {
                            let seg = Segment::Embedded(region);
                            if let Some((parent, _)) = stack.last_mut() {
                                parent.body.push(seg);
                            } else {
                                root.push(seg);
                            }
                        }
                        Some((region, opened_at)) => {
                            return Err(AnnotError::MismatchedClose {
                                found: name,
                                expected: Some(region.tag),
                                at: opened_at,
                            })
                        }
                        None => {
                            return Err(AnnotError::MismatchedClose {
                                found: name,
                                expected: None,
                                at: i,
                            })
                        }
                    }
                    i = end + 1;
                    host_start = i;
                } else {
                    // @<tag ...> or @<tag .../>
                    let (region, consumed, self_closing) = parse_open_tag(src, i)?;
                    if self_closing {
                        let seg = Segment::Embedded(region);
                        if let Some((parent, _)) = stack.last_mut() {
                            parent.body.push(seg);
                        } else {
                            root.push(seg);
                        }
                    } else if stack.len() == MAX_DEPTH {
                        return Err(AnnotError::TooDeep { at: i });
                    } else {
                        stack.push((region, i));
                    }
                    i += consumed;
                    host_start = i;
                }
            }
            _ => i += 1,
        }
    }

    if let Some((region, opened_at)) = stack.pop() {
        return Err(AnnotError::UnclosedRegion {
            tag: region.tag,
            opened_at,
        });
    }
    push_host(&mut root, src, host_start, src.len());
    Ok(root)
}

fn find_byte(bytes: &[u8], from: usize, target: u8) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == target)
        .map(|p| from + p)
}

/// Parse `@<tag attrs>` starting at `at`; returns the region (body empty),
/// the bytes consumed, and whether it was self-closing.
fn parse_open_tag(src: &str, at: usize) -> Result<(Region, usize, bool), AnnotError> {
    let bytes = src.as_bytes();
    let mut i = at + 2; // past "@<"
    let name_start = i;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'_' | b':' | b'.'))
    {
        i += 1;
    }
    if i == name_start {
        return Err(AnnotError::Malformed {
            at,
            what: "missing tag name",
        });
    }
    let tag = src[name_start..i].to_string();

    // Optional parenthesized attribute list: @<tag(a=1, b=2)>.
    let mut attrs = Vec::new();
    let paren_form = bytes.get(i) == Some(&b'(');
    if paren_form {
        let close = find_byte(bytes, i, b')').ok_or(AnnotError::Malformed {
            at,
            what: "unterminated attribute list",
        })?;
        parse_attrs(&src[i + 1..close], b',', &mut attrs);
        i = close + 1;
    }

    // Scan to '>' collecting space-separated attributes (XML form).
    let gt = find_byte(bytes, i, b'>').ok_or(AnnotError::Malformed {
        at,
        what: "unterminated open tag",
    })?;
    let mut self_closing = false;
    let mut attr_text = &src[i..gt];
    if attr_text.ends_with('/') {
        self_closing = true;
        attr_text = &attr_text[..attr_text.len() - 1];
    }
    if !paren_form {
        parse_attrs(attr_text, b' ', &mut attrs);
    } else if !attr_text.trim().is_empty() && attr_text.trim() != "/" {
        return Err(AnnotError::Malformed {
            at,
            what: "text after attribute list",
        });
    }

    Ok((
        Region {
            tag,
            attrs,
            body: Vec::new(),
            self_closing,
        },
        gt + 1 - at,
        self_closing,
    ))
}

/// Parse `name=value` pairs separated by `sep` (values optionally quoted).
fn parse_attrs(text: &str, sep: u8, out: &mut Vec<Attr>) {
    let parts: Vec<&str> = if sep == b',' {
        text.split(',').collect()
    } else {
        text.split_whitespace().collect()
    };
    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, value) = match part.split_once('=') {
            Some((n, v)) => (n.trim(), v.trim()),
            None => (part, ""),
        };
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .or_else(|| value.strip_prefix('\'').and_then(|v| v.strip_suffix('\'')))
            .unwrap_or(value);
        out.push(Attr {
            name: name.to_string(),
            value: value.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedded(segs: &[Segment]) -> Vec<&Region> {
        segs.iter()
            .filter_map(|s| match s {
                Segment::Embedded(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn plain_host_text_passes_through() {
        let segs = parse_annotated("fn main() { println!(\"hi\"); }").unwrap();
        assert_eq!(segs.len(), 1);
        assert!(matches!(&segs[0], Segment::Host(t) if t.contains("main")));
    }

    #[test]
    fn single_region_with_lang_attr() {
        let src = r#"before @<script lang="junicon"> x := f(g(y)) @</script> after"#;
        let segs = parse_annotated(src).unwrap();
        assert_eq!(segs.len(), 3);
        let r = embedded(&segs)[0];
        assert_eq!(r.tag, "script");
        assert_eq!(r.lang(), Some("junicon"));
        assert_eq!(r.text().trim(), "x := f(g(y))");
    }

    #[test]
    fn paren_attribute_form() {
        let src = r#"@<script(lang=junicon, mode=expr)> 1 to 3 @</script>"#;
        let segs = parse_annotated(src).unwrap();
        let r = embedded(&segs)[0];
        assert_eq!(r.lang(), Some("junicon"));
        assert_eq!(r.attr("mode"), Some("expr"));
    }

    #[test]
    fn self_closing_forms() {
        let segs = parse_annotated(r#"a @<pragma lang="java"/> b"#).unwrap();
        let r = embedded(&segs)[0];
        assert!(r.self_closing);
        assert!(r.body.is_empty());
        // paren self-closing form
        let segs = parse_annotated("@<pragma(opt=fast)/>").unwrap();
        assert_eq!(embedded(&segs)[0].attr("opt"), Some("fast"));
    }

    #[test]
    fn regions_nest() {
        let src = r#"@<script lang="junicon"> outer
            @<script lang="java"> native() @</script>
        more @</script>"#;
        let segs = parse_annotated(src).unwrap();
        let outer = embedded(&segs)[0];
        assert_eq!(outer.lang(), Some("junicon"));
        let inner: Vec<&Region> = outer
            .body
            .iter()
            .filter_map(|s| match s {
                Segment::Embedded(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].lang(), Some("java"));
        assert_eq!(inner[0].text().trim(), "native()");
        // outer.text() skips the nested region
        assert!(outer.text().contains("outer"));
        assert!(!outer.text().contains("native"));
    }

    #[test]
    fn qualified_tag_names() {
        let segs = parse_annotated("@<ns:directive x=1/> @<pkg.tag/>").unwrap();
        let regions = embedded(&segs);
        assert_eq!(regions[0].tag, "ns:directive");
        assert_eq!(regions[1].tag, "pkg.tag");
    }

    #[test]
    fn markers_inside_string_literals_are_ignored() {
        let src = r#"let s = "@<script lang=x>"; @<real/> let c = '@';"#;
        let segs = parse_annotated(src).unwrap();
        let regions = embedded(&segs);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].tag, "real");
    }

    #[test]
    fn multiple_statements_in_one_region() {
        let src = "@<script lang=\"junicon\">\n a := 1;\n b := 2;\n @</script>";
        let segs = parse_annotated(src).unwrap();
        let r = embedded(&segs)[0];
        assert!(r.text().contains("a := 1"));
        assert!(r.text().contains("b := 2"));
    }

    #[test]
    fn error_on_mismatched_close() {
        let err = parse_annotated("@<a> x @</b>").unwrap_err();
        assert!(matches!(err, AnnotError::MismatchedClose { .. }));
    }

    #[test]
    fn error_on_stray_close() {
        let err = parse_annotated("x @</script>").unwrap_err();
        assert!(
            matches!(err, AnnotError::MismatchedClose { expected: None, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn error_on_unclosed_region() {
        let err = parse_annotated("@<script lang=\"junicon\"> x").unwrap_err();
        assert!(matches!(err, AnnotError::UnclosedRegion { .. }));
    }

    #[test]
    fn error_on_missing_tag_name() {
        let err = parse_annotated("@<>").unwrap_err();
        assert!(matches!(err, AnnotError::Malformed { .. }));
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}x{}", "@<a>".repeat(n), "@</a>".repeat(n));
        // Built and dropped on a 2 MiB thread, where the unbounded tree of
        // 100 000 regions overflowed the stack.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_annotated(&nested(100_000)))
            .unwrap()
            .join()
            .expect("no stack overflow");
        let at = MAX_DEPTH * "@<a>".len();
        assert_eq!(deep, Err(AnnotError::TooDeep { at }));
        for n in [MAX_DEPTH - 1, MAX_DEPTH] {
            let segs = parse_annotated(&nested(n)).unwrap();
            assert_eq!(embedded(&segs)[0].tag, "a");
        }
        assert!(parse_annotated(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn attribute_quoting_variants() {
        let segs = parse_annotated(r#"@<t a="double" b='single' c=bare/>"#).unwrap();
        let r = embedded(&segs)[0];
        assert_eq!(r.attr("a"), Some("double"));
        assert_eq!(r.attr("b"), Some("single"));
        assert_eq!(r.attr("c"), Some("bare"));
        assert_eq!(r.attr("missing"), None);
    }

    #[test]
    fn roundtrip_order_is_preserved() {
        let src = "A@<x/>B@<y/>C";
        let segs = parse_annotated(src).unwrap();
        let kinds: Vec<String> = segs
            .iter()
            .map(|s| match s {
                Segment::Host(t) => format!("H:{t}"),
                Segment::Embedded(r) => format!("E:{}", r.tag),
            })
            .collect();
        assert_eq!(kinds, vec!["H:A", "E:x", "H:B", "E:y", "H:C"]);
    }
}
