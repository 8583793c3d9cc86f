//! The Junicon programs, as committed text under `programs/`.
//!
//! Each file is a *mixed* source: host text around `@<script>` regions.
//! Regions with `lang="junicon"` are the program; regions with
//! `lang="junicon-expr"` are the generator expressions the host iterates
//! (Fig. 3's `for (Object i : @<script> … @</script>)`), looked up by
//! their `id`. `mixed::run_mixed` loads the former and skips the latter
//! as foreign.

use junicon::annot::{parse_annotated, Segment};

/// Fig. 3: `readLines` / `splitWords` / `hashWords`, and the `sequential`
/// and `pipeline` entry expressions.
pub const WORDCOUNT: &str = include_str!("../programs/wordcount.jn");
/// Fig. 4: `chunk` / `mapReduce` over a `chunkSize` global.
pub const MAPREDUCE: &str = include_str!("../programs/mapreduce.jn");
/// The two-pass `freqReport`.
pub const FREQREPORT: &str = include_str!("../programs/freqreport.jn");

/// The embedded regions of a mixed source with language `lang`, as
/// `(id attribute, text)` in source order.
fn regions(src: &str, lang: &str) -> Vec<(Option<String>, String)> {
    fn walk(segs: &[Segment], lang: &str, out: &mut Vec<(Option<String>, String)>) {
        for seg in segs {
            if let Segment::Embedded(r) = seg {
                if r.tag == "script" && r.lang() == Some(lang) {
                    out.push((r.attr("id").map(str::to_string), r.text()));
                }
                walk(&r.body, lang, out);
            }
        }
    }
    let segments = parse_annotated(src).expect("committed program is well-formed");
    let mut out = Vec::new();
    walk(&segments, lang, &mut out);
    out
}

/// The entry expression `id` of a committed program.
pub fn entry(src: &str, id: &str) -> String {
    regions(src, "junicon-expr")
        .into_iter()
        .find(|(rid, _)| rid.as_deref() == Some(id))
        .map(|(_, text)| text.trim().to_string())
        .unwrap_or_else(|| panic!("no junicon-expr region with id {id:?}"))
}

/// The text of the program's Junicon regions.
pub fn junicon_regions(src: &str) -> Vec<String> {
    regions(src, "junicon")
        .into_iter()
        .map(|(_, t)| t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_programs_expose_their_entries() {
        assert_eq!(entry(WORDCOUNT, "sequential"), "hashWords(readLines())");
        assert!(entry(WORDCOUNT, "pipeline").contains("|>"));
        assert!(entry(MAPREDUCE, "mapreduce").starts_with("mapReduce("));
        assert_eq!(entry(FREQREPORT, "report"), "freqReport()");
        assert_eq!(junicon_regions(WORDCOUNT).len(), 1);
        assert!(junicon_regions(MAPREDUCE)[0].contains("def chunk(e)"));
    }
}
