//! The committed oracle: `expected/<workload>.txt` holds, for seed 2016,
//! what the reference result must be — so the reference is not only
//! whatever `wordcount::native` over today's `bigint` happens to compute.
//! Other seeds fall back to native-twin equality alone.
//!
//! `expected/oracle.py` writes those files with none of this repository's
//! code: Python integers and `math.sqrt` over the same generated words.

use crate::workload::{Kind, Output};

/// The seed the committed files were made for (and the default seed).
pub const ORACLE_SEED: u64 = 2016;

/// How many report lines the oracle keeps from each end.
const EDGE_LINES: usize = 5;

/// The oracle text of a result: a hash total to 12 significant digits, or
/// a report's line count and its first and last five lines.
pub fn render(output: &Output) -> String {
    match output {
        Output::Total(t) => format!("total {t:.11e}\n"),
        Output::Report(lines) => {
            let mut out = format!("lines {}\n", lines.len());
            for l in lines.iter().take(EDGE_LINES) {
                out.push_str(&format!("first {l}\n"));
            }
            for l in &lines[lines.len().saturating_sub(EDGE_LINES)..] {
                out.push_str(&format!("last {l}\n"));
            }
            out
        }
    }
}

fn expected(kind: Kind) -> &'static str {
    match kind {
        Kind::SeqLight => include_str!("../expected/seq_light.txt"),
        Kind::PipeLight => include_str!("../expected/pipe_light.txt"),
        Kind::MapReduceHeavy => include_str!("../expected/mapreduce_heavy.txt"),
        Kind::StringsReport => include_str!("../expected/strings_report.txt"),
        Kind::CompileHeavy => include_str!("../expected/compile_heavy.txt"),
    }
}

/// `Some(matches)` for the oracle seed, `None` for any other.
pub fn check(kind: Kind, seed: u64, reference: &Output) -> Option<bool> {
    (seed == ORACLE_SEED).then(|| render(reference) == expected(kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_keep_twelve_significant_digits() {
        assert_eq!(
            render(&Output::Total(4491059175.398802)),
            "total 4.49105917540e9\n"
        );
        // The 13th digit does not matter, the 12th does.
        assert_eq!(
            render(&Output::Total(4491059175.398802)),
            render(&Output::Total(4491059175.401))
        );
        assert_ne!(
            render(&Output::Total(4491059175.398802)),
            render(&Output::Total(4491059175.51))
        );
    }

    #[test]
    fn reports_keep_count_and_both_ends() {
        let lines: Vec<String> = (0..12).map(|i| format!("w{i}={i}")).collect();
        let text = render(&Output::Report(lines));
        assert!(text.starts_with("lines 12\nfirst w0=0\n"));
        assert!(text.contains("first w4=4\nlast w7=7\n"));
        assert!(text.ends_with("last w11=11\n"));
        assert_eq!(
            render(&Output::Report(vec!["a=1".into()])),
            "lines 1\nfirst a=1\nlast a=1\n"
        );
    }

    #[test]
    fn only_the_oracle_seed_is_checked_against_the_files() {
        assert_eq!(check(Kind::SeqLight, 7, &Output::Total(1.0)), None);
        assert_eq!(
            check(Kind::SeqLight, ORACLE_SEED, &Output::Total(1.0)),
            Some(false)
        );
    }
}
