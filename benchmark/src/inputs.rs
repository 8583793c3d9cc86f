//! Input generators. Everything a workload reads is made here from the
//! `--seed`; the programs under test see only the generated lines.

/// SplitMix64: small, seedable, and the harness's own — so the inputs do
/// not change when the repository's `rand` shim does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// One base-36 word of 3–8 characters — the alphabet `wordToNumber`
/// (`BigInteger(word, 36)`) accepts, so no operation fails.
fn word(rng: &mut Rng) -> String {
    let len = 3 + rng.below(6);
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
        .collect()
}

/// `lines` lines of `words_per_line` independent random words.
pub fn uniform_lines(lines: usize, words_per_line: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..lines)
        .map(|_| {
            let words: Vec<String> = (0..words_per_line).map(|_| word(&mut rng)).collect();
            words.join(" ")
        })
        .collect()
}

/// Lines whose words are drawn Zipf-like (weight of rank r is 1/(r+1))
/// from a vocabulary of `vocabulary` distinct words: a few words repeat
/// thousands of times, most appear once or never — the regime where table
/// keys, the interner and the coercion cache are hit rather than filled.
pub fn zipf_lines(
    lines: usize,
    words_per_line: usize,
    vocabulary: usize,
    seed: u64,
) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5a69_7066); // decorrelate from uniform_lines
    let mut seen = std::collections::HashSet::new();
    let mut vocab: Vec<String> = Vec::with_capacity(vocabulary);
    while vocab.len() < vocabulary {
        let w = word(&mut rng);
        if seen.insert(w.clone()) {
            vocab.push(w);
        }
    }
    let mut cumulative = Vec::with_capacity(vocabulary);
    let mut total = 0.0;
    for rank in 0..vocabulary {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    (0..lines)
        .map(|_| {
            let words: Vec<&str> = (0..words_per_line)
                .map(|_| {
                    let x = rng.unit() * total;
                    let rank = cumulative.partition_point(|c| *c <= x).min(vocabulary - 1);
                    vocab[rank].as_str()
                })
                .collect();
            words.join(" ")
        })
        .collect()
}

/// Append `suffix` to every identifier of `text` that is in `names`.
/// Identifier-aware, so renaming `lines` leaves `line` alone.
pub fn rename_identifiers(text: &str, names: &[&str], suffix: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len() + 64);
    let mut rest = text;
    while !rest.is_empty() {
        let ident_len = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
        if ident_len > 0 {
            let (ident, tail) = rest.split_at(ident_len);
            out.push_str(ident);
            if names.contains(&ident) {
                out.push_str(suffix);
            }
            rest = tail;
        } else {
            let c = rest.chars().next().expect("rest is non-empty");
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

/// The compile-heavy source: the embedded region `region` replicated
/// `replicas` times with the identifiers in `names` renamed per replica
/// (`readLines` → `readLines_17`), each replica wrapped in host text the
/// metaparser has to skip. The text does not depend on the seed, so
/// `emitted_bytes` is exact across seeds.
pub fn replicated_source(region: &str, names: &[&str], replicas: usize) -> String {
    let mut out = String::with_capacity(replicas * (region.len() + 200));
    out.push_str("// Generated: the Fig. 3 class, once per shard.\n");
    for k in 0..replicas {
        let suffix = format!("_{k}");
        out.push_str(&format!(
            "\n/// Shard {k}: host text between regions stays untouched.\n\
             pub struct WordCount{k} {{ lines: Vec<String> }}\n\
             impl WordCount{k} {{\n    @<script lang=\"junicon\">"
        ));
        out.push_str(&rename_identifiers(region, names, &suffix));
        out.push_str(&format!(
            "@</script>\n    pub fn shard(&self) -> usize {{ {k} }}\n}}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        assert_eq!(uniform_lines(50, 10, 7), uniform_lines(50, 10, 7));
        assert_ne!(uniform_lines(50, 10, 7), uniform_lines(50, 10, 8));
        let lines = uniform_lines(50, 10, 7);
        assert_eq!(lines.len(), 50);
        for line in &lines {
            let words: Vec<&str> = line.split(' ').collect();
            assert_eq!(words.len(), 10);
            for w in words {
                assert!((3..=8).contains(&w.len()));
                assert!(w.bytes().all(|b| ALPHABET.contains(&b)));
            }
        }
    }

    #[test]
    fn zipf_is_a_function_of_the_seed_and_skewed() {
        assert_eq!(zipf_lines(200, 10, 256, 3), zipf_lines(200, 10, 256, 3));
        assert_ne!(zipf_lines(200, 10, 256, 3), zipf_lines(200, 10, 256, 4));
        let lines = zipf_lines(2000, 10, 4096, 2016);
        let mut counts = std::collections::HashMap::new();
        for w in lines.iter().flat_map(|l| l.split(' ')) {
            *counts.entry(w).or_insert(0usize) += 1;
        }
        let top = counts.values().copied().max().unwrap();
        // Rank 0 carries 1/H(4096) ≈ 11 % of 20 000 draws; far fewer
        // distinct words than draws; never more than the vocabulary.
        assert!(top > 1500 && top < 3000, "top word drawn {top} times");
        assert!(
            counts.len() > 1000 && counts.len() <= 4096,
            "{}",
            counts.len()
        );
    }

    #[test]
    fn renaming_respects_identifier_boundaries() {
        let got = rename_identifiers(
            "def readLines() { suspend !lines; } line::split(\"\\\\s+\") xlines lines2",
            &["readLines", "lines"],
            "_7",
        );
        assert_eq!(
            got,
            "def readLines_7() { suspend !lines_7; } line::split(\"\\\\s+\") xlines lines2"
        );
    }

    #[test]
    fn replicas_are_deterministic_and_distinct() {
        let region = " def f() { suspend !lines; } ";
        let a = replicated_source(region, &["f", "lines"], 3);
        assert_eq!(a, replicated_source(region, &["f", "lines"], 3));
        for k in 0..3 {
            assert!(a.contains(&format!("def f_{k}() {{ suspend !lines_{k}; }}")));
        }
        assert_eq!(a.matches("@<script").count(), 3);
        assert_eq!(a.matches("@</script>").count(), 3);
    }
}
