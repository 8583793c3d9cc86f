//! Regenerate Figure 6: normalized execution time of the word-count suite.
//! Report-only: the table reproduces the figure's shape over hand-built
//! trees; CI gates on the source-to-result benchmark (`bench --bin gates`).
//!
//! ```text
//! cargo run -p bench --release --bin figure6 [-- --lines N --heavy-lines N --iters N]
//! ```

#![forbid(unsafe_code)]

use bench::{render_table, run_figure6, shape_findings, Figure6Config};

fn main() {
    let mut cfg = Figure6Config::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--lines" => cfg.light_lines = take(&mut i).parse().expect("--lines N"),
            "--heavy-lines" => cfg.heavy_lines = take(&mut i).parse().expect("--heavy-lines N"),
            "--words" => cfg.words_per_line = take(&mut i).parse().expect("--words N"),
            "--iters" => cfg.iterations = take(&mut i).parse().expect("--iters N"),
            "--warmup" => cfg.warmup = take(&mut i).parse().expect("--warmup N"),
            "--seed" => cfg.seed = take(&mut i).parse().expect("--seed N"),
            "--help" | "-h" => {
                println!(
                    "figure6 — regenerate the paper's Fig. 6 table\n\
                     options: --lines N --heavy-lines N --words N --iters N --warmup N --seed N"
                );
                return;
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "measuring: light corpus {} lines x {} words, heavy corpus {} lines, {} iterations (median)...",
        cfg.light_lines, cfg.words_per_line, cfg.heavy_lines, cfg.iterations
    );
    let measurements = run_figure6(&cfg);
    print!("{}", render_table(&measurements));

    println!("Raw medians:");
    for m in &measurements {
        println!(
            "  {:<12} {:<9} {:<13} {:>12.3?}  (norm {:.3})",
            m.weight, m.suite, m.variant, m.median, m.normalized
        );
    }
    println!();

    println!("Shape checks against the paper's Sec. VII observations:");
    let findings = shape_findings(&measurements);
    let mut all_ok = true;
    for (text, ok) in &findings {
        println!("  [{}] {}", if *ok { "ok" } else { "MISMATCH" }, text);
        all_ok &= ok;
    }
    if !all_ok {
        eprintln!(
            "note: shape mismatches can occur on small workloads or loaded machines; \
             rerun with larger --lines/--iters"
        );
    }

    #[cfg(feature = "obs")]
    {
        // Register the environment counters even if nothing bumped them:
        // the fast-path claim is "zero by-name fallbacks", and the
        // snapshot should say `gde.env.name_fallbacks = 0` explicitly
        // rather than omit the metric.
        gde::obs_register();
        println!("Runtime observability snapshot (obs):");
        for line in obs::snapshot().render_text().lines() {
            println!("  {line}");
        }
        println!();
    }
}
