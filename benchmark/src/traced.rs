//! The traced run: the per-layer ledger. Built with `--features trace`, so
//! the crates' `obs` counters are live and the harness records spans. The
//! layers are measured from outside: by timing calls into their public
//! functions ([`crate::probes`]) and by taking the difference of
//! `obs::snapshot()` around single iterations of each path — which also
//! attributes the process-global counters to a path.

use crate::json::Json;
use crate::metrics::{self, PER_LAYER, PHASE_MS};
use crate::probes::{self, time_reps, LadderInput};
use crate::run::{
    set_up, timed_phase, Metric, Options, Report, Tally, LANES, NOISY_SPREAD, TRACED_BLOCKS,
};
use crate::stats::{median, Blocks};
use crate::trace::Tracer;
use crate::workload::{cores, input_lines, Kind, Path, Prepared};
use std::collections::BTreeMap;
use std::time::Instant;

/// Iterations per path whose `obs` differences are taken. Their counts
/// must be equal for a count to be usable in a claim.
const OBS_ITERATIONS: usize = 3;
/// `Interp::gen` calls per repetition of the `junicon.gen_us` probe.
const GEN_BATCH: usize = 200;
/// Timed iterations per path whose spans are written to the trace file.
const KEPT_ITERATIONS: usize = 3;

/// What one iteration added to every counter and timer, by name. Timers
/// appear as `<name>.count` and `<name>.total_ns`.
type Delta = BTreeMap<String, f64>;

/// `obs::snapshot()`, read through its JSON rendering: the snapshot's row
/// type is not exported by `obs`, its rendering is.
fn snapshot() -> Json {
    Json::parse(&obs::snapshot().render_json()).expect("obs renders valid JSON")
}

fn field(snapshot: &Json, name: &str, key: &str) -> f64 {
    snapshot
        .get(name)
        .and_then(|row| row.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn flatten(snapshot: &Json) -> Delta {
    let mut out = Delta::new();
    let Json::Obj(rows) = snapshot else {
        return out;
    };
    for (name, row) in rows {
        let num = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        match row.get("kind").and_then(Json::as_str) {
            Some("counter") => {
                out.insert(name.clone(), num("value"));
            }
            Some("timer") => {
                out.insert(format!("{name}.count"), num("count"));
                out.insert(format!("{name}.total_ns"), num("total_ns"));
            }
            // Gauges and histograms are not additive: read after a reset.
            _ => {}
        }
    }
    out
}

fn difference(before: &Json, after: &Json) -> Delta {
    let before = flatten(before);
    flatten(after)
        .into_iter()
        .map(|(name, v)| {
            let was = before.get(&name).copied().unwrap_or(0.0);
            (name, v - was)
        })
        .collect()
}

/// The `obs` differences of [`OBS_ITERATIONS`] single iterations per path.
struct ObsLedger {
    by_path: [Vec<Delta>; 3],
    /// The registry after those iterations (it was reset before them).
    end: Json,
}

impl ObsLedger {
    fn take(prepared: &Prepared, tr: &Tracer, tally: &mut Tally) -> ObsLedger {
        gde::obs_register();
        exec::obs_register();
        pipes::obs_register();
        obs::Registry::global().reset();
        let mut by_path: [Vec<Delta>; 3] = Default::default();
        let quiet = Tracer::new(false);
        tr.span("obs_iterations", || {
            for _ in 0..OBS_ITERATIONS {
                for (slot, path) in Path::ALL.into_iter().enumerate() {
                    let before = snapshot();
                    let got = prepared.run(path, &quiet);
                    by_path[slot].push(difference(&before, &snapshot()));
                    tally.check_output(path.name(), &got, &prepared.reference);
                }
            }
        });
        ObsLedger {
            by_path,
            end: snapshot(),
        }
    }

    /// Median over the iterations of what `path` added to `name`.
    fn on_path(&self, path: usize, name: &str) -> f64 {
        let per_iteration: Vec<f64> = self.by_path[path]
            .iter()
            .map(|d| d.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&per_iteration)
    }

    /// One iteration of each path, summed.
    fn count(&self, name: &str) -> f64 {
        (0..Path::ALL.len()).map(|p| self.on_path(p, name)).sum()
    }

    /// Did every iteration of every path add the same to `name`?
    fn repeats_exactly(&self, name: &str) -> bool {
        self.by_path.iter().all(|iterations| {
            let mut values = iterations
                .iter()
                .map(|d| d.get(name).copied().unwrap_or(0.0));
            let first = values.next().unwrap_or(0.0);
            values.all(|v| v == first)
        })
    }

    /// Per path, per counter, per iteration — for the trace file.
    fn to_json(&self) -> Json {
        let paths = Path::ALL
            .into_iter()
            .zip(&self.by_path)
            .map(|(path, iterations)| {
                let names: Vec<&String> = iterations
                    .first()
                    .map_or(Vec::new(), |d| d.keys().collect());
                let counters = names
                    .into_iter()
                    .filter(|n| iterations.iter().any(|d| d[*n] != 0.0))
                    .map(|n| {
                        let values = iterations.iter().map(|d| Json::Num(d[n])).collect();
                        (n.clone(), Json::Arr(values))
                    })
                    .collect();
                (path.name().to_string(), Json::Obj(counters))
            })
            .collect();
        Json::Obj(paths)
    }
}

/// Counts taken from `obs` differences: `(metric, obs name, per word?)`.
const OBS_COUNTS: [(&str, &str, bool); 16] = [
    ("gde.arc_clones_per_word", "gde.value.arc_clones", true),
    ("gde.promotions_per_word", "gde.value.promotions", true),
    ("gde.inline_hits_per_word", "gde.value.inline_hits", true),
    ("gde.slot_hits_per_word", "gde.env.slot_hits", true),
    ("gde.name_fallbacks", "gde.env.name_fallbacks", false),
    ("gde.fused_stages", "gde.comb.fused_stages", false),
    ("gde.fusion_barriers", "gde.comb.fusion_barriers", false),
    ("gde.sym_interned", "gde.sym.interned", false),
    ("gde.coerce_cached", "gde.value.coerce_cached", false),
    ("gde.concat_slices", "gde.value.concat_slices", false),
    ("gde.concat_copies", "gde.value.concat_copies", false),
    (
        "blockingq.blocked_puts",
        "blockingq.queue.blocked_puts",
        false,
    ),
    (
        "blockingq.blocked_takes",
        "blockingq.queue.blocked_takes",
        false,
    ),
    ("pipes.batch_flushes", "pipes.pipe.batch_flushes", false),
    ("exec.tasks_run", "exec.pool.tasks_run", false),
    ("mapreduce.chunks", "mapreduce.chunks", false),
];

pub fn traced(opt: &Options) -> Report {
    let tr = Tracer::new(true);
    let mut tally = Tally::default();
    let probe_budget = opt.block_len() / 3;
    let mut values: BTreeMap<&'static str, (f64, Option<&'static str>)> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        values.insert(name, (value, None));
    };

    let prepared = set_up(opt.kind, opt.seed, &tr, &mut tally);
    let words = prepared.words as f64;
    let load_ns = tr.totals().get("load").map_or(0, |t| t.total_ns);
    put("junicon.load_ms", load_ns as f64 / 1e6);

    let gens = GEN_BATCH.min(prepared.entry_count());
    let gen_batch = tr.span("junicon.gen_us", || {
        time_reps(probe_budget, || {
            for k in 0..gens {
                std::hint::black_box(prepared.gen(k));
            }
        })
    });
    put("junicon.gen_us", gen_batch * 1e6 / gens as f64);

    // Counts: obs differences around single iterations.
    let ledger = ObsLedger::take(&prepared, &tr, &mut tally);
    if opt.kind == Kind::SeqLight {
        tally.check(
            "gde.env.slot_hits > 0 on the interp path",
            ledger.on_path(Path::Interp as usize, "gde.env.slot_hits") > 0.0,
        );
    }

    // The three paths and the compile path, two blocks each, spans on.
    let busy_before = obs::snapshot().timer("exec.pool.busy").map_or(0, |t| t.1);
    let phase_start = Instant::now();
    let timed = timed_phase(
        &prepared,
        &LANES,
        TRACED_BLOCKS,
        opt.block_len(),
        &tr,
        &mut tally,
    );
    let blocks = &timed.paths;
    let phase_ns = phase_start.elapsed().as_nanos() as f64;
    let busy_after = obs::snapshot().timer("exec.pool.busy").map_or(0, |t| t.1);
    let threads = exec::global_threads();
    put(
        "exec.pool_busy_share",
        (busy_after - busy_before) as f64 / (phase_ns * threads as f64),
    );

    // junicon, phase by phase.
    let phase_s = timed.phases.each_ref().map(|samples| median(samples));
    for (name, seconds) in PHASE_MS.into_iter().zip(phase_s) {
        put(name, seconds * 1e3);
    }
    let compiled = timed.compiled.as_ref().expect("the compile lane ran");
    put(
        "junicon.parse_mb_per_s",
        compiled.region_bytes as f64 / 1e6 / phase_s[1],
    );
    put("junicon.src_bytes", compiled.src_bytes as f64);
    put("junicon.procs", compiled.procs as f64);

    let [native, embedded, interp] = blocks.each_ref().map(Blocks::iteration_time);
    put("junicon.interp_ns_per_word", interp * 1e9 / words);
    put("junicon.interp_over_embedded", interp / embedded);
    put("wordcount.embedded_over_native", embedded / native);
    put("wordcount.interp_over_native", interp / native);
    for (path, b) in Path::ALL.into_iter().zip(blocks) {
        put(metrics::iter_p95_ms(path), b.p95() * 1e3);
        put(metrics::block_spread(path), b.spread());
    }
    let traced_embedded_wps = words / embedded;

    // The ladder and the other probes, on the seq-light corpus.
    let ladder_input = LadderInput::new(input_lines(Kind::SeqLight, opt.seed));
    for (name, ns) in probes::ladder(&ladder_input, probe_budget, &tr, &mut tally) {
        put(name, ns);
    }
    tr.span("probes", || {
        put("gde.plan_build_us", probes::plan_build_us(probe_budget));
        put("exec.submit_join_us", probes::submit_join_us(probe_budget));
        let (concat, as_key) = probes::string_plane_ns(&ladder_input, probe_budget);
        put("gde.concat_ns", concat);
        put("gde.as_key_ns", as_key);
        put("blockingq.handoff_us", probes::handoff_us(probe_budget));
        let (spawn, first) = probes::pipe_us(probe_budget);
        put("pipes.spawn_us", spawn);
        put("pipes.first_result_us", first);
        let (parse36, sqrt, heavy) = probes::bigint(&ladder_input, probe_budget);
        put("bigint.parse36_ns", parse36);
        put("bigint.sqrt_ns", sqrt);
        put("bigint.heavy_hash_us", heavy);
        let heavy_lines = input_lines(Kind::MapReduceHeavy, opt.seed);
        put(
            "exec.parallel_speedup",
            probes::parallel_speedup(&heavy_lines, probe_budget),
        );
    });
    put("host.cores", cores() as f64);
    put("host.exec_threads", threads as f64);

    for (metric, obs_name, per_word) in OBS_COUNTS {
        let count = ledger.count(obs_name);
        put(metric, if per_word { count / words } else { count });
    }
    let launches = ledger.count("mapreduce.launch.count");
    put(
        "mapreduce.launch_ms",
        if launches > 0.0 {
            ledger.count("mapreduce.launch.total_ns") / launches / 1e6
        } else {
            0.0
        },
    );
    put(
        "mapreduce.chunk_run_p50_ms",
        field(&ledger.end, "mapreduce.chunk_run", "p50_ns") / 1e6,
    );
    put(
        "pipes.producer_wall_ms",
        ledger.count("pipes.pipe.producer_wall.total_ns") / 1e6,
    );
    put(
        "blockingq.batch_fill_p50",
        field(&ledger.end, "blockingq.queue.batch_fill", "p50"),
    );
    put(
        "blockingq.depth_highwater",
        field(&ledger.end, "blockingq.queue.depth_highwater", "value"),
    );
    put(
        "trace.overhead_pct",
        opt.untraced_embedded_wps.map_or(0.0, |untraced| {
            (untraced - traced_embedded_wps) / untraced * 100.0
        }),
    );

    // Tags: counts that did not repeat, paths that were not steady, and
    // numbers this host or invocation cannot give.
    let mut tag = |name: &'static str, t: &'static str| {
        values.get_mut(name).expect("tagging a reported metric").1 = Some(t);
    };
    for (metric, obs_name, _) in OBS_COUNTS {
        if !ledger.repeats_exactly(obs_name) {
            tag(metric, "nondeterministic");
        }
    }
    for (path, b) in Path::ALL.into_iter().zip(blocks) {
        if b.spread() > NOISY_SPREAD {
            tag(metrics::block_spread(path), "noisy");
        }
    }
    if cores() == 1 {
        tag("exec.parallel_speedup", "unmeasurable");
    }
    if opt.untraced_embedded_wps.is_none() {
        tag("trace.overhead_pct", "unmeasurable");
    }

    let metrics = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            let (value, tag) = values
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            Metric::new(name, *value).tag(*tag)
        })
        .collect();

    let mut notes = vec![
        ("input_words".to_string(), words, "count"),
        (
            "traced_embedded_words_per_s".to_string(),
            traced_embedded_wps,
            "1/s",
        ),
    ];
    for (slot, path) in Path::ALL.into_iter().enumerate() {
        for (metric, obs_name, per_word) in OBS_COUNTS {
            let count = ledger.on_path(slot, obs_name);
            if count != 0.0 {
                let value = if per_word { count / words } else { count };
                notes.push((format!("{metric}.{}", path.name()), value, "count"));
            }
        }
    }

    if let Err(e) = write_trace(opt, &tr, &ledger) {
        eprintln!("benchmark: could not write the trace file: {e}");
    }

    Report {
        kind: opt.kind,
        seed: opt.seed,
        seconds: opt.seconds,
        traced: true,
        tally,
        metrics,
        notes,
    }
}

fn write_trace(opt: &Options, tr: &Tracer, ledger: &ObsLedger) -> std::io::Result<()> {
    std::fs::create_dir_all(&opt.out_dir)?;
    let doc = Json::obj(vec![
        ("workload", Json::str(opt.kind.name())),
        ("seed", Json::Num(opt.seed as f64)),
        ("trace", tr.to_json(KEPT_ITERATIONS)),
        ("obs_by_path", ledger.to_json()),
    ]);
    let path = opt.out_dir.join(format!("trace-{}.json", opt.kind.name()));
    std::fs::write(path, doc.render() + "\n")
}
