//! End-to-end ROCK benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <basket_sampled|basket_online> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of rounds. Each round sets the workload up once
//! (input generation, the servable model's fit, artifact save→load,
//! service open), fits it once at 1 and once at 2 threads, and makes
//! one whole online pass. Interleaving spreads
//! every metric's samples over the whole run, so a burst of load from
//! other tenants of the host lands on a few samples of each metric
//! rather than on all samples of one. Rounds continue for `--seconds`,
//! and until there are at least three of them and enough latency
//! samples for the reported percentiles. One fit and one online pass
//! are then replayed through the other path for the correctness gate.
//!
//! With `--trace 0` everything runs untraced and the end-to-end metrics
//! are reported; with `--trace 1` fits run as the stage-by-stage
//! composition and the online loop as the service's decomposed calls,
//! with spans, and the per-layer metrics are reported. The last line of
//! standard output is one JSON object; the exit code is non-zero when
//! any output differs between paths, passes or thread counts. Spans are
//! written to `perfbench/out/` when the run ends.

mod fit;
mod gate;
mod host;
mod online;
mod stats;
mod trace;
mod workload;

use gate::FitImage;
use rock_core::{ModelArtifact, RockError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

/// Rounds per run at least; `setup_s` and the fit times are medians
/// over rounds.
const MIN_ROUNDS: u64 = 3;
/// Thread counts each round fits at.
const FIT_THREADS: [usize; 2] = [1, 2];
/// Percentiles reported for assign and absorb latency (basis points).
/// Rounds continue until each has at least ten samples beyond it.
const ASSIGN_TAIL: u32 = 9900;
const ABSORB_TAIL: u32 = 9500;
/// No round starts this long after the run started, whatever the
/// sample counts, so the run ends in bounded time.
const HARD_STOP: Duration = Duration::from_secs(120);
/// Operation ids: fit `i` of a run is `i`, set-up `r` is `SETUP_OP + r`
/// and batch `b` of online pass `p` is `PASS_OP * (p + 1) + b`.
const PASS_OP: u64 = 1 << 20;
const SETUP_OP: u64 = 1 << 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Operation accounting, gate results and metrics of one run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    mismatches: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn error(&mut self, detail: String) {
        self.failed += 1;
        self.errors.push(detail);
    }

    fn gate(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            self.mismatches.push(e);
        }
    }

    fn count_pass(&mut self, pass: &online::Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.errors.extend(pass.errors.iter().cloned());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !workload::NAMES.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    let nproc = host::nproc();
    if let Some(&t) = FIT_THREADS.iter().find(|&&t| t > nproc) {
        eprintln!("perfbench: refusing to time {t} threads on a host with nproc = {nproc}");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let host_line = format!(
        "nproc={nproc} rustc=\"{}\" git={}",
        host::rustc_version(),
        host::git_revision()
    );
    println!("# host {host_line}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut run = Run::default();
    let mut tracer = Tracer::default();
    measure(&args, &out_dir, &mut run, &mut tracer);

    for e in run.errors.iter().take(20) {
        println!("# error {e}");
    }
    for m in &run.mismatches {
        println!("# MISMATCH {m}");
    }
    println!(
        "# failed_frac {} ({} of {} operations)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    for (name, value, unit) in &run.metrics {
        println!("metric {name} {value} {unit}");
    }
    let json = result_json(&run);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"host\":\"{}\",\"result\":{json}}}\n",
        host_line.replace('"', "'")
    );
    if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.json")), record) {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    if args.trace {
        if let Err(e) = tracer.write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl"))) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    println!("{json}");
    if run.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
/// A value that is not finite (no samples, or a percentile reached by a
/// failed operation) is written as `null`.
fn result_json(run: &Run) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in run.metrics.iter().enumerate() {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.mismatches.is_empty(),
        run.attempted,
        run.failed
    )
}

/// One set-up: the workload's inputs and its loaded servable model,
/// with the set-up's wall time.
fn setup(
    args: &Args,
    run: &mut Run,
    tracer: &mut Tracer,
    round: u64,
    path: &Path,
) -> (Workload, Result<ModelArtifact, RockError>, f64) {
    let start = Instant::now();
    let w = workload::generate(&args.workload, args.seed).expect("name checked by main");
    let model = online::setup(tracer, SETUP_OP + round, &w.data, &w.params, path);
    let secs = start.elapsed().as_secs_f64();
    run.attempted += 1;
    if let Err(e) = &model {
        run.error(format!("set-up {round}: {e}"));
    }
    (w, model, secs)
}

/// The whole measurement: rounds, the gate, and the metrics.
fn measure(args: &Args, out_dir: &Path, run: &mut Run, tracer: &mut Tracer) {
    let start = Instant::now();
    // The set-up's artifact spans are recorded in both modes — a few
    // nanoseconds against a set-up of a second or more — so that one
    // code path does the set-up.
    let path = out_dir.join(format!(
        "{}-{}-{}.rockart",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let (w, model, secs) = setup(args, run, tracer, 0, &path);
    let mut setup_s = vec![secs];
    let mut fits = FitLoop::default();
    let mut passes: Vec<online::Pass> = Vec::new();

    let mut round = 0u64;
    loop {
        if round > 0 {
            setup_s.push(setup(args, run, tracer, round, &path).2);
        }
        fits.round(run, tracer, &w, round, args.trace);
        if let Ok(artifact) = &model {
            let op_base = PASS_OP * (round + 1);
            passes.push(online::pass(
                tracer,
                op_base,
                artifact,
                &w.arrivals,
                w.batch,
                args.trace,
            ));
        }
        round += 1;
        let (assigns, absorbs) = match &model {
            Ok(_) => passes.iter().fold((0, 0), |(a, b), p| {
                (a + p.assign_s.len(), b + p.absorb_s.len())
            }),
            Err(_) => (usize::MAX, usize::MAX),
        };
        let enough = start.elapsed().as_secs() >= args.seconds
            && round >= MIN_ROUNDS
            && assigns >= stats::min_samples(ASSIGN_TAIL)
            && absorbs >= stats::min_samples(ABSORB_TAIL);
        if enough || start.elapsed() >= HARD_STOP {
            break;
        }
    }
    println!("# rounds {round}");

    // The gate: one fit and one online pass through the other path.
    let fit_overhead = fits.gate(run, &w, args.trace, tracer);
    let online_overhead = match &model {
        Ok(artifact) => {
            for (i, p) in passes.iter().enumerate() {
                run.count_pass(p);
                if i > 0 {
                    let check = p
                        .image
                        .check_against(&passes[0].image, &format!("online pass {i}"));
                    run.gate(check);
                }
            }
            let replay = online::pass(
                &mut Tracer::default(),
                PASS_OP,
                artifact,
                &w.arrivals,
                w.batch,
                !args.trace,
            );
            run.count_pass(&replay);
            let check = replay
                .image
                .check_against(&passes[0].image, "online pass through the other path");
            run.gate(check);
            let loops: Vec<f64> = passes.iter().map(|p| p.loop_s).collect();
            (stats::median(&loops), replay.loop_s)
        }
        Err(e) => {
            // The model did not load: every online operation fails, and
            // the latency percentiles have no value.
            let failed = online::Pass::failed(&w.arrivals, w.batch, e.to_string());
            run.count_pass(&failed);
            passes = vec![failed];
            (f64::NAN, f64::NAN)
        }
    };

    if args.trace {
        let save = tracer.durations_secs("artifact.save", |op| op >= SETUP_OP);
        let load = tracer.durations_secs("artifact.load", |op| op >= SETUP_OP);
        run.metric("artifact.save_s", stats::median(&save), "s");
        run.metric("artifact.load_s", stats::median(&load), "s");
        fits.layer_metrics(run, tracer);
        online_layer_metrics(run, tracer, &passes);
        let roots: Vec<usize> = (0..tracer.spans().len())
            .filter(|&i| matches!(tracer.spans()[i].name, "fit" | "online.batch"))
            .collect();
        let selfs = tracer.self_times_ns();
        let own: u64 = roots.iter().map(|&i| selfs[i]).sum();
        let all: u64 = roots.iter().map(|&i| tracer.spans()[i].duration_ns()).sum();
        run.metric(
            "trace.unattributed_frac",
            own as f64 / all.max(1) as f64,
            "ratio",
        );
        let traced = fit_overhead.0 + online_overhead.0;
        let untraced = fit_overhead.1 + online_overhead.1;
        run.metric(
            "trace.overhead_frac",
            (traced - untraced) / untraced,
            "ratio",
        );
        run.metric(
            "failed_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
        );
    } else {
        run.metric("setup_s", stats::median(&setup_s), "s");
        fits.end_to_end_metrics(run, &w);
        online_end_to_end_metrics(run, &passes);
        run.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
}

/// Fit times, the reference result and the traced fit's layer counts,
/// accumulated over rounds.
#[derive(Default)]
struct FitLoop {
    times: [Vec<f64>; 2],
    reference: Option<FitImage>,
    /// Counts of the first traced 2-thread fit, with its neighbor-scan
    /// and labeling zero-overlap shares. The library counts similarity
    /// evaluations on its multi-threaded kernel paths only, so a
    /// 1-thread fit would report none.
    counts: Option<(fit::FitCounts, f64, f64)>,
}

impl FitLoop {
    /// One fit at each thread count, untraced through `Rock::try_run`
    /// or traced through the stage composition; every result must equal
    /// the first.
    fn round(
        &mut self,
        run: &mut Run,
        tracer: &mut Tracer,
        w: &Workload,
        round: u64,
        traced: bool,
    ) {
        for (slot, &threads) in FIT_THREADS.iter().enumerate() {
            let op = 2 * round + slot as u64;
            run.attempted += 1;
            let image = if traced {
                fit::traced(tracer, op, &w.data, &w.params, threads).map(|tf| {
                    if threads > 1 && self.counts.is_none() {
                        // The ratios are computed here, outside every span.
                        let neighbors = fit::neighbor_zero_share(&tf.sample);
                        let label = fit::label_zero_share(&w.data, &tf.labeler);
                        self.counts = Some((tf.counts, neighbors, label));
                    }
                    FitImage::of(&tf.result)
                })
            } else {
                let (secs, result) = fit::untraced(&w.data, &w.params, threads);
                self.times[slot].push(if result.is_ok() { secs } else { f64::INFINITY });
                result.map(|r| FitImage::of(&r))
            };
            match image {
                Ok(image) => match &self.reference {
                    Some(want) => run
                        .gate(image.check_against(want, &format!("fit {op} at {threads} threads"))),
                    None => self.reference = Some(image),
                },
                Err(e) => run.error(format!("fit {op} at {threads} threads: {e}")),
            }
        }
    }

    /// One 1-thread fit through the other path, checked against the
    /// reference. Returns the median traced and the untraced 1-thread
    /// fit time, for the tracing overhead (NaN when untraced).
    fn gate(&mut self, run: &mut Run, w: &Workload, traced: bool, tracer: &Tracer) -> (f64, f64) {
        run.attempted += 1;
        let (image, overhead) = if traced {
            let (secs, result) = fit::untraced(&w.data, &w.params, 1);
            let t1 = tracer.durations_secs("fit", |op| op < PASS_OP && op % 2 == 0);
            (result.map(|r| FitImage::of(&r)), (stats::median(&t1), secs))
        } else {
            let image = fit::traced(&mut Tracer::default(), 0, &w.data, &w.params, 1)
                .map(|tf| FitImage::of(&tf.result));
            (image, (f64::NAN, f64::NAN))
        };
        match (image, &self.reference) {
            (Ok(image), Some(want)) => {
                run.gate(image.check_against(want, "fit through the other path"))
            }
            (Ok(image), None) => self.reference = Some(image),
            (Err(e), _) => run.error(format!("gate fit: {e}")),
        }
        overhead
    }

    fn end_to_end_metrics(&self, run: &mut Run, w: &Workload) {
        println!(
            "# fit: {} fits at 1 thread, {} at 2 threads",
            self.times[0].len(),
            self.times[1].len()
        );
        run.metric("fit_t1_s", stats::median(&self.times[0]), "s");
        run.metric("fit_t2_s", stats::median(&self.times[1]), "s");
        let ari = self.reference.as_ref().map_or(f64::NAN, |r| {
            rock_eval::score_assignments(&r.labels, &w.truth).ari
        });
        run.metric("ari", ari, "ratio");
    }

    fn layer_metrics(&self, run: &mut Run, tracer: &Tracer) {
        for (layer, names) in [
            ("sample", ["sample.t1_s", ""]),
            ("neighbors", ["neighbors.t1_s", "neighbors.t2_s"]),
            ("links", ["links.t1_s", "links.t2_s"]),
            ("merge", ["merge.t1_s", "merge.t2_s"]),
            ("label", ["label.t1_s", "label.t2_s"]),
        ] {
            for (slot, name) in names.into_iter().enumerate() {
                if !name.is_empty() {
                    let secs = tracer.self_secs(layer, |op| op < PASS_OP && op % 2 == slot as u64);
                    run.metric(name, stats::median(&secs), "s");
                }
            }
        }
        let (c, neighbors_zero, label_zero) =
            self.counts
                .unwrap_or((fit::FitCounts::default(), f64::NAN, f64::NAN));
        run.metric("neighbors.pairs", c.neighbor_pairs as f64, "count");
        run.metric("neighbors.edges", c.neighbor_edges as f64, "count");
        run.metric("neighbors.zero_overlap_frac", neighbors_zero, "ratio");
        run.metric("links.pairs", c.link_pairs as f64, "count");
        run.metric("links.bytes", c.link_bytes as f64, "bytes");
        run.metric("links.dense", c.links_dense as f64, "bool");
        run.metric("merge.merges", c.merges as f64, "count");
        run.metric("merge.clusters", c.clusters as f64, "count");
        run.metric("label.rep_pairs", c.rep_pairs as f64, "count");
        run.metric("label.zero_overlap_frac", label_zero, "ratio");
        run.metric("label.outliers", c.label_outliers as f64, "count");
    }
}

/// Per-layer online metrics: per-call self-time medians over every
/// traced batch, and the work counts of the first complete pass (every
/// pass does the same work, so the counts repeat exactly).
fn online_layer_metrics(run: &mut Run, tracer: &Tracer, passes: &[online::Pass]) {
    let pass_ops = |op: u64| (PASS_OP..SETUP_OP).contains(&op);
    let med = |name: &str| stats::median(&tracer.self_secs(name, pass_ops));
    let c = passes.first().map(|p| p.counts).unwrap_or_default();
    run.metric("serve.assign_s", med("serve.assign"), "s");
    run.metric("serve.assign_calls", c.assign_calls as f64, "count");
    run.metric("serve.quarantined", c.quarantined as f64, "count");
    run.metric("incremental.update_s", med("incremental.update"), "s");
    run.metric("incremental.absorbed", c.absorbed as f64, "count");
    run.metric("incremental.dirty_links", c.dirty_links as f64, "count");
    run.metric(
        "incremental.remerge_passes",
        c.remerge_passes as f64,
        "count",
    );
    run.metric("incremental.merges", c.merges as f64, "count");
    let merges_per_pass = if c.remerge_passes == 0 {
        0.0
    } else {
        c.merges as f64 / c.remerge_passes as f64
    };
    run.metric("incremental.remerge_yield", merges_per_pass, "ratio");
    run.metric("snapshot.to_artifact_s", med("snapshot.to_artifact"), "s");
    run.metric("snapshot.service_new_s", med("snapshot.service_new"), "s");
}

/// End-to-end online metrics over every batch of every pass. The
/// medians pool all samples; each tail is the median of the tails of
/// consecutive blocks of samples ([`stats::block_percentile`]), so that
/// a burst of load from other tenants of the host in one stretch of
/// the run moves it little.
fn online_end_to_end_metrics(run: &mut Run, passes: &[online::Pass]) {
    let in_order = |f: fn(&online::Pass) -> &Vec<f64>| {
        passes
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect::<Vec<_>>()
    };
    let assign = in_order(|p| &p.assign_s);
    let absorb = in_order(|p| &p.absorb_s);
    let grid = [5000, 9000, 9500, 9900, 9990];
    let highest = |n: usize| stats::highest_admissible(n, &grid).map(|bp| f64::from(bp) / 100.0);
    println!(
        "# online: {} assigns (highest admissible percentile p{:?}), {} absorbs (p{:?}); \
         tails over blocks of {} and {}",
        assign.len(),
        highest(assign.len()),
        absorb.len(),
        highest(absorb.len()),
        stats::min_samples(ASSIGN_TAIL),
        stats::min_samples(ABSORB_TAIL),
    );
    let p50 = |samples: &[f64]| stats::percentile(&stats::sorted(samples), 5000);
    run.metric("assign_p50_us", p50(&assign) * 1e6, "us");
    run.metric(
        "assign_p99_us",
        stats::block_percentile(&assign, ASSIGN_TAIL) * 1e6,
        "us",
    );
    run.metric("absorb_p50_ms", p50(&absorb) * 1e3, "ms");
    run.metric(
        "absorb_p95_ms",
        stats::block_percentile(&absorb, ABSORB_TAIL) * 1e3,
        "ms",
    );
    run.metric("online_points_per_s", online::points_per_s(passes), "1/s");
}
