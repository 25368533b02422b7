//! The repo benchmark (see `benchmark/README.md`).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process, checks every answer, prints every metric
//! by name with its unit and ends with one JSON line. Without
//! `--workload` it runs all six, each in a fresh child process, so
//! peak memory, thread census and set-up time are per workload.

mod closed;
mod layers;
mod open;
mod queries;
mod replay;
mod rig;
mod spans;
mod stats;
mod trace;
mod traced;

use closed::{ClosedRun, Measured, Slice, Tally, PATCH_RATE_PER_S};
use layers::{metric, Counters, Metric};
use rig::{Driver, Rig, Spec};
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Class;

/// Independent trials per untraced run: each builds a fresh deployment
/// and measures for `--seconds / TRIALS`. How fast loopback wake-ups
/// are settles per deployment (which threads share a core), so one
/// deployment reads one mode; five read the typical one. `setup_s` is
/// the median of the five set-ups.
const TRIALS: usize = 5;
/// The quiet quantile. The reference box is a few cores of a shared
/// host: neighbours slow a CPU-bound loop by a third for seconds at a
/// time, which only ever adds time. So every wall-clock and CPU metric
/// is computed per slice ([`closed::SLICE_S`]) and the run reports the
/// value this share of its slices (over all trials) did at least as
/// well as: the quiet quarter of the run, not its average. Not less
/// than a quarter: a young process is briefly faster (on quiclite a
/// tile skips its 50 ms retransmit wait in up to a fifth of a run's
/// slices, nearly all in the first trial), and the figure must not
/// flip to that mode. Tails (`tail.*`) are taken over every call.
const QUIET: f64 = 0.25;
/// The classes whose latency is an end-to-end metric of its own. The
/// other two (`localize`, `rgeocode`: the shortest calls, a thread
/// hand-off or two each, down to 60 µs on quiclite) follow the host's
/// wake-up latency too closely to hold a bound; they weigh on
/// `calls_per_s` and `cpu_us_per_call` like every class, and their
/// medians are reported with the per-layer metrics.
const GATED_CLASSES: [Class; 4] = [Class::Search, Class::Route, Class::Tile, Class::Geocode];
const UNGATED_CLASSES: [Class; 2] = [Class::Localize, Class::ReverseGeocode];
/// Share of a traced run's `--seconds` that runs with spans off, to
/// measure the tracing overhead inside one process.
const UNTRACED_SHARE: f64 = 0.3;
/// Share of an untraced `open_tcp` run's `--seconds` spent on the rate
/// ladder, after the trials at the reference rate.
const LADDER_SHARE: f64 = 0.2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 1`, `--trace 0`, or bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]]\nworkloads: {}",
                rig::specs().iter().map(|s| s.name).collect::<Vec<_>>().join(" ")
            );
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => match rig::spec(name) {
            Some(spec) => run_workload(&spec, &args),
            None => {
                eprintln!("benchmark: no workload {name}");
                return ExitCode::from(2);
            }
        },
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in turn, each in a fresh child process.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for spec in rig::specs() {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn workload process");
        if !status.success() {
            eprintln!("benchmark: workload {} failed ({status})", spec.name);
            ok = false;
        }
    }
    ok
}

/// What one run of one workload produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Checks beyond per-op answers (accounting, determinism, limits).
    violations: Vec<String>,
    /// What the end-to-end metrics are read from.
    measured: Measured,
    /// Printed, not gated: per-workload extras, the ladder.
    extras: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn run_workload(spec: &Spec, args: &Args) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  nproc {cores}  {}\n  ({})",
        spec.name,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        if spec.gated {
            "gated by BENCHMARK.json"
        } else {
            "not gated"
        },
        spec.why
    );
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    // The traced pass is one trial: its spans describe one deployment.
    let trials = if args.trace { 1 } else { TRIALS };
    let ladder_s = match (spec.driver, args.trace) {
        (Driver::Open, false) => args.seconds * LADDER_SHARE,
        _ => 0.0,
    };
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut trial_extras = Vec::new();
    let (mut rss_mb, mut threads) = (0.0, 0.0);
    for trial in 0..trials {
        let t0 = Instant::now();
        let rig = rig::build(spec, args.seed, tracer.as_ref());
        setups.push(t0.elapsed().as_secs_f64());
        // Each trial draws its own queries.
        let seed = args
            .seed
            .wrapping_mul(TRIALS as u64)
            .wrapping_add(trial as u64);
        let seconds = (args.seconds - ladder_s) / trials as f64;
        let mut one = match spec.driver {
            Driver::Open => run_open(&rig, seed, seconds, tracer.as_deref()),
            _ => run_closed(&rig, seed, seconds, tracer.as_deref(), trial == 0),
        };
        trial_extras.push(std::mem::take(&mut one.extras));
        if trial == 0 {
            // Later trials sit on what the allocator kept of earlier
            // deployments; the first one's memory is its own.
            let mut rss = stats::Samples::default();
            one.measured.slices.iter().for_each(|s| rss.push(s.rss_mb));
            rss_mb = rss.median();
        }
        threads = stats::process_threads();
        outcome.absorb(one);
        if ladder_s > 0.0 && trial + 1 == trials {
            let per_rung = ladder_s / open::LADDER.len() as f64;
            // The rungs are judged on their own: the outcome carries
            // their counts and checks, not their calls.
            let (mut ladder, max_rate_ok) = open_ladder(&rig, args.seed, per_rung, None);
            ladder.extras.push(max_rate_ok);
            outcome.absorb(ladder);
        }
    }
    let sim = spec.backend == openflame_netsim::BackendKind::Sim;
    let open = spec.driver == Driver::Open;
    println!(
        "set-ups: {} s",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut end_to_end = vec![metric("setup_s", stats::median_of(&setups), "s")];
    end_to_end.extend(end_to_end_metrics(&mut outcome.measured, open));
    end_to_end.push(metric("rss_mb", rss_mb, "MB"));
    let mut extras = tails(&mut outcome.measured, sim);
    extras.extend(median_metrics(&trial_extras));
    extras.append(&mut outcome.extras);
    if !args.trace {
        // The traced pass reports it per layer: its spans sit in memory.
        extras.push(metric("peak_rss_mb", stats::peak_rss_mb(), "MB"));
    }
    extras.push(metric("process_threads", threads, "count"));

    let gated = if args.trace {
        &outcome.per_layer
    } else {
        &end_to_end
    };
    for m in gated.iter().filter(|m| !m.value.is_finite()) {
        outcome
            .violations
            .push(format!("{} is not a finite number", m.name));
    }
    if !args.trace {
        for m in gated.iter().filter(|m| m.value <= 0.0) {
            outcome
                .violations
                .push(format!("{} is not positive", m.name));
        }
    }
    if outcome.failed > 0 {
        outcome.violations.push(format!(
            "{} of {} ops failed",
            outcome.failed, outcome.attempted
        ));
    }
    print_table("end-to-end", &end_to_end);
    print_table("also measured", &extras);
    if args.trace {
        print_table("per-layer", &outcome.per_layer);
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for violation in &outcome.violations {
        println!("CHECK FAILED: {violation}");
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        gated
            .iter()
            .map(|m| format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    correct
}

impl Outcome {
    /// Adds another trial (or stretch) of the same run: counts add up,
    /// measurements are pooled.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.measured.append(other.measured);
        self.extras.extend(other.extras);
        self.per_layer.extend(other.per_layer);
    }
}

/// The median over trials of every metric the trials each report.
fn median_metrics(trials: &[Vec<Metric>]) -> Vec<Metric> {
    trials[0]
        .iter()
        .enumerate()
        .map(|(i, first)| Metric {
            value: stats::median_of(&trials.iter().map(|t| t[i].value).collect::<Vec<_>>()),
            ..first.clone()
        })
        .collect()
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("  {:<36} {:>14.3} {}{samples}", m.name, m.value, m.unit);
    }
}

/// The value [`QUIET`] of the slices did at least as well as (`0.0`
/// without slices).
fn quiet(per_slice: impl Iterator<Item = f64>, higher_is_better: bool) -> f64 {
    let mut values = stats::Samples::default();
    per_slice
        .filter(|v| v.is_finite())
        .for_each(|v| values.push(v));
    values.quantile(if higher_is_better { 1.0 - QUIET } else { QUIET })
}

/// The end-to-end metrics every workload reports beside `setup_s`.
/// Rates are per correct provider call (reads on `update_mix_tcp`, raw
/// ops on `open_tcp`). Timings come from the quiet slices; counts come
/// from the whole run. An open loop's rate is its schedule's, so
/// `open` takes `calls_per_s` from the whole run too.
fn end_to_end_metrics(measured: &mut Measured, open: bool) -> Vec<Metric> {
    let Measured {
        tally,
        window,
        slices,
    } = measured;
    let calls = tally.correct_calls().max(1) as f64;
    let busy = |slice: &&Slice| slice.calls() > 0;
    let calls_per_s = if open {
        calls / window.wall_s
    } else {
        quiet(
            slices
                .iter()
                .filter(busy)
                .map(|s| s.calls() as f64 / s.wall_s),
            true,
        )
    };
    let cpu_us_per_call = quiet(
        slices
            .iter()
            .filter(busy)
            .map(|s| s.cpu_us / s.calls() as f64),
        false,
    );
    let mut out = vec![
        metric("calls_per_s", calls_per_s, "1/s").with_samples(tally.correct_calls() as usize),
        metric("cpu_us_per_call", cpu_us_per_call, "us"),
    ];
    out.extend(GATED_CLASSES.map(|class| class_p50(slices, class)));
    out.push(metric("msgs_per_call", window.msgs as f64 / calls, "count"));
    out.push(metric("bytes_per_call", window.bytes as f64 / calls, "B"));
    out
}

/// `<class>_p50_us`: the median latency of one call of `class` within
/// a slice, in the quiet slices.
fn class_p50(slices: &mut [Slice], class: Class) -> Metric {
    let i = class.index();
    let medians: Vec<f64> = slices
        .iter_mut()
        .filter(|s| s.latency[i].count() > 0)
        .map(|s| s.latency[i].median())
        .collect();
    let samples = slices.iter().map(|s| s.latency[i].count()).sum();
    metric(
        &format!("{}_p50_us", class.name()),
        quiet(medians.into_iter(), false),
        "us",
    )
    .with_samples(samples)
}

/// The ungated class medians, then tails and single-workload figures
/// over every call of the run: printed on every run, reported to the
/// driver with the per-layer metrics (they have no bound).
fn tails(measured: &mut Measured, sim: bool) -> Vec<Metric> {
    let Measured {
        tally,
        window,
        slices,
    } = measured;
    let calls = tally.correct_calls().max(1) as f64;
    let mut out = UNGATED_CLASSES
        .map(|class| class_p50(slices, class))
        .to_vec();
    for class in [Class::Search, Class::Route, Class::Localize, Class::Tile] {
        let mut samples = tally.latency(class);
        let name = format!("tail.{}_p99_us", class.name());
        out.push(metric(&name, samples.quantile(0.99), "us").with_samples(samples.count()));
    }
    let mut patch = tally.patch.clone();
    out.push(metric("tail.patch_p99_us", patch.quantile(0.99), "us").with_samples(patch.count()));
    out.push(metric("patch_p50_us", patch.median(), "us").with_samples(patch.count()));
    out.push(metric(
        "sim_us_per_call",
        if sim {
            window.clock_us as f64 / calls
        } else {
            0.0
        },
        "us",
    ));
    out
}

fn accounting(tally: &Tally, violations: &mut Vec<String>) {
    if !tally.accounts() {
        violations.push(format!(
            "accounting: {} calls + {} patches + {} verified + {} failed != {} attempted",
            tally.correct_calls(),
            tally.patch.count(),
            tally.verified,
            tally.failed,
            tally.attempted
        ));
    }
}

/// `check_repeat`: also replay the start of a `cold_sim` run on a
/// second deployment (once per run is enough).
fn run_closed(
    rig: &Rig,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    check_repeat: bool,
) -> Outcome {
    let mut run = ClosedRun::new(rig, seed, seconds);
    let sim = rig.spec.backend == openflame_netsim::BackendKind::Sim;
    let mut violations = Vec::new();
    let Some(tracer) = tracer else {
        let measured = if rig.spec.driver == Driver::Cold && check_repeat {
            cold_segments(rig, &mut run, seed, seconds, &mut violations)
        } else {
            run.segment(rig, seconds, None)
        };
        accounting(&measured.tally, &mut violations);
        return Outcome {
            attempted: measured.tally.attempted,
            failed: measured.tally.failed,
            violations,
            measured,
            ..Outcome::default()
        };
    };
    // Traced pass: one segment with spans off, one with spans on.
    let plain = run.segment(rig, seconds * UNTRACED_SHARE, None);
    let before = Counters::take(rig);
    tracer.set_enabled(true);
    let mut measured = run.segment(rig, seconds * (1.0 - UNTRACED_SHARE), Some(tracer));
    tracer.set_enabled(false);
    let after = Counters::take(rig);
    accounting(&plain.tally, &mut violations);
    accounting(&measured.tally, &mut violations);
    let spans = tracer.drain();
    write_spans(rig.spec.name, &spans, &mut violations);
    let replay = replay::run(rig, run.trace(), seed);

    let calls = measured.tally.correct_calls().max(1) as f64;
    let plain_calls = plain.tally.correct_calls().max(1) as f64;
    let mut per_layer = layers::span_metrics(&spans, measured.window.wall_s);
    per_layer.extend(layers::counter_metrics(
        rig,
        &before,
        &after,
        measured.tally.correct_calls(),
    ));
    per_layer.extend(replay_metrics(
        &replay,
        plain.window.cpu_us / plain_calls,
        plain.window.msgs as f64 / plain_calls,
        if rig.spec.driver == Driver::UpdateMix {
            PATCH_RATE_PER_S
        } else {
            0.0
        },
    ));
    per_layer.extend(tails(&mut measured, sim));
    per_layer.push(metric("max_rate_ok", 0.0, "1/s"));
    per_layer.push(metric("bench.generator_lag_p99_us", 0.0, "us"));
    per_layer.push(metric(
        "bench.trace_overhead",
        (calls / measured.window.wall_s) / (plain_calls / plain.window.wall_s),
        "ratio",
    ));
    per_layer.push(metric("peak_rss_mb", stats::peak_rss_mb(), "MB"));
    Outcome {
        attempted: plain.tally.attempted + measured.tally.attempted,
        failed: plain.tally.failed + measured.tally.failed,
        violations,
        measured,
        per_layer,
        ..Outcome::default()
    }
}

/// `cold_sim` must repeat: the run's first calls are replayed on a
/// second deployment of the same seed, and the two prefixes must agree
/// on calls and messages exactly, on bytes to 0.01 % and on simulated
/// time to 1 %.
fn cold_segments(
    rig: &Rig,
    run: &mut ClosedRun,
    seed: u64,
    seconds: f64,
    violations: &mut Vec<String>,
) -> Measured {
    let prefix_s = seconds * 0.25;
    let mut measured = run.segment(rig, prefix_s, None);
    let (first_calls, first) = (measured.tally.correct_calls(), measured.window);
    measured.append(run.segment(rig, seconds - prefix_s, None));

    let again_rig = rig::build(&rig.spec, seed, None);
    let again = ClosedRun::new(&again_rig, seed, seconds).segment(&again_rig, prefix_s, None);
    let exact = |what: &str, a: u64, b: u64, violations: &mut Vec<String>| {
        if a != b || a == 0 {
            violations.push(format!("cold_sim {what} do not repeat: {a} then {b}"));
        }
    };
    exact(
        "calls",
        first_calls,
        again.tally.correct_calls(),
        violations,
    );
    exact("messages", first.msgs, again.window.msgs, violations);
    // Bytes and simulated time repeat only approximately at this
    // commit: hash-map order picks among equal-cost route alternatives
    // (answers differ by a few nodes) and orders some scatter submits
    // (branches draw each other's jitter), see README.
    let close = |what: &str, a: u64, b: u64, tolerance: f64, violations: &mut Vec<String>| {
        if a.abs_diff(b) as f64 > a as f64 * tolerance || a == 0 {
            violations.push(format!("cold_sim {what} do not repeat: {a} then {b}"));
        }
    };
    close("bytes", first.bytes, again.window.bytes, 1e-4, violations);
    close(
        "simulated us",
        first.clock_us,
        again.window.clock_us,
        1e-2,
        violations,
    );
    measured
}

fn write_spans(workload: &str, spans: &[spans::Span], violations: &mut Vec<String>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.jsonl"));
    match spans::write_jsonl(&path, spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => violations.push(format!("writing {}: {e}", path.display())),
    }
}

/// `[R]` figures, plus the two derived from them: what a message costs
/// the sockets, and how much of the time the write lock is held.
fn replay_metrics(
    replay: &replay::Replay,
    cpu_us_per_call: f64,
    msgs_per_call: f64,
    patch_rate_per_s: f64,
) -> Vec<Metric> {
    let mut out = vec![
        metric("core.plan.plan_us", replay.plan_us, "us"),
        metric("core.plan.targets_per_call", replay.plan_targets, "count"),
        metric("core.plan.pruned_per_call", replay.plan_pruned, "count"),
        metric("cells.cover_us", replay.cover_us, "us"),
        metric("dns.resolve_us", replay.resolve_us, "us"),
        metric(
            "netsim.cpu_us_per_msg",
            (cpu_us_per_call - replay.sim_call_us) / msgs_per_call.max(1.0),
            "us",
        ),
        metric("codec.encode_us", replay.encode_us, "us"),
        metric("codec.decode_us", replay.decode_us, "us"),
        metric("codec.frame_us", replay.frame_us, "us"),
        metric("codec.bytes_per_envelope", replay.bytes_per_envelope, "B"),
    ];
    let engines = [
        "search.query_us",
        "routing.route_us",
        "localize.fix_us",
        "tiles.render_us",
        "geocode.forward_us",
        "geocode.reverse_us",
    ];
    for (name, us) in engines.iter().zip(replay.engine_us) {
        out.push(metric(name, us, "us"));
    }
    out.push(metric("mapserver.rebuild_us", replay.rebuild_us, "us"));
    out.push(metric(
        "mapdata.patch_apply_us",
        replay.patch_apply_us,
        "us",
    ));
    out.push(metric(
        "mapserver.write_lock_share",
        patch_rate_per_s * replay.rebuild_us / 1_000_000.0,
        "ratio",
    ));
    out
}

/// What one rung adds to the printed ladder; returns whether it passed.
fn rung_metrics(step: &mut open::StepResult, extras: &mut Vec<Metric>) -> bool {
    let tag = format!("ladder.{}", step.step.rate);
    if !step.valid() {
        println!(
            "rung {} not reported: generator finished {:.1} % late",
            step.step.rate,
            step.slip * 100.0
        );
    }
    let pass = step.pass();
    let p99 = step.pooled.quantile(0.99);
    extras.push(metric(&format!("{tag}.p99_us"), p99, "us").with_samples(step.pooled.count()));
    extras.push(metric(
        &format!("{tag}.limit_margin"),
        open::LATENCY_LIMIT_US / p99.max(1.0),
        "ratio",
    ));
    extras.push(metric(
        &format!("{tag}.achieved_per_s"),
        step.achieved_per_s,
        "1/s",
    ));
    extras.push(metric(
        &format!("{tag}.pass"),
        f64::from(u8::from(pass)),
        "bool",
    ));
    pass
}

/// The rate ladder on `rig`, `seconds` per rung: every rung's margin to
/// the limit (as extras), and `max_rate_ok`, the highest rate that passed.
fn open_ladder(rig: &Rig, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> (Outcome, Metric) {
    let mut outcome = Outcome::default();
    let mut max_rate_ok: f64 = 0.0;
    for (index, rate) in open::LADDER.into_iter().enumerate() {
        let step = open::Step {
            rate,
            seconds,
            traced: tracer.is_some(),
        };
        // Indices past the trials' so the ladder draws its own ops.
        let (mut result, _) = open::run_step(rig, step, 100 + index as u64, seed, tracer);
        outcome.attempted += result.measured.tally.attempted;
        outcome.failed += result.measured.tally.failed;
        accounting(&result.measured.tally, &mut outcome.violations);
        if rung_metrics(&mut result, &mut outcome.extras) {
            max_rate_ok = max_rate_ok.max(rate);
        }
    }
    (outcome, metric("max_rate_ok", max_rate_ok, "1/s"))
}

/// One open-loop trial. Untraced: the reference rate for the whole of
/// `seconds`. Traced: the reference rate with spans off, then on
/// (their CPU cost gives the tracing overhead), then the ladder.
fn run_open(rig: &Rig, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Outcome {
    let before = Counters::take(rig);
    let reference_s = match tracer {
        Some(_) => seconds * UNTRACED_SHARE,
        None => seconds,
    };
    let step = |seconds, traced| open::Step {
        rate: open::REFERENCE_RATE,
        seconds,
        traced,
    };
    let (reference, reference_ops) = open::run_step(rig, step(reference_s, false), 0, seed, tracer);
    let mut violations = Vec::new();
    accounting(&reference.measured.tally, &mut violations);
    if !reference.valid() {
        violations.push(format!(
            "the generator ran {:.1} % late at the reference rate",
            reference.slip * 100.0
        ));
    }
    let open::StepResult {
        measured, mut lag, ..
    } = reference;
    let plain_calls = measured.tally.correct_calls().max(1) as f64;
    let plain_cpu = measured.window.cpu_us / plain_calls;
    let plain_msgs = measured.window.msgs as f64 / plain_calls;
    let mut outcome = Outcome {
        attempted: measured.tally.attempted,
        failed: measured.tally.failed,
        violations,
        measured,
        extras: vec![metric(
            "bench.generator_lag_p99_us",
            lag.quantile(0.99),
            "us",
        )],
        ..Outcome::default()
    };
    let Some(tracer) = tracer else {
        return outcome;
    };

    let traced_s = seconds * (1.0 - UNTRACED_SHARE);
    let (mut traced, _) = open::run_step(rig, step(traced_s * 0.55, true), 1, seed, Some(tracer));
    let (ladder, max_rate_ok) = open_ladder(rig, seed, traced_s * 0.15, Some(tracer));
    let after = Counters::take(rig);
    accounting(&traced.measured.tally, &mut outcome.violations);
    outcome.attempted += traced.measured.tally.attempted + ladder.attempted;
    outcome.failed += traced.measured.tally.failed + ladder.failed;
    outcome.violations.extend(ladder.violations);
    let spans = tracer.drain();
    write_spans(rig.spec.name, &spans, &mut outcome.violations);
    let replay = replay::run(rig, &reference_ops, seed);

    let traced_calls = traced.measured.tally.correct_calls().max(1) as f64;
    outcome.per_layer = layers::span_metrics(&spans, traced_s);
    outcome.per_layer.extend(layers::counter_metrics(
        rig,
        &before,
        &after,
        outcome.attempted,
    ));
    outcome
        .per_layer
        .extend(replay_metrics(&replay, plain_cpu, plain_msgs, 0.0));
    outcome.per_layer.extend(tails(&mut traced.measured, false));
    outcome.per_layer.push(max_rate_ok);
    outcome.per_layer.push(metric(
        "bench.generator_lag_p99_us",
        traced.lag.quantile(0.99),
        "us",
    ));
    // The schedule fixes an open loop's rate, so the overhead shows in
    // what a call costs, not in how many complete.
    outcome.per_layer.push(metric(
        "bench.trace_overhead",
        plain_cpu / (traced.measured.window.cpu_us / traced_calls),
        "ratio",
    ));
    outcome
        .per_layer
        .push(metric("peak_rss_mb", stats::peak_rss_mb(), "MB"));
    outcome.extras.extend(ladder.extras);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one list of `BENCHMARK.json`,
    /// `(name, why)` for the workloads (a flat scan: the file is written
    /// one key per line).
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("no {section} list"));
        let body = &text[start..];
        let body = &body[..body.find("\n  ]").expect("list closes")];
        let values = |key: &str| -> Vec<String> {
            body.split(&format!("\"{key}\": \""))
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let names = values("name");
        let units = values(if section == "workloads" {
            "why"
        } else {
            "unit"
        });
        assert_eq!(names.len(), units.len());
        names.into_iter().zip(units).collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let gated: Vec<(String, String)> = rig::specs()
            .iter()
            .filter(|s| s.gated)
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(listed("workloads"), gated);
    }

    /// A short real run of the smallest deterministic workload emits
    /// exactly the metrics `BENCHMARK.json` promises, in both modes.
    #[test]
    fn a_run_emits_exactly_the_listed_metrics() {
        let spec = rig::spec("cold_sim").expect("cold_sim exists");
        let rig = rig::build(&spec, 3, None);
        let mut plain = run_closed(&rig, 3, 0.2, None, true);
        assert_eq!(
            (plain.failed, plain.violations.len()),
            (0, 0),
            "{:?}",
            plain.violations
        );
        let metrics = end_to_end_metrics(&mut plain.measured, false);
        assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");
        let mut names = vec![("setup_s".to_string(), "s".to_string())];
        names.extend(emitted(&metrics));
        names.push(("rss_mb".to_string(), "MB".to_string()));
        assert_eq!(names, listed("end_to_end"));

        let tracer = Arc::new(Tracer::new());
        let rig = rig::build(&spec, 3, Some(&tracer));
        let traced = run_closed(&rig, 3, 0.2, Some(&tracer), false);
        assert_eq!(traced.failed, 0);
        assert_eq!(emitted(&traced.per_layer), listed("per_layer"));
        let value = |name: &str| {
            traced
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("no {name}"))
                .value
        };
        assert!(
            value("dns.upstream_per_call") > 0.0,
            "cold calls walk the DNS"
        );
        assert_eq!(value("core.session.discovery_hit_ratio"), 0.0);
        assert!(value("sim_us_per_call") > 0.0);
        assert!((value("bench.span_closure") - 1.0).abs() < 0.2);
    }

    /// A run reports what its quiet slices did, whichever way is better.
    #[test]
    fn quiet_reads_the_good_end_of_the_slices() {
        let slices = || (1..=9).map(f64::from);
        assert_eq!(quiet(slices(), false), 3.0);
        assert_eq!(quiet(slices(), true), 7.0);
        assert_eq!(quiet([f64::NAN, 4.0].into_iter(), false), 4.0);
        assert_eq!(quiet(std::iter::empty(), false), 0.0);
    }

    /// The open loop shares the per-layer schema.
    #[test]
    fn the_open_loop_emits_the_same_per_layer_metrics() {
        let spec = rig::spec("open_tcp").expect("open_tcp exists");
        let tracer = Arc::new(Tracer::new());
        let rig = rig::build(&spec, 3, Some(&tracer));
        let traced = run_open(&rig, 3, 0.5, Some(&tracer));
        assert_eq!(traced.failed, 0);
        assert_eq!(emitted(&traced.per_layer), listed("per_layer"));
    }
}
