//! The fgcite benchmark.
//!
//! ```text
//! fgcite-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! fgcite-benchmark run --all [--seed N] [--seconds S | --smoke] [--out DIR]
//! fgcite-benchmark compare DIR_A DIR_B
//! fgcite-benchmark fingerprints
//! ```
//!
//! One workload per process: the real serving stack is started
//! in-process, driven over loopback HTTP by the benchmark's own
//! closed-loop clients, and every response is checked against a
//! reference. `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer ones; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `benchmark/README.md` for what each metric means.

mod client;
mod contract;
mod layers;
mod load;
mod report;
mod rng;
mod stack;
mod stats;
mod stream;
mod trace;
mod verify;

use contract::Def;
use load::{run_phase, Phase, Until};
use stack::Stack;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use stream::{Stream, Workload, STREAM_LEN};
use verify::{hash64, Outcome};

/// Closed-loop clients in the measured phase: one per core of the
/// two-core box, each on its own keep-alive connection.
const CLIENTS: usize = 2;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was read before it was measured"))
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: contract::run_seconds(),
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--all" => parsed.all = true,
            "--smoke" => parsed.seconds = 2,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--out" => parsed.out_dir = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(parsed)
}

/// The inputs every claim rests on, pinned: a drifted generator or
/// stream must not pass for a faster program.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

fn pinned(key: &str) -> Option<u64> {
    FINGERPRINTS
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(name, _)| *name == key)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

fn check_pinned(key: &str, actual: u64) -> Result<(), String> {
    match pinned(key) {
        Some(expected) if expected == actual => Ok(()),
        Some(expected) => Err(format!(
            "input drift: {key} is {actual:016x}, benchmark/fingerprints.txt pins {expected:016x}"
        )),
        None => Err(format!("benchmark/fingerprints.txt has no entry for {key}")),
    }
}

fn dataset_fingerprint(db: &fgc_relation::Database) -> u64 {
    hash64(fgc_relation::loader::dump_text(db).as_bytes())
}

fn print_fingerprints() {
    let db = stack::dataset();
    println!("dataset {:016x}", dataset_fingerprint(&db));
    for workload in Workload::ALL {
        let stream = stream::build(workload, 1, &db, STREAM_LEN);
        println!("stream.{} {:016x}", workload.name(), stream.fingerprint());
    }
}

/// The machine and build a result was measured on.
fn environment() -> Vec<(&'static str, String)> {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split(' ').take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("loadavg", loadavg),
        ("rustc", command("rustc", &["--version"])),
        ("git_sha", command("git", &["rev-parse", "HEAD"])),
    ]
}

/// The process's resident-set high-water mark (server, engine and
/// harness together).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Progress on standard error: which step ran, and for how long.
fn note(step: &str, since: Instant) {
    eprintln!(
        "[{:>8.3}s] {step} (peak rss {:.1} MiB)",
        since.elapsed().as_secs_f64(),
        peak_rss_mib()
    );
}

/// Everything one run produced.
#[derive(Default)]
struct Outcomes {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Outcomes {
    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.samples.len();
        self.failed += phase.failed();
    }
}

/// The inputs of one run: the data set and its stream for the seed.
fn inputs(workload: Workload, seed: u64) -> Result<(fgc_relation::Database, Stream), String> {
    let db = stack::dataset();
    check_pinned("dataset", dataset_fingerprint(&db))?;
    let stream = stream::build(workload, seed, &db, STREAM_LEN);
    if seed == 1 {
        check_pinned(&format!("stream.{}", workload.name()), stream.fingerprint())?;
    }
    Ok((db, stream))
}

/// Start the stack and send the warm-up requests: what `setup_s` times.
fn set_up(workload: Workload, stream: &Stream, out_dir: &Path) -> (Stack, f64, Phase) {
    let began = Instant::now();
    let stack = Stack::start(workload, out_dir);
    let warm = run_phase(
        stack.addr(),
        1,
        stream,
        &AtomicUsize::new(0),
        Until::Requests(workload.warmup()),
        None,
    );
    (stack, began.elapsed().as_secs_f64(), warm)
}

/// `--trace 0`: the numbers a user of the service sees.
fn end_to_end(workload: Workload, args: &Args) -> Result<Outcomes, String> {
    let began = Instant::now();
    let (db, stream) = inputs(workload, args.seed)?;
    note("inputs generated and pinned", began);
    // set up several times and report the median; the last stack is
    // the one measured
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut phases = Vec::with_capacity(SETUPS + 1);
    let mut stack = None;
    for _ in 0..SETUPS {
        drop(stack.take());
        let (started, seconds, warm) = set_up(workload, &stream, &args.out_dir);
        setup_s.push(seconds);
        phases.push(warm);
        stack = Some(started);
    }
    let stack = stack.expect("at least one set-up");
    note("set up", began);

    let cursor = AtomicUsize::new(workload.warmup());
    phases.push(run_phase(
        stack.addr(),
        CLIENTS,
        &stream,
        &cursor,
        Until::Elapsed(Duration::from_secs(args.seconds)),
        None,
    ));
    drop(stack);
    note("measured", began);
    verify::judge(&mut phases, &stream, &db);
    note("judged", began);
    let mut outcomes = Outcomes::default();
    for phase in &phases {
        outcomes.count(phase);
    }
    let measured = phases.last().expect("the measured phase");
    let latencies = measured.latencies_ns();
    if latencies.is_empty() {
        return Err("no request of the measured phase succeeded".into());
    }
    let m = &mut outcomes.metrics;
    m.set("setup_s", median(&mut setup_s));
    m.set("throughput_rps", measured.rps());
    m.set("latency_p50_ms", percentile(&latencies, 50.0) as f64 / 1e6);
    m.set("latency_p95_ms", percentile(&latencies, 95.0) as f64 / 1e6);
    Ok(outcomes)
}

/// `--trace 1`: one layer at a time, from outside.
fn per_layer(workload: Workload, args: &Args) -> Result<Outcomes, String> {
    let began = Instant::now();
    let (db, stream) = inputs(workload, args.seed)?;
    note("inputs generated and pinned", began);
    let (stack, _, mut warm) = set_up(workload, &stream, &args.out_dir);
    let cursor = AtomicUsize::new(workload.warmup());
    let window = Duration::from_secs_f64(args.seconds as f64 / 4.0);
    let phase = |clients, tracer| {
        run_phase(
            stack.addr(),
            clients,
            &stream,
            &cursor,
            Until::Elapsed(window),
            tracer,
        )
    };

    // phase A: one client, untraced
    let mut alone = phase(1, None);
    // the traced pass: one client, every request leaves its spans
    let mut tracer = trace::Tracer::new(1 << 20);
    let before = layers::Counters::read(&stack);
    let mut traced = phase(1, Some(&mut tracer));
    let handler_us = before.cite_at_mean_us(&layers::Counters::read(&stack));
    // phase B: two clients, untraced, between two counter reads
    let before = layers::Counters::read(&stack);
    let mut together = phase(CLIENTS, None);
    let after = layers::Counters::read(&stack);
    note("three load phases", began);
    // read before the reference, the replay and the probes add the
    // harness's own
    let mut outcomes = Outcomes::default();
    outcomes.metrics.set("load.peak_rss_mib", peak_rss_mib());
    verify::judge(
        [&mut warm, &mut alone, &mut traced, &mut together],
        &stream,
        &db,
    );
    note("judged", began);
    for p in [&warm, &alone, &traced, &together] {
        outcomes.count(p);
    }

    let m = &mut outcomes.metrics;
    let latencies = together.latencies_ns();
    if latencies.is_empty() || traced.ok() == 0 || alone.ok() == 0 {
        return Err("a measured phase had no successful request".into());
    }
    m.set("load.rps_1client", alone.rps());
    m.set("load.scaling_1to2", together.rps() / alone.rps());
    m.set(
        "load.latency_p99_ms",
        percentile(&latencies, 99.0) as f64 / 1e6,
    );
    m.set(
        "load.latency_max_ms",
        percentile(&latencies, 100.0) as f64 / 1e6,
    );
    let mut sizes: Vec<u64> = together.samples.iter().map(|s| s.bytes as u64).collect();
    m.set(
        "load.response_kib_p50",
        stats::median_u64(&mut sizes) as f64 / 1024.0,
    );
    m.set("load.requests", outcomes.attempted as f64);
    m.set("load.failed", outcomes.failed as f64);
    let mismatched = [&alone, &traced, &together]
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| s.outcome == Outcome::Mismatch)
        .count();
    m.set("load.mismatched", mismatched as f64);
    m.set(
        "load.error_rate",
        outcomes.failed as f64 / outcomes.attempted.max(1) as f64,
    );
    let timer = |pick: fn(&load::Sample) -> u64| {
        let mut ns: Vec<u64> = traced.samples.iter().map(pick).collect();
        stats::median_u64(&mut ns) as f64 / 1e3
    };
    m.set("load.write_us", timer(|s| s.write_ns));
    m.set("load.ttfb_us", timer(|s| s.ttfb_ns));
    m.set("load.read_body_us", timer(|s| s.read_body_ns));
    m.set("load.verify_us", timer(|s| s.verify_ns));
    // request time the engine's own clock does not cover; `/cite_at`
    // returns no `elapsed_us`, so there the handler's counter stands in
    let mut outside: Vec<f64> = traced
        .samples
        .iter()
        .filter_map(|s| Some(s.latency_ns as f64 / 1e3 - s.engine_us? as f64))
        .collect();
    m.set(
        "server.front_door_us",
        if outside.is_empty() {
            let total: u64 = traced.samples.iter().map(|s| s.latency_ns).sum();
            total as f64 / 1e3 / traced.samples.len() as f64 - handler_us
        } else {
            median(&mut outside)
        },
    );
    m.set(
        "trace.overhead_pct",
        (1.0 - traced.rps() / alone.rps()) * 100.0,
    );

    layers::counter_metrics(&before, &after, &together, m);
    layers::replay(&stack, &stream, window, &mut tracer, m);
    note("replay", began);
    layers::probes(&stack, &stream, args.seed, &traced, &args.out_dir, m);
    note("probes", began);
    layers::close_the_account(workload, &tracer, m);
    m.set("trace.spans", tracer.len() as f64);
    drop(stack);

    let path = args.out_dir.join(format!("trace-{}.json", workload.name()));
    tracer
        .write_json(&path, workload.name(), args.seed)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(outcomes)
}

/// Run one workload in this process and print its result.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: use --release".into());
    }
    if CLIENTS > nproc {
        return Err(format!(
            "refusing to run {CLIENTS} clients on {nproc} core(s): the clients would time each other"
        ));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let env = environment();
    let (defs, outcomes) = if args.trace {
        (contract::metrics("per_layer"), per_layer(workload, args)?)
    } else {
        (contract::metrics("end_to_end"), end_to_end(workload, args)?)
    };

    let name = workload.name();
    for (key, value) in &env {
        println!("{name} env.{key} {value}");
    }
    println!("{name} env.seed {}", args.seed);
    println!("{name} env.seconds {}", args.seconds);
    let values: Vec<(&Def, f64)> = defs
        .iter()
        .map(|d| (d, outcomes.metrics.get(&d.name)))
        .collect();
    for (d, value) in &values {
        println!("{name} {} {value} {}", d.name, d.unit);
    }
    let error_rate = outcomes.failed as f64 / outcomes.attempted.max(1) as f64;
    println!("{name} error_rate {error_rate} ratio");

    let correct = outcomes.failed == 0;
    let result = report::result_json(correct, outcomes.attempted, outcomes.failed, &values);
    let suffix = if args.trace { "-layers" } else { "" };
    let path = args.out_dir.join(format!("{name}{suffix}.json"));
    let file = report::file_json(name, args.seed, args.seconds, &env, &result);
    std::fs::write(&path, file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{result}");
    Ok(correct)
}

/// `run --all`: each workload in its own process (so `setup_s` and
/// `peak_rss_mib` are that workload's alone), untraced then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out_dir)
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_correct &= status.success();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            report::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("compare") => Err("usage: compare DIR_A DIR_B".into()),
        Some("fingerprints") => {
            print_fingerprints();
            Ok(true)
        }
        _ => {
            if args.first().is_some_and(|a| a == "run") {
                args.remove(0);
            }
            parse_args(&args).and_then(|parsed| match parsed.workload {
                Some(workload) => run_one(workload, &parsed),
                None => run_all(&parsed),
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fgcite-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
