//! `perfbench` — end-to-end and per-layer benchmark of the FeatGraph
//! serving and training stack.
//!
//! ```text
//! perfbench --workload serve-full|serve-sampled|train --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON object
//! with the run's verdict and metrics. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the same workload with spans and the server's
//! telemetry counters on and reports per-layer metrics, writing its spans
//! to `.bench_out/`. Exits 1 when an output check fails, 2 on bad
//! arguments. See README.md for the workloads and metrics.
//!
//! `--setup-only` times one set-up of the workload, prints its seconds and
//! exits; a run starts itself this way for its repeated cold set-ups.

mod host;
mod load;
mod pct;
mod report;
mod rng;
mod serve;
mod timed;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Outcome, END_TO_END};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["serve-full", "serve-sampled", "train"];

/// Set-ups per run; `setup_s` is their median. The run's own set-up is the
/// first, each other one runs in a fresh process of this program, so every
/// one is cold (no one-time process cost is paid in advance) and none adds
/// to the run's `peak_rss_mib`.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The traced run turns on the program's telemetry (kernel-compile and
    // serve counters) along with the benchmark's own spans; the untraced
    // run keeps the defaults a user of `fgserve` gets.
    fg_telemetry::set_enabled(args.trace);
    if args.setup_only {
        let secs = match args.workload.as_str() {
            "serve-full" => serve::setup_once(serve::Kind::Full, args.seed),
            "serve-sampled" => serve::setup_once(serve::Kind::Sampled, args.seed),
            "train" => train::setup_once(args.seed),
            _ => unreachable!("validated in parse_args"),
        };
        println!("{secs:?}");
        return ExitCode::SUCCESS;
    }
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::new(args.trace);
    out.note(format!(
        "workload {} seed {} seconds {} trace {} on {} CPUs",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    match args.workload.as_str() {
        "serve-full" => serve::run(
            serve::Kind::Full,
            args.seed,
            args.seconds,
            &tracer,
            &mut out,
        ),
        "serve-sampled" => serve::run(
            serve::Kind::Sampled,
            args.seed,
            args.seconds,
            &tracer,
            &mut out,
        ),
        "train" => train::run(args.seed, args.seconds, &tracer, &mut out),
        _ => unreachable!("validated in parse_args"),
    }
    cold_setups(&args, &mut out);
    if args.trace {
        // The traced run's own end-to-end numbers: set against an untraced
        // run's, the difference is what tracing costs.
        for (name, _) in END_TO_END {
            if let Some(v) = out.get(name) {
                out.metric(traced_name(name), v);
            }
        }
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => out.fail(format!("writing spans to {}: {e}", path.display())),
        }
    }
    out.print(&args.workload);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Time [`SETUP_REPS`]` - 1` more set-ups, each in a fresh process, and
/// replace `setup_s` (the run's own set-up) with the median of all.
fn cold_setups(args: &Args, out: &mut Outcome) {
    let Some(first) = out.get("setup_s") else {
        return;
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return out.fail(format!("set-up repeats: no path to this program: {e}")),
    };
    let mut secs = vec![first];
    for _ in 1..SETUP_REPS {
        let child = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--trace",
                if args.trace { "1" } else { "0" },
                "--setup-only",
            ])
            .output();
        let parsed = child.map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            match text.trim().parse::<f64>() {
                Ok(v) if o.status.success() => Ok(v),
                _ => Err(format!("exit {}, output {:?}", o.status, text.trim())),
            }
        });
        match parsed {
            Ok(v) => secs.push(v),
            Err(e) => return out.fail(format!("set-up repeat in a fresh process: {e}")),
        }
    }
    let shown: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
    out.note(format!(
        "setup_s: median of {SETUP_REPS} cold set-ups, this process first, then each in a \
         fresh process: [{}] s",
        shown.join(", ")
    ));
    out.metric("setup_s", pct::median(&secs));
}

/// `trace.<name>` for an end-to-end metric name.
fn traced_name(name: &str) -> &'static str {
    match name {
        "setup_s" => "trace.setup_s",
        "throughput_per_s" => "trace.throughput_per_s",
        "latency_p50_ms" => "trace.latency_p50_ms",
        "peak_rss_mib" => "trace.peak_rss_mib",
        other => unreachable!("no traced twin for {other}"),
    }
}
