//! `meterstick-daemon`: the resident benchmark daemon binary.
//!
//! Runs campaign rounds back to back until `POST /shutdown` (or the
//! configured `--rounds` count) while serving live metrics:
//!
//! ```text
//! meterstick-daemon [--port N] [--workload control|tnt|farm|lag|players|crowd]
//!                   [--flavor vanilla|paper|forge] [--duration-secs N]
//!                   [--iterations N] [--rounds N] [--window N] [--seed N]
//!                   [--publish-every N] [--pace] [--jsonl PATH]
//! ```
//!
//! `--rounds 0` (the default) keeps running until shutdown. `--pace`
//! throttles replay to real time (20 ticks per wall-clock second) for
//! human-watchable dashboards; by default rounds run at full speed.

#![forbid(unsafe_code)]

use std::net::TcpListener;
use std::process::ExitCode;

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::sink::{JsonlSink, NullSink};
use meterstick_daemon::{http, Daemon, DaemonConfig};
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

struct Options {
    port: u16,
    workload: WorkloadKind,
    flavor: ServerFlavor,
    duration_secs: u64,
    iterations: u32,
    rounds: u64,
    window: usize,
    seed: u64,
    publish_every: u64,
    pace: bool,
    jsonl: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            port: 8077,
            workload: WorkloadKind::Control,
            flavor: ServerFlavor::Vanilla,
            duration_secs: 30,
            iterations: 1,
            rounds: 0,
            window: 1024,
            seed: 42,
            publish_every: 1,
            pace: false,
            jsonl: None,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--port" => opts.port = parse(&value("--port")?)?,
            "--workload" => {
                let raw = value("--workload")?;
                opts.workload = match raw.to_ascii_lowercase().as_str() {
                    "control" => WorkloadKind::Control,
                    "tnt" => WorkloadKind::Tnt,
                    "farm" => WorkloadKind::Farm,
                    "lag" => WorkloadKind::Lag,
                    "players" => WorkloadKind::Players,
                    "crowd" => WorkloadKind::Crowd,
                    other => return Err(format!("unknown workload `{other}`")),
                };
            }
            "--flavor" => {
                let raw = value("--flavor")?;
                opts.flavor = match raw.to_ascii_lowercase().as_str() {
                    "vanilla" => ServerFlavor::Vanilla,
                    "paper" => ServerFlavor::Paper,
                    "forge" => ServerFlavor::Forge,
                    other => return Err(format!("unknown flavor `{other}`")),
                };
            }
            "--duration-secs" => opts.duration_secs = parse(&value("--duration-secs")?)?,
            "--iterations" => opts.iterations = parse(&value("--iterations")?)?,
            "--rounds" => opts.rounds = parse(&value("--rounds")?)?,
            "--window" => {
                opts.window = parse(&value("--window")?)?;
                if opts.window == 0 {
                    return Err("--window must hold at least one tick".into());
                }
            }
            "--seed" => opts.seed = parse(&value("--seed")?)?,
            "--publish-every" => opts.publish_every = parse(&value("--publish-every")?)?,
            "--pace" => opts.pace = true,
            "--jsonl" => opts.jsonl = Some(value("--jsonl")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|err| format!("invalid value `{raw}`: {err}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("meterstick-daemon: {err}");
            return ExitCode::FAILURE;
        }
    };

    let daemon = Daemon::new(DaemonConfig {
        window: opts.window,
        publish_every: opts.publish_every,
        pace_to_real_time: opts.pace,
        ..DaemonConfig::default()
    });
    let handle = daemon.handle();

    let listener = match TcpListener::bind(("127.0.0.1", opts.port)) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("meterstick-daemon: cannot bind port {}: {err}", opts.port);
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let server = match http::spawn(listener, handle.clone()) {
        Ok(join) => join,
        Err(err) => {
            eprintln!("meterstick-daemon: cannot start HTTP server: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("meterstick-daemon: listening on http://{addr}");

    let mut jsonl = match &opts.jsonl {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(JsonlSink::new(std::io::BufWriter::new(file))),
            Err(err) => {
                eprintln!("meterstick-daemon: cannot create {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut status = ExitCode::SUCCESS;
    let mut round: u64 = 0;
    while !handle.shutdown_requested() && (opts.rounds == 0 || round < opts.rounds) {
        // Each round derives a fresh base seed so a resident daemon keeps
        // exploring iterations instead of replaying one forever.
        let campaign = Campaign::new()
            .workloads([opts.workload])
            .flavors([opts.flavor])
            .environments([Environment::das5(2)])
            .duration_secs(opts.duration_secs)
            .iterations(opts.iterations)
            .seed(opts.seed.wrapping_add(round));
        let outcome = match &mut jsonl {
            Some(sink) => daemon.run_campaign(&campaign, sink),
            None => daemon.run_campaign(&campaign, &mut NullSink),
        };
        match outcome {
            Ok(results) => {
                round += 1;
                eprintln!(
                    "meterstick-daemon: round {round} finished ({} iterations)",
                    results.len()
                );
            }
            Err(err) => {
                eprintln!("meterstick-daemon: invalid campaign: {err}");
                status = ExitCode::FAILURE;
                break;
            }
        }
    }

    handle.request_shutdown();
    handle.mark_finished();
    if let Some(sink) = jsonl {
        // Each round already drained the sink via on_campaign_end; only
        // surface a retained write error here.
        if let Some(err) = sink.error() {
            eprintln!("meterstick-daemon: JSONL sink error: {err}");
        }
    }
    let _ = server.join();
    eprintln!("meterstick-daemon: shut down after {round} round(s)");
    status
}
