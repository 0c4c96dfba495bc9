//! The Meterstick benchmark harness front-end: one binary, one parsed
//! command line, one table of figures.
//!
//! `meterstick-bench <name> [flags]` regenerates one table or figure of
//! the paper, or runs one ablation or probe; [`FIGURES`] is the index.
//! Each entry is a plain `fn(&Cli)`, so a scorecard can call the same
//! functions in-process. All experiment execution goes through
//! [`Campaign`] plans, and the command line is parsed once, by
//! [`Cli::parse`], into the flags every entry shares:
//!
//! * `--full` — use the paper's 60-second iterations instead of the quick
//!   default;
//! * `--sequential` — run jobs on one thread instead of the default
//!   parallel executor (results are bit-identical either way);
//! * `--progress` — stream one progress line per finished iteration to
//!   stderr;
//! * `--csv PATH` — stream one CSV summary row per finished iteration into
//!   `PATH` as results complete;
//! * `--tick-threads N` — worker threads for the server's sharded tick
//!   pipeline, applied to every campaign by [`run_campaigns`] (results are
//!   bit-identical at any value; CI diffs the CSVs of two settings to
//!   prove it);
//! * `--start-time LIST` — comma-separated points of the simulated week at
//!   which iterations start (`fri-20:30` labels or plain minutes since
//!   Monday 00:00). A seed-excluded sweep axis: only environments with a
//!   non-flat temporal profile react to it.
//!
//! Anything else on the command line — an unknown figure, an unknown or
//! misspelt flag, a flag without its value — is an error, never ignored.
//!
//! This crate measures no host time: the repository's one host-time
//! instrument is `benchmark/` (`bash benchmark/run.sh`).

#![forbid(unsafe_code)]

use std::fs::File;

use cloud_sim::environment::Environment;
use cloud_sim::temporal::StartTime;
use meterstick::campaign::{Campaign, CampaignResults};
use meterstick::executor::{Executor, ParallelExecutor, SequentialExecutor};
use meterstick::sink::{CsvSink, NullSink, ProgressSink, TeeSink};
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

mod figures;

pub use figures::{Figure, FIGURES};

/// The parsed command line: the flags shared by every [`FIGURES`] entry.
#[derive(Debug, PartialEq)]
pub struct Cli {
    /// `--full`: the paper's 60-second iterations.
    pub full: bool,
    /// `--sequential`: [`SequentialExecutor`] instead of the default
    /// [`ParallelExecutor`].
    pub sequential: bool,
    /// `--progress`: one progress line per finished iteration on stderr.
    progress: bool,
    /// `--csv PATH`: stream one CSV row per finished iteration into `PATH`.
    pub csv: Option<String>,
    /// `--tick-threads N`: tick-pipeline worker threads (default 1, the
    /// sequential reference path).
    pub tick_threads: u32,
    /// `--start-time LIST`: the simulated-week start times, `None` when
    /// the flag is absent (most entries then start Monday 00:00;
    /// `start_time_sweep` substitutes its off-peak/peak pair).
    pub start_times: Option<Vec<StartTime>>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            full: false,
            sequential: false,
            progress: false,
            csv: None,
            tick_threads: 1,
            start_times: None,
        }
    }
}

impl Cli {
    /// Parses `<figure> [flags]` — the process arguments without the
    /// program name — into the selected [`FIGURES`] entry and its flags.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token for an unknown figure
    /// name, an unknown flag, or a flag whose value is missing or
    /// malformed; returns the usage listing when no figure is named.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(&'static Figure, Cli), String> {
        let mut args = args.into_iter();
        let name = args.next().ok_or_else(usage)?;
        let figure = FIGURES
            .iter()
            .find(|(known, _, _)| *known == name)
            .ok_or_else(|| format!("unknown figure {name:?}\n{}", usage()))?;
        let mut cli = Cli::default();
        while let Some(flag) = args.next() {
            // A flag-like value means the real one was forgotten; fail
            // before the (potentially long) campaign runs.
            let mut value = |what: &str| {
                args.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} requires {what}"))
            };
            match flag.as_str() {
                "--full" => cli.full = true,
                "--sequential" => cli.sequential = true,
                "--progress" => cli.progress = true,
                "--csv" => cli.csv = Some(value("a file path")?),
                "--tick-threads" => {
                    let raw = value("a thread count")?;
                    // 0 is rejected here, before any campaign runs, rather than
                    // as the plan error `Campaign::tick_threads([0])` produces.
                    cli.tick_threads = raw
                        .parse()
                        .ok()
                        .filter(|&threads: &u32| threads >= 1)
                        .ok_or_else(|| {
                            format!("--tick-threads: {raw:?} is not a thread count (1 or more)")
                        })?;
                }
                "--start-time" => {
                    let raw = value("a comma-separated list like fri-20:30,mon-04:00")?;
                    cli.start_times = Some(parse_start_times(&raw)?);
                }
                _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
            }
        }
        Ok((figure, cli))
    }

    /// The iteration duration in virtual seconds: the paper's 60 with
    /// `--full`, otherwise 30 so every figure regenerates in seconds of
    /// wall-clock time.
    #[must_use]
    pub fn duration_secs(&self) -> u64 {
        if self.full {
            60
        } else {
            30
        }
    }

    fn executor(&self) -> Box<dyn Executor> {
        if self.sequential {
            Box::new(SequentialExecutor)
        } else {
            Box::new(ParallelExecutor::default())
        }
    }
}

fn parse_start_times(raw: &str) -> Result<Vec<StartTime>, String> {
    raw.split(',')
        .map(|item| {
            let item = item.trim();
            StartTime::parse(item)
                .or_else(|| item.parse::<u32>().ok().map(StartTime::from_minutes))
                .ok_or_else(|| {
                    format!(
                        "--start-time: cannot parse {item:?} \
                         (expected day-hh:mm like fri-20:30, or minutes)"
                    )
                })
        })
        .collect()
}

const USAGE: &str = "usage: meterstick-bench <figure> [--full] [--sequential] [--progress] \
                     [--csv PATH] [--tick-threads N] [--start-time LIST]";

fn usage() -> String {
    let mut text = format!("{USAGE}\n\nfigures:\n");
    for (name, title, _) in FIGURES {
        text.push_str(&format!("  {name:<27} {title}\n"));
    }
    text
}

/// Runs a campaign with the executor, tick threads and streaming sinks
/// selected on the command line (see the crate docs for the flag list).
///
/// # Panics
///
/// Panics with a readable message when the campaign configuration is
/// invalid or `--csv PATH` cannot be created — figure entries have no
/// caller to propagate errors to.
#[must_use]
pub fn run_campaign(cli: &Cli, campaign: &Campaign) -> CampaignResults {
    run_campaigns(cli, std::slice::from_ref(campaign))
        .pop()
        .expect("one campaign in, one result set out")
}

/// The campaign as the command line wants it run: `--tick-threads` is
/// execution infrastructure, so it applies to every entry's campaigns here
/// rather than being plumbed through each one.
fn with_cli_axes(cli: &Cli, campaign: &Campaign) -> Campaign {
    campaign.clone().tick_threads([cli.tick_threads])
}

/// Runs several campaigns back to back through the *same* sinks, so a
/// `--csv PATH` stream holds every campaign's rows under a single header.
/// Used by probes that pair a stationary pass with a temporal one and by
/// figures whose cells are separate single-cell campaigns.
///
/// # Panics
///
/// Panics with a readable message when a campaign configuration is invalid
/// or `--csv PATH` cannot be created — figure entries have no caller to
/// propagate errors to.
#[must_use]
pub fn run_campaigns(cli: &Cli, campaigns: &[Campaign]) -> Vec<CampaignResults> {
    let executor = cli.executor();
    let mut progress = cli.progress.then(|| ProgressSink::new(std::io::stderr()));
    let mut csv = cli.csv.as_ref().map(|path| {
        let file = File::create(path)
            .unwrap_or_else(|err| panic!("cannot create --csv file {path:?}: {err}"));
        CsvSink::new(file)
    });

    let mut all = Vec::with_capacity(campaigns.len());
    for campaign in campaigns {
        let campaign = with_cli_axes(cli, campaign);
        let result = match (&mut progress, &mut csv) {
            (Some(progress), Some(csv)) => {
                let mut tee = TeeSink::new(progress, csv);
                campaign.run_with(&*executor, &mut tee)
            }
            (Some(progress), None) => campaign.run_with(&*executor, progress),
            (None, Some(csv)) => campaign.run_with(&*executor, csv),
            (None, None) => campaign.run_with(&*executor, &mut NullSink),
        };
        all.push(result.unwrap_or_else(|err| panic!("campaign failed: {err}")));
    }
    if let Some(err) = csv.as_ref().and_then(CsvSink::error) {
        eprintln!("warning: --csv stream failed mid-run, the CSV file is truncated: {err}");
    }
    all
}

/// The single-cell campaign of one workload on one flavor in the default
/// AWS environment, one iteration. Seeds are fixed so figures are
/// reproducible run-to-run; figures with several such cells hand them all
/// to one [`run_campaigns`] call.
#[must_use]
pub fn aws_cell(cli: &Cli, workload: WorkloadKind, flavor: ServerFlavor) -> Campaign {
    let start_times = cli.start_times.clone();
    Campaign::new()
        .workloads([workload])
        .flavors([flavor])
        .environments([Environment::aws_default()])
        .start_times(start_times.unwrap_or_else(|| vec![StartTime::MONDAY_MIDNIGHT]))
        .duration_secs(cli.duration_secs())
}

/// Prints the section header of a [`FIGURES`] entry, given its title.
pub fn print_header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduction; shapes comparable to the paper, absolute numbers");
    println!(" depend on the simulated substrate — see docs/ARCHITECTURE.md)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(&'static Figure, Cli), String> {
        Cli::parse(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn every_flag_round_trips() {
        let (figure, cli) = parse(&["fig01_response_time"]).unwrap();
        assert_eq!(figure.0, "fig01_response_time");
        assert_eq!(cli, Cli::default());
        assert_eq!(cli.duration_secs(), 30);

        let (figure, cli) = parse(&[
            "sharded_determinism",
            "--full",
            "--sequential",
            "--progress",
            "--csv",
            "/tmp/out.csv",
            "--tick-threads",
            "8",
            "--start-time",
            "fri-20:30, 240",
        ])
        .unwrap();
        assert_eq!(figure.0, "sharded_determinism");
        let starts = vec![
            StartTime::from_day_hour_minute(4, 20, 30),
            StartTime::from_minutes(240),
        ];
        assert_eq!(
            cli,
            Cli {
                full: true,
                sequential: true,
                progress: true,
                csv: Some("/tmp/out.csv".into()),
                tick_threads: 8,
                start_times: Some(starts),
            }
        );
        assert_eq!(cli.duration_secs(), 60);
    }

    #[test]
    fn mistyped_invocations_are_errors_naming_the_token() {
        for (args, token) in [
            (
                &["sharded_determinism", "--tick-thread", "4"][..],
                "--tick-thread",
            ),
            (&["fig01_response_time", "--csv"][..], "--csv"),
            (&["fig01_response_time", "--csv", "--full"][..], "--csv"),
            (
                &["start_time_sweep", "--start-time", "someday-25:00"][..],
                "someday-25:00",
            ),
            (
                &["sharded_determinism", "--tick-threads", "four"][..],
                "four",
            ),
            (
                &["sharded_determinism", "--tick-threads"][..],
                "--tick-threads",
            ),
            (
                &["sharded_determinism", "--tick-threads", "0"][..],
                "--tick-threads: \"0\"",
            ),
            (&["nope"][..], "nope"),
            (&["--sequential"][..], "--sequential"),
        ] {
            let err = parse(args).expect_err("must not parse");
            assert!(err.contains(token), "{args:?}: {err}");
        }
        // No figure at all: the usage text, listing every entry.
        let usage = parse(&[]).expect_err("a figure name is required");
        for (name, _, _) in FIGURES {
            assert!(usage.contains(name), "usage must list {name}");
        }
    }

    /// What a correct parser must name when it rejects `<name> <rest…>` —
    /// the unknown figure or flag, a value flag missing its value, the bad
    /// value (for a start-time list, its first bad item) — or `None` when
    /// it must accept.
    fn offending(name: &str, mut rest: &[String]) -> Option<String> {
        if !FIGURES.iter().any(|(known, _, _)| *known == name) {
            return Some(name.to_owned());
        }
        while let Some((flag, tail)) = rest.split_first() {
            rest = tail;
            if matches!(flag.as_str(), "--full" | "--sequential" | "--progress") {
                continue;
            }
            if !matches!(flag.as_str(), "--csv" | "--tick-threads" | "--start-time") {
                return Some(flag.clone());
            }
            let Some((value, tail)) = rest.split_first().filter(|(v, _)| !v.starts_with("--"))
            else {
                return Some(flag.clone());
            };
            rest = tail;
            let bad = match flag.as_str() {
                "--tick-threads" => {
                    (!value.parse::<u32>().is_ok_and(|n| n >= 1)).then_some(value.as_str())
                }
                "--start-time" => value
                    .split(',')
                    .map(str::trim)
                    .find(|item| parse_start_times(item).is_err()),
                _ => None,
            };
            if let Some(bad) = bad {
                return Some(bad.to_owned());
            }
        }
        None
    }

    #[test]
    fn parse_never_panics_and_names_what_it_rejects() {
        let flags = [
            "--full",
            "--sequential",
            "--progress",
            "--csv",
            "--tick-threads",
            "--start-time",
        ];
        let others = [
            "--tick-thread",
            "--CSV",
            "--full=1",
            "-full",
            "0",
            "1",
            "4",
            "-1",
            "4294967296",
            "fri-20:30",
            "mon-04:00, fri-20:30",
            "someday-25:00",
            "",
            "ß",
            "日本語",
            "e\u{301}",
            "\u{0}\t",
            "--ü",
            "🦀,mon-00:00",
        ];
        let names: Vec<&str> = FIGURES.iter().map(|(name, _, _)| *name).collect();
        let pool: Vec<&str> = [&names[..], &flags, &others].concat();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..2_000 {
            // Three cases in four name a figure, so the flags get parsed.
            let first = if next(4) == 0 {
                pool[next(pool.len())]
            } else {
                names[next(names.len())]
            };
            let tokens: Vec<String> = std::iter::once(first)
                .chain((0..next(7)).map(|_| {
                    if next(2) == 0 {
                        flags[next(flags.len())]
                    } else {
                        pool[next(pool.len())]
                    }
                }))
                .map(str::to_owned)
                .collect();
            let outcome = Cli::parse(tokens.clone());
            match (outcome, offending(&tokens[0], &tokens[1..])) {
                (Ok((figure, cli)), None) => {
                    assert_eq!(figure.0, tokens[0], "{tokens:?}");
                    assert!(cli.tick_threads >= 1, "{tokens:?}");
                }
                (Err(err), Some(token)) => assert!(
                    err.contains(&token) || err.contains(&format!("{token:?}")),
                    "{tokens:?}: {err:?} does not name {token:?}"
                ),
                (outcome, expected) => {
                    panic!("{tokens:?}: parsed to {outcome:?}, expected to reject {expected:?}")
                }
            }
        }
    }

    #[test]
    fn csv_keeps_every_cell_of_a_multi_campaign_figure() {
        // fig01 runs two single-cell campaigns; both rows must survive.
        let path = std::env::temp_dir().join(format!("fig01-{}.csv", std::process::id()));
        let (figure, mut cli) = parse(&["fig01_response_time", "--sequential"]).unwrap();
        cli.csv = Some(path.to_string_lossy().into_owned());
        (figure.2)(&cli);
        let csv = std::fs::read_to_string(&path).expect("the figure wrote its --csv file");
        let _ = std::fs::remove_file(&path);
        let workloads: Vec<&str> = csv.lines().map(|l| l.split(',').next().unwrap()).collect();
        assert_eq!(workloads, ["workload", "Control", "Farm"], "{csv}");
    }

    #[test]
    fn tick_threads_flag_reaches_campaigns_that_never_mention_it() {
        // fig08's grid: like most entries it says nothing about tick
        // threads; `run_campaigns` runs what `with_cli_axes` returns.
        let campaign = Campaign::new()
            .workloads(WorkloadKind::all())
            .flavors(ServerFlavor::all())
            .environments([
                Environment::aws_default(),
                Environment::das5(2),
                Environment::das5(16),
            ]);
        let cli = Cli {
            tick_threads: 4,
            ..Cli::default()
        };
        let plan = with_cli_axes(&cli, &campaign).plan().unwrap();
        assert_eq!(plan.jobs().len(), 45);
        assert!(plan.jobs().iter().all(|job| job.config.tick_threads == 4));
        let untouched = campaign.plan().unwrap();
        assert!(untouched
            .jobs()
            .iter()
            .all(|job| job.config.tick_threads == 1));
    }

    #[test]
    fn figures_table_is_the_nineteen_former_binaries() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(name, _, _)| *name).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "ablation_cloud_model",
                "ablation_paper_opts",
                "calibrate",
                "daemon_smoke",
                "fig01_response_time",
                "fig06_isr_analysis",
                "fig07_response_variability",
                "fig08_isr_workloads",
                "fig09_tick_timeseries",
                "fig10_cloud_variability",
                "fig11_tick_distribution",
                "fig12_node_sizes",
                "long_horizon_smoke",
                "sharded_determinism",
                "start_time_sweep",
                "tab02_worlds",
                "tab06_metric_comparison",
                "tab07_recommendations",
                "tab08_entity_messages",
            ]
        );
    }
}
