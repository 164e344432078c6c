//! The benchmark of the NoDB reproduction: five workloads, end-to-end
//! metrics measured untraced, per-layer metrics from a traced pass, layer
//! probes, and the tools to compare two sets of runs. See `README.md` in
//! this directory and `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! nodb-benchmark --workload W --seed N --seconds S --trace 0|1 [--scale F]
//! nodb-benchmark run --all [--seed N] [--seconds S] [--scale F]
//! nodb-benchmark repeat N [--seed N] [--seconds S] [--scale F]
//! nodb-benchmark compare A.jsonl B.jsonl
//! ```

mod datagen;
mod fingerprint;
mod json;
mod measure;
mod names;
mod oracle;
mod probes;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use measure::RunArgs;
use report::SetArgs;
use workloads::Res;

const USAGE: &str = "usage:
  nodb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
      one run of one workload; the last line printed is the result object
  nodb-benchmark run --all [--seed n] [--seconds s] [--scale f]
      every workload, 3 untraced runs and one traced run each, one process per
      run, into benchmark/out/results.jsonl
  nodb-benchmark repeat <N> [options of run --all]
      N result sets back to back: benchmark/out/set-1.jsonl .. set-N.jsonl
  nodb-benchmark compare <A.jsonl> <B.jsonl>
      judge B against A with the bounds of BENCHMARK.json
workloads: cold_first_query adaptive_sequence warm_analytics server_mixed churn_sequence
--seconds defaults to run_seconds of BENCHMARK.json times min(scale, 1), at least 0.5";

/// Exit code of a run that completed but in which an operation failed.
const EXIT_FAILED_OPS: u8 = 2;

/// The directory this package lives in: inputs, traces and result sets
/// go under it, nothing is written anywhere else.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `--name value` pairs and bare flags after the subcommand.
struct Options(Vec<String>);

impl Options {
    fn take_flag(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Res<Option<T>> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("bad value `{raw}` for {name}"))
    }

    fn finish(self) -> Res<()> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`\n{USAGE}")),
        }
    }
}

fn positive_scale(opts: &mut Options) -> Res<f64> {
    let scale: f64 = opts.take("--scale")?.unwrap_or(1.0);
    if scale > 0.0 && scale.is_finite() {
        Ok(scale)
    } else {
        Err("--scale must be a positive number".to_string())
    }
}

fn default_seconds(scale: f64) -> f64 {
    (report::contract_run_seconds() * scale.min(1.0)).max(0.5)
}

fn single_run(mut opts: Options, cleared_env: &[String]) -> Res<ExitCode> {
    let scale = positive_scale(&mut opts)?;
    let args = RunArgs {
        workload: opts
            .take("--workload")?
            .ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: opts.take("--seed")?.unwrap_or(1),
        seconds: opts
            .take("--seconds")?
            .unwrap_or_else(|| default_seconds(scale)),
        trace: match opts.take::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        scale,
        corrupt_oracle: opts.take_flag("--corrupt-oracle"),
    };
    opts.finish()?;
    if !names::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", args.workload));
    }
    let report = measure::run(&args, cleared_env, bench_dir())?;
    measure::emit(&args, &report).map(verdict)
}

fn set_args(mut opts: Options) -> Res<SetArgs> {
    let scale = positive_scale(&mut opts)?;
    let args = SetArgs {
        seed: opts.take("--seed")?.unwrap_or(1),
        scale,
        seconds: opts
            .take("--seconds")?
            .unwrap_or_else(|| default_seconds(scale)),
    };
    opts.finish()?;
    Ok(args)
}

/// Success, or the exit code of "ran, but not clean".
fn verdict(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FAILED_OPS)
    }
}

fn dispatch(mut argv: Vec<String>, cleared_env: &[String]) -> Res<ExitCode> {
    let out_dir = bench_dir().join("out");
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)).map(verdict),
            _ => Err(format!("compare takes two result sets\n{USAGE}")),
        },
        Some("repeat") => {
            let sets: usize = argv
                .get(1)
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("repeat takes the number of result sets\n{USAGE}"))?;
            let args = set_args(Options(argv.split_off(2)))?;
            let mut clean = true;
            for i in 1..=sets {
                clean &= report::run_all(&args, &out_dir.join(format!("set-{i}.jsonl")))?;
            }
            Ok(verdict(clean))
        }
        Some("run") if argv.iter().any(|a| a == "--all") => {
            let mut opts = Options(argv.split_off(1));
            opts.take_flag("--all");
            report::run_all(&set_args(opts)?, &out_dir.join("results.jsonl")).map(verdict)
        }
        Some("run") => single_run(Options(argv.split_off(1)), cleared_env),
        // Internal: `churn_sequence` sizes its budgets in a process of its own.
        Some(workloads::churn::SIZE_SUBCOMMAND) => {
            let mut opts = Options(argv.split_off(1));
            let scale = positive_scale(&mut opts)?;
            let seed = opts.take("--seed")?.unwrap_or(1);
            opts.finish()?;
            measure::size_churn(seed, scale, bench_dir()).map(|()| ExitCode::SUCCESS)
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => single_run(Options(argv), cleared_env),
    }
}

fn main() -> ExitCode {
    let cleared_env = fingerprint::clear_nodb_env();
    match dispatch(std::env::args().skip(1).collect(), &cleared_env) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("nodb-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
