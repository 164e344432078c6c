//! Result sets: `run --all` writes one, `repeat N` writes N back to back,
//! `compare A B` judges B against A with the bounds of `BENCHMARK.json`.
//!
//! A result set is a JSON-lines file. Every line is one run of one
//! workload: `workload`, `trace` (0 or 1), `run`, the run's `fingerprint`
//! and its `result`, the object the run printed last. Each run is a child
//! process, so `peak_rss_mb` belongs to one workload alone.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::fingerprint::IDENTITY_FIELDS;
use crate::json::Json;
use crate::names::{Better, BENCHMARK_JSON, END_TO_END, PER_LAYER, SETUP_FLOOR_S, WORKLOADS};
use crate::stats::{quartiles, spread};
use crate::workloads::{text, Res};

/// Options shared by `run --all` and `repeat`.
#[derive(Debug, Clone)]
pub struct SetArgs {
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
}

/// Untraced runs per workload in a result set: the fewest whose quartiles
/// mean anything.
const UNTRACED_RUNS: usize = 3;

/// `run_seconds` of the contract file.
pub fn contract_run_seconds() -> f64 {
    Json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

/// Run one workload once in a child process and return the line for the
/// result set. The child's output is passed through.
fn child_run(args: &SetArgs, workload: &str, trace: bool, run: usize) -> Res<Json> {
    let exe = std::env::current_exe().map_err(text)?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &args.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(text)?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    // Exit code 2 means "ran, but an operation failed": the result line
    // is there and says so. Anything else non-zero has no result.
    if !output.status.success() && output.status.code() != Some(2) {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint: "))
        .ok_or_else(|| format!("{workload}: the run printed no fingerprint"))?;
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    Ok(Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("trace", Json::Num(f64::from(u8::from(trace)))),
        ("run", Json::Num(run as f64)),
        ("fingerprint", Json::parse(fingerprint)?),
        ("result", Json::parse(result)?),
    ]))
}

/// `run --all`: every workload [`UNTRACED_RUNS`] times untraced and once
/// traced, written to `path`. Returns `false` when any operation of any
/// run failed.
pub fn run_all(args: &SetArgs, path: &Path) -> Res<bool> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(text)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(text)?);
    let mut all_correct = true;
    for workload in WORKLOADS {
        for run in 0..=UNTRACED_RUNS {
            let trace = run == UNTRACED_RUNS;
            let line = child_run(args, workload, trace, run)?;
            all_correct &=
                line.get("result").and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
            writeln!(out, "{line}").map_err(text)?;
        }
    }
    out.flush().map_err(text)?;
    println!("result set written to {}", path.display());
    Ok(all_correct)
}

/// One workload's runs in a result set.
struct WorkloadRuns {
    identity: Vec<(String, Json)>,
    /// Untraced metric values, one vector per end-to-end metric.
    end_to_end: Vec<Vec<f64>>,
    /// `(name, value)` of the exact per-layer counters of the traced run.
    counters: Vec<(String, f64)>,
    /// Operations failed and attempted, summed over every run.
    failed: u64,
    attempted: u64,
}

fn load_set(path: &Path) -> Res<Vec<(String, WorkloadRuns)>> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets: Vec<(String, WorkloadRuns)> = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?;
        let fingerprint = doc.get("fingerprint").ok_or_else(|| at("no fingerprint"))?;
        let identity: Vec<(String, Json)> = IDENTITY_FIELDS
            .iter()
            .map(|f| {
                (
                    f.to_string(),
                    fingerprint.get(f).cloned().unwrap_or(Json::Null),
                )
            })
            .collect();
        let result = doc.get("result").ok_or_else(|| at("no result"))?;
        let metrics = result.get("metrics").ok_or_else(|| at("no metrics"))?;
        let count = |name: &str| {
            result
                .get(name)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| at(&format!("no `{name}`")))
        };
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| at(&format!("no metric `{name}`")))
        };
        let traced = doc.get("trace").and_then(Json::as_f64) == Some(1.0);
        let idx = match sets.iter().position(|(w, _)| w == workload) {
            Some(idx) => idx,
            None => {
                sets.push((
                    workload.to_string(),
                    WorkloadRuns {
                        identity: identity.clone(),
                        end_to_end: vec![Vec::new(); END_TO_END.len()],
                        counters: Vec::new(),
                        failed: 0,
                        attempted: 0,
                    },
                ));
                sets.len() - 1
            }
        };
        let runs = &mut sets[idx].1;
        runs.failed += count("failed")?;
        runs.attempted += count("attempted")?;
        if traced {
            // A traced run generates the inputs of other workloads too, so
            // its input list is not the workload's identity.
            for def in PER_LAYER
                .iter()
                .filter(|d| matches!(d.unit, "count" | "bytes"))
            {
                runs.counters.push((def.name.to_string(), value(def.name)?));
            }
        } else {
            if runs.identity != identity {
                return Err(at(
                    "runs of one workload disagree on machine, seed, scale or inputs",
                ));
            }
            for (values, def) in runs.end_to_end.iter_mut().zip(&END_TO_END) {
                values.push(value(def.name)?);
            }
        }
    }
    Ok(sets)
}

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The baseline's own run-to-run spread exceeds the bound, so a change
    /// of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against baseline `a`. `regressed`: the median got worse by
/// more than `bound` (a share of the baseline's median) and by more than
/// `floor` (an absolute amount in the metric's unit; 0 for all but
/// `setup_s`, whose few milliseconds would otherwise flip on noise).
/// `improved`: it got better by more than the baseline's interquartile
/// spread.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let [a_q1, a_med, a_q3] = quartiles(a);
    let [_, b_med, _] = quartiles(b);
    if spread(a) > bound && a_q3 - a_q1 > floor {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => b_med - a_med,
        Better::Higher => a_med - b_med,
    };
    if worse_by / a_med > bound && worse_by > floor {
        Verdict::Regressed
    } else if -worse_by > a_q3 - a_q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Judge the share of failed operations, `(failed, attempted)` per side:
/// any increase is a regression, whatever the timings say.
pub fn judge_failures(a: (u64, u64), b: (u64, u64)) -> Verdict {
    // a.0 / a.1 against b.0 / b.1, cross-multiplied to stay in integers.
    let (a_cross, b_cross) = (
        u128::from(a.0) * u128::from(b.1),
        u128::from(b.0) * u128::from(a.1),
    );
    match b_cross.cmp(&a_cross) {
        std::cmp::Ordering::Greater => Verdict::Regressed,
        std::cmp::Ordering::Less => Verdict::Improved,
        std::cmp::Ordering::Equal => Verdict::Unchanged,
    }
}

/// `compare A B`. Returns `false` when any pair is regressed or
/// unresolved, more operations failed in B than in A, or an exact counter
/// differs.
pub fn compare(a_path: &Path, b_path: &Path) -> Res<bool> {
    let contract = Json::parse(BENCHMARK_JSON)?;
    let bounds: Vec<f64> = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lists no end_to_end metrics")?
        .iter()
        .map(|m| {
            m.get("bound")
                .and_then(Json::as_f64)
                .ok_or("a metric has no bound")
        })
        .collect::<Result<_, _>>()?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    let mut clean = true;
    println!(
        "{:<18} {:<13} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "change",
        "bound"
    );
    for (workload, a_runs) in &a {
        let b_runs = &b
            .iter()
            .find(|(w, _)| w == workload)
            .ok_or_else(|| format!("{} has no runs of {workload}", b_path.display()))?
            .1;
        for ((field, a_value), (_, b_value)) in a_runs.identity.iter().zip(&b_runs.identity) {
            if a_value != b_value {
                return Err(format!(
                    "refusing to compare {workload}: `{field}` differs ({a_value} vs {b_value})"
                ));
            }
        }
        let failures = judge_failures(
            (a_runs.failed, a_runs.attempted),
            (b_runs.failed, b_runs.attempted),
        );
        clean &= failures != Verdict::Regressed;
        println!(
            "{workload:<18} {:<13} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  {}",
            "failed_share",
            a_runs.failed as f64 / a_runs.attempted.max(1) as f64,
            format!("{} of {}", a_runs.failed, a_runs.attempted),
            b_runs.failed as f64 / b_runs.attempted.max(1) as f64,
            format!("{} of {}", b_runs.failed, b_runs.attempted),
            "",
            "any",
            failures.as_str()
        );
        for (i, def) in END_TO_END.iter().enumerate() {
            let (av, bv) = (&a_runs.end_to_end[i], &b_runs.end_to_end[i]);
            if av.len() < UNTRACED_RUNS || bv.len() < UNTRACED_RUNS {
                return Err(format!(
                    "{workload}: a set needs at least {UNTRACED_RUNS} untraced runs"
                ));
            }
            let floor = if def.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let verdict = match judge(av, bv, def.better, bounds[i], floor) {
                // A gain does not count when more operations fail.
                Verdict::Improved if failures == Verdict::Regressed => Verdict::Unresolved,
                verdict => verdict,
            };
            clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(av), quartiles(bv));
            println!(
                "{workload:<18} {:<13} {a2:>12.4} {:>25} {b2:>12.4} {:>25} {:>+7.2}% {:>5.0}%  {}",
                def.name,
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                100.0 * (b2 - a2) / a2,
                100.0 * bounds[i],
                verdict.as_str()
            );
        }
        let differing: Vec<String> = a_runs
            .counters
            .iter()
            .zip(&b_runs.counters)
            .filter(|(x, y)| x != y)
            .map(|((name, x), (_, y))| format!("{name} ({x} vs {y})"))
            .collect();
        if differing.is_empty() {
            println!(
                "{workload:<18} exact counters: {} identical",
                a_runs.counters.len()
            );
        } else {
            clean = false;
            println!(
                "{workload:<18} exact counters differ: {}",
                differing.join(", ")
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_baseline_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = |b: &[f64]| judge(&a, b, Better::Lower, 0.10, 0.0);
        assert_eq!(lower(&[100.0, 101.0, 99.0]), Verdict::Unchanged);
        assert_eq!(lower(&[108.0, 109.0, 107.0]), Verdict::Unchanged);
        assert_eq!(lower(&[112.0, 113.0, 111.0]), Verdict::Regressed);
        assert_eq!(lower(&[90.0, 91.0, 89.0]), Verdict::Improved);
        // For a throughput the directions swap.
        let higher = |b: &[f64]| judge(&a, b, Better::Higher, 0.10, 0.0);
        assert_eq!(higher(&[88.0, 89.0, 87.0]), Verdict::Regressed);
        assert_eq!(higher(&[112.0, 113.0, 111.0]), Verdict::Improved);
        // A noisy baseline resolves nothing.
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(
            judge(&noisy, &[100.0, 100.0, 100.0], Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_small_setup_time_must_also_move_by_the_absolute_floor() {
        // 10 ms -> 14 ms is +40 %, but only 4 ms.
        let a = [0.010, 0.0101, 0.0099];
        let setup = |b: &[f64]| judge(&a, b, Better::Lower, 0.25, SETUP_FLOOR_S);
        assert_eq!(setup(&[0.014, 0.0141, 0.0139]), Verdict::Unchanged);
        assert_eq!(setup(&[0.080, 0.081, 0.079]), Verdict::Regressed);
        // A spread wider than the bound but narrower than the floor is
        // not "unresolved".
        let jumpy = [0.010, 0.016, 0.007];
        assert_eq!(
            judge(
                &jumpy,
                &[0.011, 0.012, 0.010],
                Better::Lower,
                0.25,
                SETUP_FLOOR_S
            ),
            Verdict::Unchanged
        );
    }

    #[test]
    fn any_increase_of_the_failed_share_is_a_regression() {
        assert_eq!(judge_failures((0, 100), (0, 90)), Verdict::Unchanged);
        assert_eq!(judge_failures((0, 100), (1, 1000)), Verdict::Regressed);
        assert_eq!(judge_failures((2, 100), (1, 100)), Verdict::Improved);
        assert_eq!(judge_failures((1, 100), (2, 200)), Verdict::Unchanged);
    }

    /// A result set of three untraced runs of one workload, every metric
    /// at `value`, `failed` of 100 operations failed in each run.
    fn write_set(dir: &Path, name: &str, value: f64, failed: u64) -> std::path::PathBuf {
        let identity = Json::obj(IDENTITY_FIELDS.map(|f| (f, Json::Num(1.0))));
        let metrics = Json::obj(END_TO_END.iter().map(|def| {
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.to_string())),
                ]),
            )
        }));
        let line = Json::obj([
            ("workload", Json::Str(WORKLOADS[0].to_string())),
            ("trace", Json::Num(0.0)),
            ("fingerprint", identity),
            (
                "result",
                Json::obj([
                    ("correct", Json::Bool(failed == 0)),
                    ("attempted", Json::Num(100.0)),
                    ("failed", Json::Num(failed as f64)),
                    ("metrics", metrics),
                ]),
            ),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, format!("{line}\n").repeat(UNTRACED_RUNS)).unwrap();
        path
    }

    #[test]
    fn compare_fails_a_set_in_which_more_operations_failed() {
        let dir = nodb_common::TempDir::new("bench-compare").unwrap();
        let a = write_set(dir.path(), "a.jsonl", 100.0, 0);
        let same = write_set(dir.path(), "same.jsonl", 100.0, 0);
        let wrong = write_set(dir.path(), "wrong.jsonl", 100.0, 100);
        assert_eq!(compare(&a, &same), Ok(true));
        // Identical timings, every answer wrong: not clean.
        assert_eq!(compare(&a, &wrong), Ok(false));
        // And fewer failures than the baseline is clean again.
        assert_eq!(compare(&wrong, &a), Ok(true));
    }

    #[test]
    fn contract_file_gives_the_run_length() {
        let seconds = contract_run_seconds();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
