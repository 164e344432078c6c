//! One measured run of one workload: the untraced pass that yields the
//! end-to-end metrics, or the traced pass that yields the per-layer ones.

use std::path::{Path, PathBuf};

use crate::fingerprint::{fingerprint, peak_rss_mb};
use crate::json::Json;
use crate::names::{MetricDef, ADAPTIVE, ANALYTICS, CHURN, COLD, END_TO_END, PER_LAYER, SERVER};
use crate::probes::{self, ScanRates};
use crate::stats::{median_of, percentile, quiet_median, quiet_rate, sorted, supported_tail};
use crate::trace::{self, Span};
use crate::workloads::{self, Budget, Env, Measured, Pass, Res};

/// What the driver passes, plus the harness's own switches.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub corrupt_oracle: bool,
}

/// Rounds of the named workload in the traced pass (about a third of the
/// operations of an untraced run) and of a workload that runs only
/// because a layer's span metrics come from it. Fixed, so counters repeat
/// exactly from run to run.
fn traced_rounds(workload: &str, named: bool) -> usize {
    match (workload, named) {
        (COLD, true) => 60,
        (COLD, false) => 20,
        (ANALYTICS, true) => 16,
        (ANALYTICS, false) => 4,
        (SERVER, true) => 16,
        (SERVER, false) => 4,
        (CHURN, _) => 4,
        _ => 6,
    }
}

fn run_workload(name: &str, env: &Env, budget: Budget, trace: bool) -> Res<Pass> {
    match name {
        COLD => workloads::cold::run(env, budget, trace),
        ADAPTIVE => workloads::adaptive::run(env, budget, trace),
        ANALYTICS => workloads::analytics::run(env, budget, trace),
        SERVER => workloads::server::run(env, budget, trace),
        CHURN => workloads::churn::run(env, budget, trace),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The outcome of a run, ready to print.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    pub notes: Vec<String>,
    pub fingerprint: Json,
}

/// This process's scratch directory under `benchmark/data`, removed on
/// drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(bench_dir: &Path) -> Res<ScratchDir> {
        let dir = bench_dir
            .join("data")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(workloads::text)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The sizing pass of `churn_sequence`, in this process's own scratch
/// directory.
pub fn size_churn(seed: u64, scale: f64, bench_dir: &Path) -> Res<()> {
    let scratch = ScratchDir::create(bench_dir)?;
    workloads::churn::size(&Env::new(seed, scale, scratch.0.clone(), false))
}

pub fn run(args: &RunArgs, cleared_env: &[String], bench_dir: &Path) -> Res<Report> {
    let scratch = ScratchDir::create(bench_dir)?;
    let env = Env::new(
        args.seed,
        args.scale,
        scratch.0.clone(),
        args.corrupt_oracle,
    );
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    let (pass, metrics) = if args.trace {
        traced(args, &env, bench_dir)?
    } else {
        let pass = run_workload(&args.workload, &env, Budget::Seconds(args.seconds), false)?;
        let metrics = end_to_end(&pass)?;
        let ops = sorted(&pass.ops.ms);
        let at = |p: f64| percentile(&ops, p);
        println!(
            "op_ms distribution: mean {:.3} min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} \
             p90 {:.3} p99 {:.3} max {:.3} (n={}, {:.3} s)",
            ops.iter().sum::<f64>() / ops.len() as f64,
            ops[0],
            at(10.0),
            at(25.0),
            at(50.0),
            at(75.0),
            at(90.0),
            at(99.0),
            at(100.0),
            ops.len(),
            pass.wall_s
        );
        (pass, metrics)
    };
    Ok(Report {
        attempted: pass.ops.ms.len() as u64,
        failed: pass.ops.failed,
        metrics,
        notes: pass.notes,
        fingerprint: fingerprint(&env, cleared_env, repo),
    })
}

fn end_to_end(pass: &Pass) -> Res<Vec<Measured>> {
    let n = pass.ops.ms.len();
    if n == 0 {
        return Err("the measured phase ran no operation".to_string());
    }
    let p50 = quiet_median(&pass.ops.ms, pass.block_ops);
    let ops_per_s = quiet_rate(&pass.ops.at, &pass.ops.ms, pass.block_ops)
        .map_or(n as f64 / pass.wall_s, |rate| rate * pass.clients as f64);
    let rss =
        peak_rss_mb().ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())?;
    Ok(vec![
        Measured::new("setup_s", median_of(&pass.setup_s), pass.setup_s.len()),
        Measured::new("op_ms_p50", p50, n),
        Measured::new("ops_per_s", ops_per_s, n),
        Measured::new("raw_mb_per_s", pass.raw_bytes as f64 / 1e6 / (p50 / 1e3), n),
        Measured::new("peak_rss_mb", rss, 1),
    ])
}

/// The traced pass: the named workload with spans on in every other round,
/// a short pass of each workload that a layer's span metrics come from,
/// and the probes.
fn traced(args: &RunArgs, env: &Env, bench_dir: &Path) -> Res<(Pass, Vec<Measured>)> {
    let name = args.workload.as_str();
    let mut named = run_workload(name, env, Budget::Rounds(traced_rounds(name, true)), true)?;
    let mut layer: Vec<Measured> = std::mem::take(&mut named.layer);
    let mut side_passes = Vec::new();
    for home in [COLD, ANALYTICS, SERVER] {
        if home != name {
            let mut pass =
                run_workload(home, env, Budget::Rounds(traced_rounds(home, false)), true)?;
            layer.append(&mut pass.layer);
            side_passes.push((home, pass));
        }
    }
    let inputs = env.inputs.borrow();
    let input = |wanted: &str| {
        inputs
            .iter()
            .find(|(n, _)| n == wanted)
            .map(|(_, f)| f.clone())
            .ok_or_else(|| format!("input `{wanted}` was not generated"))
    };
    let (probe_metrics, rates) = probes::run(&input("wide.csv")?, &input("events.jsonl")?)?;
    drop(inputs);
    layer.extend(probe_metrics);

    let spans: Vec<Span> = named
        .tracers
        .iter()
        .flat_map(|t| t.spans().iter().cloned())
        .collect();
    for t in &named.tracers {
        trace::validate(t.spans())?;
    }
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(workloads::text)?;
    let tracers: Vec<&trace::Tracer> = named.tracers.iter().collect();
    trace::write_jsonl(&out_dir.join(format!("trace-{name}.jsonl")), &tracers)
        .map_err(workloads::text)?;
    print_self_times(&named);

    let c = &named.counters;
    let s = &c.scan;
    let count = |name, v: u64| Measured::new(name, v as f64, 1);
    let located = s.fields_via_map + s.fields_via_anchor + s.fields_tokenized;
    let converted = s.fields_from_cache + s.fields_parsed;
    let ratio = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    layer.extend([
        count("core.scan.fields_tokenized", s.fields_tokenized),
        count("core.scan.fields_via_map", s.fields_via_map),
        count("core.scan.fields_via_anchor", s.fields_via_anchor),
        count("core.scan.fields_parsed", s.fields_parsed),
        count("core.scan.fields_from_cache", s.fields_from_cache),
        count("core.scan.bytes_tokenized", s.bytes_tokenized),
        count("core.scan.rows_rejected_early", s.rows_rejected_early),
        Measured::new(
            "core.scan.map_hit_ratio",
            ratio(s.fields_via_map + s.fields_via_anchor, located),
            located as usize,
        ),
        Measured::new(
            "core.scan.cache_hit_ratio",
            ratio(s.fields_from_cache, converted),
            converted as usize,
        ),
        count("posmap.bytes", c.posmap_bytes),
        count("posmap.pointers", c.posmap_pointers),
        Measured::new(
            "posmap.bytes_per_raw_byte",
            ratio(c.posmap_bytes, named.raw_bytes),
            1,
        ),
        count("cache.bytes", c.cache_bytes),
        count("cache.reparsed_fields", named.reparsed_fields),
    ]);
    for (metric, span) in [
        ("sql.prepare_us_p50", "sql.prepare"),
        ("core.session.execute_us_p50", "core.session.execute"),
    ] {
        let ms = trace::durations_ms(&spans, span);
        if ms.is_empty() {
            return Err(format!("the traced pass recorded no `{span}` span"));
        }
        layer.push(Measured::new(metric, median_of(&ms) * 1e3, ms.len()));
    }
    let cold = side_passes
        .iter()
        .find(|(home, _)| *home == COLD)
        .map_or(&named, |(_, pass)| pass);
    let (residual, note) = residual_share(cold, &rates);
    layer.push(residual);
    named.notes.push(note);
    let op_ms = sorted(&named.ops.ms);
    layer.push(Measured::new(
        "workload.op_ms_p95",
        percentile(&op_ms, 95.0),
        op_ms.len(),
    ));
    layer.push(trace_overhead(&named)?);
    layer.push(Measured::new("harness.datagen_s", env.datagen_s.get(), 1));
    layer.push(Measured::new("harness.oracle_s", env.oracle_s.get(), 1));
    // The side passes' operations count towards `attempted` and `failed`
    // like the named workload's own.
    for (_, pass) in side_passes {
        named.ops.absorb(pass.ops);
    }
    Ok((named, layer))
}

/// `core.scan.residual_share` of a `cold_first_query` pass: the share of
/// a cold operation that the I/O, line-splitting, tokenizing and
/// conversion probes do not explain when each is scaled to the bytes and
/// fields the operation actually touched: populating the auxiliary
/// structures, and glue. Returns the metric and a note with its base.
fn residual_share(cold: &Pass, rates: &ScanRates) -> (Measured, String) {
    let scan = &cold.counters.scan;
    let raw_bytes = cold.raw_bytes as f64;
    let explained_ms = 1e3
        * (raw_bytes / rates.io_bytes_per_s
            + raw_bytes / rates.split_bytes_per_s
            + scan.bytes_tokenized as f64 / rates.tokenize_bytes_per_s
            + scan.fields_parsed as f64 / rates.parse_fields_per_s);
    let op_ms = median_of(&cold.ops.ms);
    (
        Measured::new("core.scan.residual_share", 1.0 - explained_ms / op_ms, 1),
        format!(
            "core.scan.residual_share = 1 - probe-explained {explained_ms:.3} ms / cold op {op_ms:.3} ms"
        ),
    )
}

/// Operation time with spans on relative to spans off, within one pass.
/// Tracing alternates between rounds, so the n-th traced operation of a
/// kind and the n-th untraced one ran close together in time: the ratio
/// is taken per such pair, which cancels slow phases of the machine, and
/// the median of the ratios is reported.
fn trace_overhead(pass: &Pass) -> Res<Measured> {
    let ops = &pass.ops;
    let kinds = ops.kind.iter().max().map_or(0, |&k| k as usize + 1);
    let mut samples: Vec<[Vec<f64>; 2]> = vec![Default::default(); kinds];
    for ((ms, &kind), &traced) in ops.ms.iter().zip(&ops.kind).zip(&ops.traced) {
        samples[kind as usize][usize::from(traced)].push(*ms);
    }
    let ratios: Vec<f64> = samples
        .iter()
        .flat_map(|[off, on]| on.iter().zip(off).map(|(on, off)| on / off))
        .collect();
    if ratios.is_empty() {
        return Err("the traced pass needs rounds with and without spans".to_string());
    }
    Ok(Measured::new(
        "harness.trace_overhead_share",
        median_of(&ratios) - 1.0,
        ratios.len(),
    ))
}

/// Print, per span name, its self time and its share of all operation
/// time: the most a faster layer can save on this workload.
fn print_self_times(pass: &Pass) {
    let rows = trace::self_time_table(pass.tracers.iter().map(|t| t.spans()));
    let total: u64 = rows.iter().map(|r| r.2).sum();
    println!("span self times (traced rounds):");
    for (name, calls, own_ns, total_ns) in rows {
        println!(
            "  {name:<24} calls={calls:<6} self={:>10.3} ms ({:>5.1} %)  total={:>10.3} ms",
            own_ns as f64 / 1e6,
            100.0 * own_ns as f64 / total.max(1) as f64,
            total_ns as f64 / 1e6
        );
    }
}

/// Print the human-readable table and, as the last line, the one JSON
/// object the driver reads. Returns `false` when an operation failed.
pub fn emit(args: &RunArgs, report: &Report) -> Res<bool> {
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("fingerprint: {}", report.fingerprint);
    for note in &report.notes {
        println!("note: {note}");
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "workload {} seed {} scale {} trace {}: attempted {} failed {} failed_share {failed_share}",
        args.workload,
        args.seed,
        args.scale,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    let mut members = Vec::with_capacity(defs.len());
    for def in defs {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == def.name)
            .ok_or_else(|| format!("metric `{}` was not measured", def.name))?;
        let tail = match (def.name, supported_tail(m.samples)) {
            ("workload.op_ms_p95", Some(p)) if p >= 95.0 => "  (>= 10 samples beyond p95)",
            ("workload.op_ms_p95", _) => "  (fewer than 10 samples beyond p95)",
            _ => "",
        };
        println!(
            "  {:<34} {:>18.6} {:<10} n={}{tail}",
            def.name, m.value, def.unit, m.samples
        );
        members.push((
            def.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(def.unit.to_string())),
            ]),
        ));
    }
    let ok = report.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(ok)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", Json::obj(members)),
        ])
    );
    Ok(ok)
}
