//! Shared data-file management: generated inputs are cached on disk and
//! reused across figures (keyed by their generation parameters).

use std::path::{Path, PathBuf};

use nodb_common::{Result, Row, Schema, Value};
use nodb_csv::MicroGen;
use nodb_fits::{FitsTableWriter, FitsType};
use nodb_tpch::TpchGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where generated inputs live (removed by `cargo clean` via target/, or
/// manually).
pub fn data_dir() -> PathBuf {
    let base = std::env::var_os("NODB_BENCH_DATA")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/nodb-bench-data"));
    std::fs::create_dir_all(&base).expect("create bench data dir");
    base
}

/// Generate (or reuse) the micro-benchmark file.
pub fn micro_file(rows: usize, cols: usize, pad: Option<usize>) -> Result<(PathBuf, Schema)> {
    let name = match pad {
        Some(w) => format!("micro-{rows}x{cols}-w{w}.csv"),
        None => format!("micro-{rows}x{cols}.csv"),
    };
    let path = data_dir().join(name);
    let mut spec = MicroGen::default().rows(rows).cols(cols).seed(0xbead);
    if let Some(w) = pad {
        spec = spec.pad_width(w);
    }
    generate_once(&path, |tmp| spec.write_to(tmp).map(drop))?;
    Ok((path, spec.schema()))
}

/// Run `write` unless `path` already exists. `write` fills a sibling
/// temp file, private to this process, that is renamed onto `path` only
/// once it returns `Ok`, so an interrupted, failed or concurrent run never
/// leaves a truncated input at `path` for every later run to reuse.
fn generate_once(path: &Path, write: impl FnOnce(&Path) -> Result<()>) -> Result<()> {
    if path.exists() {
        return Ok(());
    }
    let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("input");
    let tmp = path.with_file_name(format!(".{name}.{}.tmp", std::process::id()));
    let written = write(&tmp).and_then(|()| std::fs::rename(&tmp, path).map_err(Into::into));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Generate (or reuse) a TPC-H directory at `sf`.
pub fn tpch_dir(sf: f64) -> Result<PathBuf> {
    let dir = data_dir().join(format!("tpch-{sf}"));
    let marker = dir.join(".complete");
    if !marker.exists() {
        TpchGen::new(sf, 0xcafe).generate_all(&dir)?;
        std::fs::write(&marker, b"ok")?;
    }
    Ok(dir)
}

/// Generate (or reuse) the FITS table: 10 float columns (the paper's
/// workload aggregates float columns), plus an id.
pub fn fits_file(rows: usize) -> Result<PathBuf> {
    let path = data_dir().join(format!("sky-{rows}.fits"));
    generate_once(&path, |tmp| {
        let mut cols: Vec<(String, FitsType)> = vec![("objid".into(), FitsType::K)];
        for i in 0..10 {
            cols.push((format!("f{i}"), FitsType::D));
        }
        let mut w = FitsTableWriter::create(tmp, cols)?;
        let mut rng = StdRng::seed_from_u64(0xf175);
        for i in 0..rows {
            let mut vals = vec![Value::Int64(i as i64)];
            for _ in 0..10 {
                vals.push(Value::Float64(rng.gen_range(-1000.0..1000.0)));
            }
            w.write_row(&Row(vals))?;
        }
        w.finish().map(drop)
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::{NoDbError, TempDir};

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_generator_failing_midway_leaves_nothing_at_the_cached_path() {
        let td = TempDir::new("nodb-bench-data").unwrap();
        let path = td.file("micro.csv");
        let partial = |tmp: &Path| std::fs::write(tmp, b"1,2,3\n4,");

        // Killed midway: nothing is at the cached path for a later run.
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            generate_once(&path, |tmp| {
                partial(tmp)?;
                panic!("killed midway")
            })
        }));
        assert!(killed.is_err());
        assert!(!path.exists());

        // Failed midway: not even the temp file is left.
        let failed = generate_once(&path, |tmp| {
            partial(tmp)?;
            Err(NoDbError::internal("generator failed midway"))
        });
        assert!(failed.is_err());
        assert!(entries(td.path()).is_empty(), "{:?}", entries(td.path()));

        // The next run generates from scratch, and the run after reuses it.
        generate_once(&path, |tmp| Ok(std::fs::write(tmp, b"1,2,3\n")?)).unwrap();
        generate_once(&path, |_| panic!("a complete input is reused")).unwrap();
        assert_eq!(entries(td.path()), ["micro.csv"]);
        assert_eq!(std::fs::read(&path).unwrap(), b"1,2,3\n");
    }
}
