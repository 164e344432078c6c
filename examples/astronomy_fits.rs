//! Astronomy scenario (paper §5.3): SQL over a FITS binary table,
//! side-by-side with the procedural CFITSIO-style alternative.
//!
//! ```text
//! cargo run --release --example astronomy_fits
//! ```
//!
//! The paper's Figure 11 point: a procedural program re-scans the file
//! for every aggregate and stays at constant cost, while the in-situ
//! engine's cache makes repeated analysis nearly free — and each SQL
//! query is one line instead of a custom C program.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nodb_common::{Row, TempDir, Value};
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_fits::procedural::ProcAgg;
use nodb_fits::{FitsTableWriter, FitsType, ProceduralFits};

const ROWS: usize = 400_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = TempDir::new("nodb-fits-example")?;
    let path = dir.file("catalog.fits");

    // Write a star catalogue: id, position, magnitudes.
    print!("writing {ROWS}-row FITS binary table ... ");
    let mut w = FitsTableWriter::create(
        &path,
        vec![
            ("objid".into(), FitsType::K),
            ("ra".into(), FitsType::D),
            ("dec".into(), FitsType::D),
            ("mag_g".into(), FitsType::D),
            ("mag_r".into(), FitsType::D),
            ("class".into(), FitsType::A(8)),
        ],
    )?;
    let mut rng = StdRng::seed_from_u64(11);
    for i in 0..ROWS {
        let class = match rng.gen_range(0..10) {
            0..=6 => "STAR",
            7..=8 => "GALAXY",
            _ => "QSO",
        };
        w.write_row(&Row(vec![
            Value::Int64(i as i64),
            Value::Float64(rng.gen_range(0.0..360.0)),
            Value::Float64(rng.gen_range(-90.0..90.0)),
            Value::Float64(rng.gen_range(14.0..24.0)),
            Value::Float64(rng.gen_range(13.5..23.5)),
            Value::Text(class.into()),
        ]))?;
    }
    w.finish()?;
    println!("done ({} MB)", std::fs::metadata(&path)?.len() / 1_000_000);

    // --- The old way: a procedural program per question. -----------------
    let mut proc = ProceduralFits::open(&path)?;
    let t = Instant::now();
    let pmin = proc.aggregate("mag_g", ProcAgg::Min)?;
    let pmax = proc.aggregate("mag_g", ProcAgg::Max)?;
    let pavg = proc.aggregate("mag_g", ProcAgg::Avg)?;
    println!(
        "\nprocedural (CFITSIO-style): min={pmin:.3} max={pmax:.3} avg={pavg:.3}  \
         [{:.0} ms, {:.1} MB read]",
        t.elapsed().as_secs_f64() * 1e3,
        proc.bytes_read as f64 / 1e6
    );

    // --- The NoDB way: register the FITS file, write SQL. ---------------
    let mut db = NoDb::new(NoDbConfig::postgres_raw())?;
    db.register_fits("catalog", &path, AccessMode::InSitu)?;

    let queries = [
        "select min(mag_g), max(mag_g), avg(mag_g) from catalog",
        "select class, count(*) as n, avg(mag_g) from catalog group by class order by n desc",
        "select count(*) from catalog where mag_g < 16 and dec > 0",
        "select avg(mag_g - mag_r) from catalog where class = 'QSO'",
    ];
    println!("\nSQL over the same file (first query builds the cache):");
    for sql in queries {
        let t = Instant::now();
        let r = db.query(sql)?;
        println!("  [{:6.0} ms] {sql}", t.elapsed().as_secs_f64() * 1e3);
        for row in r.rows.iter().take(3) {
            println!("             -> {row}");
        }
    }

    // Repeat the first query: served from the binary cache.
    let t = Instant::now();
    db.query(queries[0])?;
    println!(
        "\nrepeat of query #1: {:.1} ms (cache-resident)",
        t.elapsed().as_secs_f64() * 1e3
    );
    let m = db.metrics("catalog")?;
    println!(
        "engine work over {} scans: {} values decoded from the file, {} served from the cache",
        m.scans, m.fields_parsed, m.fields_from_cache
    );
    Ok(())
}
