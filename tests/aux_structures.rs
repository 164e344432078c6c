//! Budget enforcement, eviction and update handling across the public
//! API (paper §4.2 maintenance, §4.3 cache sizing, §4.5 updates).

use std::path::PathBuf;

use nodb_common::{ByteSize, Schema, TempDir, Value};
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_csv::{CsvOptions, MicroGen};

fn micro(rows: usize, cols: usize) -> (TempDir, PathBuf, Schema) {
    let td = TempDir::new("nodb-aux").unwrap();
    let p = td.file("t.csv");
    let spec = MicroGen::default().rows(rows).cols(cols).seed(17);
    spec.write_to(&p).unwrap();
    let schema = spec.schema();
    (td, p, schema)
}

fn engine(cfg: NoDbConfig, p: &std::path::Path, s: &Schema) -> NoDb {
    let mut db = NoDb::new(cfg).unwrap();
    db.register_csv("t", p, s.clone(), CsvOptions::default(), AccessMode::InSitu)
        .unwrap();
    db
}

#[test]
fn posmap_budget_holds_under_shifting_workload() {
    let (_td, p, s) = micro(4000, 40);
    let mut cfg = NoDbConfig::pm_only();
    cfg.posmap_budget = Some(ByteSize::kb(48));
    cfg.posmap_block_rows = 1024;
    let db = engine(cfg, &p, &s);
    for c in (0..40).step_by(3) {
        db.query(&format!("select c{c} from t")).unwrap();
        let info = db.aux_info("t").unwrap();
        assert!(
            info.posmap_bytes <= 48_000,
            "map budget violated at column {c}: {}",
            info.posmap_bytes
        );
    }
    // Queries remain correct under eviction pressure.
    let r = db
        .query("select count(*) from t where c0 < 500000000")
        .unwrap();
    let n = r.rows[0].get(0).as_i64().unwrap();
    assert!((1000..3000).contains(&n), "plausible selectivity: {n}");
}

/// Two tables of one engine under a map budget tight enough to evict
/// chunks of both: every answer equals the aux-free oracle's. (When
/// evicted chunks went to one engine-wide spill directory, each table's
/// map wrote the same file names and reloaded the other's positions.)
#[test]
fn two_tables_under_one_map_budget_answer_like_the_oracle() {
    let td = TempDir::new("nodb-aux").unwrap();
    let tables: Vec<(&str, PathBuf, Schema)> = [("a", 17), ("b", 99)]
        .into_iter()
        .map(|(name, seed)| {
            let p = td.file(&format!("{name}.csv"));
            let spec = MicroGen::default().rows(4000).cols(30).seed(seed);
            spec.write_to(&p).unwrap();
            (name, p, spec.schema())
        })
        .collect();
    let open = |cfg: NoDbConfig, mode: AccessMode| {
        let mut db = NoDb::new(cfg).unwrap();
        for (name, p, s) in &tables {
            db.register_csv(name, p, s.clone(), CsvOptions::default(), mode)
                .unwrap();
        }
        db
    };
    let mut cfg = NoDbConfig::pm_only();
    cfg.posmap_budget = Some(ByteSize::kb(24));
    cfg.posmap_block_rows = 1024;
    let db = open(cfg, AccessMode::InSitu);
    let oracle = open(NoDbConfig::baseline(), AccessMode::ExternalFiles);
    for c in (0..30).step_by(2) {
        for (name, ..) in &tables {
            db.query(&format!("select c{c} from {name}")).unwrap();
        }
    }
    for (name, ..) in &tables {
        assert!(db.aux_info(name).unwrap().posmap_bytes <= 24_000);
        for c in (0..30).step_by(2) {
            let sql = format!("select sum(c{c}), sum(c{}) from {name}", c + 1);
            let got = db.query(&sql).unwrap().rows;
            assert_eq!(got, oracle.query(&sql).unwrap().rows, "{sql}");
        }
    }
}

#[test]
fn cache_budget_evicts_but_never_corrupts() {
    let (_td, p, s) = micro(3000, 24);
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.cache_budget = Some(ByteSize::kb(40));
    let db = engine(cfg.clone(), &p, &s);
    let reference = {
        let mut db2 = NoDb::new(NoDbConfig::baseline()).unwrap();
        db2.register_csv(
            "t",
            &p,
            s.clone(),
            CsvOptions::default(),
            AccessMode::ExternalFiles,
        )
        .unwrap();
        db2
    };
    for round in 0..3 {
        for c in (0..24).step_by(5) {
            let sql = format!("select sum(c{c}) from t");
            let a = db.query(&sql).unwrap().rows;
            let b = reference.query(&sql).unwrap().rows;
            assert_eq!(a, b, "round {round}, column {c}");
            assert!(db.aux_info("t").unwrap().cache_bytes <= 40_000);
        }
    }
}

#[test]
fn append_extends_all_structures_without_invalidation() {
    let td = TempDir::new("nodb-aux").unwrap();
    let p = td.file("t.csv");
    let spec = MicroGen::default().rows(1000).cols(6).seed(2);
    spec.write_to(&p).unwrap();
    let s = spec.schema();
    let db = engine(NoDbConfig::postgres_raw(), &p, &s);

    db.query("select c0, c3 from t").unwrap();
    let m_before = db.metrics("t").unwrap();
    let ptr_before = db.aux_info("t").unwrap().posmap_pointers;

    spec.append_to(&p, 500).unwrap();
    let r = db.query("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(1500));

    // Only the appended region was tokenized.
    let m_after = db.metrics("t").unwrap();
    let new_bytes = m_after.bytes_tokenized - m_before.bytes_tokenized;
    let file_len = std::fs::metadata(&p).unwrap().len();
    assert!(
        new_bytes < file_len / 2,
        "append must not re-tokenize the old region: {new_bytes} of {file_len}"
    );
    // The map grew to cover the appended rows.
    db.query("select c0, c3 from t").unwrap();
    let ptr_after = db.aux_info("t").unwrap().posmap_pointers;
    assert!(ptr_after > ptr_before);
}

#[test]
fn shrunken_file_invalidates_and_recovers() {
    let td = TempDir::new("nodb-aux").unwrap();
    let p = td.file("t.csv");
    std::fs::write(&p, "1,100\n2,200\n3,300\n4,400\n").unwrap();
    let s = Schema::parse("a int, b int").unwrap();
    let db = engine(NoDbConfig::postgres_raw(), &p, &s);
    assert_eq!(
        db.query("select count(*) from t").unwrap().rows[0].get(0),
        &Value::Int64(4)
    );
    std::fs::write(&p, "9,900\n8,800\n").unwrap();
    assert_eq!(
        db.query("select count(*) from t").unwrap().rows[0].get(0),
        &Value::Int64(2)
    );
    let r = db.query("select b from t where a = 9").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int32(900));
}

#[test]
fn fits_provider_plugs_into_the_engine() {
    use nodb_fits::{FitsProvider, FitsTableWriter, FitsType};

    let td = TempDir::new("nodb-fits-it").unwrap();
    let path = td.file("sky.fits");
    let mut w = FitsTableWriter::create(
        &path,
        vec![
            ("objid".into(), FitsType::J),
            ("ra".into(), FitsType::D),
            ("dec".into(), FitsType::D),
            ("mag".into(), FitsType::D),
        ],
    )
    .unwrap();
    for i in 0..5000 {
        w.write_row(&nodb_common::Row(vec![
            Value::Int32(i),
            Value::Float64(i as f64 * 0.072),
            Value::Float64(-30.0 + (i % 120) as f64),
            Value::Float64(12.0 + (i % 90) as f64 / 10.0),
        ]))
        .unwrap();
    }
    w.finish().unwrap();

    let provider = FitsProvider::open(&path).unwrap();
    let schema = provider.table().schema().unwrap();
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_provider("sky", schema, Box::new(provider))
        .unwrap();

    let r = db
        .query("select min(mag), max(mag), avg(mag) from sky where dec > 0")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let min = r.rows[0].get(0).as_f64().unwrap();
    let max = r.rows[0].get(1).as_f64().unwrap();
    let avg = r.rows[0].get(2).as_f64().unwrap();
    assert!(min >= 12.0 && max <= 21.0 && avg > min && avg < max);

    // SQL over FITS vs the procedural baseline.
    let mut proc = nodb_fits::ProceduralFits::open(&path).unwrap();
    let pmax = proc
        .aggregate("mag", nodb_fits::procedural::ProcAgg::Max)
        .unwrap();
    let smax = db.query("select max(mag) from sky").unwrap().rows[0]
        .get(0)
        .as_f64()
        .unwrap();
    assert_eq!(pmax, smax);
}
