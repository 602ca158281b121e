//! Structured result export: the harnesses print human-readable tables
//! *and* write machine-readable CSV ([`CsvTable`]) and JSON
//! ([`JsonReport`]) under `results/` so runs can be diffed and plotted.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use cta_telemetry::JsonValue;

/// Version of the machine-readable result layout. Bump when a report's
/// field set or meaning changes incompatibly; downstream tooling keys off
/// this. Every [`JsonReport`] carries it as its first field, and harness
/// CSVs that embed it (e.g. `serve_sweep.csv`) repeat it per row.
///
/// History: 1 = pre-versioned reports; 2 = `schema_version` stamped into
/// every JSON report and the serving-sweep CSV.
pub const SCHEMA_VERSION: u32 = 2;

/// A CSV table under construction.
///
/// ```
/// use cta_bench::CsvTable;
/// let mut t = CsvTable::new("demo", &["n", "speedup"]);
/// t.push(&["512".into(), "23.0".into()]);
/// assert_eq!(t.to_csv(), "n,speedup\n512,23.0\n");
/// ```
#[derive(Debug, Clone)]
pub struct CsvTable {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Starts a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn push(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// The table's name, the stem of its `results/` file.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The data rows, in the order pushed.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders RFC-4180-style CSV (quoting cells containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if c.contains(',') || c.contains('"') || c.contains('\n') {
                    out.push('"');
                    out.push_str(&c.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(c);
                }
            }
            out.push('\n');
        };
        write_row(&self.columns, &mut out);
        for r in &self.rows {
            write_row(r, &mut out);
        }
        out
    }

    /// Writes `results/<name>.csv` under `dir`, creating the directory.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_under(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = self.path_under(dir);
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// The path [`CsvTable::write_under`] writes for `dir`.
    pub fn path_under(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.csv", self.name))
    }
}

/// A named JSON report under construction: a top-level object written to
/// `results/<name>.json`, mirroring [`CsvTable`]'s conventions.
#[derive(Debug, Clone)]
pub struct JsonReport {
    name: String,
    fields: Vec<(String, JsonValue)>,
}

impl JsonReport {
    /// Starts a report pre-stamped with [`SCHEMA_VERSION`] as its first
    /// field, so every exported JSON identifies its layout generation.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            fields: vec![("schema_version".to_string(), JsonValue::Int(SCHEMA_VERSION as i64))],
        }
    }

    /// Appends one top-level field (keys keep insertion order; duplicate
    /// keys are the caller's bug and serialise as given).
    pub fn set(&mut self, key: &str, value: JsonValue) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Serialises the report to compact JSON.
    pub fn to_json(&self) -> String {
        JsonValue::Obj(self.fields.clone()).to_json()
    }

    /// Writes `<name>.json` under `dir`, creating the directory.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_under(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }

    /// Writes to the workspace-level `results/` directory, logging the
    /// destination; I/O failures are reported, not fatal.
    pub fn save(&self) {
        match self.write_under(Path::new("results")) {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("[could not save results/{}.json: {e}]", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_simple() {
        let mut t = CsvTable::new("t", &["a", "b"]);
        t.push(&["1".into(), "2".into()]);
        t.push(&["3".into(), "4".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n3,4\n");
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = CsvTable::new("t", &["x"]);
        t.push(&["a,b".into()]);
        t.push(&["say \"hi\"".into()]);
        assert_eq!(t.to_csv(), "x\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = CsvTable::new("t", &["a", "b"]);
        t.push(&["only-one".into()]);
    }

    #[test]
    fn json_report_keeps_insertion_order() {
        let mut r = JsonReport::new("t");
        r.set("z", JsonValue::Int(1)).set("a", JsonValue::Int(2));
        assert_eq!(r.to_json(), r#"{"schema_version":2,"z":1,"a":2}"#);
    }

    #[test]
    fn json_report_stamps_schema_version_first() {
        let r = JsonReport::new("t");
        assert_eq!(r.to_json(), format!(r#"{{"schema_version":{SCHEMA_VERSION}}}"#));
    }

    #[test]
    fn json_report_write_under_creates_file() {
        let dir = std::env::temp_dir().join(format!("cta-bench-json-{}", std::process::id()));
        let mut r = JsonReport::new("unit");
        r.set("k", JsonValue::Num(1.5));
        let path = r.write_under(&dir).expect("write");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(content, "{\"schema_version\":2,\"k\":1.5}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_under_creates_file() {
        let dir = std::env::temp_dir().join(format!("cta-bench-test-{}", std::process::id()));
        let mut t = CsvTable::new("unit", &["k"]);
        t.push(&["7".into()]);
        let path = t.write_under(&dir).expect("write");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(content, "k\n7\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
