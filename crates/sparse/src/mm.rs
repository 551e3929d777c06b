//! MatrixMarket (`.mtx`) reading and writing.
//!
//! The paper's artifact consumes SuiteSparse matrices as MatrixMarket
//! coordinate files; this module implements the subset the collection
//! actually uses: `matrix coordinate {real|integer|pattern}
//! {general|symmetric|skew-symmetric}`. Pattern entries get value 1.0;
//! symmetric files are expanded to full storage (off-diagonal entries are
//! mirrored), matching the artifact's loader. The paper's appendix warns
//! that some collection files are mislabeled `.mtx`; we surface those as
//! [`Error::Parse`] so harnesses can skip them, exactly as `run.sh` does.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::{Error, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

fn parse_err(line: usize, msg: impl Into<String>) -> Error {
    Error::Parse {
        line,
        msg: msg.into(),
    }
}

/// Read a MatrixMarket coordinate file into COO form.
pub fn read_coo<R: Read>(reader: R) -> Result<Coo<f32>> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| parse_err(0, "empty file"))?
        .map_err(Error::Io)?;
    let mut lineno = 1usize;
    let toks: Vec<String> = header.split_whitespace().map(str::to_lowercase).collect();
    if toks.len() < 4 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(parse_err(1, "missing %%MatrixMarket matrix header"));
    }
    if toks[2] != "coordinate" {
        return Err(parse_err(1, format!("unsupported format '{}'", toks[2])));
    }
    let field = match toks[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(parse_err(1, format!("unsupported field '{other}'"))),
    };
    let symmetry = match toks.get(4).map(String::as_str) {
        None | Some("general") => Symmetry::General,
        Some("symmetric") => Symmetry::Symmetric,
        Some("skew-symmetric") => Symmetry::SkewSymmetric,
        Some(other) => return Err(parse_err(1, format!("unsupported symmetry '{other}'"))),
    };

    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(Error::Io)?;
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(trimmed.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err(lineno, "missing size line"))?;
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(parse_err(lineno, "size line must be 'rows cols nnz'"));
    }
    let rows: usize = dims[0]
        .parse()
        .map_err(|_| parse_err(lineno, "bad row count"))?;
    let cols: usize = dims[1]
        .parse()
        .map_err(|_| parse_err(lineno, "bad col count"))?;
    let nnz: usize = dims[2]
        .parse()
        .map_err(|_| parse_err(lineno, "bad nnz count"))?;

    let mut coo = Coo::empty(rows, cols);
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(Error::Io)?;
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing row"))?
            .parse()
            .map_err(|_| parse_err(lineno, "bad row index"))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing col"))?
            .parse()
            .map_err(|_| parse_err(lineno, "bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(lineno, "index out of declared bounds"));
        }
        let v: f32 = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .ok_or_else(|| parse_err(lineno, "missing value"))?
                .parse()
                .map_err(|_| parse_err(lineno, "bad value"))?,
        };
        let (r0, c0) = (r as u32 - 1, c as u32 - 1);
        coo.push(r0, c0, v).expect("bounds checked above");
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r0 != c0 => {
                coo.push(c0, r0, v).expect("bounds checked above");
            }
            Symmetry::SkewSymmetric if r0 != c0 => {
                coo.push(c0, r0, -v).expect("bounds checked above");
            }
            _ => {}
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            lineno,
            format!("declared {nnz} entries but found {seen}"),
        ));
    }
    Ok(coo)
}

/// Read a MatrixMarket file straight into canonical CSR.
pub fn read_csr<R: Read>(reader: R) -> Result<Csr<f32>> {
    Ok(crate::convert::coo_to_csr(&read_coo(reader)?))
}

/// Read a `.mtx` file from disk into CSR.
pub fn read_csr_path(path: impl AsRef<Path>) -> Result<Csr<f32>> {
    let f = std::fs::File::open(path)?;
    read_csr(f)
}

/// Write a CSR matrix as `matrix coordinate real general`.
pub fn write_csr<W: Write>(mut w: W, csr: &Csr<f32>) -> Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", csr.rows(), csr.cols(), csr.nnz())?;
    for (r, c, v) in csr.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 4 5\n\
        1 1 1.0\n\
        1 3 2.0\n\
        3 1 3.0\n\
        3 2 4.0\n\
        3 4 5.0\n";

    #[test]
    fn reads_general_real_file() {
        let csr = read_csr(GENERAL.as_bytes()).unwrap();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.row(2).0, &[0, 1, 3]);
    }

    #[test]
    fn symmetric_entries_are_mirrored() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
            3 3 3\n\
            1 1 1.0\n\
            2 1 2.0\n\
            3 2 3.0\n";
        let csr = read_csr(src.as_bytes()).unwrap();
        assert_eq!(csr.nnz(), 5); // diagonal not duplicated
        let (c0, _) = csr.row(0);
        assert_eq!(c0, &[0, 1]);
    }

    #[test]
    fn skew_symmetric_negates_mirror() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
            2 2 1\n\
            2 1 5.0\n";
        let csr = read_csr(src.as_bytes()).unwrap();
        assert_eq!(csr.nnz(), 2);
        let (_, v0) = csr.row(0);
        assert_eq!(v0, &[-5.0]);
        let (_, v1) = csr.row(1);
        assert_eq!(v1, &[5.0]);
    }

    #[test]
    fn pattern_files_get_unit_values() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
            2 2 2\n\
            1 2\n\
            2 1\n";
        let csr = read_csr(src.as_bytes()).unwrap();
        assert_eq!(csr.values(), &[1.0, 1.0]);
    }

    #[test]
    fn integer_field_parses() {
        let src = "%%MatrixMarket matrix coordinate integer general\n\
            1 1 1\n\
            1 1 7\n";
        let csr = read_csr(src.as_bytes()).unwrap();
        assert_eq!(csr.values(), &[7.0]);
    }

    #[test]
    fn malformed_files_error_with_line_numbers() {
        assert!(matches!(
            read_csr("not a header\n".as_bytes()),
            Err(Error::Parse { line: 1, .. })
        ));
        let bad_count = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(matches!(read_csr(bad_count.as_bytes()), Err(Error::Parse { .. })));
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(matches!(read_csr(oob.as_bytes()), Err(Error::Parse { line: 3, .. })));
        let array = "%%MatrixMarket matrix array real general\n2 2\n";
        assert!(matches!(read_csr(array.as_bytes()), Err(Error::Parse { line: 1, .. })));
    }

    #[test]
    fn write_read_roundtrip() {
        let csr = read_csr(GENERAL.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_csr(&mut buf, &csr).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(csr, back);
    }

    #[test]
    fn duplicate_coordinates_sum_on_read() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
            1 1 2\n\
            1 1 1.5\n\
            1 1 2.5\n";
        let csr = read_csr(src.as_bytes()).unwrap();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.values(), &[4.0]);
    }
}
