//! TSV point-file reading and writing: `id <TAB> c0 <TAB> c1 ...`.

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use sr_geometry::Point;

/// A malformed or unreadable data file. Every variant carries the path
/// (and line, where one exists) so the user can jump to the fault.
#[derive(Debug)]
pub enum DataError {
    /// The file could not be opened, read, or written.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// A line's leading id field is missing or not a `u64`.
    BadId {
        path: PathBuf,
        line: usize,
        detail: String,
    },
    /// A coordinate field is not a finite `f32`.
    BadCoordinate {
        path: PathBuf,
        line: usize,
        detail: String,
    },
    /// A line has an id but no coordinates.
    NoCoordinates { path: PathBuf, line: usize },
    /// A line's dimensionality differs from the first point's.
    DimensionMismatch {
        path: PathBuf,
        line: usize,
        got: usize,
        want: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            DataError::BadId { path, line, detail } => {
                write!(f, "{}:{line}: bad id: {detail}", path.display())
            }
            DataError::BadCoordinate { path, line, detail } => {
                write!(f, "{}:{line}: bad coordinate: {detail}", path.display())
            }
            DataError::NoCoordinates { path, line } => {
                write!(f, "{}:{line}: no coordinates", path.display())
            }
            DataError::DimensionMismatch {
                path,
                line,
                got,
                want,
            } => write!(
                f,
                "{}:{line}: dimensionality {got} differs from {want}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parse one coordinate: a finite `f32`. `str::parse` alone accepts
/// `NaN` and `inf`, which no index can store or answer.
pub fn parse_coord(field: &str) -> Result<f32, String> {
    match field.parse::<f32>() {
        Ok(x) if x.is_finite() => Ok(x),
        Ok(_) => Err(format!("{field} is not a finite number")),
        Err(e) => Err(e.to_string()),
    }
}

/// Read a TSV point file. Every line must have the same dimensionality.
pub fn read_points(path: &Path) -> Result<Vec<(Point, u64)>, DataError> {
    let io_err = |source| DataError::Io {
        path: path.to_path_buf(),
        source,
    };
    let file = std::fs::File::open(path).map_err(io_err)?;
    let reader = BufReader::new(file);
    let mut out = Vec::new();
    let mut dim = None;
    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.map_err(io_err)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let id_field = fields.next().ok_or_else(|| DataError::BadId {
            path: path.to_path_buf(),
            line: lineno,
            detail: "empty line".into(),
        })?;
        let id: u64 = id_field
            .parse()
            .map_err(|e: std::num::ParseIntError| DataError::BadId {
                path: path.to_path_buf(),
                line: lineno,
                detail: e.to_string(),
            })?;
        let coords: Result<Vec<f32>, _> = fields.map(parse_coord).collect();
        let coords = coords.map_err(|detail| DataError::BadCoordinate {
            path: path.to_path_buf(),
            line: lineno,
            detail,
        })?;
        if coords.is_empty() {
            return Err(DataError::NoCoordinates {
                path: path.to_path_buf(),
                line: lineno,
            });
        }
        match dim {
            None => dim = Some(coords.len()),
            Some(d) if d != coords.len() => {
                return Err(DataError::DimensionMismatch {
                    path: path.to_path_buf(),
                    line: lineno,
                    got: coords.len(),
                    want: d,
                })
            }
            _ => {}
        }
        out.push((Point::new(coords), id));
    }
    Ok(out)
}

/// Write points to a TSV file.
pub fn write_points(path: &Path, points: &[(Point, u64)]) -> Result<(), DataError> {
    let io_err = |source| DataError::Io {
        path: path.to_path_buf(),
        source,
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = BufWriter::new(file);
    for (p, id) in points {
        write!(w, "{id}").map_err(io_err)?;
        for c in p.coords() {
            write!(w, "\t{c}").map_err(io_err)?;
        }
        writeln!(w).map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sr-cli-data-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip() {
        let path = tmpfile("roundtrip.tsv");
        let points = vec![
            (Point::new(vec![0.5, -1.25]), 3),
            (Point::new(vec![1e-8, 4.0]), 9),
        ];
        write_points(&path, &points).unwrap();
        let back = read_points(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].1, 3);
        assert_eq!(back[0].0.coords(), &[0.5, -1.25]);
        assert_eq!(back[1].0.coords(), &[1e-8, 4.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let path = tmpfile("comments.tsv");
        std::fs::write(&path, "# header\n\n1\t0.5\t0.5\n").unwrap();
        let pts = read_points(&path).unwrap();
        assert_eq!(pts.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let path = tmpfile("mismatch.tsv");
        std::fs::write(&path, "1\t0.5\n2\t0.5\t0.5\n").unwrap();
        let err = read_points(&path).unwrap_err();
        assert!(
            matches!(
                err,
                DataError::DimensionMismatch {
                    line: 2,
                    got: 2,
                    want: 1,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("dimensionality"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_rejected_with_location() {
        let path = tmpfile("garbage.tsv");
        // Not a number, or a number no index can hold.
        for bad in ["x", "NaN", "inf", "-inf"] {
            std::fs::write(&path, format!("1\t{bad}\n")).unwrap();
            let err = read_points(&path).unwrap_err();
            assert!(
                matches!(err, DataError::BadCoordinate { line: 1, .. }),
                "{err}"
            );
            assert!(err.to_string().contains(":1:"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_points(Path::new("/nonexistent/nope.tsv")).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }), "{err}");
    }
}
