//! Data archiver: Uintah's UDA-style on-disk output.
//!
//! Production Uintah writes each timestep's grid variables into a "UDA"
//! directory (one subdirectory per timestep, an index, and per-patch
//! binary payloads) that post-processing and visualization (VisIt) read.
//! This module provides the same shape at a miniature scale: a
//! [`DataArchive`] directory containing a plain-text index plus one binary
//! file per saved field, written with the same little-endian codec the
//! message layer uses (the unit tests read it back with that codec).

use crate::codec;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use uintah_grid::{FieldData, VarLabel};

/// A directory of saved timesteps.
pub struct DataArchive {
    root: PathBuf,
}

/// An error from archive I/O.
#[derive(Debug)]
pub enum ArchiveError {
    Io(std::io::Error),
    /// The requested field is not in the archive.
    NotFound(String),
}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive I/O error: {e}"),
            ArchiveError::NotFound(s) => write!(f, "not in archive: {s}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl DataArchive {
    /// Create (or open) an archive rooted at `root`.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, ArchiveError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn timestep_dir(&self, ts: u32) -> PathBuf {
        self.root.join(format!("t{ts:05}"))
    }

    fn field_file(&self, ts: u32, label: VarLabel, piece: u32) -> PathBuf {
        self.timestep_dir(ts).join(format!("{}_{piece:05}.fld", label.name()))
    }

    /// Save one field (or one patch's piece of it) for a timestep. `piece`
    /// distinguishes per-patch payloads (use the patch id).
    pub fn save_field(
        &self,
        ts: u32,
        label: VarLabel,
        piece: u32,
        data: &FieldData,
    ) -> Result<(), ArchiveError> {
        fs::create_dir_all(self.timestep_dir(ts))?;
        let payload = codec::encode_window(data, &data.region());
        let path = self.field_file(ts, label, piece);
        let mut f = fs::File::create(&path)?;
        f.write_all(&payload)?;
        // Append to the timestep index (idempotent enough for our use: the
        // reader dedups).
        let mut idx = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.timestep_dir(ts).join("index.txt"))?;
        writeln!(
            idx,
            "{} {} {} {}",
            label.name(),
            label.id(),
            piece,
            path.file_name().unwrap().to_string_lossy()
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::{CcVariable, IntVector, Region};

    impl DataArchive {
        /// Pieces saved for `(ts, label)` according to the index.
        fn pieces(&self, ts: u32, label: VarLabel) -> Result<Vec<u32>, ArchiveError> {
            let idx = self.timestep_dir(ts).join("index.txt");
            let text = fs::read_to_string(&idx)
                .map_err(|_| ArchiveError::NotFound(idx.display().to_string()))?;
            let mut out: Vec<u32> = text
                .lines()
                .filter_map(|l| {
                    let mut parts = l.split_whitespace();
                    let name = parts.next()?;
                    let _id = parts.next()?;
                    let piece: u32 = parts.next()?.parse().ok()?;
                    (name == label.name()).then_some(piece)
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            Ok(out)
        }

        /// Timesteps present in the archive, ascending.
        fn timesteps(&self) -> Result<Vec<u32>, ArchiveError> {
            let mut out = Vec::new();
            for entry in fs::read_dir(&self.root)? {
                let name = entry?.file_name();
                let name = name.to_string_lossy();
                if let Some(ts) = name.strip_prefix('t').and_then(|s| s.parse::<u32>().ok()) {
                    out.push(ts);
                }
            }
            out.sort_unstable();
            Ok(out)
        }

        /// Open an existing archive.
        fn open(root: impl Into<PathBuf>) -> Result<Self, ArchiveError> {
            let root = root.into();
            if !root.is_dir() {
                return Err(ArchiveError::NotFound(root.display().to_string()));
            }
            Ok(Self { root })
        }

        /// Load one piece of a field.
        fn load_field(&self, ts: u32, label: VarLabel, piece: u32) -> Result<(Region, FieldData), ArchiveError> {
            let path = self.field_file(ts, label, piece);
            let buf = fs::read(&path).map_err(|_| ArchiveError::NotFound(path.display().to_string()))?;
            Ok(codec::decode_window(&buf))
        }
    }

    const DIVQ: VarLabel = VarLabel::new("divQ", 4);
    const CT: VarLabel = VarLabel::new("cellType", 3);

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rmcrt_archive_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_f64_field() {
        let dir = tmpdir("f64");
        let ar = DataArchive::create(&dir).unwrap();
        let region = Region::new(IntVector::new(8, 0, 4), IntVector::new(12, 6, 9));
        let mut v = CcVariable::<f64>::new(region);
        v.fill_with(|c| c.x as f64 * 0.5 - c.z as f64);
        ar.save_field(3, DIVQ, 7, &FieldData::F64(v.clone())).unwrap();
        let (r, data) = ar.load_field(3, DIVQ, 7).unwrap();
        assert_eq!(r, region);
        for c in region.cells() {
            assert_eq!(data.as_f64()[c], v[c]);
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn roundtrip_u8_field_and_index() {
        let dir = tmpdir("u8");
        let ar = DataArchive::create(&dir).unwrap();
        let v = CcVariable::<u8>::filled(Region::cube(4), 2u8);
        ar.save_field(0, CT, 0, &FieldData::U8(v.clone())).unwrap();
        ar.save_field(0, CT, 1, &FieldData::U8(v.clone())).unwrap();
        ar.save_field(1, CT, 0, &FieldData::U8(v)).unwrap();
        assert_eq!(ar.timesteps().unwrap(), vec![0, 1]);
        assert_eq!(ar.pieces(0, CT).unwrap(), vec![0, 1]);
        assert_eq!(ar.pieces(1, CT).unwrap(), vec![0]);
        assert_eq!(ar.pieces(1, DIVQ).unwrap(), Vec::<u32>::new());
        let (_, data) = ar.load_field(0, CT, 1).unwrap();
        assert_eq!(data.as_u8()[IntVector::ZERO], 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_field_is_not_found() {
        let dir = tmpdir("missing");
        let ar = DataArchive::create(&dir).unwrap();
        assert!(matches!(
            ar.load_field(9, DIVQ, 0),
            Err(ArchiveError::NotFound(_))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_existing_archive() {
        let dir = tmpdir("reopen");
        {
            let ar = DataArchive::create(&dir).unwrap();
            ar.save_field(2, DIVQ, 0, &FieldData::F64(CcVariable::filled(Region::cube(2), 1.0)))
                .unwrap();
        }
        let ar = DataArchive::open(&dir).unwrap();
        assert_eq!(ar.timesteps().unwrap(), vec![2]);
        assert!(DataArchive::open(dir.join("nope")).is_err());
        fs::remove_dir_all(dir).unwrap();
    }
}
