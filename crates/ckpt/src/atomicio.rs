//! Atomic results I/O: same-directory temp file + fsync + rename for
//! whole-file writes, and sweeping of the temp files a killed process
//! left behind. Readers of `results/*` either see the old complete file
//! or the new complete file — never a torn one.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Substring that marks a temp file as ours. The pid suffix keeps
/// concurrent processes writing the same target from colliding.
pub const TMP_MARKER: &str = ".pq-tmp.";

fn parent_dir(path: &Path) -> Option<&Path> {
    path.parent().filter(|p| !p.as_os_str().is_empty())
}

fn temp_path_for(path: &Path) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("atomic_write: {} has no file name", path.display()),
        )
    })?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(format!("{TMP_MARKER}{}", std::process::id()));
    Ok(match parent_dir(path) {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    })
}

/// Write `bytes` to `path` atomically: write a temp file in the same
/// directory, fsync it, then rename over the target (and best-effort
/// fsync the directory so the rename itself is durable). On any error
/// the temp file is removed and the previous `path` contents are
/// untouched. Parent directories are created as needed.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |out| out.write_all(bytes))
}

/// [`atomic_write`] of what `write` streams into a buffered temp file,
/// for output too large to hold in memory at once; `write`'s value is
/// returned once the file is in place.
pub fn atomic_write_with<T>(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut dyn Write) -> io::Result<T>,
) -> io::Result<T> {
    let path = path.as_ref();
    if let Some(d) = parent_dir(path) {
        fs::create_dir_all(d)?;
    }
    let tmp = temp_path_for(path)?;
    let written = (|| {
        #[expect(clippy::disallowed_methods, reason = "atomic_write's own temp file")]
        let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
        let value = write(&mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        fs::rename(&tmp, path)?;
        if let Some(d) = parent_dir(path) {
            if let Ok(dir) = fs::File::open(d) {
                let _ = dir.sync_all();
            }
        }
        Ok(value)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Remove stale `*.pq-tmp.*` files in `dir` — leftovers from a
/// process killed between temp-write and rename — and return their
/// paths, so the caller can report the recovery. A missing directory
/// has nothing to remove.
pub fn recover_stale_temps(dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
    let entries = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut removed = Vec::new();
    for entry in entries.flatten() {
        let stale = entry.file_name().to_string_lossy().contains(TMP_MARKER)
            && entry.file_type().is_ok_and(|t| t.is_file());
        if stale && fs::remove_file(entry.path()).is_ok() {
            removed.push(entry.path());
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pq-ckpt-atomicio-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = scratch("roundtrip");
        let path = dir.join("sub").join("out.json");
        atomic_write(&path, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}");
        atomic_write(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}");
        // No temp debris after a successful write.
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(TMP_MARKER))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_rejects_bare_root() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }

    #[test]
    fn recover_removes_only_stale_temps() {
        let dir = scratch("recover");
        fs::write(dir.join("manifest.json"), b"keep").unwrap();
        fs::write(dir.join(format!("manifest.json{TMP_MARKER}123")), b"stale").unwrap();
        fs::write(dir.join(format!("obs.json{TMP_MARKER}999")), b"stale").unwrap();
        let mut removed = recover_stale_temps(&dir).unwrap();
        removed.sort();
        assert_eq!(
            removed,
            [
                dir.join(format!("manifest.json{TMP_MARKER}123")),
                dir.join(format!("obs.json{TMP_MARKER}999")),
            ]
        );
        assert!(dir.join("manifest.json").exists());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        // Missing directory is fine.
        assert!(recover_stale_temps(dir.join("nope")).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
