//! Atomic results I/O: same-directory temp file + fsync + rename for
//! whole-file writes, append+fdatasync for journals and history lines,
//! and recovery-time sweeping of temp files a crashed process left
//! behind. Readers of `results/*` either see the old complete file or
//! the new complete file — never a torn one.

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
    let path = path.as_ref();
    if let Some(d) = parent_dir(path) {
        fs::create_dir_all(d)?;
    }
    let tmp = temp_path_for(path)?;
    let write = (|| {
        #[expect(clippy::disallowed_methods, reason = "atomic_write's own temp file")]
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        if let Some(d) = parent_dir(path) {
            if let Ok(dir) = fs::File::open(d) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    write
}

/// Append `line` to `path` durably: open with `O_APPEND` (creating the
/// file and parent directories if needed), write the line plus a
/// trailing newline if it lacks one, and fdatasync before returning.
/// Suitable for append-only ledgers where each line
/// must survive a crash the instant the call returns.
pub fn durable_append(path: impl AsRef<Path>, line: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(d) = parent_dir(path) {
        fs::create_dir_all(d)?;
    }
    #[expect(clippy::disallowed_methods, reason = "durable_append's own handle")]
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    if !line.ends_with('\n') {
        f.write_all(b"\n")?;
    }
    f.sync_data()?;
    Ok(())
}

/// Remove stale `*.pq-tmp.*` files in `dir` — leftovers from a
/// process that crashed between temp-write and rename. Returns how
/// many were removed; a missing directory is simply zero. Each removal
/// is reported through the warn sink so recovery is visible in traces.
pub fn recover_stale_temps(dir: impl AsRef<Path>) -> io::Result<usize> {
    let dir = dir.as_ref();
    let entries = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0usize;
    for entry in entries.flatten() {
        let name = entry.file_name();
        if !name.to_string_lossy().contains(TMP_MARKER) {
            continue;
        }
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        if fs::remove_file(entry.path()).is_ok() {
            crate::warn(&format!(
                "recovery: removed stale temp file {}",
                entry.path().display()
            ));
            removed += 1;
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
    fn durable_append_adds_newlines() {
        let dir = scratch("append");
        let path = dir.join("history.jsonl");
        durable_append(&path, "{\"a\":1}").unwrap();
        durable_append(&path, "{\"b\":2}\n").unwrap();
        let body = fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"a\":1}\n{\"b\":2}\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_removes_only_stale_temps() {
        let dir = scratch("recover");
        fs::write(dir.join("manifest.json"), b"keep").unwrap();
        fs::write(dir.join(format!("manifest.json{TMP_MARKER}123")), b"stale").unwrap();
        fs::write(dir.join(format!("obs.json{TMP_MARKER}999")), b"stale").unwrap();
        let removed = recover_stale_temps(&dir).unwrap();
        assert_eq!(removed, 2);
        assert!(dir.join("manifest.json").exists());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        // Missing directory is fine.
        assert_eq!(recover_stale_temps(dir.join("nope")).unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
