//! # symnet-store
//!
//! The disk layer of the persistent solver cache: a dependency-free
//! append-only record log with CRC-checked framing, crash-tolerant opening,
//! and a single-writer lockfile. The store knows nothing about solver
//! semantics — records are opaque byte payloads; the index over them lives in
//! memory on the caller's side and is rebuilt from the log on every open
//! (there is no separate index file to corrupt).
//!
//! ## Record framing
//!
//! Every record is framed as
//!
//! ```text
//! [payload length: u32 LE] [CRC-32 of payload: u32 LE] [payload bytes]
//! ```
//!
//! On open the log is scanned front to back. The first frame that fails
//! validation — header extending past end-of-file, payload extending past
//! end-of-file, or CRC mismatch — marks the *torn tail*: everything from that
//! frame on is truncated away (a crash mid-append or a flipped bit can only
//! damage a suffix of an append-only file, and every record before the damage
//! is still CRC-verified). A store can therefore always be opened; the worst
//! outcome of corruption is fewer recovered records, never a bad payload.
//!
//! ## Single-writer locking
//!
//! A `<log>.lock` file created with `create_new` holds the writer's PID.
//! A second open while the owner is alive (its `/proc/<pid>` entry exists)
//! fails with [`StoreError::Busy`], which callers treat as "run with a cold
//! cache". A lockfile whose owner is gone is stale — crashed writers must not
//! brick the cache directory — and is silently replaced. The lock exists to
//! serialise *writers*; corrupt data is impossible either way thanks to the
//! CRC scan, the lock merely avoids interleaved appends producing torn frames
//! for one another.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of frame header preceding every payload (length + CRC).
const FRAME_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }
    const TABLE: [u32; 256] = table();
    let mut crc = !0u32;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Why a store could not be opened.
#[derive(Debug)]
pub enum StoreError {
    /// Another live process (or this process, through another handle) holds
    /// the writer lock. Callers degrade to a cold cache.
    Busy {
        /// PID recorded in the lockfile.
        pid: u32,
    },
    /// An I/O error outside the torn-tail recovery path (recoverable
    /// corruption never surfaces as an error).
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Busy { pid } => {
                write!(f, "store is locked by live process {pid}")
            }
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// True when a process with this PID is currently alive (Linux: its `/proc`
/// entry exists; elsewhere the check degrades to "not alive", which at worst
/// lets a second writer replace a lock — still safe, see the module docs).
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// An open append-only record log holding the writer lock.
///
/// Dropping the store releases the lock. Records recovered by the opening
/// scan are taken with [`LogStore::take_records`].
#[derive(Debug)]
pub struct LogStore {
    file: File,
    lock_path: PathBuf,
    /// Payloads recovered by the opening scan, oldest first.
    recovered: Vec<Vec<u8>>,
    /// Bytes of validated frames (the append position).
    len: u64,
}

impl LogStore {
    /// Opens (creating if absent) the log at `path`, acquiring the writer
    /// lock and scanning existing records. A torn or corrupt tail is
    /// truncated; every payload before it is recovered.
    pub fn open(path: &Path) -> Result<LogStore, StoreError> {
        let lock_path = path.with_extension("lock");
        acquire_lock(&lock_path)?;
        // From here on the lock must be released on any failure path.
        match Self::open_locked(path) {
            Ok((file, recovered, len)) => Ok(LogStore {
                file,
                lock_path,
                recovered,
                len,
            }),
            Err(e) => {
                let _ = std::fs::remove_file(&lock_path);
                Err(StoreError::Io(e))
            }
        }
    }

    fn open_locked(path: &Path) -> io::Result<(File, Vec<Vec<u8>>, u64)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false) // existing records are recovered below, never discarded here
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut recovered = Vec::new();
        let mut offset = 0usize;
        while bytes.len() - offset >= FRAME_HEADER {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            let start = offset + FRAME_HEADER;
            let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
                break; // payload extends past EOF: torn tail
            };
            let payload = &bytes[start..end];
            if crc32(payload) != crc {
                break; // flipped bit: everything from here is suspect
            }
            recovered.push(payload.to_vec());
            offset = end;
        }
        if offset < bytes.len() {
            // Drop the torn/corrupt tail so the next append starts on a
            // frame boundary.
            file.set_len(offset as u64)?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((file, recovered, offset as u64))
    }

    /// Takes the payloads recovered when the store was opened, oldest first.
    pub fn take_records(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.recovered)
    }

    /// Appends one record. Buffered by the OS; call [`LogStore::sync`] to
    /// force it to disk.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Flushes appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Discards every record (used when the on-disk format version does not
    /// match the running binary's).
    pub fn truncate_all(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.len = 0;
        self.recovered.clear();
        Ok(())
    }
}

impl Drop for LogStore {
    fn drop(&mut self) {
        let _ = self.file.sync_data();
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// Creates the lockfile, replacing it if its recorded owner is dead.
fn acquire_lock(lock_path: &Path) -> Result<(), StoreError> {
    for attempt in 0..2 {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(lock_path)
        {
            Ok(mut f) => {
                let _ = f.write_all(std::process::id().to_string().as_bytes());
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let pid = std::fs::read_to_string(lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok())
                    .unwrap_or(0);
                if pid != 0 && pid_alive(pid) {
                    return Err(StoreError::Busy { pid });
                }
                if attempt == 0 {
                    // Stale (or unreadable) lock: remove and retry once. A
                    // concurrent racer beating us to the re-create surfaces
                    // as Busy on the second attempt.
                    let _ = std::fs::remove_file(lock_path);
                }
            }
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Err(StoreError::Busy { pid: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_log(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "symnet-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("records.log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrips_records_across_reopen() {
        let path = temp_log("roundtrip");
        {
            let mut store = LogStore::open(&path).unwrap();
            assert!(store.take_records().is_empty());
            store.append(b"alpha").unwrap();
            store.append(b"").unwrap();
            store.append(b"gamma gamma").unwrap();
            store.sync().unwrap();
        }
        let mut store = LogStore::open(&path).unwrap();
        assert_eq!(
            store.take_records(),
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma gamma".to_vec()]
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_log("torn");
        {
            let mut store = LogStore::open(&path).unwrap();
            store.append(b"keep me").unwrap();
            store.append(b"torn").unwrap();
            store.sync().unwrap();
        }
        // Simulate a crash mid-append: chop 2 bytes off the last frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        let mut store = LogStore::open(&path).unwrap();
        assert_eq!(store.take_records(), vec![b"keep me".to_vec()]);
        // The log is usable again: the torn frame was removed entirely.
        store.append(b"after recovery").unwrap();
        store.sync().unwrap();
        drop(store);
        let mut store = LogStore::open(&path).unwrap();
        assert_eq!(
            store.take_records(),
            vec![b"keep me".to_vec(), b"after recovery".to_vec()]
        );
    }

    #[test]
    fn bit_flip_invalidates_the_suffix_only() {
        let path = temp_log("bitflip");
        {
            let mut store = LogStore::open(&path).unwrap();
            store.append(b"first").unwrap();
            store.append(b"second").unwrap();
            store.append(b"third").unwrap();
            store.sync().unwrap();
        }
        // Flip one payload bit in the middle record ("second" starts after
        // the first frame: 8 header bytes + 5 payload bytes + 8 header).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 5 + 8] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = LogStore::open(&path).unwrap();
        // "first" still validates; "second" fails its CRC, so it and
        // everything after are dropped — corrupt payloads are never returned.
        assert_eq!(store.take_records(), vec![b"first".to_vec()]);
    }

    #[test]
    fn second_open_is_busy_while_lock_held() {
        let path = temp_log("busy");
        let store = LogStore::open(&path).unwrap();
        match LogStore::open(&path) {
            Err(StoreError::Busy { pid }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(store);
        // Dropping releases the lock.
        LogStore::open(&path).unwrap();
    }

    #[test]
    fn stale_lock_from_dead_process_is_replaced() {
        let path = temp_log("stale");
        // A PID that cannot be alive (kernel pid_max is far below 2^31-ish
        // values, and this one is not ours).
        std::fs::write(path.with_extension("lock"), "999999999").unwrap();
        let mut store = LogStore::open(&path).unwrap();
        store.append(b"works").unwrap();
    }

    #[test]
    fn truncate_all_empties_the_log() {
        let path = temp_log("truncate");
        {
            let mut store = LogStore::open(&path).unwrap();
            store.append(b"old-format record").unwrap();
            store.sync().unwrap();
            store.truncate_all().unwrap();
            store.append(b"new-format record").unwrap();
            store.sync().unwrap();
        }
        let mut store = LogStore::open(&path).unwrap();
        assert_eq!(store.take_records(), vec![b"new-format record".to_vec()]);
    }
}
