//! Persistent, disk-backed solver cache.
//!
//! The in-process memo tables ([`crate::intern`], the content memos in
//! [`crate::solve`]) make re-solving free *within* a run; this module makes it
//! cheap *across* runs. It layers two pieces on top of the
//! [`symnet_store::LogStore`] record log:
//!
//! 1. **In-memory index** — two uncapped tables of the kind every solver cache
//!    uses (`table.rs`), from stable 128-bit fingerprints (see
//!    [`crate::fingerprint`]) to decoded verdicts and projections, rebuilt
//!    from the log on [`configure`]. Their hit, miss and insert counters are
//!    the [`CacheCounters`]. There is no on-disk index file: the log *is* the
//!    store, so there is nothing to get out of sync.
//! 2. **Write-behind flusher** — stores enqueue an encoded record on an
//!    unbounded channel and return immediately; a dedicated flusher thread
//!    owns the `LogStore` and drains the channel in batches. The solver hot
//!    path never blocks on I/O, and [`flush`] provides a durability barrier
//!    for process exit and tests.
//!
//! ## Lifecycle and degradation
//!
//! The cache is process-global and off by default; [`configure`] points it at
//! a directory and returns `Ok(false)` — *degrading to a cold cache, never an
//! error* — when another live process holds the store lock. A log whose
//! header does not match [`FORMAT_VERSION`] is wiped and restarted; records
//! whose keys were produced by a different `SolverConfig` or fingerprint
//! version simply never match (the config fingerprint is mixed into every
//! key). Torn or bit-flipped tails are truncated by the store layer on open.
//! Every failure mode therefore converges to "fewer warm hits", never to a
//! wrong verdict.

use crate::interval::IntervalSet;
use crate::model::Model;
use crate::solve::SolverResult;
use crate::table::Table;
use crate::term::VarId;
use serde_json::{json, Number, Value};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, OnceLock, PoisonError};
use symnet_store::{LogStore, StoreError};

/// Version of the on-disk record encoding. A log whose header carries a
/// different version is wiped on open (the fingerprint scheme has its own
/// version, [`crate::fingerprint::FP_VERSION`], which invalidates by key
/// mismatch instead). Version 2 dropped the replayed cubes-examined count
/// from every record, and the counterexample records.
pub const FORMAT_VERSION: u32 = 2;

/// File name of the record log inside the cache directory.
const LOG_NAME: &str = "solver-cache.log";

/// The in-memory index of the log: verdicts and projections by key. Both
/// tables are uncapped, since they mirror what is on disk; their counters are
/// the [`CacheCounters`].
struct Maps {
    verdicts: Table<SolverResult>,
    projections: Table<Option<IntervalSet>>,
}

fn maps() -> &'static Maps {
    static MAPS: OnceLock<Maps> = OnceLock::new();
    MAPS.get_or_init(|| Maps {
        verdicts: Table::new(usize::MAX),
        projections: Table::new(usize::MAX),
    })
}

enum FlushMsg {
    Record(Vec<u8>),
    Flush(Sender<()>),
    Shutdown,
}

struct Flusher {
    tx: Sender<FlushMsg>,
    handle: Option<std::thread::JoinHandle<()>>,
}

static FLUSHER: Mutex<Option<Flusher>> = Mutex::new(None);
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Process-lifetime counters of the persistent cache (all queries by all
/// solvers since the last [`reset_counters`]). Records loaded by [`configure`]
/// are not stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Verdict lookups answered from the store.
    pub verdict_hits: u64,
    /// Verdict lookups that fell through to the solver.
    pub verdict_misses: u64,
    /// Verdicts written to the store.
    pub verdict_stores: u64,
    /// Projection lookups answered from the store.
    pub projection_hits: u64,
    /// Projection lookups that fell through to the solver.
    pub projection_misses: u64,
    /// Projections written to the store.
    pub projection_stores: u64,
}

/// Snapshot of the global cache counters.
pub fn counters() -> CacheCounters {
    let verdicts = maps().verdicts.counters();
    let projections = maps().projections.counters();
    CacheCounters {
        verdict_hits: verdicts.hits,
        verdict_misses: verdicts.misses,
        verdict_stores: verdicts.inserts,
        projection_hits: projections.hits,
        projection_misses: projections.misses,
        projection_stores: projections.inserts,
    }
}

/// Resets the global cache counters to zero (bench/test isolation).
pub fn reset_counters() {
    maps().verdicts.reset_counters();
    maps().projections.reset_counters();
}

/// True when a disk-backed cache is configured and accepting queries.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// One record of the append-only log, stored as a JSON object tagged by
/// variant: `{"Verdict":{"key_hi":…,"key_lo":…,"verdict":2,"model":[[5,1]]}}`.
/// Keys are 128-bit fingerprints split into `(hi, lo)` word pairs, models are
/// `(variable id, value)` pairs. [`encode`] and [`decode`] write this text by
/// hand; changing it means bumping [`FORMAT_VERSION`].
#[derive(Debug, PartialEq)]
enum CacheRecord {
    /// First record of every log: the encoding version.
    Header { version: u32 },
    Verdict {
        key_hi: u64,
        key_lo: u64,
        /// 0 = Unsat, 1 = Unknown, 2 = Sat (with `model`).
        verdict: u8,
        model: Vec<(u64, u64)>,
    },
    Projection {
        key_hi: u64,
        key_lo: u64,
        /// False when the projection itself was unanswerable (e.g. a cube
        /// budget overflow on the prefix) — a cachable "no answer".
        known: bool,
        ranges: Vec<(i128, i128)>,
    },
}

fn split_key(key: u128) -> (u64, u64) {
    ((key >> 64) as u64, key as u64)
}

fn join_key(hi: u64, lo: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

fn encode(record: &CacheRecord) -> Vec<u8> {
    let value = match record {
        CacheRecord::Header { version } => json!({ "Header": { "version": *version } }),
        CacheRecord::Verdict {
            key_hi,
            key_lo,
            verdict,
            model,
        } => {
            let model: Vec<Value> = model.iter().map(|&(id, v)| json!([id, v])).collect();
            json!({ "Verdict": {
                "key_hi": *key_hi, "key_lo": *key_lo, "verdict": *verdict, "model": model
            } })
        }
        CacheRecord::Projection {
            key_hi,
            key_lo,
            known,
            ranges,
        } => {
            let ranges: Vec<Value> = ranges.iter().map(|&(lo, hi)| json!([lo, hi])).collect();
            json!({ "Projection": {
                "key_hi": *key_hi, "key_lo": *key_lo, "known": *known, "ranges": ranges
            } })
        }
    };
    serde_json::to_string(&value)
        .expect("rendering a JSON value cannot fail")
        .into_bytes()
}

/// Parses one record; `None` for anything [`encode`] does not write (a
/// missing field, a value out of its field's range, an unknown variant).
fn decode(bytes: &[u8]) -> Option<CacheRecord> {
    let value: Value = serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()?;
    let mut tagged = value.as_object()?.iter();
    let (variant, fields) = match (tagged.next(), tagged.next()) {
        (Some(entry), None) => entry,
        _ => return None,
    };
    let int = |v: &Value| match v {
        Value::Number(Number::Int(n)) => Some(*n),
        _ => None,
    };
    let field = |name: &str| int(&fields[name]);
    let word = |name: &str| u64::try_from(field(name)?).ok();
    let pairs = |name: &str| -> Option<Vec<(i128, i128)>> {
        let pair = |v: &Value| match v.as_array()?.as_slice() {
            [a, b] => Some((int(a)?, int(b)?)),
            _ => None,
        };
        fields[name].as_array()?.iter().map(pair).collect()
    };
    match variant.as_str() {
        "Header" => Some(CacheRecord::Header {
            version: u32::try_from(field("version")?).ok()?,
        }),
        "Verdict" => Some(CacheRecord::Verdict {
            key_hi: word("key_hi")?,
            key_lo: word("key_lo")?,
            verdict: u8::try_from(field("verdict")?).ok()?,
            model: pairs("model")?
                .into_iter()
                .map(|(id, v)| Some((u64::try_from(id).ok()?, u64::try_from(v).ok()?)))
                .collect::<Option<_>>()?,
        }),
        "Projection" => Some(CacheRecord::Projection {
            key_hi: word("key_hi")?,
            key_lo: word("key_lo")?,
            known: fields["known"].as_bool()?,
            ranges: pairs("ranges")?,
        }),
        _ => None,
    }
}

fn model_to_pairs(model: &Model) -> Vec<(u64, u64)> {
    model.iter().map(|(id, v)| (id.0, v)).collect()
}

fn pairs_to_model(pairs: &[(u64, u64)]) -> Model {
    pairs.iter().map(|&(id, v)| (VarId(id), v)).collect()
}

fn verdict_to_record(key: u128, result: &SolverResult) -> CacheRecord {
    let (key_hi, key_lo) = split_key(key);
    let (verdict, model) = match result {
        SolverResult::Unsat => (0u8, Vec::new()),
        SolverResult::Unknown => (1, Vec::new()),
        SolverResult::Sat(m) => (2, model_to_pairs(m)),
    };
    CacheRecord::Verdict {
        key_hi,
        key_lo,
        verdict,
        model,
    }
}

fn record_to_verdict(verdict: u8, model: &[(u64, u64)]) -> Option<SolverResult> {
    match verdict {
        0 => Some(SolverResult::Unsat),
        1 => Some(SolverResult::Unknown),
        2 => Some(SolverResult::Sat(pairs_to_model(model))),
        _ => None,
    }
}

/// Loads one decoded record into the in-memory index (warm start).
fn load_record(record: CacheRecord) {
    match record {
        CacheRecord::Header { .. } => {}
        CacheRecord::Verdict {
            key_hi,
            key_lo,
            verdict,
            model,
        } => {
            if let Some(result) = record_to_verdict(verdict, &model) {
                maps().verdicts.load(join_key(key_hi, key_lo), result);
            }
        }
        CacheRecord::Projection {
            key_hi,
            key_lo,
            known,
            ranges,
        } => {
            let set = known.then(|| IntervalSet::from_ranges(ranges.iter().copied()));
            maps().projections.load(join_key(key_hi, key_lo), set);
        }
    }
}

/// Points the process-wide cache at `dir`, loading any existing records.
///
/// Returns `Ok(true)` when the cache is active, `Ok(false)` when the store is
/// locked by another live process (the cache stays off — cold, not wrong).
/// Replaces any previously configured cache (flushing it first).
pub fn configure(dir: &Path) -> io::Result<bool> {
    deactivate();
    std::fs::create_dir_all(dir)?;
    let mut store = match LogStore::open(&dir.join(LOG_NAME)) {
        Ok(store) => store,
        Err(StoreError::Busy { .. }) => return Ok(false),
        Err(StoreError::Io(e)) => return Err(e),
    };
    let records = store.take_records();
    let header_ok = matches!(
        records.first().map(|r| decode(r)),
        Some(Some(CacheRecord::Header { version })) if version == FORMAT_VERSION
    );
    if header_ok {
        for bytes in &records[1..] {
            if let Some(record) = decode(bytes) {
                load_record(record);
            }
        }
    } else {
        // Fresh log, foreign format, or stale version: start over. (An
        // *empty* log is the common fresh-directory case.)
        store.truncate_all()?;
        store.append(&encode(&CacheRecord::Header {
            version: FORMAT_VERSION,
        }))?;
        store.sync()?;
    }
    let (tx, rx) = mpsc::channel::<FlushMsg>();
    let handle = std::thread::Builder::new()
        .name("symnet-cache-flusher".into())
        .spawn(move || flusher_loop(store, rx))?;
    *FLUSHER.lock().unwrap_or_else(PoisonError::into_inner) = Some(Flusher {
        tx,
        handle: Some(handle),
    });
    ACTIVE.store(true, Ordering::SeqCst);
    Ok(true)
}

/// The write-behind thread: owns the store, drains the channel in batches,
/// syncs on explicit flushes and on shutdown. Append errors are swallowed —
/// a full disk degrades the *next* open to fewer records, never this run's
/// correctness.
fn flusher_loop(mut store: LogStore, rx: mpsc::Receiver<FlushMsg>) {
    loop {
        let Ok(mut msg) = rx.recv() else { break };
        loop {
            match msg {
                FlushMsg::Record(bytes) => {
                    let _ = store.append(&bytes);
                }
                FlushMsg::Flush(ack) => {
                    let _ = store.sync();
                    let _ = ack.send(());
                }
                FlushMsg::Shutdown => return,
            }
            // Batch: drain whatever queued up while appending.
            match rx.try_recv() {
                Ok(next) => msg = next,
                Err(_) => break,
            }
        }
    }
}

/// Shuts the cache down: drains and syncs pending writes, releases the store
/// lock, clears the in-memory index. Queries degrade to cold immediately.
pub fn deactivate() {
    ACTIVE.store(false, Ordering::SeqCst);
    let flusher = FLUSHER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(mut flusher) = flusher {
        let _ = flusher.tx.send(FlushMsg::Shutdown);
        if let Some(handle) = flusher.handle.take() {
            let _ = handle.join();
        }
    }
    maps().verdicts.clear();
    maps().projections.clear();
}

/// Blocks until every record enqueued so far is on disk. No-op when the
/// cache is inactive.
pub fn flush() {
    let tx = {
        let guard = FLUSHER.lock().unwrap_or_else(PoisonError::into_inner);
        guard.as_ref().map(|f| f.tx.clone())
    };
    let Some(tx) = tx else { return };
    let (ack_tx, ack_rx) = mpsc::channel();
    if tx.send(FlushMsg::Flush(ack_tx)).is_ok() {
        let _ = ack_rx.recv();
    }
}

fn send_record(record: &CacheRecord) {
    let tx = {
        let guard = FLUSHER.lock().unwrap_or_else(PoisonError::into_inner);
        guard.as_ref().map(|f| f.tx.clone())
    };
    if let Some(tx) = tx {
        let _ = tx.send(FlushMsg::Record(encode(record)));
    }
}

/// Looks up a persisted verdict. Counts a hit or miss.
pub(crate) fn lookup_verdict(key: u128) -> Option<SolverResult> {
    active().then(|| maps().verdicts.get(key)).flatten()
}

/// Persists a verdict (idempotent: a key already present is left untouched,
/// so racing workers never duplicate disk records for the maps they share).
pub(crate) fn store_verdict(key: u128, result: &SolverResult) {
    if active() && maps().verdicts.insert(key, result.clone()) {
        send_record(&verdict_to_record(key, result));
    }
}

/// Looks up a persisted projection. Counts a hit or miss.
pub(crate) fn lookup_projection(key: u128) -> Option<Option<IntervalSet>> {
    active().then(|| maps().projections.get(key)).flatten()
}

/// Persists a projection result (idempotent, like [`store_verdict`]).
pub(crate) fn store_projection(key: u128, set: &Option<IntervalSet>) {
    if !active() || !maps().projections.insert(key, set.clone()) {
        return;
    }
    let (key_hi, key_lo) = split_key(key);
    send_record(&CacheRecord::Projection {
        key_hi,
        key_lo,
        known: set.is_some(),
        ranges: set
            .as_ref()
            .map(|s| s.as_slice().to_vec())
            .unwrap_or_default(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static N: TestCounter = TestCounter::new(0);
        let dir = std::env::temp_dir().join(format!(
            "symnet-cache-mod-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The cache is process-global, so tests touching it serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn record_encoding_roundtrips() {
        let model: Model = [(VarId(3), 9u64), (VarId(7), 0)].into_iter().collect();
        let max_model: Model = [(VarId(u64::MAX), u64::MAX)].into_iter().collect();
        // Every record kind with the exact text the log holds for it; a log
        // written by an earlier build must keep decoding.
        let records = [
            (
                CacheRecord::Header {
                    version: FORMAT_VERSION,
                },
                r#"{"Header":{"version":2}}"#,
            ),
            (
                verdict_to_record(0xDEAD_BEEF, &SolverResult::Sat(model)),
                r#"{"Verdict":{"key_hi":0,"key_lo":3735928559,"verdict":2,"model":[[3,9],[7,0]]}}"#,
            ),
            (
                verdict_to_record(1, &SolverResult::Unsat),
                r#"{"Verdict":{"key_hi":0,"key_lo":1,"verdict":0,"model":[]}}"#,
            ),
            (
                verdict_to_record(2, &SolverResult::Unknown),
                r#"{"Verdict":{"key_hi":0,"key_lo":2,"verdict":1,"model":[]}}"#,
            ),
            (
                CacheRecord::Projection {
                    key_hi: 1,
                    key_lo: 2,
                    known: true,
                    ranges: vec![(0, 5), (10, 20)],
                },
                r#"{"Projection":{"key_hi":1,"key_lo":2,"known":true,"ranges":[[0,5],[10,20]]}}"#,
            ),
            (
                CacheRecord::Projection {
                    key_hi: 3,
                    key_lo: 4,
                    known: false,
                    ranges: vec![],
                },
                r#"{"Projection":{"key_hi":3,"key_lo":4,"known":false,"ranges":[]}}"#,
            ),
            // Values past i64: a decoder reading through `as_i64` loses them.
            (
                verdict_to_record(u128::MAX, &SolverResult::Sat(max_model)),
                r#"{"Verdict":{"key_hi":18446744073709551615,"key_lo":18446744073709551615,"verdict":2,"model":[[18446744073709551615,18446744073709551615]]}}"#,
            ),
            (
                CacheRecord::Projection {
                    key_hi: u64::MAX,
                    key_lo: 0,
                    known: true,
                    ranges: vec![(-5, u64::MAX as i128)],
                },
                r#"{"Projection":{"key_hi":18446744073709551615,"key_lo":0,"known":true,"ranges":[[-5,18446744073709551615]]}}"#,
            ),
        ];
        for (record, text) in &records {
            assert_eq!(String::from_utf8(encode(record)).unwrap(), *text);
            assert_eq!(decode(text.as_bytes()).as_ref(), Some(record), "{text}");
        }
        for malformed in [
            &b"not json"[..],
            &[0xFF, 0xFE],
            br#"{"Verdict":{"key_hi":0,"key_lo":1,"verdict":2}}"#,
            br#"{"Verdict":{"key_hi":0,"key_lo":1,"verdict":300,"model":[]}}"#,
            br#"{"Verdict":{"key_hi":-1,"key_lo":1,"verdict":0,"model":[]}}"#,
            br#"[1,2]"#,
            br#""Header""#,
            br#"{"Bogus":{"version":2}}"#,
            br#"{"Header":{"version":2},"Verdict":{}}"#,
        ] {
            let text = String::from_utf8_lossy(malformed);
            assert_eq!(decode(malformed), None, "{text}");
        }
    }

    #[test]
    fn verdicts_survive_configure_cycles() {
        let _gate = lock();
        let dir = temp_dir("verdict-cycle");
        assert!(configure(&dir).unwrap());
        let model: Model = [(VarId(1), 5u64)].into_iter().collect();
        store_verdict(42, &SolverResult::Sat(model.clone()));
        store_verdict(43, &SolverResult::Unsat);
        assert_eq!(lookup_verdict(42), Some(SolverResult::Sat(model)));
        flush();
        deactivate();
        assert!(
            lookup_verdict(42).is_none(),
            "inactive cache answers nothing"
        );
        // Re-open warm from disk.
        assert!(configure(&dir).unwrap());
        assert_eq!(lookup_verdict(43), Some(SolverResult::Unsat));
        deactivate();
    }

    #[test]
    fn projections_roundtrip_through_disk() {
        let _gate = lock();
        let dir = temp_dir("projection");
        assert!(configure(&dir).unwrap());
        let set = IntervalSet::from_ranges([(0, 9), (20, 29)]);
        store_projection(7, &Some(set.clone()));
        store_projection(8, &None);
        flush();
        deactivate();
        assert!(configure(&dir).unwrap());
        assert_eq!(lookup_projection(7), Some(Some(set)));
        assert_eq!(lookup_projection(8), Some(None));
        deactivate();
    }

    #[test]
    fn stale_format_version_wipes_the_log() {
        let _gate = lock();
        let dir = temp_dir("stale-format");
        // Hand-craft a log whose header claims a future version.
        {
            let mut store = LogStore::open(&dir.join(LOG_NAME)).unwrap();
            let header = encode(&CacheRecord::Header {
                version: FORMAT_VERSION + 1,
            });
            store.append(&header).unwrap();
            let bogus = encode(&verdict_to_record(99, &SolverResult::Unsat));
            store.append(&bogus).unwrap();
            store.sync().unwrap();
        }
        assert!(configure(&dir).unwrap());
        // The future-format record was discarded, not loaded.
        assert!(lookup_verdict(99).is_none());
        deactivate();
    }

    #[test]
    fn busy_store_degrades_to_inactive() {
        let _gate = lock();
        let dir = temp_dir("busy");
        // Hold the lock the way a second process would.
        let holder = LogStore::open(&dir.join(LOG_NAME)).unwrap();
        assert!(!configure(&dir).unwrap(), "busy store must not activate");
        assert!(!active());
        store_verdict(7, &SolverResult::Unsat);
        assert!(lookup_verdict(7).is_none(), "inactive cache stores nothing");
        drop(holder);
        assert!(configure(&dir).unwrap());
        deactivate();
    }
}
