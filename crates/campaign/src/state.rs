//! Crash-resilient campaign state: a JSONL checkpoint file.
//!
//! The file is append-only. Line 1 is a header pinning the campaign
//! parameters (seed, budget, shard count, target list); every later line
//! records either one finished (target × shard) job with its deduped
//! discrepancy signatures, or one failed job attempt (a
//! [`FailureRecord`]) so retry counts and quarantine state survive a
//! kill. Each record is flushed as it is appended and fsynced
//! (`File::sync_all`) before its job counts as done, so a `kill -9` — or
//! a power loss — loses at most the jobs not yet counted; a flush alone
//! only moves bytes into the OS page cache, which power loss discards,
//! and a job must never be lost once the campaign reported it done. The
//! coordinator groups these fsyncs on a thread of their own (one fsync
//! covers every record written while the previous one ran), so workers
//! never wait on the disk. Because a job's result is
//! a pure function of `(campaign seed, target, shard)`, redoing the lost
//! jobs on resume reproduces the exact same campaign state.
//!
//! A torn trailing line (the process died mid-write) is detected by the
//! strict JSON parser and skipped; a torn line anywhere *else* means the
//! file was corrupted by something other than a crash mid-append, and
//! resume refuses to guess. A fresh campaign refuses to open a directory
//! that already holds a checkpoint (`create_new` semantics) — silently
//! truncating weeks of results on a name collision is the one failure no
//! retry can undo.

use crate::faults::FaultPlan;
use compdiff::Json;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checkpoint format version (line 1 of every checkpoint file).
/// Version 2 added `failure` records (failed job attempts).
pub const STATE_VERSION: i64 = 2;

/// Name of the checkpoint file inside the campaign directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.jsonl";

/// Name of the writer-lock sidecar next to [`CHECKPOINT_FILE`].
pub const LOCK_FILE: &str = "checkpoint.lock";

/// The campaign parameters a checkpoint is only valid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignHeader {
    /// Root RNG seed.
    pub seed: u64,
    /// Fuzz-binary execution budget per target.
    pub execs_per_target: u64,
    /// Number of seed shards each target's budget is split into.
    pub shards_per_target: u32,
    /// Target names, in schedule order.
    pub targets: Vec<String>,
}

impl CampaignHeader {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::Str("header".to_string())),
            ("version", Json::Int(STATE_VERSION)),
            // u64 seeds round-trip through a bit-cast so the JSON integer
            // space (i64) covers the full seed space.
            ("seed", Json::Int(self.seed as i64)),
            ("execs_per_target", Json::Int(self.execs_per_target as i64)),
            ("shards", Json::Int(i64::from(self.shards_per_target))),
            ("targets", Json::strings(self.targets.iter())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("type").and_then(Json::as_str) != Some("header") {
            return Err("first line is not a campaign header".to_string());
        }
        let version: i64 = v.int_field("version")?;
        if version != STATE_VERSION {
            return Err(format!(
                "checkpoint version {version}, expected {STATE_VERSION}"
            ));
        }
        Ok(CampaignHeader {
            // The bit-cast back of `to_json`'s.
            seed: v.int_field::<i64>("seed")? as u64,
            execs_per_target: v.int_field("execs_per_target")?,
            shards_per_target: v.int_field("shards")?,
            targets: v.strings_field("targets")?,
        })
    }
}

/// One finished (target × shard) job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Target name.
    pub target: String,
    /// Shard index within the target, `0..shards_per_target`.
    pub shard: u32,
    /// Fuzz-binary executions performed.
    pub execs: u64,
    /// Differential (oracle) executions performed.
    pub oracle_execs: u64,
    /// Inputs whose differential run diverged.
    pub divergent: u64,
    /// Unique crash buckets found by the fuzzer.
    pub crashes: u64,
    /// Deduped discrepancy signatures seen in this job, sorted.
    pub signatures: Vec<String>,
}

impl JobRecord {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::Str("job".to_string())),
            ("target", Json::Str(self.target.clone())),
            ("shard", Json::Int(i64::from(self.shard))),
            ("execs", Json::Int(self.execs as i64)),
            ("oracle_execs", Json::Int(self.oracle_execs as i64)),
            ("divergent", Json::Int(self.divergent as i64)),
            ("crashes", Json::Int(self.crashes as i64)),
            ("signatures", Json::strings(self.signatures.iter())),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("type").and_then(Json::as_str) != Some("job") {
            return Err("record line is not a job record".to_string());
        }
        Ok(JobRecord {
            target: v.str_field("target")?.to_string(),
            shard: v.int_field("shard")?,
            execs: v.int_field("execs")?,
            oracle_execs: v.int_field("oracle_execs")?,
            divergent: v.int_field("divergent")?,
            crashes: v.int_field("crashes")?,
            signatures: v.strings_field("signatures")?,
        })
    }
}

/// How a job attempt failed (the failure taxonomy; see DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    /// The worker panicked mid-job (caught by `catch_unwind`).
    Panic,
    /// The target failed to compile (frontend error or compile panic).
    Compile,
    /// An I/O error surfaced inside the job.
    Io,
    /// The worker *process* holding the job's lease died or stopped
    /// renewing; the coordinator reclaimed the lease (coordinator/worker
    /// mode only).
    Lost,
}

impl FailureKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Compile => "compile",
            FailureKind::Io => "io",
            FailureKind::Lost => "lost",
        }
    }

    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(FailureKind::Panic),
            "compile" => Ok(FailureKind::Compile),
            "io" => Ok(FailureKind::Io),
            "lost" => Ok(FailureKind::Lost),
            other => Err(format!("unknown failure kind `{other}`")),
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One failed job attempt. Appended to the checkpoint like a
/// [`JobRecord`], so resume can replay the retry/quarantine state
/// machine instead of forgetting that a target was degraded.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailureRecord {
    /// Target name.
    pub target: String,
    /// Shard index within the target.
    pub shard: u32,
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable cause (panic payload, compile error, ...).
    pub message: String,
}

impl FailureRecord {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::Str("failure".to_string())),
            ("target", Json::Str(self.target.clone())),
            ("shard", Json::Int(i64::from(self.shard))),
            ("attempt", Json::Int(i64::from(self.attempt))),
            ("kind", Json::Str(self.kind.as_str().to_string())),
            ("message", Json::Str(self.message.clone())),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("type").and_then(Json::as_str) != Some("failure") {
            return Err("record line is not a failure record".to_string());
        }
        Ok(FailureRecord {
            target: v.str_field("target")?.to_string(),
            shard: v.int_field("shard")?,
            attempt: v.int_field("attempt")?,
            kind: FailureKind::parse(v.str_field("kind")?)?,
            message: v.str_field("message")?.to_string(),
        })
    }
}

/// Errors opening or updating a checkpoint.
#[derive(Debug)]
pub enum StateError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A fresh campaign pointed at a directory that already holds a
    /// checkpoint. Never clobbered silently.
    AlreadyExists(PathBuf),
    /// A non-trailing line failed to parse — not a crash artifact.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The checkpoint was written by a campaign with different parameters.
    HeaderMismatch(String),
    /// The checkpoint is held open for write by another live process. A
    /// campaign checkpoint has exactly one writer (the coordinator); a
    /// second writer would corrupt the `good_len` watermark.
    Locked {
        /// The lock sidecar's path.
        path: PathBuf,
        /// PID recorded in the lock file.
        owner_pid: u64,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            StateError::AlreadyExists(p) => write!(
                f,
                "a checkpoint already exists at {}; pass --resume to continue \
                 that campaign or point --checkpoint at a fresh directory",
                p.display()
            ),
            StateError::Corrupt { line, message } => {
                write!(f, "checkpoint corrupt at line {line}: {message}")
            }
            StateError::HeaderMismatch(m) => write!(f, "checkpoint header mismatch: {m}"),
            StateError::Locked { path, owner_pid } => write!(
                f,
                "checkpoint is locked by live process {owner_pid} ({}); a campaign \
                 checkpoint has exactly one writer — workers must not open it",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StateError {}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> Self {
        StateError::Io(e)
    }
}

/// An exclusive writer lock on a campaign directory: a `create_new`'d
/// sidecar file ([`LOCK_FILE`]) holding the owner's PID. Acquired before
/// the checkpoint itself is opened, released on drop. A lock whose owner
/// is no longer alive (the coordinator was `kill -9`'d) is stale and is
/// stolen; a lock whose owner is live is a hard [`StateError::Locked`]
/// refusal — the single-writer invariant the `good_len` watermark
/// depends on.
#[derive(Debug)]
struct StateLock {
    path: PathBuf,
}

/// True when `pid` names a live process. `/proc` is authoritative on
/// Linux; on targets without `/proc` every foreign lock reads as stale,
/// which degrades to last-locker-wins rather than false refusals.
fn pid_alive(pid: u64) -> bool {
    if pid == u64::from(std::process::id()) {
        return true;
    }
    if !Path::new("/proc").is_dir() {
        return false;
    }
    Path::new(&format!("/proc/{pid}")).exists()
}

impl StateLock {
    fn acquire(dir: &Path) -> Result<Self, StateError> {
        let path = dir.join(LOCK_FILE);
        // Two tries: the second one runs only after a stale lock was
        // unlinked (a concurrent live locker still refuses).
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    writeln!(f, "{{\"pid\": {}}}", std::process::id())?;
                    return Ok(StateLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner_pid = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| Json::parse(&text).ok())
                        .and_then(|v| v.get("pid").and_then(Json::as_u64))
                        .unwrap_or(0);
                    if owner_pid != 0 && pid_alive(owner_pid) {
                        return Err(StateError::Locked { path, owner_pid });
                    }
                    // Stale (dead owner or unreadable): steal and retry.
                    std::fs::remove_file(&path)?;
                }
                Err(e) => return Err(StateError::Io(e)),
            }
        }
        Err(StateError::Io(std::io::Error::other(format!(
            "could not acquire checkpoint lock {} (contended)",
            path.display()
        ))))
    }
}

impl Drop for StateLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The live campaign state: finished jobs, failed attempts, and the
/// append handle.
pub struct CampaignState {
    path: PathBuf,
    /// Held for the state's lifetime; releases [`LOCK_FILE`] on drop.
    _lock: StateLock,
    file: BufWriter<File>,
    done: BTreeMap<(String, u32), JobRecord>,
    failures: Vec<FailureRecord>,
    /// Byte length of the file after the last *successful* append — the
    /// truncation point [`repair`](CampaignState::repair) restores after
    /// a failed (possibly partial) write.
    good_len: u64,
    /// Append attempts made through this handle plus the records already
    /// on disk when it was opened (1-based sequence for fault injection).
    seq: u64,
    faults: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for CampaignState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignState")
            .field("path", &self.path)
            .field("done", &self.done.len())
            .field("failures", &self.failures.len())
            .finish()
    }
}

impl CampaignState {
    /// Starts a fresh checkpoint in `dir` (created if missing). Refuses
    /// to touch a directory that already holds a checkpoint: a campaign
    /// name collision must surface as an error, not as a silent
    /// truncation of the previous campaign's results.
    ///
    /// # Errors
    ///
    /// [`StateError::AlreadyExists`] if `dir` already has a checkpoint,
    /// [`StateError::Locked`] if another live process holds the writer
    /// lock, [`StateError::Io`] if the directory or file cannot be
    /// created.
    pub fn create(dir: &Path, header: &CampaignHeader) -> Result<Self, StateError> {
        std::fs::create_dir_all(dir)?;
        // The writer lock comes first: if the checkpoint already exists
        // the refusal below releases it on drop.
        let lock = StateLock::acquire(dir)?;
        let path = dir.join(CHECKPOINT_FILE);
        let file = match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                return Err(StateError::AlreadyExists(path));
            }
            Err(e) => return Err(StateError::Io(e)),
        };
        let mut state = CampaignState {
            path,
            _lock: lock,
            file: BufWriter::new(file),
            done: BTreeMap::new(),
            failures: Vec::new(),
            good_len: 0,
            seq: 0,
            faults: None,
        };
        // The header is written before any fault plan is attached, so a
        // plan can never fail a campaign at birth.
        state.append_line(&header.to_json())?;
        state.sync()?;
        Ok(state)
    }

    /// Reopens an existing checkpoint, validating it against `header` and
    /// loading every finished job and failed attempt. A torn final line
    /// (the previous process died mid-append) is skipped; its job simply
    /// re-runs.
    ///
    /// # Errors
    ///
    /// [`StateError::HeaderMismatch`] if the checkpoint belongs to a
    /// campaign with different parameters, [`StateError::Corrupt`] if a
    /// non-trailing line is unreadable, [`StateError::Locked`] if
    /// another live process holds the writer lock.
    pub fn resume(dir: &Path, header: &CampaignHeader) -> Result<Self, StateError> {
        enum Line {
            Header,
            Job(JobRecord),
            Fail(FailureRecord),
        }
        let lock = StateLock::acquire(dir)?;
        let path = dir.join(CHECKPOINT_FILE);
        let text = std::fs::read_to_string(&path)?;
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return Err(StateError::Corrupt {
                line: 1,
                message: "empty checkpoint (no header)".to_string(),
            });
        }
        // Byte offset where each line starts, for truncating a torn tail.
        let mut starts = Vec::with_capacity(lines.len());
        let mut off = 0usize;
        for line in &lines {
            starts.push(off as u64);
            off += line.len() + 1;
        }
        let mut truncate_to: Option<u64> = None;
        let mut done = BTreeMap::new();
        let mut failures = Vec::new();
        for (idx, line) in lines.iter().enumerate() {
            let is_last = idx + 1 == lines.len();
            let parsed = Json::parse(line).map_err(|e| e.to_string()).and_then(|v| {
                if idx == 0 {
                    let found = CampaignHeader::from_json(&v)?;
                    if found != *header {
                        return Err(format!(
                            "this campaign was started with different parameters \
                             (seed/budget/shards/targets); pass the original flags \
                             or start a fresh checkpoint ({})",
                            path.display()
                        ));
                    }
                    Ok(Line::Header)
                } else {
                    match v.get("type").and_then(Json::as_str) {
                        Some("job") => JobRecord::from_json(&v).map(Line::Job),
                        Some("failure") => FailureRecord::from_json(&v).map(Line::Fail),
                        other => Err(format!("unknown record type {other:?}")),
                    }
                }
            });
            match parsed {
                Ok(Line::Job(rec)) => {
                    done.insert((rec.target.clone(), rec.shard), rec);
                }
                Ok(Line::Fail(rec)) => failures.push(rec),
                Ok(Line::Header) => {}
                Err(message) if idx == 0 => return Err(StateError::HeaderMismatch(message)),
                // Torn trailing line: the crash artifact resume exists
                // for. Truncate it away so later appends start on a
                // fresh line (it may lack its newline) and the next
                // resume never mistakes it for mid-file corruption.
                Err(_) if is_last => truncate_to = Some(starts[idx]),
                Err(message) => {
                    return Err(StateError::Corrupt {
                        line: idx + 1,
                        message,
                    })
                }
            }
        }
        let good_len = match truncate_to {
            Some(len) => {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(len)?;
                len
            }
            None => text.len() as u64,
        };
        let file = OpenOptions::new().append(true).open(&path)?;
        let seq = (done.len() + failures.len()) as u64;
        Ok(CampaignState {
            path,
            _lock: lock,
            file: BufWriter::new(file),
            done,
            failures,
            good_len,
            seq,
            faults: None,
        })
    }

    /// Attaches a fault plan: subsequent appends consult it (the
    /// `io@checkpoint:...` injection point).
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Appends one finished job, flushes, and fsyncs it.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] if the append, flush, or sync fails.
    pub fn record(&mut self, rec: JobRecord) -> Result<(), StateError> {
        self.append_job(rec)?;
        self.sync()
    }

    /// Appends one finished job and flushes it (no fsync — pair with
    /// [`sync`](CampaignState::sync), or use
    /// [`record`](CampaignState::record)).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] if the append or flush fails; call
    /// [`repair`](CampaignState::repair) before retrying so a partial
    /// write cannot corrupt the file.
    pub fn append_job(&mut self, rec: JobRecord) -> Result<(), StateError> {
        self.append_record(&rec.to_json())?;
        self.done.insert((rec.target.clone(), rec.shard), rec);
        Ok(())
    }

    /// Appends one failed job attempt and flushes it, so retry counts and
    /// quarantine state survive kill/resume.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] if the append or flush fails; call
    /// [`repair`](CampaignState::repair) before retrying.
    pub fn append_failure(&mut self, rec: FailureRecord) -> Result<(), StateError> {
        self.append_record(&rec.to_json())?;
        self.failures.push(rec);
        Ok(())
    }

    /// Forces the appended records to stable storage (`sync_all`). A
    /// flush only reaches the OS page cache; only the fsync makes the
    /// record durable against power loss.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] if the flush or sync fails.
    pub fn sync(&mut self) -> Result<(), StateError> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(())
    }

    /// A second handle on the checkpoint file, so another thread can
    /// fsync what this one appends. Every append is flushed to the OS
    /// before it returns, so a `sync_all` on this handle makes every
    /// record appended so far durable. [`repair`](CampaignState::repair)
    /// reopens the same file, so the handle stays valid across it.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] if the file descriptor cannot be
    /// duplicated.
    pub(crate) fn sync_handle(&self) -> Result<File, StateError> {
        Ok(self.file.get_ref().try_clone()?)
    }

    /// Recovers the append handle after a failed write: discards any
    /// bytes still buffered, truncates the file back to the last
    /// successfully appended record (clipping a partial write), and
    /// reopens for append. After `repair`, retrying the failed append is
    /// safe — without it a half-written line followed by a retry would
    /// read as mid-file corruption on the next resume.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] if the truncate or reopen fails.
    pub fn repair(&mut self) -> Result<(), StateError> {
        let fresh = OpenOptions::new().append(true).open(&self.path)?;
        // `into_parts` (not drop) so the old buffer is discarded instead
        // of flushed after the truncate.
        let old = std::mem::replace(&mut self.file, BufWriter::new(fresh));
        let (old_file, _discarded) = old.into_parts();
        drop(old_file);
        let f = OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(self.good_len)?;
        Ok(())
    }

    /// Writes one record line: consults the fault plan, appends, flushes,
    /// and advances the good-length watermark.
    fn append_record(&mut self, v: &Json) -> Result<(), StateError> {
        self.seq += 1;
        if let Some(plan) = &self.faults {
            if plan.fire_checkpoint(self.seq) {
                return Err(StateError::Io(std::io::Error::other(format!(
                    "injected checkpoint I/O fault (append #{})",
                    self.seq
                ))));
            }
        }
        self.append_line(v)
    }

    fn append_line(&mut self, v: &Json) -> Result<(), StateError> {
        let line = format!("{}\n", v.render());
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.good_len += line.len() as u64;
        Ok(())
    }

    /// Finished jobs, keyed by `(target, shard)`.
    pub fn done(&self) -> &BTreeMap<(String, u32), JobRecord> {
        &self.done
    }

    /// Failed job attempts, in append (i.e. failure) order.
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// True if this `(target, shard)` job already has a checkpoint record.
    pub fn is_done(&self, target: &str, shard: u32) -> bool {
        self.done.contains_key(&(target.to_string(), shard))
    }

    /// Path of the checkpoint file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;

    fn header() -> CampaignHeader {
        CampaignHeader {
            seed: 0xFEED_u64,
            execs_per_target: 1_000,
            shards_per_target: 4,
            targets: vec!["tcpdump".to_string(), "mujs".to_string()],
        }
    }

    fn record(target: &str, shard: u32) -> JobRecord {
        JobRecord {
            target: target.to_string(),
            shard,
            execs: 250,
            oracle_execs: 2_500,
            divergent: 3,
            crashes: 1,
            signatures: vec!["sig-a".to_string(), "sig-b".to_string()],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("compdiff-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrips_header_and_jobs() {
        let dir = temp_dir("roundtrip");
        let mut st = CampaignState::create(&dir, &header()).unwrap();
        st.record(record("tcpdump", 0)).unwrap();
        st.record(record("mujs", 2)).unwrap();
        drop(st);

        let st = CampaignState::resume(&dir, &header()).unwrap();
        assert_eq!(st.done().len(), 2);
        assert_eq!(st.done()[&("tcpdump".to_string(), 0)], record("tcpdump", 0));
        assert!(st.is_done("mujs", 2));
        assert!(!st.is_done("mujs", 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_skipped() {
        let dir = temp_dir("torn");
        let mut st = CampaignState::create(&dir, &header()).unwrap();
        st.record(record("tcpdump", 0)).unwrap();
        drop(st);
        // Simulate a crash mid-append: half a JSON object, no newline.
        let path = dir.join(CHECKPOINT_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"type\":\"job\",\"target\":\"mujs\",\"sha").unwrap();
        drop(f);

        let mut st = CampaignState::resume(&dir, &header()).unwrap();
        assert_eq!(st.done().len(), 1, "torn line must not count as done");
        // The torn fragment is truncated away, so the redone job lands on
        // a fresh line and the *next* resume reads a clean file.
        st.record(record("mujs", 1)).unwrap();
        drop(st);
        let st = CampaignState::resume(&dir, &header()).unwrap();
        assert_eq!(st.done().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let dir = temp_dir("corrupt");
        let mut st = CampaignState::create(&dir, &header()).unwrap();
        st.record(record("tcpdump", 0)).unwrap();
        drop(st);
        let path = dir.join(CHECKPOINT_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!("{}\nnot json at all\n{}\n", lines[0], lines[1]);
        std::fs::write(&path, mangled).unwrap();

        match CampaignState::resume(&dir, &header()) {
            Err(StateError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let dir = temp_dir("mismatch");
        let st = CampaignState::create(&dir, &header()).unwrap();
        drop(st);
        let mut other = header();
        other.seed = 7;
        assert!(matches!(
            CampaignState::resume(&dir, &other),
            Err(StateError::HeaderMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_campaign_refuses_to_clobber_existing_checkpoint() {
        let dir = temp_dir("clobber");
        let mut st = CampaignState::create(&dir, &header()).unwrap();
        st.record(record("tcpdump", 0)).unwrap();
        drop(st);

        match CampaignState::create(&dir, &header()) {
            Err(StateError::AlreadyExists(p)) => {
                assert_eq!(p, dir.join(CHECKPOINT_FILE));
            }
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        // The refusal must not have damaged the original checkpoint.
        let st = CampaignState::resume(&dir, &header()).unwrap();
        assert_eq!(st.done().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_records_roundtrip_and_torn_failure_tail_is_skipped() {
        let fail = FailureRecord {
            target: "tcpdump".to_string(),
            shard: 1,
            attempt: 2,
            kind: FailureKind::Panic,
            message: "index out of bounds: len 3".to_string(),
        };
        let dir = temp_dir("failures");
        let mut st = CampaignState::create(&dir, &header()).unwrap();
        st.append_failure(fail.clone()).unwrap();
        st.sync().unwrap();
        st.record(record("tcpdump", 1)).unwrap();
        drop(st);

        let st = CampaignState::resume(&dir, &header()).unwrap();
        assert_eq!(st.failures(), std::slice::from_ref(&fail));
        assert!(st.is_done("tcpdump", 1));
        drop(st);

        // A crash mid-way through appending a *failure* line is skipped
        // just like a torn job line.
        let path = dir.join(CHECKPOINT_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"type\":\"failure\",\"target\":\"mu").unwrap();
        drop(f);
        let st = CampaignState::resume(&dir, &header()).unwrap();
        assert_eq!(st.failures(), &[fail]);
        assert_eq!(st.done().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An injected checkpoint I/O fault surfaces as `StateError::Io`;
    /// after `repair()` the retry succeeds and the file reads back clean
    /// (the failed attempt leaves no trace).
    #[test]
    fn injected_append_fault_repairs_and_retries() {
        use crate::faults::FaultPlan;
        let dir = temp_dir("inject");
        let mut st = CampaignState::create(&dir, &header()).unwrap();
        st.record(record("tcpdump", 0)).unwrap();
        // Fail the second record append (seq counts record appends only,
        // not the header).
        st.set_faults(Arc::new(FaultPlan::parse("io@checkpoint:2", 1).unwrap()));

        let err = st.record(record("mujs", 1)).unwrap_err();
        assert!(matches!(err, StateError::Io(_)), "got {err:?}");
        st.repair().unwrap();
        // The retry is append #3, past the injected fault.
        st.record(record("mujs", 1)).unwrap();
        drop(st);

        let st = CampaignState::resume(&dir, &header()).unwrap();
        assert_eq!(st.done().len(), 2);
        assert!(st.is_done("mujs", 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// While a `CampaignState` is live, any second open of the same
    /// directory — create *or* resume — is refused with a typed
    /// `Locked` error naming the owning PID; dropping the state
    /// releases the lock.
    #[test]
    fn second_writer_is_refused_while_lock_is_held() {
        let dir = temp_dir("locked");
        let st = CampaignState::create(&dir, &header()).unwrap();
        for attempt in [
            CampaignState::create(&dir, &header()),
            CampaignState::resume(&dir, &header()),
        ] {
            match attempt {
                Err(StateError::Locked { path, owner_pid }) => {
                    assert_eq!(path, dir.join(LOCK_FILE));
                    assert_eq!(owner_pid, u64::from(std::process::id()));
                }
                other => panic!("expected Locked, got {other:?}"),
            }
        }
        drop(st);
        assert!(!dir.join(LOCK_FILE).exists(), "drop must release the lock");
        let st = CampaignState::resume(&dir, &header()).unwrap();
        drop(st);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A lock left behind by a dead process (kill -9 skips Drop) is
    /// stale and must be stolen, not refused forever.
    #[test]
    fn stale_lock_from_dead_process_is_stolen() {
        let dir = temp_dir("stale-lock");
        let st = CampaignState::create(&dir, &header()).unwrap();
        drop(st);
        // PIDs are bounded well below this on Linux (pid_max <= 2^22).
        std::fs::write(dir.join(LOCK_FILE), "{\"pid\": 999999999}\n").unwrap();
        let st = CampaignState::resume(&dir, &header()).unwrap();
        drop(st);
        // An unreadable lock file is treated as stale, too.
        std::fs::write(dir.join(LOCK_FILE), "not json").unwrap();
        let st = CampaignState::resume(&dir, &header()).unwrap();
        drop(st);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every campaign parameter is pinned by the header: a resume with a
    /// different budget, shard count, or target set (including a rename,
    /// a dropped target, or a reordering) must be refused — and the
    /// original header must still resume cleanly afterwards.
    #[test]
    fn resume_rejects_any_changed_parameter() {
        type Mutation = (&'static str, fn(&mut CampaignHeader));
        let mutations: [Mutation; 5] = [
            ("execs", |h| h.execs_per_target += 1),
            ("shards", |h| h.shards_per_target += 1),
            ("dropped-target", |h| {
                h.targets.pop();
            }),
            ("renamed-target", |h| {
                h.targets[0] = "libxml2".to_string();
            }),
            ("reordered-targets", |h| h.targets.reverse()),
        ];
        for (tag, mutate) in mutations {
            let dir = temp_dir(&format!("mismatch-{tag}"));
            let mut st = CampaignState::create(&dir, &header()).unwrap();
            st.record(record("tcpdump", 0)).unwrap();
            drop(st);

            let mut changed = header();
            mutate(&mut changed);
            match CampaignState::resume(&dir, &changed) {
                Err(StateError::HeaderMismatch(_)) => {}
                other => panic!("{tag}: expected HeaderMismatch, got {other:?}"),
            }
            let st = CampaignState::resume(&dir, &header())
                .unwrap_or_else(|e| panic!("{tag}: original header must resume: {e}"));
            assert_eq!(st.done().len(), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
