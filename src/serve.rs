//! The service layer: `prose-served`'s durable job queue, restart
//! recovery, and HTTP/1.1 front end — dependency-free (`std::net` plus
//! the workspace's existing `serde_json`).
//!
//! ## Durability contract
//!
//! 1. **Ack-after-persist** — a submission is acknowledged only after the
//!    job's directory (`jobs/<id>/{spec.json, program.f90}`) is fully
//!    written, fsynced, and atomically renamed into place, and its
//!    `queued` transition is in the job-state WAL. A `kill -9` at any
//!    instant leaves either no job or a recoverable one — never a
//!    half-acknowledged one.
//! 2. **Restart recovery** — on startup the daemon scans the jobs
//!    directory: orphaned `.tmp-*` submissions are discarded (they were
//!    never acknowledged), terminal jobs serve their cached results, and
//!    every `queued`/`running` job is re-queued after its trial journal
//!    is repaired ([`prose_trace::Journal::load_repair`]); resumed jobs
//!    replay journaled trials from the evaluator's preloaded cache, so an
//!    interrupted search finishes with **zero duplicate interpreter
//!    evaluations** and a final configuration byte-identical to an
//!    uninterrupted run.
//! 3. **Idempotent submission** — job ids are content-addressed
//!    ([`prose_core::job_id_for`]): resubmitting identical content
//!    returns the existing job (HTTP 200, not 201), and a completed job
//!    answers instantly from its persisted `result.json`.
//! 4. **Graceful degradation** — the pending queue is bounded; a full
//!    queue rejects new work with HTTP 429 instead of accepting jobs it
//!    may lose. On SIGTERM/SIGINT the daemon stops accepting, gives
//!    in-flight jobs a drain window, then cancels them at an evaluation
//!    boundary — cancelled-for-drain jobs checkpoint back to `queued`,
//!    so the next process resumes them from their journals.
//!
//! Live progress is streamed as server-sent events by tailing the job's
//! JSONL trial journal ([`prose_trace::JournalTail`]): the journal **is**
//! the event format.

use prose_core::job::{job_id_for, run_job, JobError, JobRequest, JobResult, JobSpec};
use prose_trace::jobstate::{append_state, current_state, JobState};
use prose_trace::{Journal, JournalTail};
use serde::Serialize;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Process-wide signal latch, dependency-free: `std` already links libc
/// on Unix, so the raw `signal(2)` binding costs nothing. Handlers only
/// store into an atomic — every loop in this crate polls. (glibc's
/// `signal` installs BSD semantics with `SA_RESTART`, so nothing here may
/// rely on syscalls being interrupted; the accept loop is non-blocking
/// and every wait is a bounded timeout.)
pub mod signals {
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    static PENDING: AtomicUsize = AtomicUsize::new(0);

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        // Async-signal-safe: a single atomic store.
        PENDING.store(signum as usize, Ordering::SeqCst);
    }

    /// Install the latch for SIGINT and SIGTERM. No-op off Unix.
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    /// The most recent latched signal, if any (cleared only by [`clear`]).
    pub fn pending() -> Option<i32> {
        match PENDING.load(Ordering::SeqCst) {
            0 => None,
            s => Some(s as i32),
        }
    }

    /// Latch a signal from process context (tests, in-process shutdown).
    pub fn raise(signum: i32) {
        PENDING.store(signum as usize, Ordering::SeqCst);
    }

    /// Reset the latch. A [`super::Server`] that has finished draining
    /// consumes the signal it drained for, so a later in-process server
    /// starts with a clear latch.
    pub fn clear() {
        PENDING.store(0, Ordering::SeqCst);
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`port 0` = ephemeral; see [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Durable job store; created if missing.
    pub jobs_dir: PathBuf,
    /// Pending-queue bound: submissions beyond it get HTTP 429.
    pub queue_cap: usize,
    /// Concurrent job runners (each job may itself use a worker pool).
    pub runners: usize,
    /// SIGTERM drain window before in-flight jobs are checkpointed.
    pub drain_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            jobs_dir: PathBuf::from("jobs"),
            queue_cap: 64,
            runners: 1,
            drain_ms: 2_000,
        }
    }
}

/// What the recovery scan found at startup.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Jobs re-queued (were `queued` or `running` when the last process
    /// died).
    pub resumed: Vec<String>,
    /// Terminal jobs now serving cached results.
    pub finished: usize,
    /// Damaged journal lines quarantined during repair.
    pub quarantined: u64,
    /// Unacknowledged `.tmp-*` submission leftovers discarded.
    pub discarded_tmp: usize,
}

struct Inner {
    jobs_dir: PathBuf,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    queue_cap: usize,
    /// Serializes the exists-check → persist → enqueue submission path,
    /// so N concurrent identical submissions create exactly one job.
    submit_lock: Mutex<()>,
    /// Cancel tokens of currently running jobs, plus explicit client
    /// cancel requests (to distinguish them from drain checkpoints).
    running: Mutex<HashMap<String, Arc<AtomicBool>>>,
    cancel_requested: Mutex<HashSet<String>>,
    shutdown: AtomicBool,
    draining: AtomicBool,
    submitted: AtomicU64,
    duplicates: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
}

impl Inner {
    fn job_dir(&self, id: &str) -> PathBuf {
        self.jobs_dir.join(id)
    }

    fn state_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("state.jsonl")
    }

    fn journal_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("journal.jsonl")
    }

    fn result_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("result.json")
    }

    fn job_exists(&self, id: &str) -> bool {
        self.job_dir(id).join("spec.json").is_file()
    }

    fn state_of(&self, id: &str) -> JobState {
        current_state(self.state_path(id)).unwrap_or(JobState::Queued)
    }

    fn result_of(&self, id: &str) -> Option<JobResult> {
        let text = std::fs::read_to_string(self.result_path(id)).ok()?;
        serde_json::from_str(&text).ok()
    }
}

/// The daemon: bound listener + durable queue + runner pool.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
    runner_handles: Vec<std::thread::JoinHandle<()>>,
    recovery: RecoveryReport,
    drain_ms: u64,
}

impl Server {
    /// Bind, recover persisted jobs, and start the runner pool. Returns
    /// with the listener live; call [`Server::run`] to serve.
    pub fn new(config: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.jobs_dir)?;
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            jobs_dir: config.jobs_dir.clone(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_cap: config.queue_cap.max(1),
            submit_lock: Mutex::new(()),
            running: Mutex::new(HashMap::new()),
            cancel_requested: Mutex::new(HashSet::new()),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let recovery = recover_jobs(&inner)?;
        let runner_handles = (0..config.runners.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || runner_loop(&inner))
            })
            .collect();
        Ok(Server {
            inner,
            listener,
            runner_handles,
            recovery,
            drain_ms: config.drain_ms,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// What startup recovery found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Ask the daemon to drain and exit (same path as SIGTERM).
    pub fn request_shutdown(&self) {
        signals::raise(signals::SIGTERM);
    }

    /// Serve until SIGINT/SIGTERM, then drain: stop accepting, give
    /// in-flight jobs `drain_ms` to finish, checkpoint the rest back to
    /// `queued`, flush every WAL, clear the signal latch, and return
    /// cleanly.
    pub fn run(mut self) -> io::Result<()> {
        while signals::pending().is_none() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || handle_connection(&inner, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(e) => return Err(e),
            }
        }
        eprintln!(
            "[prose-served] signal {:?}: draining ({} ms window)",
            signals::pending(),
            self.drain_ms
        );
        // Stop pulling queued work, but let in-flight jobs finish within
        // the drain window.
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        let deadline = Instant::now() + Duration::from_millis(self.drain_ms);
        while Instant::now() < deadline {
            if lock_plain(&self.inner.running).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Window over: cancel the stragglers at their next evaluation
        // boundary; they checkpoint back to `queued` for the next process.
        for token in lock_plain(&self.inner.running).values() {
            token.store(true, Ordering::SeqCst);
        }
        for h in self.runner_handles.drain(..) {
            let _ = h.join();
        }
        signals::clear();
        eprintln!("[prose-served] drained; exiting");
        Ok(())
    }
}

fn lock_plain<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Startup scan: discard unacknowledged tmp dirs, re-queue every
/// non-terminal job (repairing its journal first), count the rest.
fn recover_jobs(inner: &Arc<Inner>) -> io::Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let mut ids: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&inner.jobs_dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(".tmp-") {
            // Never acknowledged: the client was told nothing, so there
            // is nothing to recover.
            let _ = std::fs::remove_dir_all(entry.path());
            report.discarded_tmp += 1;
            continue;
        }
        if entry.path().join("spec.json").is_file() {
            ids.push(name);
        }
    }
    ids.sort();
    for id in ids {
        let state = inner.state_of(&id);
        if state.is_terminal() {
            report.finished += 1;
            continue;
        }
        // `running` means the last process died mid-job; its journal may
        // end in a torn line or injected damage. Repair before resuming
        // so the evaluator's preload sees every intact trial.
        let rep = Journal::load_repair_or_empty(inner.journal_path(&id))
            .map_err(|e| io::Error::new(e.kind(), format!("repairing job {id}: {e}")))?;
        report.quarantined += u64::from(rep.damaged());
        if state == JobState::Running {
            append_state(
                inner.state_path(&id),
                JobState::Queued,
                "recovered after restart",
            )?;
        }
        lock_plain(&inner.queue).push_back(id.clone());
        report.resumed.push(id);
    }
    inner.queue_cv.notify_all();
    Ok(report)
}

/// One runner thread: pull job ids until shutdown.
fn runner_loop(inner: &Arc<Inner>) {
    loop {
        let id = {
            let mut q = lock_plain(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    break id;
                }
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
        };
        run_one(inner, &id);
    }
}

/// Execute one queued job end to end, journaling every state transition.
fn run_one(inner: &Arc<Inner>, id: &str) {
    let cancel = Arc::new(AtomicBool::new(false));
    {
        // Registration and the terminal-state check share the `running`
        // lock with the cancel endpoint: either the cancel lands first
        // (we observe a terminal state and skip) or we register first
        // (the endpoint flips our token). No lost cancels.
        let mut running = lock_plain(&inner.running);
        if inner.state_of(id).is_terminal() {
            return;
        }
        running.insert(id.to_string(), Arc::clone(&cancel));
    }
    if lock_plain(&inner.cancel_requested).contains(id) {
        cancel.store(true, Ordering::SeqCst);
    }
    let request = match load_request(&inner.job_dir(id)) {
        Ok(r) => r,
        Err(e) => {
            let _ = append_state(inner.state_path(id), JobState::Failed, &e);
            lock_plain(&inner.running).remove(id);
            return;
        }
    };
    let _ = append_state(inner.state_path(id), JobState::Running, "");
    let outcome = run_job(&request, &inner.journal_path(id), Some(Arc::clone(&cancel)));
    lock_plain(&inner.running).remove(id);
    match outcome {
        Ok(result) => {
            // Result before state: `done` in the WAL implies result.json
            // exists. A kill between them leaves `running`, and the next
            // process re-runs the job as pure cache replay.
            if let Err(e) = persist_result(&inner.result_path(id), &result) {
                let _ = append_state(
                    inner.state_path(id),
                    JobState::Failed,
                    &format!("persisting result: {e}"),
                );
                return;
            }
            let _ = append_state(inner.state_path(id), JobState::Done, "");
            inner.completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(JobError::Cancelled) => {
            let explicit = lock_plain(&inner.cancel_requested).remove(id);
            if !explicit && inner.draining.load(Ordering::SeqCst) {
                // Drain checkpoint: back to `queued`; the next process
                // resumes from the journal with zero duplicate work.
                let _ = append_state(
                    inner.state_path(id),
                    JobState::Queued,
                    "checkpointed by drain",
                );
            } else {
                let _ = append_state(inner.state_path(id), JobState::Cancelled, "client cancel");
            }
        }
        Err(e) => {
            let _ = append_state(inner.state_path(id), JobState::Failed, &e.to_string());
        }
    }
}

fn load_request(dir: &Path) -> Result<JobRequest, String> {
    let spec_text = std::fs::read_to_string(dir.join("spec.json"))
        .map_err(|e| format!("reading spec.json: {e}"))?;
    let spec = JobSpec::parse(&spec_text)?;
    let program = std::fs::read_to_string(dir.join("program.f90"))
        .map_err(|e| format!("reading program.f90: {e}"))?;
    Ok(JobRequest { program, spec })
}

/// Write `result.json` durably: tmp file, fsync, atomic rename.
fn persist_result(path: &Path, result: &JobResult) -> io::Result<()> {
    let text = serde_json::to_string_pretty(result)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Fsync a directory so a just-renamed entry survives power loss.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The ack-after-persist submission path. Returns `(id, created)`; the
/// `Err` branch is an HTTP status + message.
fn submit(inner: &Arc<Inner>, request: &JobRequest) -> Result<(String, bool), (u16, String)> {
    let id = job_id_for(&request.program, &request.spec);
    let _guard = lock_plain(&inner.submit_lock);
    if inner.job_exists(&id) {
        inner.duplicates.fetch_add(1, Ordering::Relaxed);
        return Ok((id, false));
    }
    if lock_plain(&inner.queue).len() >= inner.queue_cap {
        inner.rejected.fetch_add(1, Ordering::Relaxed);
        return Err((
            429,
            format!("queue full ({} pending); retry later", inner.queue_cap),
        ));
    }
    // Persist into a tmp dir, fsync everything, then atomically rename:
    // the job becomes visible all-or-nothing.
    let tmp = inner
        .jobs_dir
        .join(format!(".tmp-{id}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let persist = (|| -> io::Result<()> {
        std::fs::create_dir_all(&tmp)?;
        for (name, contents) in [
            ("spec.json", request.spec.canonical()),
            ("program.f90", request.program.clone()),
        ] {
            let mut f = std::fs::File::create(tmp.join(name))?;
            f.write_all(contents.as_bytes())?;
            f.sync_all()?;
        }
        fsync_dir(&tmp)?;
        std::fs::rename(&tmp, inner.job_dir(&id))?;
        fsync_dir(&inner.jobs_dir)?;
        append_state(inner.state_path(&id), JobState::Queued, "")
    })();
    if let Err(e) = persist {
        let _ = std::fs::remove_dir_all(&tmp);
        return Err((500, format!("persisting job: {e}")));
    }
    lock_plain(&inner.queue).push_back(id.clone());
    inner.queue_cv.notify_all();
    inner.submitted.fetch_add(1, Ordering::Relaxed);
    Ok((id, true))
}

// ---------------------------------------------------------------------
// HTTP front end (hand-rolled HTTP/1.1, `Connection: close` throughout).
// ---------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad request line",
        ));
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    // Bound request bodies (16 MiB): graceful degradation includes not
    // buffering an unbounded upload.
    if content_length > 16 << 20 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

fn write_response(stream: &mut TcpStream, code: u16, content_type: &str, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

fn write_json<T: Serialize>(stream: &mut TcpStream, code: u16, body: &T) {
    let body = serde_json::to_string(body).unwrap_or_else(|_| "{}".to_string());
    write_response(stream, code, "application/json", body.as_bytes());
}

/// `{"error": "..."}` — every non-2xx body.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

fn write_error(stream: &mut TcpStream, code: u16, error: impl Into<String>) {
    write_json(
        stream,
        code,
        &ErrorBody {
            error: error.into(),
        },
    );
}

/// `GET /jobs/<id>` (and submission) response body.
#[derive(Serialize)]
struct StatusBody {
    id: String,
    state: String,
    detail: String,
    result: Option<JobResult>,
    created: Option<bool>,
}

/// `GET /healthz` response body.
#[derive(Serialize)]
struct HealthBody {
    status: String,
    queued: usize,
    running: usize,
    submitted: u64,
    duplicates: u64,
    rejected: u64,
    completed: u64,
    draining: bool,
}

/// One entry of the `GET /jobs` listing.
#[derive(Serialize)]
struct JobEntry {
    id: String,
    state: String,
}

#[derive(Serialize)]
struct JobsBody {
    jobs: Vec<JobEntry>,
}

/// `POST /jobs/<id>/cancel` response body.
#[derive(Serialize)]
struct CancelBody {
    id: String,
    state: String,
}

fn status_body(inner: &Inner, id: &str, created: Option<bool>) -> StatusBody {
    let state = inner.state_of(id);
    let detail = prose_trace::jobstate::load_states(inner.state_path(id))
        .ok()
        .and_then(|s| s.last().map(|r| r.detail.clone()))
        .unwrap_or_default();
    let result = (state == JobState::Done)
        .then(|| inner.result_of(id))
        .flatten();
    StatusBody {
        id: id.to_string(),
        state: state.name().to_string(),
        detail,
        result,
        created,
    }
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let body = HealthBody {
                status: "ok".to_string(),
                queued: lock_plain(&inner.queue).len(),
                running: lock_plain(&inner.running).len(),
                submitted: inner.submitted.load(Ordering::Relaxed),
                duplicates: inner.duplicates.load(Ordering::Relaxed),
                rejected: inner.rejected.load(Ordering::Relaxed),
                completed: inner.completed.load(Ordering::Relaxed),
                draining: inner.draining.load(Ordering::SeqCst),
            };
            write_json(&mut stream, 200, &body);
        }
        ("POST", ["jobs"]) => {
            let job = match std::str::from_utf8(&request.body)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    serde_json::from_str::<JobRequest>(text).map_err(|e| e.to_string())
                }) {
                Ok(j) => j,
                Err(e) => {
                    write_error(&mut stream, 400, format!("bad request: {e}"));
                    return;
                }
            };
            if inner.draining.load(Ordering::SeqCst) {
                write_error(&mut stream, 429, "draining; retry later");
                return;
            }
            match submit(inner, &job) {
                Ok((id, created)) => {
                    let body = status_body(inner, &id, Some(created));
                    write_json(&mut stream, if created { 201 } else { 200 }, &body);
                }
                Err((code, msg)) => write_error(&mut stream, code, msg),
            }
        }
        ("GET", ["jobs"]) => {
            let mut ids: Vec<String> = std::fs::read_dir(&inner.jobs_dir)
                .map(|rd| {
                    rd.filter_map(|e| e.ok())
                        .filter(|e| e.path().join("spec.json").is_file())
                        .map(|e| e.file_name().to_string_lossy().into_owned())
                        .collect()
                })
                .unwrap_or_default();
            ids.sort();
            let jobs = ids
                .into_iter()
                .map(|id| {
                    let state = inner.state_of(&id).name().to_string();
                    JobEntry { id, state }
                })
                .collect();
            write_json(&mut stream, 200, &JobsBody { jobs });
        }
        ("GET", ["jobs", id]) => {
            if !inner.job_exists(id) {
                write_error(&mut stream, 404, "no such job");
                return;
            }
            write_json(&mut stream, 200, &status_body(inner, id, None));
        }
        ("GET", ["jobs", id, "events"]) => {
            if !inner.job_exists(id) {
                write_error(&mut stream, 404, "no such job");
                return;
            }
            stream_events(inner, &mut stream, id);
        }
        ("POST", ["jobs", id, "cancel"]) => {
            if !inner.job_exists(id) {
                write_error(&mut stream, 404, "no such job");
                return;
            }
            let state = {
                let running = lock_plain(&inner.running);
                let state = inner.state_of(id);
                if state.is_terminal() {
                    state
                } else {
                    lock_plain(&inner.cancel_requested).insert(id.to_string());
                    if let Some(token) = running.get(*id) {
                        // Running: the runner observes the token at its
                        // next evaluation boundary and journals the
                        // cancellation itself.
                        token.store(true, Ordering::SeqCst);
                        state
                    } else {
                        // Still queued: journal the cancel now; the
                        // runner skips terminal jobs.
                        let _ = append_state(
                            inner.state_path(id),
                            JobState::Cancelled,
                            "client cancel",
                        );
                        lock_plain(&inner.cancel_requested).remove(*id);
                        JobState::Cancelled
                    }
                }
            };
            let body = CancelBody {
                id: id.to_string(),
                state: state.name().to_string(),
            };
            write_json(&mut stream, 202, &body);
        }
        (_, ["jobs", ..]) | (_, ["healthz"]) => {
            write_error(&mut stream, 405, "method not allowed");
        }
        _ => {
            write_error(&mut stream, 404, "not found");
        }
    }
}

/// Server-sent events: every trial-journal line as a `data:` frame, then
/// one `state` event when the job reaches a terminal state.
fn stream_events(inner: &Arc<Inner>, stream: &mut TcpStream, id: &str) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut tail = JournalTail::new(inner.journal_path(id));
    loop {
        // Read the state *before* draining the journal: a job's journal is
        // final once its state is terminal, so the poll below then delivers
        // every remaining line ahead of the closing `state` frame.
        let state = inner.state_of(id);
        match tail.poll() {
            Ok(lines) => {
                for line in lines {
                    if stream
                        .write_all(format!("data: {line}\n\n").as_bytes())
                        .is_err()
                    {
                        return;
                    }
                }
            }
            Err(_) => return,
        }
        if stream.flush().is_err() {
            return;
        }
        if state.is_terminal() {
            let _ = stream.write_all(
                format!("event: state\ndata: {{\"state\":\"{}\"}}\n\n", state.name()).as_bytes(),
            );
            let _ = stream.flush();
            return;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_cap >= 1);
        assert!(c.runners >= 1);
        assert_eq!(c.addr.ip().to_string(), "127.0.0.1");
    }

    #[test]
    fn status_text_covers_served_codes() {
        for code in [200, 201, 202, 400, 404, 405, 429] {
            assert_ne!(status_text(code), "Internal Server Error", "{code}");
        }
        assert_eq!(status_text(500), "Internal Server Error");
    }

    fn healthz(addr: SocketAddr) -> io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    }

    /// The signal latch is process-wide, so a drained server must clear it:
    /// otherwise every later in-process server would exit at once.
    #[test]
    fn in_process_servers_run_one_after_another() {
        for round in 0..2 {
            let jobs_dir = std::env::temp_dir()
                .join(format!("prose-serve-latch-{}-{round}", std::process::id()));
            let _ = std::fs::remove_dir_all(&jobs_dir);
            let server = Server::new(ServeConfig {
                jobs_dir: jobs_dir.clone(),
                drain_ms: 50,
                ..ServeConfig::default()
            })
            .unwrap();
            let addr = server.local_addr().unwrap();
            let serving = std::thread::spawn(move || server.run());
            let response = healthz(addr).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 200"),
                "round {round}: {response}"
            );
            assert!(!serving.is_finished(), "round {round}: server exited early");
            signals::raise(signals::SIGTERM);
            serving.join().unwrap().unwrap();
            assert_eq!(signals::pending(), None, "round {round}: latch cleared");
            let _ = std::fs::remove_dir_all(&jobs_dir);
        }
    }
}
