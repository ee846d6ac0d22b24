//! Controller durability: the write-ahead log and snapshots.
//!
//! Everything the controller cannot recompute after a crash is written
//! here *before* it is acted on:
//!
//! * every accepted intake operation ([`SubRequest`]) is appended
//!   before it mutates the target subscription state, so a crashed
//!   controller can rebuild intake by replay;
//! * every install transaction's **commit decision** is appended at
//!   the two-phase commit point (see
//!   [`ControlChannel::commit_point`](camus_net::ControlChannel::commit_point)),
//!   before the first commit op goes on the wire — the presumed-abort
//!   rule: a staged epoch with a logged decision rolls forward, one
//!   without rolls back;
//! * periodic **snapshots** of the committed subscription set, the
//!   epoch watermark and the request watermark bound replay to the
//!   tail since the last snapshot. They carry no pipeline
//!   fingerprints: recovery diffs by interrogating the switches.
//!
//! The encoding is line-based text. Filters serialise through
//! [`Expr`]'s `Display` (the fully parenthesised form that is
//! guaranteed to reparse), so a log survives process boundaries
//! without any binary framing. Both backends are deliberately
//! fsync-free and deterministic: the in-memory one keeps tests
//! hermetic, the file one demonstrates the format is genuinely
//! durable on disk. Appends of one record are atomic under the WAL's
//! lock; a crash between the records of a snapshot leaves a
//! *incomplete* snapshot, which replay detects and ignores (the
//! previous snapshot plus a longer tail still reconstructs the same
//! state).

use crate::intake::{apply_request, RequestId, RequestOp, SubRequest};
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use std::collections::BTreeSet;
use std::io::{BufRead, Write as _};
use std::sync::{Arc, Mutex};

/// Storage behind a [`Wal`]: an append-only sequence of text lines.
pub trait WalBackend: Send {
    /// Append one record (no trailing newline). Must be visible to
    /// [`read_all`](Self::read_all) immediately — there is no sync
    /// barrier in the model.
    fn append(&mut self, line: &str);
    /// Every record, in append order.
    fn read_all(&self) -> Vec<String>;
}

/// The hermetic in-memory backend tests and experiments use.
#[derive(Debug, Default)]
pub struct MemoryWal {
    lines: Vec<String>,
}

impl MemoryWal {
    pub fn new() -> Self {
        MemoryWal::default()
    }
}

impl WalBackend for MemoryWal {
    fn append(&mut self, line: &str) {
        self.lines.push(line.to_string());
    }

    fn read_all(&self) -> Vec<String> {
        self.lines.clone()
    }
}

/// The on-disk backend: one record per line, appended without fsync
/// (durability here means "survives a process restart", which is what
/// the recovery model needs; battery-backed write caches are somebody
/// else's paper).
#[derive(Debug)]
pub struct FileWal {
    path: std::path::PathBuf,
    file: std::fs::File,
}

impl FileWal {
    /// Open (or create) the log at `path`, appending to any existing
    /// records — reopening after a crash *is* the recovery story.
    pub fn open(path: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(FileWal { path, file })
    }
}

impl WalBackend for FileWal {
    fn append(&mut self, line: &str) {
        // Infallible by contract: the modelled control plane has no
        // I/O error arm, and a full disk should stop the world anyway.
        writeln!(self.file, "{line}").expect("WAL append");
    }

    fn read_all(&self) -> Vec<String> {
        match std::fs::File::open(&self.path) {
            Ok(f) => std::io::BufReader::new(f).lines().map_while(Result::ok).collect(),
            Err(_) => Vec::new(),
        }
    }
}

/// The shared write-ahead log handle. Clones share one backend; every
/// record append is atomic under the internal lock, so intake (request
/// records), the transaction step (snapshots), the channel wrapper
/// (commit decisions) and a caller replaying the log never see a torn record.
#[derive(Clone)]
pub struct Wal {
    inner: Arc<Mutex<Box<dyn WalBackend>>>,
}

impl Wal {
    pub fn new(backend: Box<dyn WalBackend>) -> Self {
        Wal { inner: Arc::new(Mutex::new(backend)) }
    }

    /// The hermetic default.
    pub fn in_memory() -> Self {
        Wal::new(Box::new(MemoryWal::new()))
    }

    /// File-backed log at `path`.
    pub fn file(path: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        Ok(Wal::new(Box::new(FileWal::open(path)?)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn WalBackend>> {
        self.inner.lock().expect("WAL lock poisoned")
    }

    /// Log one accepted intake operation. Called *before* the request
    /// mutates the target state.
    pub fn append_request(&self, req: &SubRequest) {
        let (kind, filter) = match &req.op {
            RequestOp::Subscribe(f) => ("sub", f),
            RequestOp::Unsubscribe(f) => ("unsub", f),
        };
        self.lock()
            .append(&format!("req {} {} {} {kind} {filter}", req.id, req.host, req.arrival_ns));
    }

    /// Log an install transaction's commit decision (the two-phase
    /// commit point).
    pub fn append_commit(&self, epoch: u64) {
        self.lock().append(&format!("commit {epoch}"));
    }

    /// Log a snapshot: the full committed subscription state, the
    /// epoch watermark, and the highest request id the state reflects.
    /// All records go out under one lock acquisition.
    pub fn append_snapshot(
        &self,
        subs: &[Vec<Expr>],
        next_epoch: u64,
        last_request: Option<RequestId>,
    ) {
        let mut w = self.lock();
        let watermark = match last_request {
            Some(id) => id.to_string(),
            None => "-".to_string(),
        };
        w.append(&format!("snap begin {next_epoch} {watermark} {}", subs.len()));
        for (h, fs) in subs.iter().enumerate() {
            for f in fs {
                w.append(&format!("snap sub {h} {f}"));
            }
        }
        w.append("snap end");
    }

    /// Total records in the log (experiments report recovery time
    /// against this).
    pub fn len(&self) -> usize {
        self.lock().read_all().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rebuild controller state from the log: the last *complete*
    /// snapshot, plus every request record above its watermark —
    /// regardless of file position, because intake logs requests on
    /// arrival while a snapshot holds only committed state, which lags
    /// the open window and the compile backlog. Replay is a pure
    /// function of the log's content — replaying the same log any
    /// number of times yields the same state.
    pub fn replay(&self) -> WalState {
        replay_lines(&self.lock().read_all())
    }
}

/// Everything recovery reconstructs from the log.
#[derive(Debug, Clone, Default)]
pub struct WalState {
    /// The rebuilt target subscription state (snapshot + tail).
    pub subs: Vec<Vec<Expr>>,
    /// Every epoch whose commit decision was logged.
    pub committed_epochs: BTreeSet<u64>,
    /// The epoch the next (recovery) transaction must stage under:
    /// strictly above everything the log has seen.
    pub next_epoch: u64,
    /// Highest request id the rebuilt state reflects.
    pub last_request: Option<RequestId>,
    /// Request records replayed from the tail (after the snapshot).
    pub replayed_requests: u64,
    /// Total records scanned.
    pub lines: usize,
}

/// A snapshot being accumulated during the replay scan.
struct PendingSnap {
    next_epoch: u64,
    watermark: Option<RequestId>,
    subs: Vec<Vec<Expr>>,
}

fn replay_lines(lines: &[String]) -> WalState {
    let mut st = WalState { next_epoch: 1, ..WalState::default() };
    st.lines = lines.len();
    let mut pending: Option<PendingSnap> = None;

    // Pass 1: find the last complete snapshot and collect every
    // request record in append order. Requests cannot be applied
    // inline, because the transaction step's snapshot (watermark `w`)
    // may be *appended after* intake has already logged requests with
    // ids above `w` — file order and state order genuinely differ
    // across the two writers. Ids are monotonic, so the watermark
    // alone decides what the snapshot already reflects.
    let mut last_snap: Option<PendingSnap> = None;
    let mut reqs: Vec<SubRequest> = Vec::new();

    for line in lines {
        let mut parts = line.splitn(2, ' ');
        let tag = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("");
        match tag {
            "snap" => {
                let mut p = rest.splitn(2, ' ');
                let sub = p.next().unwrap_or("");
                let body = p.next().unwrap_or("");
                match sub {
                    "begin" => {
                        let mut f = body.split(' ');
                        let next_epoch = f.next().and_then(|x| x.parse().ok()).unwrap_or(1);
                        let watermark = f.next().and_then(|x| x.parse().ok());
                        let hosts: usize = f.next().and_then(|x| x.parse().ok()).unwrap_or(0);
                        pending = Some(PendingSnap {
                            next_epoch,
                            watermark,
                            subs: vec![Vec::new(); hosts],
                        });
                    }
                    "sub" => {
                        if let Some(p) = &mut pending {
                            let mut f = body.splitn(2, ' ');
                            let host: Option<usize> = f.next().and_then(|x| x.parse().ok());
                            let filter = f.next().and_then(|x| parse_expr(x).ok());
                            if let (Some(h), Some(e)) = (host, filter) {
                                if h < p.subs.len() {
                                    p.subs[h].push(e);
                                }
                            }
                        }
                    }
                    "end" => {
                        if let Some(p) = pending.take() {
                            // A complete snapshot: remember it (only
                            // the last one wins) and apply its epoch
                            // hint — that part is position-independent.
                            st.next_epoch = st.next_epoch.max(p.next_epoch);
                            last_snap = Some(p);
                        }
                    }
                    // Unknown snapshot records (older logs carried
                    // per-switch `snap fp` fingerprints) are skipped
                    // without aborting the snapshot.
                    _ => {}
                }
            }
            "commit" => {
                // A record other than `snap *` aborts any snapshot in
                // progress (the writer died mid-snapshot).
                pending = None;
                if let Ok(e) = rest.parse::<u64>() {
                    st.committed_epochs.insert(e);
                    st.next_epoch = st.next_epoch.max(e + 1);
                }
            }
            "req" => {
                pending = None;
                // req <id> <host> <arrival_ns> <sub|unsub> <filter>
                let mut f = rest.splitn(4, ' ');
                let id: Option<RequestId> = f.next().and_then(|x| x.parse().ok());
                let host: Option<usize> = f.next().and_then(|x| x.parse().ok());
                let arrival: Option<u64> = f.next().and_then(|x| x.parse().ok());
                let tail = f.next().unwrap_or("");
                let (kind, filter_text) = match tail.split_once(' ') {
                    Some((k, t)) => (k, t),
                    None => continue,
                };
                let (Some(id), Some(host), Ok(filter)) = (id, host, parse_expr(filter_text)) else {
                    continue;
                };
                let op = match kind {
                    "sub" => RequestOp::Subscribe(filter),
                    _ => RequestOp::Unsubscribe(filter),
                };
                reqs.push(SubRequest { id, host, op, arrival_ns: arrival.unwrap_or(0) });
            }
            _ => pending = None,
        }
    }

    // Pass 2: start from the winning snapshot and apply every request
    // above its watermark, in id order (intake is a single writer, so
    // file order among `req` records *is* id order). The watermark
    // skip is also what makes double replay idempotent.
    if let Some(p) = last_snap {
        st.subs = p.subs;
        st.last_request = p.watermark;
    }
    for req in reqs {
        if Some(req.id) <= st.last_request {
            // Already reflected in the snapshot (or a duplicate).
            continue;
        }
        st.last_request = Some(req.id);
        st.replayed_requests += 1;
        // A soft reject replays as the no-op it was at intake.
        let _ = apply_request(&mut st.subs, &req);
    }
    st
}

/// A [`ControlChannel`](camus_net::ControlChannel) wrapper that makes
/// the two-phase install durable: the commit decision for each epoch
/// is appended to the WAL at the commit point, *before* the first
/// commit op reaches any switch.
pub struct WalChannel {
    inner: Box<dyn camus_net::ControlChannel + Send>,
    wal: Wal,
}

impl WalChannel {
    pub fn new(inner: Box<dyn camus_net::ControlChannel + Send>, wal: Wal) -> Self {
        WalChannel { inner, wal }
    }
}

impl camus_net::ControlChannel for WalChannel {
    fn attempt(
        &mut self,
        switch: usize,
        op: camus_net::ControlOp,
        attempt: u32,
    ) -> camus_net::ChannelOutcome {
        self.inner.attempt(switch, op, attempt)
    }

    fn commit_point(&mut self, epoch: u64) {
        self.wal.append_commit(epoch);
        self.inner.commit_point(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    fn req(id: u64, host: usize, op: RequestOp, at: u64) -> SubRequest {
        SubRequest { id, host, op, arrival_ns: at }
    }

    #[test]
    fn requests_replay_into_the_subscription_state() {
        let wal = Wal::in_memory();
        wal.append_snapshot(&vec![Vec::new(); 3], 1, None);
        wal.append_request(&req(0, 0, RequestOp::Subscribe(f("price > 10")), 5));
        wal.append_request(&req(1, 2, RequestOp::Subscribe(f("stock == GOOGL")), 9));
        wal.append_request(&req(2, 0, RequestOp::Unsubscribe(f("price > 10")), 12));
        let st = wal.replay();
        assert_eq!(st.subs.len(), 3);
        assert!(st.subs[0].is_empty(), "sub+unsub cancel");
        assert_eq!(st.subs[2], vec![f("stock == GOOGL")]);
        assert_eq!(st.replayed_requests, 3);
        assert_eq!(st.last_request, Some(2));
    }

    #[test]
    fn snapshot_bounds_replay_and_double_replay_is_idempotent() {
        let wal = Wal::in_memory();
        wal.append_snapshot(&vec![Vec::new(); 2], 1, None);
        wal.append_request(&req(0, 0, RequestOp::Subscribe(f("price > 10")), 1));
        wal.append_commit(7);
        let snap_subs = vec![vec![f("price > 10")], Vec::new()];
        wal.append_snapshot(&snap_subs, 8, Some(0));
        wal.append_request(&req(1, 1, RequestOp::Subscribe(f("price > 50")), 2));
        // A record with id at the watermark replays as a no-op.
        wal.append_request(&req(0, 0, RequestOp::Subscribe(f("price > 10")), 1));

        let st = wal.replay();
        assert_eq!(st.subs, vec![vec![f("price > 10")], vec![f("price > 50")]]);
        assert_eq!(st.replayed_requests, 1, "only the post-snapshot tail replays");
        assert!(st.committed_epochs.contains(&7));
        assert_eq!(st.next_epoch, 8);

        // Pure function of the log: replaying again changes nothing.
        let again = wal.replay();
        assert_eq!(again.subs, st.subs);
        assert_eq!(again.committed_epochs, st.committed_epochs);
        assert_eq!(again.replayed_requests, st.replayed_requests);
    }

    #[test]
    fn snapshot_lagging_behind_newer_requests_keeps_them() {
        // The transaction step snapshots *committed* state, which lags
        // intake: requests newer than the watermark can already sit in
        // the log when the snapshot is appended. They must survive.
        let wal = Wal::in_memory();
        wal.append_snapshot(&vec![Vec::new(); 2], 1, None);
        wal.append_request(&req(0, 0, RequestOp::Subscribe(f("price > 10")), 1));
        wal.append_request(&req(1, 1, RequestOp::Subscribe(f("price > 50")), 2));
        // Snapshot reflects only request 0 — written after request 1.
        wal.append_snapshot(&[vec![f("price > 10")], Vec::new()], 2, Some(0));
        let st = wal.replay();
        assert_eq!(
            st.subs,
            vec![vec![f("price > 10")], vec![f("price > 50")]],
            "requests above the watermark apply even when logged before the snapshot"
        );
        assert_eq!(st.last_request, Some(1));
        assert_eq!(st.replayed_requests, 1);
    }

    #[test]
    fn a_log_with_snapshot_fingerprints_replays_the_same() {
        // A log written when snapshots still carried per-switch
        // pipeline fingerprints (`snap fp <switch> <fingerprint>`).
        let old = [
            "snap begin 1 - 2",
            "snap fp 0 171",
            "snap fp 1 205",
            "snap end",
            "req 0 0 5 sub (price > 10)",
            "commit 3",
            "snap begin 4 0 2",
            "snap fp 0 9001",
            "snap sub 0 (price > 10)",
            "snap fp 1 9002",
            "snap end",
            "req 1 1 9 sub (stock == GOOGL)",
            "req 2 0 12 unsub (price > 10)",
        ];
        let wal = Wal::in_memory();
        for line in old {
            wal.inner.lock().unwrap().append(line);
        }
        let st = wal.replay();
        assert_eq!(st.subs, vec![Vec::new(), vec![f("stock == GOOGL")]]);
        assert_eq!(st.last_request, Some(2));
        assert_eq!(st.replayed_requests, 2, "the second snapshot completes despite its fp lines");
        assert_eq!(st.committed_epochs, BTreeSet::from([3]));
        assert_eq!(st.next_epoch, 4);
        assert_eq!(st.lines, old.len());
    }

    #[test]
    fn incomplete_snapshot_is_ignored() {
        let wal = Wal::in_memory();
        wal.append_snapshot(&[vec![f("price > 10")]], 3, Some(4));
        // A snapshot whose writer died before `snap end`:
        {
            let mut w = wal.inner.lock().unwrap();
            w.append("snap begin 9 10 1");
            w.append("snap sub 0 (price > 99)");
        }
        wal.append_request(&req(5, 0, RequestOp::Subscribe(f("price > 50")), 1));
        let st = wal.replay();
        assert_eq!(
            st.subs,
            vec![vec![f("price > 10"), f("price > 50")]],
            "state comes from the last complete snapshot plus the tail"
        );
        assert_eq!(st.next_epoch, 3, "the torn snapshot's epoch hint is discarded");
    }

    #[test]
    fn corrupt_deep_records_are_skipped() {
        let wal = Wal::in_memory();
        wal.append_snapshot(&vec![Vec::new(); 1], 1, None);
        {
            let mut w = wal.inner.lock().unwrap();
            w.append(&format!("req 0 0 1 sub {}price > 1", "(".repeat(100_000)));
            w.append(&format!("req 1 0 2 sub {}price > 2", "not ".repeat(100_000)));
        }
        wal.append_request(&req(2, 0, RequestOp::Subscribe(f("price > 3")), 3));
        let st = wal.replay();
        assert_eq!(st.subs, vec![vec![f("price > 3")]], "both deep records are skipped");
        assert_eq!(st.replayed_requests, 1);
    }

    #[test]
    fn long_chains_and_deep_nots_replay() {
        let wal = Wal::in_memory();
        wal.append_snapshot(&vec![Vec::new(); 1], 1, None);
        let chain = Expr::disj((0..300).map(|v| f(&format!("price == {v}"))));
        let nots = (0..200).fold(f("price > 1"), |e, _| e.not());
        wal.append_request(&req(0, 0, RequestOp::Subscribe(chain.clone()), 1));
        wal.append_request(&req(1, 0, RequestOp::Subscribe(nots.clone()), 2));
        assert_eq!(wal.replay().subs[0], vec![chain, nots]);
    }

    #[test]
    fn filters_round_trip_through_display() {
        let wal = Wal::in_memory();
        wal.append_snapshot(&vec![Vec::new(); 1], 1, None);
        let gnarly = f("(price > 10 and not (stock == GOOGL)) or shares >= 5");
        wal.append_request(&req(0, 0, RequestOp::Subscribe(gnarly.clone()), 1));
        assert_eq!(wal.replay().subs[0], vec![gnarly]);
    }

    #[test]
    fn file_backend_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("camus-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::file(&path).unwrap();
            wal.append_snapshot(&vec![Vec::new(); 2], 1, None);
            wal.append_request(&req(0, 1, RequestOp::Subscribe(f("price > 10")), 3));
            wal.append_commit(2);
        } // drop = crash: no close protocol, no fsync
        let wal = Wal::file(&path).unwrap();
        let st = wal.replay();
        assert_eq!(st.subs[1], vec![f("price > 10")]);
        assert!(st.committed_epochs.contains(&2));
        std::fs::remove_file(&path).ok();
    }
}
