//! Subscription intake: the live API surface and the churn batcher.
//!
//! Intake keeps the authoritative target subscription state. Every
//! request mutates that state immediately through `apply_request`
//! (or is rejected), and gets folded into the *open batch window*. The
//! window is adaptive:
//!
//! * it opens at the first request's arrival `t0`;
//! * each further arrival within the window extends a short quiet
//!   period (`min_window_ns` past the last arrival), so a burst is
//!   absorbed whole;
//! * a hard deadline `t0 + max_window_ns` bounds the wait, so a
//!   steady trickle still makes progress;
//! * `max_ops` caps the batch outright.
//!
//! Batch boundaries are decided purely on the *modelled arrival
//! timestamps* carried by the requests, so the same request schedule
//! always produces the same batches.
//!
//! A batch carries only the requests intake accepted, in arrival
//! order. The transaction step applies them to its own copy of the
//! target state with the same `apply_request`, so merging two queued
//! batches is concatenating their requests, and a batch costs time in
//! proportion to its ops, not to the subscriptions held.

use crate::durability::Wal;
use crate::error::IntakeError;
use camus_lang::ast::Expr;

/// Service-assigned request identifier.
pub type RequestId = u64;

/// What a request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    Subscribe(Expr),
    /// Drop one instance of an equal filter held by the host (the
    /// most recently added one).
    Unsubscribe(Expr),
}

/// One subscription request with its modelled arrival time.
#[derive(Debug, Clone)]
pub struct SubRequest {
    pub id: RequestId,
    pub host: usize,
    pub op: RequestOp,
    /// Modelled arrival, ns on the service clock.
    pub arrival_ns: u64,
}

/// The adaptive batching window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Quiet period: the window stays open this long past the most
    /// recent arrival.
    pub min_window_ns: u64,
    /// Hard deadline past the window's first arrival.
    pub max_window_ns: u64,
    /// Op-count cap per batch.
    pub max_ops: usize,
}

impl BatchPolicy {
    /// The batched service default: absorb half-millisecond bursts,
    /// never hold a request hostage past 2 ms.
    pub fn adaptive() -> Self {
        BatchPolicy { min_window_ns: 500_000, max_window_ns: 2_000_000, max_ops: 256 }
    }

    /// The one-op-at-a-time baseline: every request is its own
    /// transaction.
    pub fn naive() -> Self {
        BatchPolicy { min_window_ns: 0, max_window_ns: 0, max_ops: 1 }
    }

    /// When a window opened at `opened_ns` whose latest arrival is
    /// `last_ns` closes, absent new arrivals.
    pub fn deadline_ns(&self, opened_ns: u64, last_ns: u64) -> u64 {
        (opened_ns + self.max_window_ns).min(last_ns + self.min_window_ns)
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::adaptive()
    }
}

/// A closed batch window: the requests it absorbed.
#[derive(Debug, Clone)]
pub struct ChurnBatch {
    /// Transaction id (intake-assigned, monotonic).
    pub txn: u64,
    /// The accepted requests folded in, arrival order.
    pub requests: Vec<SubRequest>,
    /// First arrival in the window.
    pub opened_ns: u64,
    /// When the window closed (deadline, cap, or drain).
    pub closed_ns: u64,
}

impl ChurnBatch {
    pub fn ops(&self) -> usize {
        self.requests.len()
    }
}

/// The one subscription-edit rule, shared by intake, the transaction
/// step and WAL replay: a subscribe pushes the filter; an unsubscribe
/// removes the most recently added equal filter the host holds. An
/// unknown host or a filter the host does not hold is a soft reject
/// that leaves `subs` unchanged.
pub(crate) fn apply_request(subs: &mut [Vec<Expr>], req: &SubRequest) -> Result<(), IntakeError> {
    let hosts = subs.len();
    let Some(held) = subs.get_mut(req.host) else {
        return Err(IntakeError::UnknownHost { request: req.id, host: req.host, hosts });
    };
    match &req.op {
        RequestOp::Subscribe(f) => held.push(f.clone()),
        RequestOp::Unsubscribe(f) => match held.iter().rposition(|x| x == f) {
            Some(i) => {
                held.remove(i);
            }
            None => {
                return Err(IntakeError::NoSuchSubscription { request: req.id, host: req.host })
            }
        },
    }
    Ok(())
}

struct OpenWindow {
    txn: u64,
    opened_ns: u64,
    last_ns: u64,
    requests: Vec<SubRequest>,
}

/// The intake stage.
pub struct IntakeService {
    policy: BatchPolicy,
    /// Authoritative target state (what the network *should* run).
    subs: Vec<Vec<Expr>>,
    open: Option<OpenWindow>,
    next_txn: u64,
    /// Monotonic arrival clamp: arrivals never run backwards.
    clock_ns: u64,
    /// Durability: every request is appended here *before* it mutates
    /// the target state (`None` = volatile controller).
    wal: Option<Wal>,
    /// Accepted request count.
    pub accepted: u64,
    /// Soft per-request rejects, in arrival order.
    pub rejected: Vec<IntakeError>,
    /// Requests whose stamps arrived out of order (clamped forward).
    pub out_of_order: u64,
    /// Batches emitted.
    pub batches: u64,
}

impl IntakeService {
    pub fn new(policy: BatchPolicy, subs: Vec<Vec<Expr>>) -> Self {
        IntakeService {
            policy,
            subs,
            open: None,
            next_txn: 0,
            clock_ns: 0,
            wal: None,
            accepted: 0,
            rejected: Vec::new(),
            out_of_order: 0,
            batches: 0,
        }
    }

    /// Arm the write-ahead log.
    pub fn with_wal(mut self, wal: Wal) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The target state intake has accepted so far.
    pub fn subs(&self) -> &[Vec<Expr>] {
        &self.subs
    }

    /// Take the target state home (shutdown path).
    pub fn into_subs(self) -> Vec<Vec<Expr>> {
        self.subs
    }

    /// Intake's clock: the latest arrival, clamped monotonic. Every
    /// window still open, or still to open, closes at or after it.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    fn close(&mut self, closed_ns: u64) -> Option<ChurnBatch> {
        let w = self.open.take()?;
        self.batches += 1;
        Some(ChurnBatch { txn: w.txn, requests: w.requests, opened_ns: w.opened_ns, closed_ns })
    }

    /// Take one request: log it, apply it or soft-reject it, and fold
    /// it into the open window. Returns the window the request closed,
    /// if any: the previous one when this arrival falls past its
    /// deadline (closed at the deadline, before this request existed),
    /// or the request's own when it reaches `max_ops`. Never both: a
    /// window left open holds fewer than `max_ops` requests, so then
    /// `max_ops` is at least 2 and the window this request opens holds
    /// one.
    pub fn handle(&mut self, mut req: SubRequest) -> Option<ChurnBatch> {
        if req.arrival_ns < self.clock_ns {
            self.out_of_order += 1;
            req.arrival_ns = self.clock_ns;
        }
        self.clock_ns = req.arrival_ns;

        // Write ahead: the request is durable before it mutates the
        // target state (soft rejects are logged too — replay applies
        // the same `apply_request`, so they replay as the same no-ops).
        if let Some(w) = &self.wal {
            w.append_request(&req);
        }

        let expired = self
            .open
            .as_ref()
            .map(|w| self.policy.deadline_ns(w.opened_ns, w.last_ns))
            .filter(|&deadline| req.arrival_ns > deadline);
        let closed = expired.and_then(|deadline| self.close(deadline));

        if let Err(e) = apply_request(&mut self.subs, &req) {
            // Soft reject: record and move on, no state change.
            self.rejected.push(e);
            return closed;
        }
        self.accepted += 1;

        if self.open.is_none() {
            self.open = Some(OpenWindow {
                txn: self.next_txn,
                opened_ns: req.arrival_ns,
                last_ns: req.arrival_ns,
                requests: Vec::new(),
            });
            self.next_txn += 1;
        }
        let w = self.open.as_mut().expect("window just ensured");
        w.last_ns = req.arrival_ns;
        w.requests.push(req);
        if w.requests.len() >= self.policy.max_ops {
            debug_assert!(closed.is_none(), "one request closes at most one window");
            let last = w.last_ns;
            return self.close(last);
        }
        closed
    }

    /// Close the open window now (drain, shutdown): at its last
    /// arrival, not at a deadline that may never be reached.
    pub fn flush(&mut self) -> Option<ChurnBatch> {
        let last = self.open.as_ref()?.last_ns;
        self.close(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::parser::parse_expr;

    fn f(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    fn svc(policy: BatchPolicy, hosts: usize) -> IntakeService {
        IntakeService::new(policy, vec![Vec::new(); hosts])
    }

    fn req(id: u64, host: usize, op: RequestOp, at: u64) -> SubRequest {
        SubRequest { id, host, op, arrival_ns: at }
    }

    /// Subscribe `host` to `filter` once per `(id, arrival)`, collecting
    /// the batches the requests close.
    fn subscribe_all(
        s: &mut IntakeService,
        host: usize,
        filter: &str,
        at: &[(u64, u64)],
    ) -> Vec<ChurnBatch> {
        at.iter()
            .filter_map(|&(i, t)| s.handle(req(i, host, RequestOp::Subscribe(f(filter)), t)))
            .collect()
    }

    #[test]
    fn naive_policy_emits_one_batch_per_request() {
        let mut s = svc(BatchPolicy::naive(), 4);
        let got = subscribe_all(&mut s, 0, "price > 1", &[(0, 10), (1, 11), (2, 500)]);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|b| b.ops() == 1));
        assert_eq!(got[2].closed_ns, 500);
        assert_eq!(got[2].requests[0].id, 2, "a batch carries its own requests only");
        assert_eq!(s.subs()[0].len(), 3, "intake's target state is cumulative");
    }

    #[test]
    fn adaptive_window_batches_bursts_and_splits_on_gaps() {
        let policy = BatchPolicy { min_window_ns: 100, max_window_ns: 1_000, max_ops: 64 };
        let mut s = svc(policy, 4);
        // A burst at t=0,50,120 (each within 100 of the last), then a
        // gap: the next arrival at t=5_000 is past the deadline.
        let burst = subscribe_all(&mut s, 1, "price > 1", &[(0, 0), (1, 50), (2, 120)]);
        assert!(burst.is_empty(), "window still open");
        let got = subscribe_all(&mut s, 1, "price > 2", &[(3, 5_000)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ops(), 3);
        // Closed at the quiet-period deadline, not the late arrival.
        assert_eq!(got[0].closed_ns, 220);
        // The late request sits in a fresh window; flush emits it.
        let tail = s.flush().expect("the late request's window");
        assert_eq!(tail.ops(), 1);
        assert_eq!(tail.closed_ns, 5_000, "drain closes at last arrival");
        assert!(s.flush().is_none(), "nothing left open");
    }

    #[test]
    fn max_window_bounds_a_steady_trickle() {
        let policy = BatchPolicy { min_window_ns: 100, max_window_ns: 250, max_ops: 64 };
        let mut s = svc(policy, 1);
        // Arrivals every 90 ns keep extending the quiet period, but
        // the hard deadline at t0+250 still closes the window.
        let at: Vec<(u64, u64)> = (0..6u64).map(|i| (i, i * 90)).collect();
        let got = subscribe_all(&mut s, 0, "price > 1", &at);
        assert!(!got.is_empty());
        assert_eq!(got[0].closed_ns, 250, "hard deadline wins");
        assert_eq!(got[0].ops(), 3, "t=0,90,180 made the window; t=270 did not");
    }

    #[test]
    fn rejects_are_soft_and_recorded() {
        let mut s = svc(BatchPolicy::naive(), 2);
        assert!(s.handle(req(0, 9, RequestOp::Subscribe(f("price > 1")), 0)).is_none());
        assert!(s.handle(req(1, 0, RequestOp::Unsubscribe(f("price > 1")), 1)).is_none());
        assert!(s.flush().is_none(), "rejected requests emit no batch");
        assert_eq!(s.rejected.len(), 2);
        assert!(matches!(s.rejected[0], IntakeError::UnknownHost { host: 9, .. }));
        assert!(matches!(s.rejected[1], IntakeError::NoSuchSubscription { .. }));
        assert_eq!(s.accepted, 0);
    }

    #[test]
    fn unsubscribe_drops_newest_equal_filter() {
        let mut s = svc(BatchPolicy { max_ops: 100, ..BatchPolicy::adaptive() }, 1);
        s.handle(req(0, 0, RequestOp::Subscribe(f("price > 1")), 0));
        s.handle(req(1, 0, RequestOp::Subscribe(f("price > 2")), 1));
        s.handle(req(2, 0, RequestOp::Subscribe(f("price > 1")), 2));
        s.handle(req(3, 0, RequestOp::Unsubscribe(f("price > 1")), 3));
        assert_eq!(s.subs()[0], vec![f("price > 1"), f("price > 2")]);
    }

    #[test]
    fn out_of_order_arrivals_are_clamped_monotonic() {
        let mut s = svc(BatchPolicy::naive(), 1);
        let got = subscribe_all(&mut s, 0, "price > 1", &[(0, 100), (1, 40)]);
        assert_eq!(s.out_of_order, 1);
        assert_eq!(got[1].requests[0].arrival_ns, 100, "clamped to the intake clock");
        assert_eq!(s.now_ns(), 100);
    }
}
