//! Subscription intake: the live API surface and the churn batcher.
//!
//! Intake keeps only the *open batch window*. Every other accepted
//! request is already in the transaction step's target state: the
//! service applies a batch there as soon as the window closes. A
//! request is accepted or soft-rejected against that state plus the
//! window, and an accepted one is folded into the window. The window is
//! adaptive:
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
//! order, and the target state takes them through `apply_request`, so
//! merging two queued batches is concatenating their requests, and a
//! batch costs time in proportion to its ops, not to the subscriptions
//! held.

use crate::durability::Wal;
use crate::error::IntakeError;
use camus_lang::ast::Expr;
use std::io;

/// Service-assigned request identifier.
pub(crate) type RequestId = u64;

/// What a request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    Subscribe(Expr),
    /// Drop one instance of an equal filter held by the host (the
    /// most recently added one).
    Unsubscribe(Expr),
}

impl RequestOp {
    /// The filter, and the change to the host's count of it.
    pub(crate) fn edit(&self) -> (&Expr, i64) {
        match self {
            RequestOp::Subscribe(f) => (f, 1),
            RequestOp::Unsubscribe(f) => (f, -1),
        }
    }
}

/// One subscription request with its modelled arrival time.
#[derive(Debug, Clone)]
pub(crate) struct SubRequest {
    pub id: RequestId,
    pub host: usize,
    pub op: RequestOp,
    /// Modelled arrival, ns on the service clock.
    pub arrival_ns: u64,
}

/// The adaptive batching window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchPolicy {
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
    pub(crate) const ADAPTIVE: BatchPolicy =
        BatchPolicy { min_window_ns: 500_000, max_window_ns: 2_000_000, max_ops: 256 };

    /// The one-op-at-a-time baseline: every request is its own
    /// transaction.
    pub(crate) const NAIVE: BatchPolicy =
        BatchPolicy { min_window_ns: 0, max_window_ns: 0, max_ops: 1 };

    /// When a window opened at `opened_ns` whose latest arrival is
    /// `last_ns` closes, absent new arrivals.
    /// Saturates: a window stamped near `u64::MAX` closes at
    /// `u64::MAX`, never before it opened.
    pub(crate) fn deadline_ns(&self, opened_ns: u64, last_ns: u64) -> u64 {
        opened_ns.saturating_add(self.max_window_ns).min(last_ns.saturating_add(self.min_window_ns))
    }
}

/// A closed batch window: the requests it absorbed.
#[derive(Debug, Clone)]
pub(crate) struct ChurnBatch {
    /// Transaction id (intake-assigned, monotonic).
    pub txn: u64,
    /// The accepted requests folded in, arrival order.
    pub requests: Vec<SubRequest>,
    /// First arrival in the window.
    pub opened_ns: u64,
    /// When the window closed (deadline, cap, or drain); for a merged
    /// backlog, when its last window closed.
    pub closed_ns: u64,
    /// Closed windows this batch holds: 1, plus one per window merged
    /// into it while it waited in the backlog.
    pub batches: usize,
}

/// The one subscription-edit rule, shared by the transaction step and
/// WAL replay: a subscribe pushes the filter; an unsubscribe removes
/// the most recently added equal filter the host holds. An unknown host
/// or a filter the host does not hold is a soft reject that leaves
/// `subs` unchanged; intake accepts exactly the requests this applies.
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
pub(crate) struct IntakeService {
    policy: BatchPolicy,
    open: Option<OpenWindow>,
    next_txn: u64,
    /// Monotonic arrival clamp: arrivals never run backwards.
    clock_ns: u64,
    /// Durability: every request is appended here *before* it is
    /// checked or batched (`None` = volatile controller).
    wal: Option<Wal>,
    /// Accepted request count.
    pub accepted: u64,
    /// Soft per-request rejects, in arrival order.
    pub rejected: Vec<IntakeError>,
    /// Batches emitted.
    pub batches: u64,
}

impl IntakeService {
    pub(crate) fn new(policy: BatchPolicy, wal: Option<Wal>) -> Self {
        IntakeService {
            policy,
            open: None,
            next_txn: 0,
            clock_ns: 0,
            wal,
            accepted: 0,
            rejected: Vec::new(),
            batches: 0,
        }
    }

    /// Intake's clock: the latest arrival, clamped monotonic. Every
    /// window still open, or still to open, closes at or after it.
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    fn close(&mut self, closed_ns: u64) -> Option<ChurnBatch> {
        let w = self.open.take()?;
        self.batches += 1;
        Some(ChurnBatch {
            txn: w.txn,
            requests: w.requests,
            opened_ns: w.opened_ns,
            closed_ns,
            batches: 1,
        })
    }

    /// A request arrives: clamp its stamp, log it, and close the open
    /// window if the request falls past its deadline (closed at the
    /// deadline, before this request existed). The caller queues that
    /// window before it [`admit`](Self::admit)s the request. A failed
    /// WAL append returns the error before anything else happens.
    pub(crate) fn arrive(&mut self, req: &mut SubRequest) -> io::Result<Option<ChurnBatch>> {
        req.arrival_ns = req.arrival_ns.max(self.clock_ns);
        self.clock_ns = req.arrival_ns;

        // Write ahead: the request is durable before it is checked
        // (soft rejects are logged too — replay applies the same
        // `apply_request`, so they replay as the same no-ops).
        if let Some(w) = &self.wal {
            w.append_request(req)?;
        }

        let expired = self
            .open
            .as_ref()
            .map(|w| self.policy.deadline_ns(w.opened_ns, w.last_ns))
            .filter(|&deadline| req.arrival_ns > deadline);
        Ok(expired.and_then(|deadline| self.close(deadline)))
    }

    /// Accept or soft-reject an arrived request against `subs` (every
    /// accepted request outside the open window) plus the window, and
    /// fold an accepted one into the window. Returns the window when
    /// the request fills it to `max_ops`.
    pub(crate) fn admit(&mut self, req: SubRequest, subs: &[Vec<Expr>]) -> Option<ChurnBatch> {
        if let Err(e) = self.check(&req, subs) {
            self.rejected.push(e);
            return None;
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
            let last = w.last_ns;
            return self.close(last);
        }
        None
    }

    /// Would `apply_request` take `req` after `subs` and the window? A
    /// subscribe needs a known host; an unsubscribe needs an equal
    /// filter left to remove: those the host holds, plus the window's
    /// subscribes of it, minus its unsubscribes.
    fn check(&self, req: &SubRequest, subs: &[Vec<Expr>]) -> Result<(), IntakeError> {
        let (request, host, hosts) = (req.id, req.host, subs.len());
        let held = subs.get(host).ok_or(IntakeError::UnknownHost { request, host, hosts })?;
        let RequestOp::Unsubscribe(f) = &req.op else { return Ok(()) };
        let window = self.open.iter().flat_map(|w| &w.requests).filter(|r| r.host == host);
        let edits: i64 = window.map(|r| r.op.edit()).filter(|(x, _)| *x == f).map(|(_, n)| n).sum();
        if held.iter().filter(|x| *x == f).count() as i64 + edits > 0 {
            Ok(())
        } else {
            Err(IntakeError::NoSuchSubscription { request, host })
        }
    }

    /// Close the open window now (drain, shutdown): at its last
    /// arrival, not at a deadline that may never be reached.
    pub(crate) fn flush(&mut self) -> Option<ChurnBatch> {
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

    /// Intake as the service drives it: a closed window lands in the
    /// target state `subs` before the next request is checked.
    struct Driven {
        intake: IntakeService,
        subs: Vec<Vec<Expr>>,
    }

    impl Driven {
        fn handle(&mut self, mut r: SubRequest) -> Option<ChurnBatch> {
            let expired = self.intake.arrive(&mut r).unwrap();
            self.land(expired.as_ref());
            let full = self.intake.admit(r, &self.subs);
            self.land(full.as_ref());
            assert!(expired.is_none() || full.is_none(), "one request closes at most one window");
            expired.or(full)
        }

        fn flush(&mut self) -> Option<ChurnBatch> {
            let batch = self.intake.flush();
            self.land(batch.as_ref());
            batch
        }

        fn land(&mut self, batch: Option<&ChurnBatch>) {
            for r in batch.into_iter().flat_map(|b| &b.requests) {
                apply_request(&mut self.subs, r).expect("intake accepts only what applies");
            }
        }
    }

    fn svc(policy: BatchPolicy, hosts: usize) -> Driven {
        Driven { intake: IntakeService::new(policy, None), subs: vec![Vec::new(); hosts] }
    }

    fn req(id: u64, host: usize, op: RequestOp, at: u64) -> SubRequest {
        SubRequest { id, host, op, arrival_ns: at }
    }

    /// Subscribe `host` to `filter` once per `(id, arrival)`, collecting
    /// the batches the requests close.
    fn subscribe_all(
        s: &mut Driven,
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
        let mut s = svc(BatchPolicy::NAIVE, 4);
        let got = subscribe_all(&mut s, 0, "price > 1", &[(0, 10), (1, 11), (2, 500)]);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|b| b.requests.len() == 1));
        assert_eq!(got[2].closed_ns, 500);
        assert_eq!(got[2].requests[0].id, 2, "a batch carries its own requests only");
        assert_eq!(s.subs[0].len(), 3, "every closed window lands in the target state");
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
        assert_eq!(got[0].requests.len(), 3);
        // Closed at the quiet-period deadline, not the late arrival.
        assert_eq!(got[0].closed_ns, 220);
        // The late request sits in a fresh window; flush emits it.
        let tail = s.flush().expect("the late request's window");
        assert_eq!(tail.requests.len(), 1);
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
        assert_eq!(got[0].requests.len(), 3, "t=0,90,180 made the window; t=270 did not");
    }

    #[test]
    fn deadline_saturates_at_the_end_of_the_clock() {
        let near = u64::MAX - 1;
        assert_eq!(BatchPolicy::ADAPTIVE.deadline_ns(near, near), u64::MAX);
        let mut s = svc(BatchPolicy::ADAPTIVE, 1);
        let got = subscribe_all(&mut s, 0, "price > 1", &[(0, near), (1, near), (2, u64::MAX)]);
        assert!(got.is_empty(), "no window closes before it opened");
        let batch = s.flush().expect("one open window");
        assert_eq!((batch.requests.len(), batch.opened_ns, batch.closed_ns), (3, near, u64::MAX));
    }

    #[test]
    fn rejects_are_soft_and_recorded() {
        let mut s = svc(BatchPolicy::NAIVE, 2);
        assert!(s.handle(req(0, 9, RequestOp::Subscribe(f("price > 1")), 0)).is_none());
        assert!(s.handle(req(1, 0, RequestOp::Unsubscribe(f("price > 1")), 1)).is_none());
        assert!(s.flush().is_none(), "rejected requests emit no batch");
        let rejected = &s.intake.rejected;
        assert_eq!(rejected.len(), 2);
        assert!(matches!(rejected[0], IntakeError::UnknownHost { host: 9, hosts: 2, .. }));
        assert!(matches!(rejected[1], IntakeError::NoSuchSubscription { .. }));
        assert_eq!(s.intake.accepted, 0);
    }

    #[test]
    fn unsubscribe_drops_newest_equal_filter() {
        let mut s = svc(BatchPolicy { max_ops: 100, ..BatchPolicy::ADAPTIVE }, 1);
        s.handle(req(0, 0, RequestOp::Subscribe(f("price > 1")), 0));
        s.handle(req(1, 0, RequestOp::Subscribe(f("price > 2")), 1));
        s.handle(req(2, 0, RequestOp::Subscribe(f("price > 1")), 2));
        s.handle(req(3, 0, RequestOp::Unsubscribe(f("price > 1")), 3));
        s.flush();
        assert_eq!(s.subs[0], vec![f("price > 1"), f("price > 2")]);
    }

    #[test]
    fn an_unsubscribe_counts_the_open_window() {
        // Host 0 holds one `price > 1` outside the window; each
        // unsubscribe needs one left after the window's own edits.
        let mut s = svc(BatchPolicy { max_ops: 100, ..BatchPolicy::ADAPTIVE }, 1);
        s.subs[0].push(f("price > 1"));
        let ops = [
            RequestOp::Unsubscribe(f("price > 1")),
            RequestOp::Unsubscribe(f("price > 1")),
            RequestOp::Subscribe(f("price > 1")),
            RequestOp::Unsubscribe(f("price > 1")),
            RequestOp::Unsubscribe(f("price > 2")),
            RequestOp::Unsubscribe(f("price > 1")),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            assert!(s.handle(req(i as u64, 0, op, i as u64)).is_none(), "one window");
        }
        let ids = |s: &Driven| -> Vec<u64> {
            s.intake
                .rejected
                .iter()
                .map(|e| match e {
                    IntakeError::NoSuchSubscription { request, .. } => *request,
                    other => panic!("{other}"),
                })
                .collect()
        };
        assert_eq!(ids(&s), vec![1, 4, 5]);
        let batch = s.flush().expect("the open window");
        assert_eq!(batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert!(s.subs[0].is_empty());
    }

    #[test]
    fn out_of_order_arrivals_are_clamped_monotonic() {
        let mut s = svc(BatchPolicy::NAIVE, 1);
        let got = subscribe_all(&mut s, 0, "price > 1", &[(0, 100), (1, 40), (2, 70), (3, 130)]);
        let stamps: Vec<(u64, u64, u64)> =
            got.iter().map(|b| (b.requests[0].arrival_ns, b.opened_ns, b.closed_ns)).collect();
        // The late stamps 40 and 70 are clamped to the intake clock.
        assert_eq!(
            stamps,
            vec![(100, 100, 100), (100, 100, 100), (100, 100, 100), (130, 130, 130)]
        );
        assert_eq!(s.intake.now_ns(), 130);
    }
}
