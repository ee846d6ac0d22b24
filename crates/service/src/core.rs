//! The message-passing service core.
//!
//! A running controller is a small graph of single-threaded services
//! connected by channels: each stage owns its state, consumes typed
//! input messages, and emits typed output messages downstream. The
//! harness here is deliberately minimal — std threads and `mpsc`, no
//! executor — because every stage is CPU-bound (routing, compiling,
//! driving the modelled control channel), one thread per stage is the
//! natural parallelism, and the vendored-deps build has no tokio.
//!
//! Three ideas live here:
//!
//! * [`Pipe`]/[`StageRx`] — a channel whose occupancy is tracked in a
//!   shared [`Gauge`] (and a depth [`Histogram`]), so queue depth per
//!   stage is observable while the service runs;
//! * [`Ctl`] — the control envelope. Besides payload messages, a pipe
//!   carries `Drain` (flush buffered work and pass the marker on, so a
//!   caller can wait for everything in flight to land) and `Stop`
//!   (drain, then terminate). Markers propagate stage to stage, which
//!   makes the shutdown protocol a single forward pass;
//! * [`Service`] + [`spawn`] — the stage trait and its thread
//!   harness. The harness offers queued input back to the service
//!   through [`Service::coalesce`] before each `handle` call, which is
//!   how the compile stage merges a backlog of churn batches into one
//!   transaction when it falls behind.

use camus_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// The control envelope every inter-stage pipe carries.
#[derive(Debug)]
pub enum Ctl<T> {
    Msg(T),
    /// Flush buffered work and forward the marker.
    Drain,
    /// Flush, forward the marker, and terminate the stage.
    Stop,
    /// Fault injection: the controller process "dies" — the stage
    /// forwards the marker and terminates *without flushing*, so
    /// buffered work (open batch windows, queued transactions) is lost
    /// exactly the way a real crash loses it.
    Crash,
}

/// The downstream stage hung up: its thread exited (fatal error) and
/// dropped the receiver. The sender's own stage should stop too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeClosed;

impl fmt::Display for PipeClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "downstream stage hung up")
    }
}

impl std::error::Error for PipeClosed {}

/// The sending half of a stage pipe. Cloneable; every payload send
/// bumps the stage's queue-depth gauge (the matching receive
/// decrements it) and records the depth into a histogram.
pub struct Pipe<T> {
    tx: Sender<Ctl<T>>,
    depth: Arc<Gauge>,
    depths: Arc<Histogram>,
}

impl<T> Clone for Pipe<T> {
    fn clone(&self) -> Self {
        Pipe { tx: self.tx.clone(), depth: self.depth.clone(), depths: self.depths.clone() }
    }
}

impl<T> Pipe<T> {
    pub fn send(&self, msg: T) -> Result<(), PipeClosed> {
        self.depth.add(1);
        self.depths.record(self.depth.get().max(0) as u64);
        self.tx.send(Ctl::Msg(msg)).map_err(|_| {
            self.depth.add(-1);
            PipeClosed
        })
    }

    /// Send a control marker (does not count as queue payload).
    pub fn ctl(&self, c: Ctl<T>) -> Result<(), PipeClosed> {
        self.tx.send(c).map_err(|_| PipeClosed)
    }
}

/// The receiving half of a stage pipe.
pub struct StageRx<T> {
    rx: Receiver<Ctl<T>>,
    depth: Arc<Gauge>,
}

impl<T> StageRx<T> {
    fn note(&self, c: Ctl<T>) -> Ctl<T> {
        if matches!(c, Ctl::Msg(_)) {
            self.depth.add(-1);
        }
        c
    }

    /// Block for the next envelope; `None` when every sender dropped.
    pub fn recv(&self) -> Option<Ctl<T>> {
        self.rx.recv().ok().map(|c| self.note(c))
    }

    /// Non-blocking receive (the coalescing peek).
    pub fn try_recv(&self) -> Option<Ctl<T>> {
        self.rx.try_recv().ok().map(|c| self.note(c))
    }
}

/// Create a gauge-tracked pipe for `stage`, registering
/// `service.queue.<stage>` (live depth) and
/// `service.queue.<stage>.depth` (depth-at-enqueue histogram) in
/// `registry`.
pub fn pipe<T>(registry: &MetricsRegistry, stage: &str) -> (Pipe<T>, StageRx<T>) {
    let (tx, rx) = mpsc::channel();
    let depth = registry.gauge(&format!("service.queue.{stage}"));
    let depths = registry.histogram(&format!("service.queue.{stage}.depth"));
    (Pipe { tx, depth: depth.clone(), depths }, StageRx { rx, depth })
}

/// One long-running pipeline stage.
pub trait Service: Send {
    type In: Send;
    type Out: Send;
    type Error: std::error::Error + Send;

    /// Stage name (also the thread name).
    fn name(&self) -> &'static str;

    /// Process one input, emitting any number of outputs into `out`.
    /// An `Err` is fatal for the stage: the harness forwards `Stop`
    /// downstream and exits, returning the error to `join`.
    fn handle(&mut self, msg: Self::In, out: &Pipe<Self::Out>) -> Result<(), Self::Error>;

    /// Offer a queued input for merging into `pending` before
    /// `handle` runs. Return `Ok(())` if `next` was absorbed,
    /// `Err(next)` to leave it queued. Default: never merge.
    fn coalesce(&mut self, pending: &mut Self::In, next: Self::In) -> Result<(), Self::In> {
        let _ = pending;
        Err(next)
    }

    /// Emit buffered work (open batch windows, etc.) on drain/stop.
    fn flush(&mut self, out: &Pipe<Self::Out>) -> Result<(), Self::Error> {
        let _ = out;
        Ok(())
    }
}

/// How a supervised stage ultimately failed: its own fatal error, or
/// repeated panics that exhausted the restart budget.
#[derive(Debug)]
pub enum StageFailure<E> {
    Service(E),
    /// `handle` panicked `panics` times in a row; the supervisor gave
    /// up restarting the stage loop.
    Panicked {
        panics: u32,
    },
}

impl<E: fmt::Display> fmt::Display for StageFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageFailure::Service(e) => write!(f, "{e}"),
            StageFailure::Panicked { panics } => {
                write!(f, "stage panicked {panics} consecutive times; supervisor gave up")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for StageFailure<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageFailure::Service(e) => Some(e),
            StageFailure::Panicked { .. } => None,
        }
    }
}

/// Consecutive [`Service::handle`] panics that kill a supervised stage.
pub(crate) const MAX_PANICS: u32 = 3;

/// Run `svc` on its own thread until `Stop` (or sender hang-up).
/// Returns the service back (with its accumulated state) plus how it
/// ended, so the caller can collect stats — and, for the deploy
/// stage, take the [`Deployment`](camus_net::Deployment) home.
///
/// The harness is a supervisor: a panic inside [`Service::handle`] is
/// caught, counted into `restarts` (the `service.stage.restarts`
/// counter), and the loop moves on to the next queued message — the
/// poison message is dropped, downstream keeps its pipe. Only
/// `MAX_PANICS` *consecutive* panics kill the stage (with a
/// [`StageFailure::Panicked`]), so one bad message cannot hang the
/// pipeline and a deterministically-crashing one cannot spin it
/// forever.
#[allow(clippy::type_complexity)]
pub fn spawn<S>(
    mut svc: S,
    rx: StageRx<S::In>,
    out: Pipe<S::Out>,
    restarts: Arc<Counter>,
) -> JoinHandle<(S, Result<(), StageFailure<S::Error>>)>
where
    S: Service + 'static,
{
    thread::Builder::new()
        .name(svc.name().to_string())
        .spawn(move || {
            // An envelope pulled off the queue during a coalescing
            // scan that the service refused to merge.
            let mut stash: Option<Ctl<S::In>> = None;
            let mut consecutive_panics: u32 = 0;
            loop {
                let ctl = match stash.take().or_else(|| rx.recv()) {
                    Some(c) => c,
                    // Upstream died without a Stop marker: treat it as
                    // one so the shutdown wave keeps moving.
                    None => {
                        let r = svc.flush(&out).map_err(StageFailure::Service);
                        let _ = out.ctl(Ctl::Stop);
                        return (svc, r);
                    }
                };
                match ctl {
                    Ctl::Msg(mut m) => {
                        // Opportunistically offer the backlog for
                        // merging; stop at the first refusal or
                        // control marker to preserve ordering.
                        while stash.is_none() {
                            match rx.try_recv() {
                                Some(Ctl::Msg(n)) => {
                                    if let Err(n) = svc.coalesce(&mut m, n) {
                                        stash = Some(Ctl::Msg(n));
                                    }
                                }
                                Some(c) => stash = Some(c),
                                None => break,
                            }
                        }
                        let handled =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                svc.handle(m, &out)
                            }));
                        match handled {
                            Ok(Ok(())) => consecutive_panics = 0,
                            Ok(Err(e)) => {
                                let _ = out.ctl(Ctl::Stop);
                                return (svc, Err(StageFailure::Service(e)));
                            }
                            Err(_panic) => {
                                consecutive_panics += 1;
                                restarts.inc();
                                if consecutive_panics >= MAX_PANICS {
                                    let _ = out.ctl(Ctl::Stop);
                                    return (
                                        svc,
                                        Err(StageFailure::Panicked { panics: consecutive_panics }),
                                    );
                                }
                                // Supervised restart: re-enter the loop
                                // with the same service state (the
                                // poison message is gone; everything
                                // else survives).
                            }
                        }
                    }
                    Ctl::Drain => {
                        if let Err(e) = svc.flush(&out) {
                            let _ = out.ctl(Ctl::Stop);
                            return (svc, Err(StageFailure::Service(e)));
                        }
                        let _ = out.ctl(Ctl::Drain);
                    }
                    Ctl::Stop => {
                        let r = svc.flush(&out).map_err(StageFailure::Service);
                        let _ = out.ctl(Ctl::Stop);
                        return (svc, r);
                    }
                    Ctl::Crash => {
                        // Abrupt death: no flush, forward the marker so
                        // the whole pipeline dies, hand the wreckage
                        // back to whoever joins us.
                        let _ = out.ctl(Ctl::Crash);
                        return (svc, Ok(()));
                    }
                }
            }
        })
        .expect("spawn service stage thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Arc<Counter> {
        Arc::new(Counter::new())
    }

    /// Doubles numbers; merges queued inputs by addition when asked.
    struct Doubler {
        merge: bool,
        merged: usize,
        flushed: bool,
    }

    impl Service for Doubler {
        type In = u64;
        type Out = u64;
        type Error = PipeClosed;

        fn name(&self) -> &'static str {
            "doubler"
        }

        fn handle(&mut self, msg: u64, out: &Pipe<u64>) -> Result<(), PipeClosed> {
            out.send(msg * 2)
        }

        fn coalesce(&mut self, pending: &mut u64, next: u64) -> Result<(), u64> {
            if self.merge {
                *pending += next;
                self.merged += 1;
                Ok(())
            } else {
                Err(next)
            }
        }

        fn flush(&mut self, _out: &Pipe<u64>) -> Result<(), PipeClosed> {
            self.flushed = true;
            Ok(())
        }
    }

    #[test]
    fn stage_processes_and_stops_on_marker() {
        let reg = MetricsRegistry::new();
        let (tx, rx) = pipe(&reg, "a");
        let (out_tx, out_rx) = pipe::<u64>(&reg, "b");
        let h = spawn(Doubler { merge: false, merged: 0, flushed: false }, rx, out_tx, counter());
        tx.send(3).unwrap();
        tx.send(4).unwrap();
        tx.ctl(Ctl::Drain).unwrap();
        tx.ctl(Ctl::Stop).unwrap();
        let mut got = Vec::new();
        let mut drained = false;
        loop {
            match out_rx.recv().expect("stage forwards markers") {
                Ctl::Msg(v) => got.push(v),
                Ctl::Drain => drained = true,
                Ctl::Stop | Ctl::Crash => break,
            }
        }
        assert_eq!(got, vec![6, 8]);
        assert!(drained, "drain marker must propagate");
        let (svc, res) = h.join().unwrap();
        assert!(res.is_ok());
        assert!(svc.flushed, "stop must flush");
        assert_eq!(reg.gauge("service.queue.a").get(), 0, "queue drained");
    }

    #[test]
    fn backlog_coalesces_when_the_service_accepts() {
        let reg = MetricsRegistry::new();
        let (tx, rx) = pipe(&reg, "in");
        let (out_tx, out_rx) = pipe::<u64>(&reg, "out");
        // Queue everything *before* the stage starts, so the whole
        // backlog is visible to the first coalescing scan.
        for v in [1u64, 2, 3, 4] {
            tx.send(v).unwrap();
        }
        tx.ctl(Ctl::Stop).unwrap();
        let h = spawn(Doubler { merge: true, merged: 0, flushed: false }, rx, out_tx, counter());
        let mut got = Vec::new();
        while let Some(c) = out_rx.recv() {
            match c {
                Ctl::Msg(v) => got.push(v),
                Ctl::Stop | Ctl::Crash => break,
                Ctl::Drain => {}
            }
        }
        assert_eq!(got, vec![20], "1+2+3+4 merged, then doubled");
        let (svc, res) = h.join().unwrap();
        assert!(res.is_ok());
        assert_eq!(svc.merged, 3);
    }

    #[test]
    fn upstream_hangup_acts_as_stop() {
        let reg = MetricsRegistry::new();
        let (tx, rx) = pipe::<u64>(&reg, "x");
        let (out_tx, out_rx) = pipe::<u64>(&reg, "y");
        let h = spawn(Doubler { merge: false, merged: 0, flushed: false }, rx, out_tx, counter());
        tx.send(5).unwrap();
        drop(tx);
        let mut got = Vec::new();
        while let Some(c) = out_rx.recv() {
            match c {
                Ctl::Msg(v) => got.push(v),
                Ctl::Stop | Ctl::Crash => break,
                Ctl::Drain => {}
            }
        }
        assert_eq!(got, vec![10]);
        let (svc, res) = h.join().unwrap();
        assert!(res.is_ok());
        assert!(svc.flushed);
    }

    /// Panics on any input equal to `poison`; forwards the rest.
    struct Fussy {
        poison: u64,
        handled: u64,
    }

    impl Service for Fussy {
        type In = u64;
        type Out = u64;
        type Error = PipeClosed;

        fn name(&self) -> &'static str {
            "fussy"
        }

        fn handle(&mut self, msg: u64, out: &Pipe<u64>) -> Result<(), PipeClosed> {
            if msg == self.poison {
                panic!("injected stage panic");
            }
            self.handled += 1;
            out.send(msg)
        }
    }

    #[test]
    fn supervisor_restarts_a_panicked_stage_and_counts_it() {
        let reg = MetricsRegistry::new();
        let (tx, rx) = pipe(&reg, "p");
        let (out_tx, out_rx) = pipe::<u64>(&reg, "q");
        let restarts = reg.counter("service.stage.restarts");
        let h = spawn(Fussy { poison: 13, handled: 0 }, rx, out_tx, restarts.clone());
        tx.send(1).unwrap();
        tx.send(13).unwrap(); // poison: dropped, stage restarts
        tx.send(2).unwrap();
        tx.ctl(Ctl::Stop).unwrap();
        let mut got = Vec::new();
        while let Some(c) = out_rx.recv() {
            match c {
                Ctl::Msg(v) => got.push(v),
                Ctl::Stop | Ctl::Crash => break,
                Ctl::Drain => {}
            }
        }
        assert_eq!(got, vec![1, 2], "poison message dropped, pipe survives");
        let (svc, res) = h.join().unwrap();
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(svc.handled, 2);
        assert_eq!(restarts.get(), 1);
        assert_eq!(reg.gauge("service.queue.p").get(), 0, "queue fully drained despite the panic");
    }

    #[test]
    fn repeated_panics_exhaust_the_restart_budget() {
        let reg = MetricsRegistry::new();
        let (tx, rx) = pipe(&reg, "p2");
        let (out_tx, out_rx) = pipe::<u64>(&reg, "q2");
        let restarts = reg.counter("service.stage.restarts");
        let h = spawn(Fussy { poison: 13, handled: 0 }, rx, out_tx, restarts.clone());
        for _ in 0..MAX_PANICS + 2 {
            tx.send(13).unwrap();
        }
        // The dead stage forwards Stop so downstream never hangs.
        let mut saw_stop = false;
        while let Some(c) = out_rx.recv() {
            if matches!(c, Ctl::Stop | Ctl::Crash) {
                saw_stop = true;
                break;
            }
        }
        assert!(saw_stop, "a dead stage must still propagate shutdown");
        let (_, res) = h.join().unwrap();
        assert!(matches!(res, Err(StageFailure::Panicked { panics: MAX_PANICS })), "{res:?}");
        assert_eq!(restarts.get(), MAX_PANICS as u64, "each panic counted before giving up");
    }

    #[test]
    fn crash_marker_skips_flush_and_propagates() {
        let reg = MetricsRegistry::new();
        let (tx, rx) = pipe::<u64>(&reg, "c1");
        let (out_tx, out_rx) = pipe::<u64>(&reg, "c2");
        let h = spawn(Doubler { merge: false, merged: 0, flushed: false }, rx, out_tx, counter());
        tx.send(21).unwrap();
        tx.ctl(Ctl::Crash).unwrap();
        let mut got = Vec::new();
        let mut crashed = false;
        while let Some(c) = out_rx.recv() {
            match c {
                Ctl::Msg(v) => got.push(v),
                Ctl::Crash => {
                    crashed = true;
                    break;
                }
                Ctl::Stop | Ctl::Drain => break,
            }
        }
        assert!(crashed, "crash marker must propagate downstream");
        assert_eq!(got, vec![42], "work before the crash still flowed");
        let (svc, res) = h.join().unwrap();
        assert!(res.is_ok());
        assert!(!svc.flushed, "a crash must not flush buffered work");
    }
}
