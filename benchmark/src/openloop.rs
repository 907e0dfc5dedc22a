//! The open-loop load generator: requests are *due* on a fixed schedule
//! whatever the server does, a sender thread writes each one as soon as it
//! is due and the link lets it, and a receiver thread times every reply
//! from the request's due time — not from when it was actually written, so
//! the wait a stall imposes on the requests queued behind it is counted.

use std::time::{Duration, Instant};

/// The sending half of a connection.
pub trait Link {
    /// Writes request `idx` toward the server (it may buffer). `false`
    /// on a transport error, which ends the run.
    fn send(&mut self, idx: usize) -> bool;
    /// Pushes buffered requests onto the wire.
    fn flush(&mut self) -> bool;
}

/// One reply, as the receiving half reports it.
pub struct Completion {
    pub idx: usize,
    /// The reply was a success and matched the model.
    pub ok: bool,
}

/// Due time of request `idx` at `rate` requests per second, in
/// nanoseconds from the start of the run.
pub fn due_ns(idx: usize, rate: f64) -> u64 {
    (idx as f64 * 1e9 / rate) as u64
}

pub struct OpenLoopRun {
    /// Reply time minus due time, per request in schedule order;
    /// `u64::MAX` for a request that was never answered.
    pub latency_ns: Vec<u64>,
    /// Write time minus due time per request: how late the generator ran.
    pub late_ns: Vec<u64>,
    /// Wrong, refused or missing replies.
    pub failed: u64,
}

/// Below this distance from the next due time the sender spins (yielding
/// the core each turn) instead of sleeping: a sleep overshoots by tens of
/// microseconds, which at these rates is several requests.
const SPIN_BELOW: Duration = Duration::from_micros(150);

/// Runs `n` requests at `rate` per second. `recv` blocks for the next
/// reply and returns `None` when the connection is closed or timed out;
/// it runs on its own thread for the length of the call.
pub fn run(
    n: usize,
    rate: f64,
    link: &mut dyn Link,
    mut recv: impl FnMut() -> Option<Completion> + Send,
) -> OpenLoopRun {
    let start = Instant::now();
    let elapsed_ns = move || start.elapsed().as_nanos() as u64;
    let mut late_ns = vec![0u64; n];
    let (latency_ns, failed_replies) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut latency = vec![u64::MAX; n];
            let mut failed = 0u64;
            let mut received = 0;
            while received < n {
                let Some(done) = recv() else { break };
                let now = elapsed_ns();
                if done.idx < n && latency[done.idx] == u64::MAX {
                    latency[done.idx] = now.saturating_sub(due_ns(done.idx, rate));
                    received += 1;
                    failed += u64::from(!done.ok);
                } else {
                    failed += 1;
                }
            }
            (latency, failed)
        });

        let mut next = 0;
        'send: while next < n {
            let now = elapsed_ns();
            let mut wrote = false;
            while next < n && due_ns(next, rate) <= now {
                late_ns[next] = elapsed_ns().saturating_sub(due_ns(next, rate));
                if !link.send(next) {
                    break 'send;
                }
                next += 1;
                wrote = true;
            }
            if wrote && !link.flush() {
                break;
            }
            if next < n {
                let wait = Duration::from_nanos(due_ns(next, rate).saturating_sub(elapsed_ns()));
                if wait > SPIN_BELOW {
                    std::thread::sleep(wait - SPIN_BELOW);
                } else {
                    std::thread::yield_now();
                }
            }
        }
        receiver.join().expect("receiver thread panicked")
    });
    let unanswered = latency_ns.iter().filter(|&&l| l == u64::MAX).count() as u64;
    OpenLoopRun {
        latency_ns,
        late_ns,
        failed: failed_replies + unanswered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};

    /// A server that answers at once, behind a link that blocks for
    /// `stall` while writing request `stall_at` (a full socket buffer).
    struct StallingLink {
        to_server: Sender<usize>,
        stall_at: usize,
        stall: Duration,
        sent_at: Vec<Option<Instant>>,
    }

    impl Link for StallingLink {
        fn send(&mut self, idx: usize) -> bool {
            if idx == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.sent_at[idx] = Some(Instant::now());
            self.to_server.send(idx).is_ok()
        }
        fn flush(&mut self) -> bool {
            true
        }
    }

    #[test]
    fn schedule_is_fixed_by_the_rate_alone() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(250, 50_000.0), 5_000_000);
    }

    #[test]
    fn a_stall_inflates_latency_from_due_time_not_send_time() {
        let n = 100;
        let rate = 1000.0; // one request per millisecond
        let (tx, rx) = channel::<usize>();
        let mut link = StallingLink {
            to_server: tx,
            stall_at: 10,
            stall: Duration::from_millis(60),
            sent_at: vec![None; n],
        };
        let replied = std::sync::Arc::new(std::sync::Mutex::new(vec![None; n]));
        let seen = replied.clone();
        let run = run(n, rate, &mut link, move || {
            let idx = rx.recv_timeout(Duration::from_secs(5)).ok()?;
            seen.lock().unwrap()[idx] = Some(Instant::now());
            Some(Completion { idx, ok: true })
        });
        assert_eq!(run.failed, 0);
        let ms = |ns: u64| ns as f64 / 1e6;

        // The stalled request and the ones queued behind it waited, though
        // each was answered the instant it was finally written.
        assert!(ms(run.latency_ns[10]) >= 55.0, "{}", ms(run.latency_ns[10]));
        assert!(ms(run.latency_ns[40]) >= 25.0, "{}", ms(run.latency_ns[40]));
        let replied = replied.lock().unwrap();
        for idx in [10, 40] {
            let from_send = replied[idx].unwrap() - link.sent_at[idx].unwrap();
            assert!(
                from_send < Duration::from_millis(5),
                "send-time latency hides the stall"
            );
        }
        // The generator's lateness says where the wait came from ...
        assert!(ms(run.late_ns[40]) >= 25.0, "{}", ms(run.late_ns[40]));
        assert!(ms(run.late_ns[5]) < 5.0, "{}", ms(run.late_ns[5]));
        // ... and once the backlog is written the schedule is met again.
        assert!(ms(run.latency_ns[95]) < 10.0, "{}", ms(run.latency_ns[95]));
    }

    #[test]
    fn a_dead_link_counts_every_unanswered_request_as_failed() {
        struct Dead;
        impl Link for Dead {
            fn send(&mut self, idx: usize) -> bool {
                idx < 3
            }
            fn flush(&mut self) -> bool {
                true
            }
        }
        let mut answered = 0;
        let run = run(10, 1e6, &mut Dead, || {
            answered += 1;
            (answered <= 3).then(|| Completion {
                idx: answered - 1,
                ok: true,
            })
        });
        assert_eq!(run.failed, 7);
        assert_eq!(run.latency_ns.iter().filter(|&&l| l != u64::MAX).count(), 3);
    }
}
