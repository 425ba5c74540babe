//! An in-tree unbounded channel (`Mutex` + `Condvar`), replacing
//! `crossbeam::channel` — part of the workspace's hermeticity policy.
//!
//! Only what the simulator needs is implemented:
//!
//! * [`unbounded`] construction, one mailbox per rank;
//! * [`Sender`] is `Clone + Send + Sync` — every rank holds a shared
//!   reference to every other rank's sender and may send concurrently;
//! * [`Receiver::recv_timeout`] with crossbeam-compatible
//!   [`RecvTimeoutError`] semantics: `Timeout` on deadline expiry (the
//!   deadlock trap depends on it), `Disconnected` once every sender is
//!   dropped **and** the queue is drained — messages sent before a
//!   sender vanished must still be deliverable.
//!
//! The queue is FIFO, which together with per-thread program order
//! gives the per-`(src, tag)` FIFO guarantee [`crate::Rank::recv`]
//! documents.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error from [`Sender::send`]: the receiver is gone. Carries the
/// unsent message back to the caller, like crossbeam/std.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error from [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Deadline expired with no message available.
    Timeout,
    /// All senders dropped and the queue is empty: nothing can ever
    /// arrive again.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// The receiver is parked on the condvar. Senders only wake it when
    /// set: event-backend receivers never park, so their senders skip
    /// the futex call entirely.
    waiting: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    nonempty: Condvar,
}

/// The sending half. Cloning increments the sender count; the receiver
/// reports `Disconnected` only after every clone is dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half (single consumer in this workspace).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            waiting: false,
        }),
        nonempty: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue `msg`. Fails only if the receiver was dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        if !st.receiver_alive {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        let wake = st.waiting;
        drop(st);
        if wake {
            self.shared.nonempty.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel poisoned").senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // Wake a blocked receiver so it can observe disconnection.
            self.shared.nonempty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("channel poisoned")
            .receiver_alive = false;
    }
}

/// Error from [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is currently queued.
    Empty,
    /// All senders dropped and the queue is empty.
    Disconnected,
}

impl<T> Receiver<T> {
    /// Dequeue the next message if one is already queued, without
    /// blocking. The reliable transport uses this to drain acknowledged
    /// traffic opportunistically between sends.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        if let Some(msg) = st.queue.pop_front() {
            return Ok(msg);
        }
        if st.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Dequeue the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect("channel poisoned");
        loop {
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            st.waiting = true;
            let (guard, _wait) = self
                .shared
                .nonempty
                .wait_timeout(st, remaining)
                .expect("channel poisoned");
            st = guard;
            st.waiting = false;
            // Loop re-checks queue/senders/deadline; spurious wakeups
            // and timeout races both resolve correctly there.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_then_recv() {
        let (tx, rx) = unbounded();
        tx.send(5u32).unwrap();
        tx.send(6).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(5));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(6));
    }

    #[test]
    fn timeout_when_empty() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn disconnected_after_all_senders_drop_and_queue_drained() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1u8).unwrap();
        drop(tx);
        // A clone still alive: not disconnected even when drained later.
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9u8), Err(SendError(9)));
    }

    #[test]
    fn try_recv_never_blocks() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3u8).unwrap();
        assert_eq!(rx.try_recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn blocked_receiver_wakes_on_send() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        tx.send(42u64).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn blocked_receiver_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn concurrent_senders_preserve_all_messages() {
        let (tx, rx) = unbounded();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.send(t * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv_timeout(Duration::from_millis(100)) {
            got.push(v);
        }
        assert_eq!(got.len(), 800);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 800, "no message lost or duplicated");
    }
}
