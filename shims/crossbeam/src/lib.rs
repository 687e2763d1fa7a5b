//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no crates-registry access, so this
//! in-tree shim provides the multi-producer/multi-consumer channels
//! the switchless scheduler's wake tokens and reply slots rely on,
//! implemented over `std::sync::mpsc`. Cloneable receivers are
//! emulated with a shared mutex around the underlying single-consumer
//! receiver — adequate for the handful of executors this workspace
//! spawns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer multi-consumer channels (`crossbeam::channel` subset).
pub mod channel {
    use std::fmt;
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    /// The sending half of a channel. Cloneable.
    pub struct Sender<T>(SenderInner<T>);

    enum SenderInner<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    /// The receiving half of a channel. Cloneable: clones share the
    /// same queue, and each message is delivered to exactly one
    /// receiver.
    pub struct Receiver<T>(Arc<Mutex<mpsc::Receiver<T>>>);

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is available right now.
        Empty,
        /// All senders have been dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Sender::try_send`]; carries the unsent
    /// message.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and its buffer is full.
        Full(T),
        /// All receivers have been dropped.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// All senders have been dropped and the queue is drained.
        Disconnected,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                SenderInner::Unbounded(tx) => SenderInner::Unbounded(tx.clone()),
                SenderInner::Bounded(tx) => SenderInner::Bounded(tx.clone()),
            })
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking if the channel is bounded and full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.0 {
                SenderInner::Unbounded(tx) => tx.send(value).map_err(|e| SendError(e.0)),
                SenderInner::Bounded(tx) => tx.send(value).map_err(|e| SendError(e.0)),
            }
        }

        /// Sends `value` without blocking: fails with
        /// [`TrySendError::Full`] if a bounded channel has no free
        /// slot (the switchless engine's classic-fallback trigger).
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            match &self.0 {
                SenderInner::Unbounded(tx) => {
                    tx.send(value).map_err(|e| TrySendError::Disconnected(e.0))
                }
                SenderInner::Bounded(tx) => tx.try_send(value).map_err(|e| match e {
                    mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                    mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
                }),
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next message, blocking until one arrives or
        /// every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let rx = self.0.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv().map_err(|_| RecvError)
        }

        /// Receives a message if one is immediately available.
        ///
        /// Never blocks: if another clone currently holds the shared
        /// receiver (e.g. a sibling parked inside
        /// [`recv_timeout`](Self::recv_timeout)), this reports
        /// [`TryRecvError::Empty`] rather than waiting out that
        /// sibling's timeout — any message that arrives meanwhile
        /// wakes the holder instead.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let convert = |e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            };
            match self.0.try_lock() {
                Ok(rx) => rx.try_recv().map_err(convert),
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    e.into_inner().try_recv().map_err(convert)
                }
                Err(std::sync::TryLockError::WouldBlock) => Err(TryRecvError::Empty),
            }
        }

        /// Receives the next message, giving up after `timeout` (how
        /// idle switchless workers park between jobs).
        ///
        /// Note: clones share one underlying receiver behind a mutex,
        /// so when several clones park concurrently the lock queue can
        /// stretch one clone's effective timeout to about twice the
        /// requested duration; a send still wakes the current holder
        /// immediately.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let rx = self.0.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TryRecvError::Empty => "receiving on an empty channel",
                TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
            })
        }
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(SenderInner::Unbounded(tx)), Receiver(Arc::new(Mutex::new(rx))))
    }

    /// Creates a channel holding at most `cap` in-flight messages
    /// (`cap == 0` gives a rendezvous channel).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(SenderInner::Bounded(tx)), Receiver(Arc::new(Mutex::new(rx))))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn unbounded_fan_in_fan_out() {
        let (tx, rx) = channel::unbounded::<u32>();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        let mut got = vec![rx.recv().unwrap(), rx2.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn bounded_reply_slot() {
        let (tx, rx) = channel::bounded::<&'static str>(1);
        tx.send("reply").unwrap();
        assert_eq!(rx.recv(), Ok("reply"));
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = channel::bounded::<u8>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(channel::TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(channel::TrySendError::Disconnected(3)));
    }

    #[test]
    fn try_recv_tells_empty_from_disconnected() {
        let (tx, rx) = channel::bounded::<u8>(1);
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        tx.send(7).unwrap();
        drop(tx);
        // A message sent before the last sender dropped is still
        // delivered; only then does the channel report disconnection.
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::bounded::<u8>(4);
        let timeout = std::time::Duration::from_millis(5);
        assert_eq!(rx.recv_timeout(timeout), Err(channel::RecvTimeoutError::Timeout));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(timeout), Ok(9));
        drop(tx);
        assert_eq!(rx.recv_timeout(timeout), Err(channel::RecvTimeoutError::Disconnected));
    }

    #[test]
    fn try_recv_does_not_wait_out_a_parked_sibling() {
        // One clone parks in recv_timeout (holding the shared receiver
        // for the whole wait); try_recv on another clone must return
        // immediately instead of queueing behind that lock — the
        // scheduler's spinning waiters rely on this.
        let (_tx, rx) = channel::bounded::<u8>(4);
        let parked = rx.clone();
        let handle =
            std::thread::spawn(move || parked.recv_timeout(std::time::Duration::from_millis(200)));
        // Give the sibling time to enter recv_timeout.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let start = std::time::Instant::now();
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "try_recv blocked for {:?} behind a parked sibling",
            start.elapsed()
        );
        assert_eq!(handle.join().unwrap(), Err(channel::RecvTimeoutError::Timeout));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel::unbounded::<u64>();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        handle.join().unwrap();
        assert_eq!(sum, 4950);
    }
}
