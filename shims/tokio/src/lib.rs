//! Hermetic shim for `tokio`: a small, self-contained multi-thread
//! executor exposing exactly the API surface this workspace uses —
//! [`runtime::Builder`]/[`runtime::Runtime`] with `spawn` + `block_on`,
//! [`task::JoinHandle`], and [`sync::oneshot`] channels.
//!
//! The design is the textbook work-queue executor:
//!
//! * Each spawned future becomes a reference-counted task whose waker
//!   re-enqueues it onto a shared injector queue (state machine
//!   Idle → Queued → Running → {Idle, Notified, Done} so concurrent
//!   wakes never double-poll and never lose a notification).
//! * A fixed pool of worker threads pops tasks and polls them; workers
//!   park on a condvar when the queue is empty.
//! * `block_on` polls on the calling thread with a park/unpark waker —
//!   it does not require (or occupy) a worker.
//!
//! There is no I/O driver and no timer wheel: this workspace's serving
//! front-end is CPU-bound (in-memory index lookups) and does its own
//! time-based flushing with a plain thread. `Builder::enable_all` is
//! accepted and ignored so call sites stay source-compatible with the
//! upstream crate.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

/// Task states for the wake/poll handshake.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Run queue plus the shutdown flag, under one mutex: a worker's "empty
/// and not shut down → wait" is then atomic with respect to
/// `Runtime::drop` setting the flag, so the wake-up cannot be lost.
#[derive(Default)]
struct Queue {
    tasks: std::collections::VecDeque<Arc<Task>>,
    shutdown: bool,
}

#[derive(Default)]
struct Injector {
    queue: Mutex<Queue>,
    available: Condvar,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Injector {
    fn push(&self, task: Arc<Task>) {
        lock(&self.queue).tasks.push_back(task);
        self.available.notify_one();
    }

    fn pop(&self) -> Option<Arc<Task>> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(t) = q.tasks.pop_front() {
                return Some(t);
            }
            if q.shutdown {
                return None;
            }
            q = self
                .available
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One spawned future plus its scheduling state.
struct Task {
    state: AtomicU8,
    future: Mutex<Option<BoxFuture>>,
    injector: std::sync::Weak<Injector>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(inj) = self.injector.upgrade() {
                            inj.push(Arc::clone(self));
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued/notified (a poll is coming) or done.
                _ => return,
            }
        }
    }
}

impl Task {
    /// Poll the task once; reschedule per the state machine.
    fn run(self: Arc<Self>) {
        self.state.store(RUNNING, Ordering::Release);
        let mut slot = lock(&self.future);
        let Some(mut fut) = slot.take() else {
            self.state.store(DONE, Ordering::Release);
            return;
        };
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.state.store(DONE, Ordering::Release);
            }
            Poll::Pending => {
                *slot = Some(fut);
                drop(slot);
                // A wake that arrived while we were RUNNING moved us to
                // NOTIFIED; convert it into a re-enqueue. Otherwise go
                // idle and let the next wake enqueue us.
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    self.state.store(QUEUED, Ordering::Release);
                    if let Some(inj) = self.injector.upgrade() {
                        inj.push(self);
                    }
                }
            }
        }
    }
}

/// Task handles and spawning.
pub mod task {
    use super::*;

    pub(crate) struct JoinState<T> {
        pub(crate) value: Option<T>,
        pub(crate) waker: Option<Waker>,
    }

    /// An owned handle awaiting the output of a spawned task (a subset
    /// of tokio's: no abort, join never errors).
    pub struct JoinHandle<T> {
        pub(crate) state: Arc<Mutex<JoinState<T>>>,
    }

    /// The error type of awaiting a [`JoinHandle`]. The shim's handles
    /// cannot be aborted and panics propagate on the worker, so this is
    /// uninhabited in practice; it exists for source compatibility.
    #[derive(Debug)]
    pub struct JoinError(());

    impl std::fmt::Display for JoinError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "task failed")
        }
    }

    impl std::error::Error for JoinError {}

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut s = lock(&self.state);
            if let Some(v) = s.value.take() {
                return Poll::Ready(Ok(v));
            }
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    /// Yield back to the executor once: the task re-enqueues behind
    /// every currently runnable task and resumes on a later pass. The
    /// batching front-end uses this for group-commit leadership —
    /// yield, let concurrent submitters pile onto the queue, then flush.
    pub fn yield_now() -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Future returned by [`yield_now`].
    pub struct YieldNow {
        yielded: bool,
    }

    impl Future for YieldNow {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.yielded {
                return Poll::Ready(());
            }
            self.yielded = true;
            // Wake before returning Pending: the executor sees the
            // NOTIFIED state and re-enqueues at the back of the run
            // queue (or unparks `block_on`).
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// The multi-thread runtime.
pub mod runtime {
    use super::*;

    /// Builds a [`Runtime`] (subset of tokio's builder).
    pub struct Builder {
        workers: usize,
    }

    impl Builder {
        /// A builder for a multi-thread runtime.
        pub fn new_multi_thread() -> Self {
            Self {
                workers: std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(2),
            }
        }

        /// Set the worker thread count.
        pub fn worker_threads(&mut self, n: usize) -> &mut Self {
            self.workers = n.max(1);
            self
        }

        /// Accepted for source compatibility; the shim has no I/O or
        /// timer drivers to enable.
        pub fn enable_all(&mut self) -> &mut Self {
            self
        }

        /// Build the runtime, spawning its worker threads.
        pub fn build(&mut self) -> std::io::Result<Runtime> {
            let injector = Arc::new(Injector::default());
            let workers = (0..self.workers)
                .map(|i| {
                    let inj = Arc::clone(&injector);
                    std::thread::Builder::new()
                        .name(format!("tokio-shim-{i}"))
                        .spawn(move || {
                            while let Some(task) = inj.pop() {
                                task.run();
                            }
                        })
                })
                .collect::<std::io::Result<Vec<_>>>()?;
            Ok(Runtime { injector, workers })
        }
    }

    /// A pool of worker threads polling spawned futures.
    pub struct Runtime {
        injector: Arc<Injector>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    impl Runtime {
        /// A runtime with the default worker count.
        pub fn new() -> std::io::Result<Runtime> {
            Builder::new_multi_thread().build()
        }

        /// Spawn a future onto the pool, returning a handle to await
        /// its output.
        pub fn spawn<F>(&self, future: F) -> task::JoinHandle<F::Output>
        where
            F: Future + Send + 'static,
            F::Output: Send + 'static,
        {
            let state = Arc::new(Mutex::new(task::JoinState {
                value: None,
                waker: None,
            }));
            let out = Arc::clone(&state);
            let wrapped = async move {
                let v = future.await;
                let waker = {
                    let mut s = lock(&out);
                    s.value = Some(v);
                    s.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
            };
            let task = Arc::new(Task {
                state: AtomicU8::new(QUEUED),
                future: Mutex::new(Some(Box::pin(wrapped))),
                injector: Arc::downgrade(&self.injector),
            });
            self.injector.push(task);
            task::JoinHandle { state }
        }

        /// Drive a future to completion on the calling thread.
        pub fn block_on<F: Future>(&self, future: F) -> F::Output {
            struct ThreadWaker(std::thread::Thread);
            impl Wake for ThreadWaker {
                fn wake(self: Arc<Self>) {
                    self.0.unpark();
                }
                fn wake_by_ref(self: &Arc<Self>) {
                    self.0.unpark();
                }
            }
            let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
            let mut cx = Context::from_waker(&waker);
            let mut future = std::pin::pin!(future);
            loop {
                match future.as_mut().poll(&mut cx) {
                    Poll::Ready(v) => return v,
                    Poll::Pending => std::thread::park(),
                }
            }
        }
    }

    impl Drop for Runtime {
        fn drop(&mut self) {
            lock(&self.injector.queue).shutdown = true;
            self.injector.available.notify_all();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

/// Synchronization primitives.
pub mod sync {
    /// A one-shot value channel whose receiver is a future.
    pub mod oneshot {
        use super::super::*;

        struct Chan<T> {
            value: Option<T>,
            waker: Option<Waker>,
            closed: bool,
        }

        /// The sending half; consumed by [`Sender::send`].
        pub struct Sender<T> {
            chan: Arc<Mutex<Chan<T>>>,
        }

        /// The receiving half; await it for the value.
        pub struct Receiver<T> {
            chan: Arc<Mutex<Chan<T>>>,
        }

        /// Error returned when the sender dropped without sending.
        #[derive(Debug, PartialEq, Eq)]
        pub struct RecvError(());

        impl std::fmt::Display for RecvError {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "oneshot sender dropped")
            }
        }

        impl std::error::Error for RecvError {}

        /// Create a connected sender/receiver pair.
        pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
            let chan = Arc::new(Mutex::new(Chan {
                value: None,
                waker: None,
                closed: false,
            }));
            (
                Sender {
                    chan: Arc::clone(&chan),
                },
                Receiver { chan },
            )
        }

        impl<T> Sender<T> {
            /// Send the value, waking the receiver. Returns the value
            /// back if the receiver was dropped.
            pub fn send(self, value: T) -> Result<(), T> {
                let waker = {
                    let mut c = lock(&self.chan);
                    if c.closed {
                        return Err(value);
                    }
                    c.value = Some(value);
                    c.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
                Ok(())
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                let waker = {
                    let mut c = lock(&self.chan);
                    c.closed = true;
                    c.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
            }
        }

        impl<T> Drop for Receiver<T> {
            fn drop(&mut self) {
                lock(&self.chan).closed = true;
            }
        }

        impl<T> Future for Receiver<T> {
            type Output = Result<T, RecvError>;

            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let mut c = lock(&self.chan);
                if let Some(v) = c.value.take() {
                    return Poll::Ready(Ok(v));
                }
                if c.closed {
                    return Poll::Ready(Err(RecvError(())));
                }
                c.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::runtime::Builder;
    use super::sync::oneshot;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn block_on_returns_ready_value() {
        let rt = Builder::new_multi_thread()
            .worker_threads(2)
            .build()
            .unwrap();
        assert_eq!(rt.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawn_and_join_many() {
        let rt = Builder::new_multi_thread()
            .worker_threads(4)
            .build()
            .unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..100)
            .map(|i| {
                let c = Arc::clone(&counter);
                rt.spawn(async move {
                    c.fetch_add(1, Ordering::Relaxed);
                    i * 2
                })
            })
            .collect();
        let total: usize = rt.block_on(async {
            let mut sum = 0;
            for h in handles {
                sum += h.await.unwrap();
            }
            sum
        });
        assert_eq!(total, (0..100).map(|i| i * 2).sum());
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn oneshot_crosses_tasks() {
        let rt = Builder::new_multi_thread()
            .worker_threads(2)
            .build()
            .unwrap();
        let (tx, rx) = oneshot::channel::<u64>();
        let h = rt.spawn(async move { rx.await.unwrap() });
        // Send from a third task so the receiver genuinely suspends.
        rt.spawn(async move {
            tx.send(7).unwrap();
        });
        assert_eq!(rt.block_on(async { h.await.unwrap() }), 7);
    }

    #[test]
    fn oneshot_dropped_sender_errors() {
        let rt = Builder::new_multi_thread()
            .worker_threads(1)
            .build()
            .unwrap();
        let (tx, rx) = oneshot::channel::<u64>();
        drop(tx);
        assert!(rt.block_on(rx).is_err());
    }

    #[test]
    fn tasks_wake_each_other_in_a_chain() {
        // A chain of oneshots: task i forwards to task i+1. Exercises
        // suspended-task wakeups through the injector repeatedly.
        let rt = Builder::new_multi_thread()
            .worker_threads(3)
            .build()
            .unwrap();
        let (first_tx, mut rx) = oneshot::channel::<u64>();
        let mut last = None;
        for _ in 0..50 {
            let (tx, next_rx) = oneshot::channel::<u64>();
            let prev_rx = rx;
            rt.spawn(async move {
                let v = prev_rx.await.unwrap();
                let _ = tx.send(v + 1);
            });
            rx = next_rx;
            last = Some(());
        }
        assert!(last.is_some());
        first_tx.send(0).unwrap();
        assert_eq!(rt.block_on(async { rx.await.unwrap() }), 50);
    }

    #[test]
    fn runtime_drop_joins_workers() {
        let rt = Builder::new_multi_thread()
            .worker_threads(2)
            .build()
            .unwrap();
        let h = rt.spawn(async { 5u32 });
        assert_eq!(rt.block_on(async { h.await.unwrap() }), 5);
        drop(rt); // must not hang
    }

    #[test]
    fn yield_now_interleaves_tasks_on_one_worker() {
        // One worker, two long-running tasks that yield every step: once
        // both are enqueued, yielding forces strict alternation, so the
        // combined log must interleave rather than run one task to
        // completion first.
        let rt = Builder::new_multi_thread()
            .worker_threads(1)
            .build()
            .unwrap();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let handles: Vec<_> = [b'a', b'b']
            .into_iter()
            .map(|id| {
                let log = Arc::clone(&log);
                rt.spawn(async move {
                    for _ in 0..1000 {
                        log.lock().unwrap().push(id);
                        super::task::yield_now().await;
                    }
                })
            })
            .collect();
        rt.block_on(async {
            for h in handles {
                h.await.unwrap();
            }
        });
        let got = log.lock().unwrap().clone();
        assert_eq!(got.len(), 2000);
        let switches = got.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches > 100,
            "tasks barely interleaved: {switches} switches"
        );
    }

    #[test]
    fn yield_now_completes_under_block_on() {
        let rt = Builder::new_multi_thread()
            .worker_threads(1)
            .build()
            .unwrap();
        rt.block_on(async {
            for _ in 0..100 {
                super::task::yield_now().await;
            }
        });
    }

    #[test]
    fn dropping_a_runtime_with_idle_workers_never_hangs() {
        // Regression: `Runtime::drop` used to set the shutdown flag under
        // its own mutex, so it could fire `notify_all` between a worker's
        // flag check and its condvar wait and the join below never
        // returned (~1 serving run in 70; this loop reproduced it two runs
        // in three before the fix). The watchdog turns a hang into
        // a failure instead of a stuck test binary.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                let rt = Builder::new_multi_thread()
                    .worker_threads(4)
                    .build()
                    .unwrap();
                // A finished task sends each worker back through `pop`'s
                // check-then-wait while the drop below races it.
                let handles: Vec<_> = (0..4).map(|_| rt.spawn(async {})).collect();
                rt.block_on(async {
                    for h in handles {
                        h.await.unwrap();
                    }
                });
                drop(rt);
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(180))
            .expect("Runtime::drop hung: a worker missed the shutdown wake-up");
    }
}
