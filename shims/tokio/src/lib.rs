//! Hermetic shim for `tokio`: a small, self-contained multi-thread
//! executor exposing exactly the API surface this workspace uses —
//! [`runtime::Builder`]/[`runtime::Runtime`] with `spawn` + `block_on`,
//! [`task::JoinHandle`], and [`sync::oneshot`] channels.
//!
//! The design is a work-queue executor with one run queue per worker:
//!
//! * Each spawned future becomes a reference-counted task whose waker
//!   makes it runnable again (state machine Idle → Queued → Running →
//!   {Idle, Notified, Done} so concurrent wakes never double-poll and
//!   never lose a notification).
//! * Every worker thread owns a run queue that no other thread touches
//!   (it is a thread-local, so it needs no lock). A wake issued on a
//!   worker of the task's own runtime goes there; every other wake — a
//!   non-worker thread, `block_on`, a worker of another runtime — goes to
//!   the runtime's shared queue, which signals its condvar only when a
//!   worker is parked on it.
//! * A worker polls its own queue first, gives the shared queue a turn
//!   every `SHARED_EVERY` (8) polls (tasks that keep each other runnable
//!   cannot starve it), and parks when both are empty. A turn first reads
//!   the shared queue's task count, which sits on a line of its own and
//!   is written only under the queue's lock, and takes the lock only when
//!   the count is nonzero: a busy worker with nothing shared to run
//!   neither locks nor misses on the lock's line. A count read as 0 just
//!   before a push is read again at the next turn, and a worker with
//!   nothing of its own to run always locks, so no task is stranded.
//!   After each poll a worker with a backlog hands half of it to the
//!   shared queue if a sibling is parked (a count of its own, off the
//!   lock's line too), so nothing waits behind one thread while another
//!   sleeps.
//! * A task woken *during its own poll* — what [`task::yield_now`] does —
//!   goes to the back of its worker's **own** queue when that queue holds
//!   other tasks, and to the back of the **shared** queue otherwise: it
//!   re-runs after everything its worker already has to run, and a task
//!   with nothing to wait for locally still lets whatever waits to be
//!   picked up go first. Either way a yielded task resumes only after
//!   every task that was runnable beside it on its worker, and while
//!   siblings are busy it stays on the worker it yielded on.
//! * A panic in a poll is caught: the task is dropped, its
//!   [`task::JoinHandle`] resolves to an error, the worker carries on.
//! * `block_on` polls on the calling thread with a park/unpark waker —
//!   it does not require (or occupy) a worker.
//!
//! There is no I/O driver and no timer wheel: this workspace's serving
//! front-end is CPU-bound (in-memory index lookups) and needs neither.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::task::{Context, Poll, Wake, Waker};

/// Task states for the wake/poll handshake.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// A worker gives the shared queue a turn at least once in this many
/// polls. Small keeps the tail short for whatever waits there (spawns,
/// wakes from other threads, yielded tasks); the cost is one load of the
/// queue's task count per turn, and one uncontended lock when it is
/// nonzero.
const SHARED_EVERY: u32 = 8;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Shared run queue plus the shutdown flag, under one mutex: a worker's
/// "empty and not shut down → wait" is then atomic with respect to
/// `Runtime::drop` setting the flag, so the wake-up cannot be lost.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Arc<Task>>,
    shutdown: bool,
}

/// A value on a 128-byte line of its own (two cache lines, so the
/// adjacent-line prefetcher cannot pair it with a neighbour either).
#[derive(Default)]
#[repr(align(128))]
struct Line<T>(T);

/// What the threads of one runtime share.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    /// What `queue` holds for a busy worker's turn: its tasks, plus one
    /// once the runtime is shutting down. Written only under `queue`'s
    /// lock and read bare, so a turn that reads 0 skips the lock; a task
    /// pushed just after is seen at the next turn. Not on the lock's
    /// line, which every push and pop writes.
    pending: Line<AtomicUsize>,
    /// Workers waiting on `available`. Written under `queue`'s lock;
    /// `push` reads it there (exact, so no wake-up is lost and none is
    /// signalled to nobody), `share_backlog` reads it bare after every
    /// poll, as a hint. Not on the lock's line either.
    parked: Line<AtomicUsize>,
}

/// The shared queue's answer to a worker that found the runtime dropped.
struct ShuttingDown;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Store what `q`, locked, holds for a busy worker's turn.
    fn publish(&self, q: &Queue) {
        let pending = q.tasks.len() + usize::from(q.shutdown);
        self.pending.0.store(pending, Ordering::Relaxed);
    }

    /// Queue `tasks` at the back and wake one parked worker, if any.
    fn push(&self, tasks: impl IntoIterator<Item = Arc<Task>>) {
        let wake = {
            let mut q = lock(&self.queue);
            q.tasks.extend(tasks);
            self.publish(&q);
            self.parked.0.load(Ordering::Relaxed) > 0
        };
        if wake {
            self.available.notify_one();
        }
    }

    /// The task at the front. With `wait`, parks until there is one.
    /// Queued tasks are not run once the runtime is shutting down.
    fn pop(&self, wait: bool) -> Result<Option<Arc<Task>>, ShuttingDown> {
        let mut q = lock(&self.queue);
        loop {
            if q.shutdown {
                return Err(ShuttingDown);
            }
            if let Some(t) = q.tasks.pop_front() {
                self.publish(&q);
                return Ok(Some(t));
            }
            if !wait {
                return Ok(None);
            }
            self.parked.0.fetch_add(1, Ordering::Relaxed);
            q = self
                .available
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
            self.parked.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// The runtime this thread is a worker of (null on any other thread) …
    static WORKER_OF: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
    /// … and that worker's own run queue.
    static LOCAL: RefCell<VecDeque<Arc<Task>>> = const { RefCell::new(VecDeque::new()) };
}

fn pop_local() -> Option<Arc<Task>> {
    LOCAL.with_borrow_mut(VecDeque::pop_front)
}

/// While a sibling is parked, hand it the newer half of this worker's
/// backlog through the shared queue. A backlog of one is not worth a
/// wake-up: this worker runs it next.
fn share_backlog(shared: &Shared) {
    if shared.parked.0.load(Ordering::Relaxed) == 0 {
        return;
    }
    LOCAL.with_borrow_mut(|q| {
        if q.len() >= 2 {
            let keep = q.len() - q.len() / 2;
            shared.push(q.drain(keep..));
        }
    });
}

/// A worker thread's whole life.
fn work(shared: &Arc<Shared>) {
    WORKER_OF.set(Arc::as_ptr(shared));
    let mut polls = 0u32;
    loop {
        polls = polls.wrapping_add(1);
        // The shared queue's turn, if it holds anything: its count is
        // read without the lock.
        let turn =
            polls.is_multiple_of(SHARED_EVERY) && shared.pending.0.load(Ordering::Relaxed) > 0;
        let own = if turn { None } else { pop_local() };
        let task = match own {
            Some(task) => task,
            // The shared queue's turn, or nothing of its own to run —
            // only then may the worker wait there.
            None => match shared.pop(LOCAL.with_borrow(VecDeque::is_empty)) {
                Ok(Some(task)) => task,
                Ok(None) => continue,
                Err(ShuttingDown) => break,
            },
        };
        task.run();
        share_backlog(shared);
    }
    // From here on this thread's wakes go to the shared queue. Take the
    // backlog out before dropping it: a future's `Drop` may wake a task.
    WORKER_OF.set(std::ptr::null());
    drop(LOCAL.take());
}

/// One spawned future plus its scheduling state.
struct Task {
    state: AtomicU8,
    future: Mutex<Option<BoxFuture>>,
    /// Weak: the shared queue owns tasks, not the other way round.
    runtime: Weak<Shared>,
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
                        Arc::clone(self).schedule();
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
    /// Make a `QUEUED` task runnable: on this thread's own queue when the
    /// thread is a worker of the task's runtime, on that runtime's shared
    /// queue otherwise.
    fn schedule(self: Arc<Self>) {
        if WORKER_OF.get() == self.runtime.as_ptr() {
            LOCAL.with_borrow_mut(|q| q.push_back(self));
        } else {
            self.schedule_shared();
        }
    }

    /// Queue a `QUEUED` task at the back of its runtime's shared queue. A
    /// task whose runtime is gone is dropped.
    fn schedule_shared(self: Arc<Self>) {
        if let Some(rt) = self.runtime.upgrade() {
            rt.push(Some(self));
        }
    }

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
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {
                *slot = Some(fut);
                drop(slot);
                // A wake that arrived while we were RUNNING moved us to
                // NOTIFIED — the task yielded, or a peer was quicker than
                // this poll. It goes behind everything runnable: to the
                // back of this worker's own queue if that holds anything,
                // else to the back of the shared queue. Otherwise go idle
                // and let the next wake schedule us. (Only a worker of the
                // task's runtime runs it, so `LOCAL` is the right queue.)
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    self.state.store(QUEUED, Ordering::Release);
                    let alone = LOCAL.with_borrow_mut(|q| {
                        if q.is_empty() {
                            return Some(self);
                        }
                        q.push_back(self);
                        None
                    });
                    if let Some(task) = alone {
                        task.schedule_shared();
                    }
                }
            }
            // Finished or panicked: either way the future is dropped
            // here, and dropping it without an output is what tells the
            // `JoinHandle` that the task failed.
            Ok(Poll::Ready(())) | Err(_) => self.state.store(DONE, Ordering::Release),
        }
    }
}

/// Task handles and spawning.
pub mod task {
    use super::*;

    /// An owned handle awaiting the output of a spawned task (a subset
    /// of tokio's: no abort).
    pub struct JoinHandle<T> {
        pub(crate) output: sync::oneshot::Receiver<T>,
    }

    /// The error of awaiting a [`JoinHandle`] whose task was dropped
    /// before it produced its output: it panicked, or its runtime was
    /// dropped first.
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

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            Pin::new(&mut self.output)
                .poll(cx)
                .map(|r| r.map_err(|_| JoinError(())))
        }
    }

    /// Yield back to the executor once: the task goes to the back of its
    /// worker's own queue if that holds other tasks, else to the back of
    /// the runtime's shared queue — behind every task its worker already
    /// has to run either way — and resumes on a later pass. The batching
    /// front-end uses this for group-commit leadership: yield, let the
    /// worker's other submitters pile onto the queue, then flush.
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
            // NOTIFIED state and re-queues the task behind the others
            // (or unparks `block_on`).
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

        /// Build the runtime, spawning its worker threads.
        pub fn build(&mut self) -> std::io::Result<Runtime> {
            let shared = Arc::new(Shared::default());
            let workers = (0..self.workers)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("tokio-shim-{i}"))
                        .spawn(move || work(&shared))
                })
                .collect::<std::io::Result<Vec<_>>>()?;
            Ok(Runtime { shared, workers })
        }
    }

    /// A pool of worker threads polling spawned futures.
    pub struct Runtime {
        pub(crate) shared: Arc<Shared>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    impl Runtime {
        /// Spawn a future onto the pool, returning a handle to await
        /// its output.
        pub fn spawn<F>(&self, future: F) -> task::JoinHandle<F::Output>
        where
            F: Future + Send + 'static,
            F::Output: Send + 'static,
        {
            let (tx, output) = sync::oneshot::channel();
            let task = Arc::new(Task {
                state: AtomicU8::new(QUEUED),
                future: Mutex::new(Some(Box::pin(async move {
                    // A dropped handle is fine: nobody wants the output.
                    let _ = tx.send(future.await);
                }))),
                runtime: Arc::downgrade(&self.shared),
            });
            task.schedule();
            task::JoinHandle { output }
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

    /// Stops the workers after the poll each is in and drops every task
    /// still queued, unpolled: those in a worker's own queue as the
    /// worker exits, those in the shared queue with the runtime.
    impl Drop for Runtime {
        fn drop(&mut self) {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
            // A busy worker looks at the queue only when it holds something.
            self.shared.publish(&q);
            drop(q);
            self.shared.available.notify_all();
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
            /// `None` once `send` has taken it: the channel is then the
            /// receiver's alone, and the drop has nothing to close.
            chan: Option<Arc<Mutex<Chan<T>>>>,
        }

        /// The receiving half; await it for the value.
        pub struct Receiver<T> {
            chan: Arc<Mutex<Chan<T>>>,
            /// A poll returned `Ready`: the sender has sent (and let go
            /// of the channel) or dropped, so nobody reads `closed` again.
            done: bool,
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
                    chan: Some(Arc::clone(&chan)),
                },
                Receiver { chan, done: false },
            )
        }

        impl<T> Sender<T> {
            /// Send the value, waking the receiver. Returns the value
            /// back if the receiver was dropped.
            pub fn send(mut self, value: T) -> Result<(), T> {
                let Some(chan) = self.chan.take() else {
                    return Err(value); // unreachable: only `send` takes it
                };
                let waker = {
                    let mut c = lock(&chan);
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
                let Some(chan) = self.chan.take() else {
                    return; // sent
                };
                let waker = {
                    let mut c = lock(&chan);
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
                if !self.done {
                    lock(&self.chan).closed = true;
                }
            }
        }

        impl<T> Future for Receiver<T> {
            type Output = Result<T, RecvError>;

            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let ready = {
                    let mut c = lock(&self.chan);
                    match c.value.take() {
                        Some(v) => Ok(v),
                        None if c.closed => Err(RecvError(())),
                        None => {
                            c.waker = Some(cx.waker().clone());
                            return Poll::Pending;
                        }
                    }
                };
                self.done = true;
                Poll::Ready(ready)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::runtime::{Builder, Runtime};
    use super::sync::oneshot;
    use super::task::yield_now;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::task::{Poll, Waker};

    fn runtime(workers: usize) -> Runtime {
        Builder::new_multi_thread()
            .worker_threads(workers)
            .build()
            .unwrap()
    }

    /// Run `test` on a thread of its own and fail if it takes more than
    /// a minute: a hang becomes a failure instead of a stuck test binary.
    fn within_a_minute(test: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            test();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("hung (or panicked: see above)");
    }

    /// Wait until `n` workers of `rt` are parked: every task spawned so
    /// far has then been polled and is suspended (or done).
    fn until_parked(rt: &Runtime, n: usize) {
        while rt.shared.parked.0.load(Ordering::Relaxed) < n {
            std::thread::yield_now();
        }
    }

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

    #[test]
    fn a_panicking_task_fails_its_handle_and_spares_the_worker() {
        let rt = runtime(1);
        let batch = |n: usize, bad: Option<usize>| -> Vec<_> {
            (0..n)
                .map(|i| {
                    rt.spawn(async move {
                        yield_now().await;
                        assert!(Some(i) != bad, "the one task that panics (expected)");
                        i
                    })
                })
                .collect()
        };
        let first = batch(100, Some(37));
        let results = rt.block_on(async {
            let mut results = Vec::new();
            for h in first {
                results.push(h.await);
            }
            results
        });
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i),
                Err(_) => assert_eq!(i, 37, "only the panicking task fails"),
            }
        }
        assert!(results[37].is_err());
        // The single worker survived: tasks spawned afterwards still run.
        let second = batch(10, None);
        rt.block_on(async {
            for (i, h) in second.into_iter().enumerate() {
                assert_eq!(h.await.unwrap(), i);
            }
        });
    }

    /// Two tasks that keep each other runnable forever: each waits for
    /// its turn, passes the turn on and wakes the other.
    #[derive(Default)]
    struct Rally {
        turn: AtomicUsize,
        wakers: [Mutex<Option<Waker>>; 2],
        passes: AtomicUsize,
        /// Polls of either player by each worker of a two-worker runtime.
        polls_by: Arc<[AtomicUsize; 2]>,
    }

    /// The index of the runtime worker this thread is, by its name.
    fn worker_index() -> usize {
        let name = std::thread::current().name().unwrap_or_default().to_owned();
        name.trim_start_matches("tokio-shim-").parse().unwrap()
    }

    async fn rally(r: Arc<Rally>, me: usize) {
        loop {
            std::future::poll_fn(|cx| {
                *r.wakers[me].lock().unwrap() = Some(cx.waker().clone());
                if r.turn.load(Ordering::SeqCst) == me {
                    return Poll::Ready(());
                }
                // Every poll of a player ends here once.
                if let Some(polls) = r.polls_by.get(worker_index()) {
                    polls.fetch_add(1, Ordering::Relaxed);
                }
                Poll::Pending
            })
            .await;
            r.passes.fetch_add(1, Ordering::Relaxed);
            r.turn.store(1 - me, Ordering::SeqCst);
            let other = r.wakers[1 - me].lock().unwrap().take();
            if let Some(w) = other {
                w.wake();
            }
        }
    }

    #[test]
    fn tasks_that_wake_each_other_forever_do_not_starve_the_shared_queue() {
        within_a_minute(|| {
            // On one worker the two players hand each other over through
            // its own queue, which therefore never runs empty.
            let rt = runtime(1);
            let r = Arc::new(Rally::default());
            rt.spawn(rally(Arc::clone(&r), 0));
            rt.spawn(rally(Arc::clone(&r), 1));
            while r.passes.load(Ordering::Relaxed) < 100 {
                std::thread::yield_now();
            }
            let outsider = rt.spawn(async { 7 });
            assert_eq!(rt.block_on(outsider).unwrap(), 7);
            // Nor do they keep the runtime from shutting down.
            drop(rt);
        });
    }

    #[test]
    fn a_task_woken_from_outside_runs_within_a_turn_of_a_busy_worker() {
        within_a_minute(|| {
            // Both workers run a rally, whose players reschedule each other
            // on their worker's own queue, so neither ever waits on the
            // shared queue: a task woken from this thread is seen only by
            // a worker's shared-queue turn, which reads the queue's count
            // without the lock.
            let rt = runtime(2);
            let polls_by = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
            for _ in 0..2 {
                let r = Arc::new(Rally {
                    polls_by: Arc::clone(&polls_by),
                    ..Rally::default()
                });
                rt.spawn(rally(Arc::clone(&r), 0));
                rt.spawn(rally(r, 1));
            }
            while polls_by.iter().any(|p| p.load(Ordering::Relaxed) < 1000) {
                std::thread::yield_now();
            }
            for _ in 0..200 {
                let parked = Arc::new(Mutex::new(None::<Waker>));
                let (polled_tx, polled_rx) = mpsc::channel();
                let (slot, counts) = (Arc::clone(&parked), Arc::clone(&polls_by));
                rt.spawn(std::future::poll_fn(move |cx| {
                    let mut slot = slot.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(cx.waker().clone());
                        return Poll::Pending;
                    }
                    let w = worker_index();
                    polled_tx
                        .send((w, counts[w].load(Ordering::Relaxed)))
                        .unwrap();
                    Poll::Ready(())
                }));
                let waker = loop {
                    if let Some(w) = parked.lock().unwrap().clone() {
                        break w;
                    }
                    std::thread::yield_now();
                };
                waker.wake();
                let at_wake = [0, 1].map(|w| polls_by[w].load(Ordering::Relaxed));
                let (w, at_poll) = polled_rx.recv().unwrap();
                // `at_wake` is read after the wake, so a worker may have
                // polled the task first: the difference is a lower bound
                // on the polls, and 0 when the read came late.
                let polls = at_poll.saturating_sub(at_wake[w]);
                assert!(
                    polls <= super::SHARED_EVERY as usize + 1,
                    "worker {w} polled {polls} rally tasks first"
                );
            }
        });
    }

    #[test]
    fn a_parked_sibling_is_handed_part_of_a_backlog() {
        within_a_minute(|| {
            let rt = runtime(2);
            // The first two peers to resume wait for each other, each
            // blocking its worker: they can only meet on two threads.
            let meet = Arc::new(std::sync::Barrier::new(2));
            let resumed = Arc::new(AtomicUsize::new(0));
            let (txs, peers): (Vec<_>, Vec<_>) = (0..64)
                .map(|_| {
                    let (tx, rx) = oneshot::channel::<()>();
                    let (meet, resumed) = (Arc::clone(&meet), Arc::clone(&resumed));
                    let peer = rt.spawn(async move {
                        rx.await.unwrap();
                        if resumed.fetch_add(1, Ordering::SeqCst) < 2 {
                            meet.wait();
                        }
                        std::thread::current().id()
                    });
                    (tx, peer)
                })
                .unzip();
            // All 64 suspended, both workers asleep. One of them gets the
            // task below and, with it, all 64 wake-ups on its own queue.
            until_parked(&rt, 2);
            rt.spawn(async move {
                for tx in txs {
                    tx.send(()).unwrap();
                }
            });
            let mut threads = Vec::new();
            for p in peers {
                threads.push(rt.block_on(p).unwrap());
            }
            threads.sort_unstable_by_key(|t| format!("{t:?}"));
            threads.dedup();
            assert_eq!(threads.len(), 2, "both workers polled peers");
        });
    }

    #[test]
    fn wakes_from_other_threads_and_runtimes_reach_the_tasks_own_runtime() {
        within_a_minute(|| {
            let (a, b) = (runtime(1), runtime(1));
            // Resumed by `wake`, the task reports whose worker polls it.
            let resumed_on = |wake: &dyn Fn(oneshot::Sender<()>)| {
                let (tx, rx) = oneshot::channel::<()>();
                let task = a.spawn(async move {
                    rx.await.unwrap();
                    super::WORKER_OF.get() as usize
                });
                until_parked(&a, 1);
                wake(tx);
                a.block_on(task).unwrap()
            };
            let own = Arc::as_ptr(&a.shared) as usize;
            let from_thread = resumed_on(&|tx| {
                std::thread::spawn(move || tx.send(()).unwrap());
            });
            assert_eq!(from_thread, own, "woken from a plain thread");
            let from_b = resumed_on(&|tx| {
                b.spawn(async move { tx.send(()).unwrap() });
            });
            assert_eq!(from_b, own, "woken from a worker of another runtime");
        });
    }

    #[test]
    fn dropping_a_runtime_drops_the_tasks_still_queued() {
        within_a_minute(|| {
            let rt = runtime(1);
            let probe = Arc::new(());
            // 100 suspended peers, to be woken on the worker itself …
            let txs: Vec<_> = (0..100)
                .map(|_| {
                    let (tx, rx) = oneshot::channel::<()>();
                    let probe = Arc::clone(&probe);
                    rt.spawn(async move {
                        let _ = rx.await;
                        drop(probe);
                    });
                    tx
                })
                .collect();
            until_parked(&rt, 1);
            // … by a task that first holds the worker until the runtime
            // is shutting down.
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            rt.spawn(async move {
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                for tx in txs {
                    tx.send(()).unwrap();
                }
            });
            entered_rx.recv().unwrap();
            // … and 100 tasks that wait in the shared queue meanwhile.
            for _ in 0..100 {
                let probe = Arc::clone(&probe);
                rt.spawn(async move { drop(probe) });
            }
            let shared = Arc::clone(&rt.shared);
            let dropper = std::thread::spawn(move || drop(rt));
            while !super::lock(&shared.queue).shutdown {
                std::thread::yield_now();
            }
            // The worker finds ~100 tasks on its own queue and 100 on the
            // shared one, polls a few at most, and exits; the drop returns.
            release_tx.send(()).unwrap();
            dropper.join().unwrap();
            drop(shared);
            assert_eq!(Arc::strong_count(&probe), 1, "a queued task leaked");
        });
    }

    #[test]
    fn yield_now_queues_behind_a_task_waiting_in_the_shared_queue() {
        within_a_minute(|| {
            let rt = runtime(1);
            let log = Arc::new(Mutex::new(Vec::new()));
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let y = {
                let log = Arc::clone(&log);
                rt.spawn(async move {
                    // Hold the worker until `x` is queued behind us.
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    log.lock().unwrap().push("y yields");
                    yield_now().await;
                    log.lock().unwrap().push("y resumes");
                })
            };
            entered_rx.recv().unwrap();
            let x = {
                let log = Arc::clone(&log);
                rt.spawn(async move { log.lock().unwrap().push("x runs") })
            };
            release_tx.send(()).unwrap();
            rt.block_on(async {
                y.await.unwrap();
                x.await.unwrap();
            });
            assert_eq!(*log.lock().unwrap(), ["y yields", "x runs", "y resumes"]);
        });
    }

    #[test]
    fn yield_now_queues_behind_its_own_workers_tasks_and_stays_on_that_worker() {
        within_a_minute(|| {
            let rt = runtime(2);
            let log = Arc::new(Mutex::new(Vec::new()));
            // Eight suspended peers: as many polls as lie between two
            // shared-queue turns (`SHARED_EVERY`), so a yielded task in
            // the shared queue would get its turn among them. Both
            // workers then park.
            let (txs, peers): (Vec<_>, Vec<_>) = (0..8)
                .map(|i| {
                    let (tx, rx) = oneshot::channel::<()>();
                    let log = Arc::clone(&log);
                    let peer = rt.spawn(async move {
                        rx.await.unwrap();
                        log.lock()
                            .unwrap()
                            .push((format!("p{i}"), std::thread::current().id()));
                    });
                    (tx, peer)
                })
                .unzip();
            until_parked(&rt, 2);
            // One worker is held by a task until `y` is done, so it never
            // parks and the other worker never hands its backlog over.
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let holder = rt.spawn(async move {
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            entered_rx.recv().unwrap();
            // `y`, on the other worker, wakes the peers onto that worker's
            // own queue and yields: it resumes there, after all eight.
            let y = {
                let log = Arc::clone(&log);
                rt.spawn(async move {
                    for tx in txs {
                        tx.send(()).unwrap();
                    }
                    let me = || std::thread::current().id();
                    log.lock().unwrap().push(("y yields".into(), me()));
                    yield_now().await;
                    log.lock().unwrap().push(("y resumes".into(), me()));
                    release_tx.send(()).unwrap();
                })
            };
            rt.block_on(async {
                y.await.unwrap();
                holder.await.unwrap();
                for p in peers {
                    p.await.unwrap();
                }
            });
            let log = log.lock().unwrap();
            let order: Vec<_> = log.iter().map(|(what, _)| what.as_str()).collect();
            let mut want = vec!["y yields".to_string()];
            want.extend((0..8).map(|i| format!("p{i}")));
            want.push("y resumes".into());
            assert_eq!(order, want);
            let worker = log[0].1;
            assert!(
                log.iter().all(|&(_, t)| t == worker),
                "one worker ran them all: {log:?}"
            );
        });
    }
}
