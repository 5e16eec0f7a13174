//! The one frontend skeleton both servers run on.
//!
//! [`Frontend`] is the whole lifecycle of a frontend: it binds the
//! listener, starts an acceptor thread and a fixed pool of `workers`
//! handler threads, and on [`Frontend::shutdown`] stops accepting,
//! drains the workers and joins every thread. The acceptor hands each
//! accepted connection, stamped with its accept instant, to the workers
//! through an `mpsc` channel whose receiver is shared behind a
//! class-tagged [`OrderedMutex`]; at most `workers` connections are
//! served at once, and the rest queue. A frontend supplies only its pool
//! label, its thread-name prefix and its `handle_connection`: the
//! JSON-lines [`crate::server::Server`] and the HTTP
//! [`crate::http::HttpServer`] differ in nothing else. A handler reads
//! through one [`crate::frame::FrameReader`] and polls the stop flag it
//! is given between reads (on a 200 ms read timeout), so shutdown drains
//! promptly even with idle keep-alive connections.
//!
//! [`run_worker`], each worker's loop, fixes two failure modes:
//!
//! 1. **Poison cascade.** A worker that panicked while holding the
//!    receiver lock leaves it poisoned; every sibling worker's
//!    `lock().expect(..)` then panicked too and the whole pool silently
//!    went dead while the acceptor kept queueing connections. The lock
//!    only serializes `recv()` — the receiver itself is never left in a
//!    broken state — so poisoning is recoverable by construction.
//! 2. **Panic leaks.** A panic in the connection handler escaped past
//!    the telemetry bookkeeping, leaving the pool's `busy` gauge stuck
//!    high (skewing saturation verdicts) and killing the worker thread.
//!
//! It recovers the lock from poisoning, isolates handler panics with
//! [`catch_unwind`], always rebalances the busy gauge, and keeps the
//! worker alive for the next connection.

use crate::metrics::PoolTelemetry;
use crate::registry::Registry;
use qhorn_json::{Json, ToJson};
use qhorn_lockdep::{LockClass, OrderedMutex};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};
use std::time::Instant;

/// A running frontend; dropping it without [`Frontend::shutdown`]
/// detaches the threads (they exit with the process).
pub(crate) struct Frontend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
}

impl Frontend {
    /// Binds `addr` and starts the acceptor and `workers` (at least one)
    /// handler threads over `registry`, registering the pool's telemetry
    /// as `pool`. Threads are named `{threads}-acceptor` and
    /// `{threads}-worker-{i}`. `handle` serves one accepted connection
    /// until it ends or the stop flag rises.
    pub(crate) fn start(
        addr: &str,
        registry: Arc<Registry>,
        workers: usize,
        pool: &str,
        threads: &str,
        handle: fn(TcpStream, &Arc<Registry>, &AtomicBool),
    ) -> io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = workers.max(1);
        let (conn_tx, conn_rx) = mpsc::channel::<(TcpStream, Instant)>();
        let conn_rx = Arc::new(OrderedMutex::new(LockClass::new("pool.receiver"), conn_rx));
        let telemetry = registry.register_pool(pool, workers);

        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&conn_rx);
                let reg = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let telemetry = Arc::clone(&telemetry);
                Builder::new()
                    .name(format!("{threads}-worker-{i}"))
                    .spawn(move || run_worker(&rx, &telemetry, |s| handle(s, &reg, &stop)))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_stop = Arc::clone(&stop);
        let acceptor = Builder::new()
            .name(format!("{threads}-acceptor"))
            .spawn(move || {
                // conn_tx lives here: when the acceptor exits, the channel
                // closes and idle workers drain out.
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(s) = stream {
                        telemetry.enqueue();
                        if conn_tx.send((s, Instant::now())).is_err() {
                            break;
                        }
                    }
                }
            })?;
        crate::log::info(
            "service.pool",
            "frontend listening",
            &[
                ("pool", Json::Str(pool.to_string())),
                ("addr", Json::Str(local.to_string())),
                ("workers", (workers as u64).to_json()),
            ],
        );
        Ok(Frontend {
            addr: local,
            stop,
            acceptor,
            workers: handles,
            registry,
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub(crate) fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Drains `(item, queued_at)` pairs from the shared receiver until the
/// sender side hangs up, running `handle` on each item with pool
/// telemetry bookkeeping around it. Survives both a poisoned receiver
/// lock and panics inside `handle`.
fn run_worker<T>(
    rx: &OrderedMutex<Receiver<(T, Instant)>>,
    pool: &PoolTelemetry,
    mut handle: impl FnMut(T),
) {
    loop {
        let item = {
            // Recover rather than cascade: the mutex only guards recv(),
            // so a poisoned lock still protects a fully usable receiver.
            rx.lock_recover().recv()
        };
        match item {
            Ok((item, queued_at)) => {
                pool.dequeue(queued_at);
                pool.worker_busy();
                let outcome = catch_unwind(AssertUnwindSafe(|| handle(item)));
                pool.worker_idle();
                if let Err(payload) = outcome {
                    crate::log::error(
                        "service.pool",
                        "connection handler panicked; worker kept alive",
                        &[("panic", Json::Str(panic_message(payload.as_ref())))],
                    );
                }
            }
            Err(_) => break, // sender gone and queue drained
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    type SharedRx = Arc<OrderedMutex<Receiver<(u64, Instant)>>>;

    fn pool_pair(workers: usize) -> (mpsc::Sender<(u64, Instant)>, SharedRx, Arc<PoolTelemetry>) {
        let (tx, rx) = mpsc::channel::<(u64, Instant)>();
        (
            tx,
            Arc::new(OrderedMutex::new(LockClass::new("pool.receiver"), rx)),
            Arc::new(PoolTelemetry::new("test", workers)),
        )
    }

    /// A handler panic must not kill the pool: later items are still
    /// served, telemetry balances, and the busy gauge returns to zero.
    #[test]
    fn pool_survives_handler_panic() {
        let (tx, rx, pool) = pool_pair(2);
        let served = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for _ in 0..2 {
            let rx = Arc::clone(&rx);
            let pool = Arc::clone(&pool);
            let served = Arc::clone(&served);
            workers.push(std::thread::spawn(move || {
                run_worker(&rx, &pool, |item: u64| {
                    if item == 13 {
                        panic!("injected handler panic");
                    }
                    served.fetch_add(1, Ordering::SeqCst);
                });
            }));
        }
        for item in [1u64, 13, 2, 13, 3, 4] {
            pool.enqueue();
            tx.send((item, Instant::now())).unwrap();
        }
        drop(tx);
        for w in workers {
            w.join().expect("worker must survive handler panics");
        }
        assert_eq!(served.load(Ordering::SeqCst), 4);
        let snap = pool.snapshot();
        assert_eq!(snap.enqueued, 6);
        assert_eq!(snap.dequeued, 6);
        assert_eq!(snap.busy, 0, "panic must not leak the busy gauge");
        assert_eq!(snap.queue_depth, 0);
    }

    /// Even with the receiver lock already poisoned by an unrelated
    /// panic, workers recover it and keep draining the queue.
    #[test]
    fn pool_recovers_from_poisoned_receiver_lock() {
        let (tx, rx, pool) = pool_pair(1);
        // Poison the lock the way the old code path would have: panic
        // while holding it.
        {
            let rx = Arc::clone(&rx);
            let _ = std::thread::spawn(move || {
                let _guard = rx.lock().unwrap();
                panic!("poison the receiver lock");
            })
            .join();
        }
        assert!(rx.is_poisoned());
        let served = Arc::new(AtomicU64::new(0));
        let worker = {
            let rx = Arc::clone(&rx);
            let pool = Arc::clone(&pool);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                run_worker(&rx, &pool, |_item: u64| {
                    served.fetch_add(1, Ordering::SeqCst);
                });
            })
        };
        for item in 0..5u64 {
            pool.enqueue();
            tx.send((item, Instant::now())).unwrap();
        }
        drop(tx);
        worker.join().expect("worker must survive a poisoned lock");
        assert_eq!(served.load(Ordering::SeqCst), 5);
        let snap = pool.snapshot();
        assert_eq!(snap.enqueued, snap.dequeued);
    }
}
