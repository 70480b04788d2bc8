//! Pump lanes: the threads that mutate tenant engines.
//!
//! A [`Server`](crate::server::Server) runs `pump_threads` long-lived
//! lane threads, each with a private inbox. Every tenant is bound to
//! one lane at admission and every mutation of its engine — drain,
//! unit close, flush — runs on that lane, so the thread that builds a
//! tenant's snapshots, tilt frames and `CubeResult`s is also the one
//! that drops the ones they replace. With a per-thread allocator arena
//! (glibc's default) that keeps a quiet tenant's ~600 allocations per
//! publish inside one arena; handing tenants to whichever pool worker
//! is free made every free a cross-arena one, which measured as 27 % of
//! the `quiet_fleet` window (ROADMAP item 3).
//!
//! Lanes never pull records on their own: they run exactly the jobs
//! [`Lanes::run`] sends and the sender waits for every reply, so
//! draining stays driven by the caller's `pump()`.
//!
//! # Nesting
//!
//! A job blocks its lane until it replies, and [`Lanes::run`] blocks
//! its caller until every lane has. Code running *on* a lane — an
//! [`AlarmSink`](regcube_core::alarm::AlarmSink) called from a unit
//! close — must therefore not call a `Server` write method
//! (`pump`, `pump_tenant`, `close_unit`, `flush`): routed to its own
//! lane it would wait on itself.

use crate::tenant::{PumpOp, Tenant, TenantPump};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One lane's share of a [`Lanes::run`]: its tenants, in the order the
/// caller listed them, and where to send their pumps.
struct Job {
    tenants: Vec<Arc<Tenant>>,
    op: PumpOp,
    reply: Sender<Vec<TenantPump>>,
}

/// The server's pump threads. Dropping it closes every inbox and joins
/// every thread.
pub(crate) struct Lanes {
    inboxes: Vec<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
}

impl Lanes {
    /// Spawns `threads` lanes (at least 1).
    pub(crate) fn new(threads: usize) -> Self {
        let (inboxes, threads) = (0..threads.max(1))
            .map(|i| {
                let (inbox, jobs) = channel::<Job>();
                let thread = std::thread::Builder::new()
                    .name(format!("regcube-lane-{i}"))
                    .spawn(move || lane_loop(&jobs))
                    .expect("spawn pump lane");
                (inbox, thread)
            })
            .unzip();
        Lanes { inboxes, threads }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// Runs `op` on every listed tenant, each batch on the lane it
    /// names, and waits for all of them. The pumps come back grouped by
    /// lane in completion order; within a lane they keep the batch's
    /// order.
    pub(crate) fn run(
        &self,
        batches: impl IntoIterator<Item = (usize, Vec<Arc<Tenant>>)>,
        op: PumpOp,
    ) -> Vec<TenantPump> {
        let (reply, replies) = channel();
        let mut sent = 0;
        for (lane, tenants) in batches {
            let job = Job {
                tenants,
                op,
                reply: reply.clone(),
            };
            self.inboxes[lane]
                .send(job)
                .expect("lanes outlive the server's calls");
            sent += 1;
        }
        let mut pumps = Vec::new();
        for _ in 0..sent {
            pumps.extend(replies.recv().expect("a lane replies to every job"));
        }
        pumps
    }
}

impl Drop for Lanes {
    fn drop(&mut self) {
        // A closed inbox ends its lane's loop.
        self.inboxes.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Runs jobs until the inbox closes. A panic inside one tenant's pump
/// (a panicking sink, say) is caught per tenant: that tenant reports
/// [`ServeError::TenantFailed`](crate::error::ServeError) — and keeps
/// reporting it, its engine lock being poisoned — while the rest of
/// the batch still pumps and the lane lives on.
fn lane_loop(jobs: &Receiver<Job>) {
    for job in jobs {
        let pumps = job
            .tenants
            .iter()
            .map(|tenant| {
                catch_unwind(AssertUnwindSafe(|| tenant.run(job.op)))
                    .unwrap_or_else(|_| tenant.failed())
            })
            .collect();
        // The caller waits for every reply it asked for.
        let _ = job.reply.send(pumps);
    }
}
