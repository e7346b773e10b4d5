//! Weighted-fair admission: per-tenant bounded queues drained by deficit
//! round-robin.
//!
//! Each tenant owns a bounded `VecDeque`; admission rejects per tenant
//! (one tenant's backlog can never evict or starve another's). Workers
//! drain with **deficit round-robin**: the scheduler visits tenants in a
//! fixed cycle, tops each non-empty tenant's deficit up by
//! `quantum × weight` on every visit, and serves up to the deficit —
//! so long-run service is proportional to weight while every batch stays
//! single-tenant (a batch never mixes tenants, which is what keeps the
//! per-tenant cost lanes and key material honest).
//!
//! One `Mutex` + two condvars implement the whole data path: producers
//! (`try_push`) never block — a full lane refuses, which is the
//! backpressure signal — and consumers (`pop_batch_with`) block for the
//! first item, then linger up to the batching deadline hoping to fill
//! `max_batch`. Lock poisoning is recovered, never propagated: a
//! panicking worker must not take the whole runtime down with it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::locked;
use crate::metrics::QueueDepthStats;
use crate::queue::PushRefused;

/// One tenant's lane: its bounded backlog and its running DRR deficit.
#[derive(Debug)]
struct Lane<T> {
    tenant: u32,
    weight: u64,
    items: VecDeque<T>,
    deficit: u64,
}

#[derive(Debug)]
struct FairState<T> {
    lanes: Vec<Lane<T>>,
    /// DRR cursor: index of the next lane to visit.
    cursor: usize,
    closed: bool,
    /// Total queued items across lanes (cheap emptiness check).
    queued: usize,
    /// `queued` as each admitted push found it.
    depth: QueueDepthStats,
}

impl<T> FairState<T> {
    /// The lane DRR serves next: the first non-empty one from the cursor
    /// (every visit credits a lane at least one request).
    fn next_lane(&self) -> Option<usize> {
        let lanes = self.lanes.len();
        (0..lanes)
            .map(|step| (self.cursor + step) % lanes)
            .find(|&idx| !self.lanes[idx].items.is_empty())
    }
}

/// A batch popped from the fair queue: every item belongs to one tenant.
#[derive(Debug)]
pub struct FairBatch<T> {
    /// Registry index of the tenant the batch belongs to.
    pub tenant_index: usize,
    /// Wire id of that tenant.
    pub tenant: u32,
    /// The items, in arrival order.
    pub items: Vec<T>,
}

/// Per-tenant bounded queues with deficit-round-robin batch draining.
#[derive(Debug)]
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    not_empty: Condvar,
    /// Signalled whenever `queued` returns to zero — the graceful-drain
    /// window waits on this instead of polling.
    emptied: Condvar,
    per_tenant_capacity: usize,
    quantum: u64,
}

impl<T> FairQueue<T> {
    /// Builds one lane per `(tenant, weight)` pair; each lane holds at
    /// most `per_tenant_capacity` items. `quantum` is the deficit added
    /// per unit weight on each DRR visit (requests cost 1 each).
    pub fn new(weights: &[(u32, u32)], per_tenant_capacity: usize, quantum: u64) -> Self {
        FairQueue {
            state: Mutex::new(FairState {
                lanes: weights
                    .iter()
                    .map(|&(tenant, weight)| Lane {
                        tenant,
                        weight: u64::from(weight.max(1)),
                        items: VecDeque::new(),
                        deficit: 0,
                    })
                    .collect(),
                cursor: 0,
                closed: false,
                queued: 0,
                depth: QueueDepthStats::default(),
            }),
            not_empty: Condvar::new(),
            emptied: Condvar::new(),
            per_tenant_capacity: per_tenant_capacity.max(1),
            quantum: quantum.max(1),
        }
    }

    /// Per-lane capacity.
    pub fn per_tenant_capacity(&self) -> usize {
        self.per_tenant_capacity
    }

    /// Non-blocking admission into `tenant_index`'s lane. The total depth
    /// observed at submission time feeds the queue statistics.
    ///
    /// # Errors
    ///
    /// Returns the item back with [`PushRefused::Full`] when that lane is
    /// at capacity or [`PushRefused::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, tenant_index: usize, item: T) -> Result<(), (T, PushRefused)> {
        let mut s = locked(&self.state);
        if s.closed {
            return Err((item, PushRefused::Closed));
        }
        let Some(lane) = s.lanes.get_mut(tenant_index) else {
            return Err((item, PushRefused::Closed));
        };
        if lane.items.len() >= self.per_tenant_capacity {
            return Err((item, PushRefused::Full));
        }
        lane.items.push_back(item);
        let depth = s.queued;
        s.depth.observe(depth);
        s.queued += 1;
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until work is available, lingers up to `deadline` for more,
    /// then returns the next DRR-selected single-tenant batch of at most
    /// `max_batch` items. Returns `None` when closed and fully drained.
    pub fn pop_batch(&self, max_batch: usize, deadline: Duration) -> Option<FairBatch<T>> {
        self.pop_batch_with(max_batch, deadline, |_| false, Vec::new())
    }

    /// [`pop_batch`](Self::pop_batch) with a *barrier* predicate: an item
    /// for which `barrier` returns `true` is always returned as a
    /// singleton batch and never shares a batch with other items.
    ///
    /// The chaos harness uses this to isolate poisoned (panic-injected)
    /// requests: a singleton batch guarantees the planned panic takes down
    /// exactly its own request and produces exactly one supervisor
    /// respawn, keeping fault accounting deterministic.
    ///
    /// The batch's items are returned in `items` (cleared first), so a
    /// worker that hands each batch's `Vec` back on its next call pops
    /// without allocating.
    pub fn pop_batch_with(
        &self,
        max_batch: usize,
        deadline: Duration,
        barrier: impl Fn(&T) -> bool,
        mut items: Vec<T>,
    ) -> Option<FairBatch<T>> {
        items.clear();
        let max_batch = max_batch.max(1);
        let mut s = locked(&self.state);
        loop {
            while s.queued == 0 {
                if s.closed {
                    return None;
                }
                s = self.not_empty.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            // Linger for the batching deadline while the backlog is short
            // of a full batch; a barrier item at the head leaves
            // immediately, alone. `wait_timeout` releases the lock, so a
            // sibling worker may steal the items meanwhile — if the queue
            // is empty again afterwards, go back to waiting.
            let until = Instant::now() + deadline;
            let head_is_barrier = |s: &FairState<T>| {
                let head = s.next_lane().and_then(|idx| s.lanes[idx].items.front());
                head.is_some_and(&barrier)
            };
            while s.queued > 0 && s.queued < max_batch && !s.closed && !head_is_barrier(&s) {
                let now = Instant::now();
                if now >= until {
                    break;
                }
                let (guard, timeout) = self
                    .not_empty
                    .wait_timeout(s, until - now)
                    .unwrap_or_else(|e| e.into_inner());
                s = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if let Some((tenant_index, tenant)) =
                self.drr_take(&mut s, max_batch, &barrier, &mut items)
            {
                return Some(FairBatch {
                    tenant_index,
                    tenant,
                    items,
                });
            }
        }
    }

    /// One DRR scheduling decision under the lock: top up the next
    /// backlogged lane's deficit and take `min(deficit, max_batch,
    /// backlog)` of its items, stopping short of the first barrier item
    /// (which the next visit returns as a singleton). The items go onto
    /// `items`; the lane's `(registry index, wire id)` is returned.
    fn drr_take(
        &self,
        s: &mut FairState<T>,
        max_batch: usize,
        barrier: &impl Fn(&T) -> bool,
        items: &mut Vec<T>,
    ) -> Option<(usize, u32)> {
        let idx = s.next_lane()?;
        let lane = &mut s.lanes[idx];
        lane.deficit = lane.deficit.saturating_add(self.quantum * lane.weight);
        let mut take = (lane.deficit.min(max_batch as u64) as usize).min(lane.items.len());
        if let Some(at) = lane.items.iter().take(take).position(barrier) {
            take = at.max(1); // a barrier at the head rides alone
        }
        lane.deficit -= take as u64;
        items.extend(lane.items.drain(..take));
        let tenant = lane.tenant;
        if lane.items.is_empty() {
            // Classic DRR: an emptied lane forfeits its deficit so idle
            // tenants cannot bank unbounded credit.
            lane.deficit = 0;
        }
        s.queued -= take;
        if s.queued == 0 {
            self.emptied.notify_all();
        }
        // Advance past the served lane so siblings interleave.
        s.cursor = (idx + 1) % s.lanes.len();
        Some((idx, tenant))
    }

    /// Closes every lane: future pushes are refused, consumers drain what
    /// remains and then see `None`.
    pub fn close(&self) {
        locked(&self.state).closed = true;
        self.not_empty.notify_all();
    }

    /// Takes every queued item at once, lane by lane (shutdown drain).
    pub fn drain_remaining(&self) -> Vec<FairBatch<T>> {
        let mut s = locked(&self.state);
        let mut out = Vec::new();
        for (idx, lane) in s.lanes.iter_mut().enumerate() {
            if !lane.items.is_empty() {
                lane.deficit = 0;
                out.push(FairBatch {
                    tenant_index: idx,
                    tenant: lane.tenant,
                    items: lane.items.drain(..).collect(),
                });
            }
        }
        s.queued = 0;
        self.emptied.notify_all();
        out
    }

    /// Blocks until every lane is empty or `timeout` elapses; returns
    /// `true` when the queue emptied in time. This is the bounded drain
    /// window: workers keep popping after [`close`](Self::close), and the
    /// drain coordinator waits here instead of polling [`len`](Self::len).
    pub fn wait_empty(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut s = locked(&self.state);
        while s.queued > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .emptied
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
        }
        true
    }

    /// Queue-depth statistics observed at submission time.
    pub fn depth_stats(&self) -> QueueDepthStats {
        locked(&self.state).depth
    }

    /// Items currently queued across all lanes.
    pub fn len(&self) -> usize {
        locked(&self.state).queued
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|t| (t, t + 1)).collect()
    }

    #[test]
    fn batches_never_mix_tenants() {
        let q = FairQueue::new(&weights(3), 16, 4);
        for i in 0..12 {
            q.try_push((i % 3) as usize, i).unwrap();
        }
        while !q.is_empty() {
            let batch = q.pop_batch(8, Duration::ZERO).unwrap();
            assert!(!batch.items.is_empty());
            for item in &batch.items {
                assert_eq!((*item % 3) as usize, batch.tenant_index);
            }
        }
    }

    #[test]
    fn service_is_weight_proportional_under_backlog() {
        // Tenants 0/1/2 with weights 1/2/3, all permanently backlogged:
        // served counts must track the weights.
        let q = FairQueue::new(&weights(3), 600, 1);
        for i in 0..1800 {
            q.try_push((i % 3) as usize, i).unwrap();
        }
        let mut served = [0usize; 3];
        // Serve exactly half the backlog, then compare shares.
        let mut taken = 0;
        while taken < 900 {
            let batch = q.pop_batch(4, Duration::ZERO).unwrap();
            served[batch.tenant_index] += batch.items.len();
            taken += batch.items.len();
        }
        assert!(
            served[2] > served[1] && served[1] > served[0],
            "weighted shares must order: {served:?}"
        );
        // Weight-normalised service is near-uniform (within one quantum
        // round per lane).
        let norm: Vec<f64> = served
            .iter()
            .zip([1.0f64, 2.0, 3.0])
            .map(|(s, w)| *s as f64 / w)
            .collect();
        let (lo, hi) = (
            norm.iter().cloned().fold(f64::MAX, f64::min),
            norm.iter().cloned().fold(0.0, f64::max),
        );
        assert!(hi / lo < 1.25, "normalised service uneven: {norm:?}");
    }

    #[test]
    fn per_tenant_capacity_is_enforced_per_lane() {
        let q = FairQueue::new(&[(0, 1), (1, 1)], 2, 1);
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        let (item, why) = q.try_push(0, 3).unwrap_err();
        assert_eq!((item, why), (3, PushRefused::Full));
        // Tenant 1's lane is unaffected by tenant 0's backlog.
        q.try_push(1, 9).unwrap();
    }

    #[test]
    fn close_refuses_new_work_and_drains_old() {
        let q = FairQueue::new(&weights(2), 8, 1);
        q.try_push(0, 1).unwrap();
        q.close();
        assert_eq!(q.try_push(1, 2).unwrap_err().1, PushRefused::Closed);
        let batch = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch.items, vec![1]);
        assert!(q.pop_batch(4, Duration::ZERO).is_none());
    }

    #[test]
    fn drain_remaining_groups_by_tenant() {
        let q = FairQueue::new(&weights(2), 8, 1);
        q.try_push(0, 1).unwrap();
        q.try_push(1, 2).unwrap();
        q.try_push(1, 3).unwrap();
        q.close();
        let drained = q.drain_remaining();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].items, vec![2, 3]);
        assert!(q.is_empty());
        assert!(q.drain_remaining().is_empty());
    }

    #[test]
    fn barrier_items_ride_alone() {
        let q = FairQueue::new(&weights(1), 16, 8);
        // 0, 1, 2, 3, POISON, 4, POISON, 5 — negatives are barriers.
        for i in [0, 1, 2, 3, -1, 4, -2, 5] {
            q.try_push(0, i).unwrap();
        }
        // A barrier behind `max_batch` healthy items of its lane waits its
        // turn, then leaves alone; so does one between two healthy items.
        for want in [vec![0, 1, 2, 3], vec![-1], vec![4], vec![-2], vec![5]] {
            let batch = q.pop_batch_with(4, Duration::ZERO, |x| *x < 0, Vec::new());
            assert_eq!(batch.unwrap().items, want);
        }
    }

    #[test]
    fn barrier_at_head_is_a_singleton_and_does_not_linger() {
        let q = FairQueue::new(&weights(1), 4, 8);
        q.try_push(0, 9).unwrap();
        q.try_push(0, 1).unwrap();
        let linger = Duration::from_secs(5);
        let started = Instant::now();
        let batch = q
            .pop_batch_with(4, linger, |x| *x == 9, Vec::new())
            .unwrap();
        assert_eq!(batch.items, vec![9]);
        assert!(started.elapsed() < linger, "the head barrier left at once");
    }

    #[test]
    fn barrier_in_one_lane_neither_blocks_nor_joins_another_lanes_batch() {
        let q = FairQueue::new(&[(0, 1), (1, 1)], 8, 8);
        q.try_push(0, -1).unwrap(); // lane 0: POISON, then a healthy item
        q.try_push(0, 10).unwrap();
        q.try_push(1, 20).unwrap();
        q.try_push(1, 21).unwrap();
        // Lane 1's batch is whole and single-tenant; lane 0 resumes after.
        for want in [(0, vec![-1]), (1, vec![20, 21]), (0, vec![10])] {
            let b = q
                .pop_batch_with(8, Duration::ZERO, |x| *x < 0, Vec::new())
                .unwrap();
            assert_eq!((b.tenant_index, b.items), want);
        }
    }

    #[test]
    fn depth_stats_track_submission_time_depth_across_lanes() {
        let q = FairQueue::new(&weights(2), 2, 8);
        q.try_push(0, 1).unwrap(); // found 0 queued
        q.try_push(1, 2).unwrap(); // found 1
        q.try_push(0, 3).unwrap(); // found 2
        assert!(q.try_push(0, 4).is_err(), "refused pushes are not sampled");
        let d = q.depth_stats();
        assert_eq!((d.samples, d.depth_sum, d.depth_max), (3, 3, 2));
        q.pop_batch(8, Duration::ZERO).unwrap();
        q.try_push(1, 5).unwrap(); // lane 0's two left: found 1
        assert_eq!(q.depth_stats().depth_sum, 4);
    }

    #[test]
    fn wait_empty_bounds_the_drain_window() {
        use std::sync::Arc;
        let q = Arc::new(FairQueue::new(&weights(1), 8, 1));
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        // Backlogged: the window must expire, not hang.
        assert!(!q.wait_empty(Duration::from_millis(20)));
        let popper = {
            let q = Arc::clone(&q);
            seal_pool::spawn_worker("test-consumer", move || {
                std::thread::sleep(Duration::from_millis(30));
                while !q.is_empty() {
                    let _ = q.pop_batch(8, Duration::ZERO);
                }
            })
            .unwrap()
        };
        assert!(q.wait_empty(Duration::from_secs(5)), "drain must be seen");
        popper.join().unwrap();
        // Already-empty queues return immediately.
        assert!(q.wait_empty(Duration::ZERO));
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_close() {
        use std::sync::Arc;
        let q = Arc::new(FairQueue::new(&weights(1), 8, 1));
        let consumer = {
            let q = Arc::clone(&q);
            seal_pool::spawn_worker("test-consumer", move || {
                q.pop_batch(1, Duration::ZERO).map(|b| b.items)
            })
            .unwrap()
        };
        std::thread::sleep(Duration::from_millis(10));
        q.try_push(0, 42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(vec![42]));

        let q2 = Arc::new(FairQueue::<u32>::new(&weights(1), 8, 1));
        let consumer = {
            let q2 = Arc::clone(&q2);
            seal_pool::spawn_worker("test-consumer", move || {
                q2.pop_batch(1, Duration::from_secs(5))
            })
            .unwrap()
        };
        std::thread::sleep(Duration::from_millis(10));
        q2.close();
        assert!(consumer.join().unwrap().is_none());
    }
}
