//! The single-lane view of the serving queue.
//!
//! [`BoundedQueue`] is a one-lane facade over [`FairQueue`], the queue
//! both servers run on. It exists only because `benchmark/src/serve.rs`
//! and `crates/bench/benches/serve.rs` construct one to time a push/pop
//! round (`serve.queue_push_pop_us`, which therefore measures the code
//! the server executes); ROADMAP item 8's ruler re-cut deletes it.

use std::time::Duration;

use crate::fair::FairQueue;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushRefused {
    /// The queue is at capacity (admission control / backpressure).
    Full,
    /// The queue is closed for new work (server shutting down).
    Closed,
}

/// Bounded MPMC queue: one [`FairQueue`] lane whose DRR quantum covers
/// its whole capacity, so scheduling never caps a batch below
/// `max_batch`.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    lane: FairQueue<T>,
}

impl<T> BoundedQueue<T> {
    /// Creates an open queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            lane: FairQueue::new(&[(0, 1)], capacity, capacity as u64),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.lane.per_tenant_capacity()
    }

    /// Non-blocking admission: enqueues `item` or refuses with the reason.
    ///
    /// # Errors
    ///
    /// Returns the item back alongside [`PushRefused::Full`] when at
    /// capacity or [`PushRefused::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), (T, PushRefused)> {
        self.lane.try_push(0, item)
    }

    /// Blocks until work is available, then assembles a batch.
    ///
    /// Waits indefinitely for the *first* item (or queue closure), then up
    /// to `deadline` more for the queue to offer `max_batch` items, and
    /// returns between 1 and `max_batch` of them. Returns `None` only when
    /// the queue is closed *and* drained.
    pub fn pop_batch(&self, max_batch: usize, deadline: Duration) -> Option<Vec<T>> {
        self.lane.pop_batch(max_batch, deadline).map(|b| b.items)
    }

    /// Closes the queue: future pushes are refused, consumers drain what
    /// remains and then see `None`.
    pub fn close(&self) {
        self.lane.close();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.lane.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let batch = q.pop_batch(8, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, why) = q.try_push(3).unwrap_err();
        assert_eq!(item, 3);
        assert_eq!(why, PushRefused::Full);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_refuses_new_work_but_drains_old() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2).unwrap_err().1, PushRefused::Closed);
        assert_eq!(q.pop_batch(4, Duration::ZERO).unwrap(), vec![1]);
        assert!(q.pop_batch(4, Duration::ZERO).is_none());
    }

    #[test]
    fn batch_respects_max_batch() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(4, Duration::ZERO).unwrap().len(), 4);
        assert_eq!(q.pop_batch(4, Duration::ZERO).unwrap().len(), 2);
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(1, Duration::ZERO))
        };
        // Give the consumer a moment to block, then feed it.
        std::thread::sleep(Duration::from_millis(10));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(vec![42]));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(1, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
