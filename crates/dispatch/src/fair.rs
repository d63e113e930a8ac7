//! A bounded, multi-producer job queue with per-client fairness and
//! priority-aware load shedding.
//!
//! The serve daemon feeds every connection's submissions through one
//! of these: each client gets its own FIFO lane, and the consumer
//! drains lanes round-robin, so a client that dumps a hundred jobs
//! cannot starve one that submits a single query — the "fair
//! round-robin budget slicing" of the service layer.
//!
//! The queue is bounded by a *total* job count across all lanes.
//! Pushing into a full queue either *sheds* a lower-priority queued
//! job to make room (the victim is returned to the producer so the
//! daemon can answer its client explicitly) or fails immediately with
//! [`PushError::Overloaded`] when nothing queued is lower-priority —
//! the daemon surfaces that to the client as an explicit rejection
//! instead of buffering unboundedly or blocking the reader thread.
//!
//! Jobs may carry a queue-time deadline. A job whose deadline passes
//! while it waits is still handed to the consumer — as
//! [`Popped::Expired`] — so its client gets an explicit `shed` answer
//! rather than a silent drop or a doomed execution.
//!
//! Closing the queue wakes all blocked consumers; remaining jobs can
//! still be drained (`pop` returns queued work before reporting
//! closure), which is what lets a SIGTERM shutdown finish in-flight
//! submissions.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Default submission priority: the middle of the 0–9 scale, so
/// explicit priorities can rank both above and below unmarked jobs.
pub const DEFAULT_PRIORITY: u8 = 5;

/// Highest admissible priority value (priorities are `0..=MAX_PRIORITY`,
/// larger = more important).
pub const MAX_PRIORITY: u8 = 9;

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at its total capacity and holds nothing of lower
    /// priority to shed; the job was NOT enqueued. Clients should see
    /// an explicit `overloaded` rejection.
    Overloaded,
    /// The queue was closed (daemon shutting down); the job was NOT
    /// enqueued.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Overloaded => f.write_str("queue overloaded"),
            PushError::Closed => f.write_str("queue closed"),
        }
    }
}

impl std::error::Error for PushError {}

/// What [`FairQueue::pop`] hands the consumer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// A live job: execute it.
    Ready(T),
    /// The job's queue-time deadline passed while it waited. The
    /// consumer should answer its client with an explicit shed
    /// notice instead of executing it.
    Expired(T),
}

impl<T> Popped<T> {
    /// The carried job, regardless of liveness.
    pub fn into_inner(self) -> T {
        match self {
            Popped::Ready(j) | Popped::Expired(j) => j,
        }
    }
}

struct Entry<T> {
    job: T,
    prio: u8,
    /// Queue-time deadline: past this instant the job is answered
    /// `shed` instead of executed.
    deadline: Option<Instant>,
    /// Global admission order, for deterministic shed tie-breaking
    /// (newest of the lowest-priority jobs goes first).
    seq: u64,
}

struct Lanes<T> {
    /// One FIFO lane per client id; lanes persist for the queue's
    /// lifetime (client ids are small integers handed out by the
    /// accept loop, so the map never grows past the connection count).
    lanes: HashMap<u64, VecDeque<Entry<T>>>,
    /// Round-robin order of lane ids: a lane is appended when it goes
    /// from empty to non-empty and rotated to the back after serving
    /// one job, so service interleaves clients 1:1.
    order: VecDeque<u64>,
    /// Total queued jobs across all lanes.
    len: usize,
    next_seq: u64,
    closed: bool,
}

impl<T> Lanes<T> {
    /// Locates the shed victim for an incoming job of priority `prio`:
    /// the globally lowest-priority queued entry strictly below
    /// `prio`, newest first among ties. Returns its lane and seq.
    fn victim(&self, prio: u8) -> Option<(u64, u64)> {
        let mut best: Option<(u8, u64, u64)> = None; // (prio, seq, client)
        for (&client, lane) in &self.lanes {
            for e in lane {
                if e.prio >= prio {
                    continue;
                }
                let better = match best {
                    None => true,
                    // Lower priority always loses; among equals the
                    // *newest* (largest seq) is shed, preserving the
                    // oldest queued work of that priority.
                    Some((bp, bs, _)) => e.prio < bp || (e.prio == bp && e.seq > bs),
                };
                if better {
                    best = Some((e.prio, e.seq, client));
                }
            }
        }
        best.map(|(_, seq, client)| (client, seq))
    }

    /// Removes the entry with `seq` from `client`'s lane, fixing up
    /// the round-robin order if the lane empties.
    fn remove(&mut self, client: u64, seq: u64) -> Option<T> {
        let lane = self.lanes.get_mut(&client)?;
        let at = lane.iter().position(|e| e.seq == seq)?;
        let entry = lane.remove(at).expect("position just found");
        self.len -= 1;
        if lane.is_empty() {
            self.order.retain(|&c| c != client);
        }
        Some(entry.job)
    }
}

/// Bounded multi-lane FIFO with round-robin service across lanes and
/// lowest-priority-first shedding under overload.
pub struct FairQueue<T> {
    state: Mutex<Lanes<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> FairQueue<T> {
    /// A queue admitting at most `capacity` jobs in total (across all
    /// clients). Capacity 0 is clamped to 1 so the queue is usable.
    pub fn new(capacity: usize) -> Self {
        FairQueue {
            state: Mutex::new(Lanes {
                lanes: HashMap::new(),
                order: VecDeque::new(),
                len: 0,
                next_seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `job` on `client`'s lane at [`DEFAULT_PRIORITY`] with
    /// no queue-time deadline. Fails fast when full or closed — never
    /// blocks the producer.
    pub fn push(&self, client: u64, job: T) -> Result<(), PushError> {
        self.push_prio(client, DEFAULT_PRIORITY, None, job)
            .map(|_| ())
    }

    /// Enqueues `job` on `client`'s lane with an explicit priority
    /// (0–9, larger = more important) and optional queue-time
    /// deadline.
    ///
    /// When the queue is full, the globally lowest-priority queued job
    /// strictly below `prio` is *shed* to make room — newest first
    /// among ties — and returned as `Ok(Some((victim_client, job)))`
    /// so the caller can answer that client explicitly. With nothing
    /// lower-priority queued, the push fails with
    /// [`PushError::Overloaded`] and nothing changes. Never blocks.
    pub fn push_prio(
        &self,
        client: u64,
        prio: u8,
        deadline: Option<Instant>,
        job: T,
    ) -> Result<Option<(u64, T)>, PushError> {
        let prio = prio.min(MAX_PRIORITY);
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return Err(PushError::Closed);
        }
        let shed = if s.len >= self.capacity {
            let (vc, vs) = s.victim(prio).ok_or(PushError::Overloaded)?;
            let victim = s.remove(vc, vs).expect("victim just located");
            Some((vc, victim))
        } else {
            None
        };
        let seq = s.next_seq;
        s.next_seq += 1;
        let lane = s.lanes.entry(client).or_default();
        let was_empty = lane.is_empty();
        lane.push_back(Entry {
            job,
            prio,
            deadline,
            seq,
        });
        s.len += 1;
        if was_empty {
            s.order.push_back(client);
        }
        drop(s);
        self.ready.notify_one();
        Ok(shed)
    }

    fn pop_locked(s: &mut Lanes<T>) -> Option<(u64, Popped<T>)> {
        let client = s.order.pop_front()?;
        let lane = s.lanes.get_mut(&client).expect("lane exists while listed");
        let entry = lane.pop_front().expect("listed lane is non-empty");
        let lane_has_more = !lane.is_empty();
        s.len -= 1;
        if lane_has_more {
            // Rotate to the back: one job per turn per client.
            s.order.push_back(client);
        }
        let expired = entry.deadline.is_some_and(|at| Instant::now() >= at);
        let job = if expired {
            Popped::Expired(entry.job)
        } else {
            Popped::Ready(entry.job)
        };
        Some((client, job))
    }

    /// Dequeues the next job, serving client lanes round-robin.
    /// Blocks while the queue is empty and open; returns `None` only
    /// once the queue is closed *and* fully drained. Jobs whose
    /// queue-time deadline has passed come out as [`Popped::Expired`].
    pub fn pop(&self) -> Option<(u64, Popped<T>)> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(out) = Self::pop_locked(&mut s) {
                return Some(out);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap();
        }
    }

    /// Non-blocking [`FairQueue::pop`].
    pub fn try_pop(&self) -> Option<(u64, Popped<T>)> {
        Self::pop_locked(&mut self.state.lock().unwrap())
    }

    /// Marks the queue closed: future pushes fail with
    /// [`PushError::Closed`], blocked consumers wake, and `pop`
    /// drains what is already queued before returning `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Total queued jobs across all lanes.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len
    }

    /// True when no job is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn drain<T>(q: &FairQueue<T>) -> Vec<(u64, T)> {
        std::iter::from_fn(|| q.try_pop().map(|(c, p)| (c, p.into_inner()))).collect()
    }

    #[test]
    fn fifo_within_a_single_client() {
        let q = FairQueue::new(16);
        for i in 0..5 {
            q.push(1, i).unwrap();
        }
        let order: Vec<i32> = drain(&q).into_iter().map(|(_, j)| j).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn round_robin_across_clients() {
        let q = FairQueue::new(16);
        // Client 1 floods; client 2 submits one job afterwards.
        for i in 0..4 {
            q.push(1, (1, i)).unwrap();
        }
        q.push(2, (2, 0)).unwrap();
        let order: Vec<(u64, (i32, i32))> = drain(&q);
        let clients: Vec<u64> = order.iter().map(|&(c, _)| c).collect();
        // Client 2 is served second, not fifth.
        assert_eq!(clients, vec![1, 2, 1, 1, 1]);
        // And each lane stays FIFO internally.
        let lane1: Vec<i32> = order
            .iter()
            .filter(|&&(c, _)| c == 1)
            .map(|&(_, (_, i))| i)
            .collect();
        assert_eq!(lane1, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity_rejects_with_overloaded() {
        let q = FairQueue::new(2);
        q.push(1, 'a').unwrap();
        q.push(2, 'b').unwrap();
        // Same priority everywhere: nothing is lower, so reject.
        assert_eq!(q.push(3, 'c'), Err(PushError::Overloaded));
        assert_eq!(q.len(), 2);
        // Draining frees capacity again.
        q.try_pop().unwrap();
        assert!(q.push(3, 'c').is_ok());
    }

    #[test]
    fn full_queue_sheds_lowest_priority_newest_first() {
        let q = FairQueue::new(3);
        q.push_prio(1, 2, None, "old-low").unwrap();
        q.push_prio(1, 7, None, "high").unwrap();
        q.push_prio(2, 2, None, "new-low").unwrap();
        // Priority 5 beats the two priority-2 jobs; the *newest* of
        // them is shed, and the push succeeds.
        let shed = q.push_prio(3, 5, None, "mid").unwrap();
        assert_eq!(shed, Some((2, "new-low")));
        assert_eq!(q.len(), 3);
        // An incoming job must be STRICTLY higher than the victim:
        // priority 2 cannot shed the remaining priority-2 job.
        assert_eq!(
            q.push_prio(3, 2, None, "another-low"),
            Err(PushError::Overloaded)
        );
        let jobs: Vec<&str> = drain(&q).into_iter().map(|(_, j)| j).collect();
        assert!(jobs.contains(&"old-low"), "oldest low-prio job survives");
        assert!(jobs.contains(&"high"));
        assert!(jobs.contains(&"mid"));
    }

    #[test]
    fn shedding_empties_a_lane_without_breaking_rotation() {
        let q = FairQueue::new(2);
        q.push_prio(1, 1, None, "low").unwrap();
        q.push_prio(2, 5, None, "a").unwrap();
        // Shedding client 1's only job must drop its lane from the
        // round-robin order entirely.
        let shed = q.push_prio(2, 5, None, "b").unwrap();
        assert_eq!(shed, Some((1, "low")));
        let order: Vec<(u64, &str)> = drain(&q);
        assert_eq!(order, vec![(2, "a"), (2, "b")]);
    }

    #[test]
    fn expired_deadline_pops_as_expired() {
        let q = FairQueue::new(8);
        let past = Instant::now() - Duration::from_millis(1);
        let future = Instant::now() + Duration::from_secs(3600);
        q.push_prio(1, 5, Some(past), "stale").unwrap();
        q.push_prio(1, 5, Some(future), "fresh").unwrap();
        assert_eq!(q.pop(), Some((1, Popped::Expired("stale"))));
        assert_eq!(q.pop(), Some((1, Popped::Ready("fresh"))));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = FairQueue::new(8);
        q.push(1, 1).unwrap();
        q.push(1, 2).unwrap();
        q.close();
        assert_eq!(q.push(1, 3), Err(PushError::Closed));
        // Queued jobs still come out, then None.
        assert_eq!(q.pop(), Some((1, Popped::Ready(1))));
        assert_eq!(q.pop(), Some((1, Popped::Ready(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_close() {
        let q = Arc::new(FairQueue::new(8));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some((_, j)) = q2.pop() {
                got.push(j.into_inner());
            }
            got
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(1, 42).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![42]);
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Arc::new(FairQueue::new(1024));
        let mut producers = Vec::new();
        for client in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    while q.push(client, (client, i)).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut per_client = HashMap::new();
        while let Some((c, p)) = q.pop() {
            let (c2, i) = p.into_inner();
            assert_eq!(c, c2);
            let next = per_client.entry(c).or_insert(0);
            assert_eq!(*next, i, "lane {c} stays FIFO");
            *next += 1;
        }
        assert!(per_client.values().all(|&n| n == 50));
    }
}
