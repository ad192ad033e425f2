//! Lock-free injection inboxes for the threaded executor.
//!
//! Before this module existed, every cross-thread producer — a cloned
//! [`super::RuntimeHandle`], the timer heap, a load generator — had to
//! acquire the destination core's [`crate::sync::SpinLock`] for every
//! single event, contending head-on with the core's own dispatch loop
//! (and with thieves migrating colors). The paper's argument is exactly
//! that such per-event synchronization overheads dominate event-driven
//! runtimes at scale, so the injection path now goes through a per-core
//! **lock-free MPSC inbox** instead:
//!
//! - producers [`InjectionInbox::push`] onto a Treiber stack (one
//!   compare-and-swap per event, retried with
//!   [`crossbeam_utils::Backoff`] under contention — no lock, no wait
//!   for the consumer);
//! - the owning core [`InjectionInbox::drain`]s the whole stack with a
//!   single atomic swap at dispatch-loop boundaries, reverses it to
//!   restore FIFO order, and merges the batch into its queue under **one**
//!   lock acquisition.
//!
//! A Treiber stack is the textbook-minimal lock-free MPSC when the
//! consumer always takes *everything*: `push` is a CAS on the head
//! pointer, `drain` is a `swap(null)`. LIFO order is repaired at drain
//! time by reversing the detached chain, which preserves per-producer
//! FIFO within and across drains of one inbox (a producer's earlier
//! event is always deeper in the stack and a drain takes the entire
//! stack at once).
//!
//! # Ordering across steals
//!
//! A workstealing migration moves a color's *queued* events; to keep
//! inbox residents of that color from stranding behind newer events,
//! the thief also drains the victim's inbox under both locks
//! (`steal_from`) and re-places each event per the color map. Producer
//! order is thus preserved through the common producer/steal race.
//! It is still not an absolute guarantee: a producer that loads the
//! color's owner just before a steal completes and publishes its push
//! just after the thief's rescue drain can have that event re-routed
//! behind a younger same-color event. What always holds is the paper's
//! safety invariant — events of one color are never *executable* on two
//! cores (every placement re-checks the color map under the owning
//! core's lock) — so same-color handlers are mutually exclusive even
//! when that rare double-race reorders them. Handlers needing strict
//! cross-steal sequencing must sequence at the application layer.

//!
//! # Node recycling
//!
//! `push` originally `Box::new`ed a node per event — the last
//! steady-state allocation on the injection path. Nodes now cycle
//! through a second, *free-list* Treiber stack: `drain` returns each
//! emptied node to the free list (at most `NODE_POOL_CAP` nodes ever
//! enter the pool), and `push` pops one before falling back to the
//! allocator. Two properties make the lock-free free-list *pop* sound:
//!
//! - **No use-after-free:** a node is only ever linked into the free
//!   list after being permanently claimed for the pool (`Node::pooled`),
//!   and pooled nodes are not deallocated until the inbox drops. A
//!   producer that dereferences a stale free-head pointer therefore
//!   always touches live memory; the tagged CAS below rejects the stale
//!   value and retries.
//! - **No ABA:** the free-list head packs a 16-bit version tag into the
//!   pointer's unused high bits, bumped on every successful pop, so a
//!   pop-push-pop of the same node between a producer's load and its
//!   CAS cannot be mistaken for "nothing changed". (The tag would have
//!   to wrap through all 2^16 values with the same node back on top
//!   inside one CAS window to be fooled — not a practical concern.)
//!
//! Free-list contention is producer-vs-producer only and bounded by the
//! same [`Backoff`] discipline as the live stack. On the rare platform
//! where heap pointers exceed 48 bits, nodes are simply never pooled
//! (allocation behavior falls back to the pre-pool one); correctness is
//! unaffected.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::{Backoff, CachePadded};

use crate::event::Event;

/// Total nodes that may ever be claimed for the recycling pool (per
/// inbox). Bounds retained memory under bursts; sized to cover the
/// drain cadence of a saturated 8-producer load generator.
const NODE_POOL_CAP: usize = 256;

/// Bit position of the 16-bit ABA tag in the packed free-list head.
const TAG_SHIFT: u32 = 48;
/// Mask selecting the pointer from the packed free-list head.
const PTR_MASK: u64 = (1 << TAG_SHIFT) - 1;

struct Node {
    event: Option<Event>,
    /// Link in whichever stack (live or free) currently holds the node.
    /// Atomic because a producer reusing the node can race another
    /// producer's stale read from the free list (never a race on
    /// ownership — the tagged CAS arbitrates — but the load itself must
    /// not be UB).
    next: AtomicPtr<Node>,
    /// Whether this node was claimed for the recycling pool. Pooled
    /// nodes live until the inbox drops; see the module docs.
    pooled: bool,
}

/// A lock-free multi-producer single-consumer event inbox.
///
/// Any thread may [`push`](InjectionInbox::push); one consumer at a time
/// is expected to [`drain`](InjectionInbox::drain) (concurrent drains are
/// memory-safe — each node is taken by exactly one swap — but would
/// interleave batches, which the runtime never does: only the owning
/// worker drains its core's inbox).
pub struct InjectionInbox {
    /// Top of the Treiber stack (most recently pushed event).
    head: CachePadded<AtomicPtr<Node>>,
    /// Packed head of the node free list: pointer in the low 48 bits,
    /// ABA tag in the high 16. On its own line so recycling traffic
    /// does not invalidate the live head.
    free: CachePadded<AtomicU64>,
    /// Events currently buffered; kept on its own line so producers
    /// updating it do not invalidate the consumer's view of `head`.
    len: CachePadded<AtomicUsize>,
    /// Remaining pool claims: decremented once per node that becomes
    /// permanently pool-eligible, starting at [`NODE_POOL_CAP`].
    pool_budget: AtomicUsize,
    /// Total events ever pushed (monotonic, for [`crate::metrics`]).
    pushes: AtomicU64,
    /// Pushes that reused a recycled node instead of allocating
    /// (monotonic, for [`crate::metrics`]).
    node_reuses: AtomicU64,
}

impl InjectionInbox {
    /// Creates an empty inbox.
    pub fn new() -> Self {
        InjectionInbox {
            head: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            free: CachePadded::new(AtomicU64::new(0)),
            len: CachePadded::new(AtomicUsize::new(0)),
            pool_budget: AtomicUsize::new(NODE_POOL_CAP),
            pushes: AtomicU64::new(0),
            node_reuses: AtomicU64::new(0),
        }
    }

    /// Pops a recycled node from the free list; `None` when empty.
    /// Lock-free multi-consumer pop, made safe by the pooled-nodes-
    /// never-freed rule and the ABA tag (module docs).
    fn pop_free(&self) -> Option<*mut Node> {
        let backoff = Backoff::new();
        let mut cur = self.free.load(Ordering::Acquire);
        loop {
            let node = (cur & PTR_MASK) as *mut Node;
            if node.is_null() {
                return None;
            }
            // SAFETY: anything ever linked into the free list is pooled
            // and stays allocated until the inbox drops, so this load
            // touches live memory even if `cur` is stale; a stale `next`
            // value is discarded because the CAS below fails.
            let next = unsafe { (*node).next.load(Ordering::Acquire) };
            let tag = (cur >> TAG_SHIFT).wrapping_add(1);
            let new = (tag << TAG_SHIFT) | (next as u64 & PTR_MASK);
            match self
                .free
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(node),
                Err(c) => {
                    cur = c;
                    backoff.spin();
                }
            }
        }
    }

    /// Returns an emptied node to the free list, claiming pool budget
    /// for first-timers; nodes that cannot be pooled (budget spent, or
    /// a pointer that does not fit the 48-bit packing) are freed.
    fn recycle(&self, node: *mut Node) {
        // SAFETY: the caller (a drain) owns `node` exclusively.
        let pooled = unsafe { (*node).pooled } || self.claim_pool_slot(node);
        if !pooled {
            // SAFETY: exclusively owned and not pooled — safe to free.
            drop(unsafe { Box::from_raw(node) });
            return;
        }
        let mut cur = self.free.load(Ordering::Relaxed);
        loop {
            // SAFETY: still exclusively ours until the CAS publishes it.
            unsafe {
                (*node)
                    .next
                    .store((cur & PTR_MASK) as *mut Node, Ordering::Relaxed)
            };
            let new = (cur & !PTR_MASK) | node as u64;
            match self
                .free
                .compare_exchange_weak(cur, new, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Tries to permanently claim pool budget for `node`.
    fn claim_pool_slot(&self, node: *mut Node) -> bool {
        if node as u64 & !PTR_MASK != 0 {
            // Cannot pack this pointer next to a tag; never pool it.
            return false;
        }
        let mut budget = self.pool_budget.load(Ordering::Relaxed);
        loop {
            if budget == 0 {
                return false;
            }
            match self.pool_budget.compare_exchange_weak(
                budget,
                budget - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // SAFETY: caller owns `node` exclusively.
                    unsafe { (*node).pooled = true };
                    return true;
                }
                Err(b) => budget = b,
            }
        }
    }

    /// Pushes one event; lock-free (a successful CAS on the head, with
    /// exponential backoff on contention) and allocation-free whenever
    /// a recycled node is available.
    pub fn push(&self, event: Event) {
        let node = match self.pop_free() {
            Some(node) => {
                self.node_reuses.fetch_add(1, Ordering::Relaxed);
                // SAFETY: `pop_free` transferred exclusive ownership.
                unsafe { (*node).event = Some(event) };
                node
            }
            None => Box::into_raw(Box::new(Node {
                event: Some(event),
                next: AtomicPtr::new(ptr::null_mut()),
                pooled: false,
            })),
        };
        // Count the event *before* the CAS publishes it: a drain racing
        // this push may otherwise subtract a node whose increment has
        // not happened yet and wrap `len` to huge values. Counting first
        // can only briefly overstate the backlog, which the load
        // estimate tolerates.
        self.len.fetch_add(1, Ordering::Relaxed);
        self.pushes.fetch_add(1, Ordering::Relaxed);
        let backoff = Backoff::new();
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is uniquely owned until the CAS publishes it.
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            // SeqCst publication pairs with the owner's SeqCst
            // `has_pending` check after it announces that it is going to
            // park: either the owner sees this event, or the producer's
            // following `sleepers` load sees the owner (see the parking
            // protocol in the parent module). Same instruction as
            // Release on x86-64.
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => {
                    head = cur;
                    backoff.spin();
                }
            }
        }
    }

    /// Detaches everything buffered so far with one atomic swap and
    /// appends it to `out` in FIFO order (per producer), recycling the
    /// emptied nodes. Returns the number of events appended.
    ///
    /// This is the allocation-free drain: with a warm node pool and a
    /// caller-retained `out` buffer of sufficient capacity, the whole
    /// push → drain round trip never touches the allocator.
    pub fn drain_into(&self, out: &mut Vec<Event>) -> usize {
        let mut node = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        if node.is_null() {
            return 0;
        }
        let start = out.len();
        while !node.is_null() {
            // SAFETY: the swap made this chain exclusively ours; read
            // the link and take the payload before the node is recycled
            // (a producer may reuse it immediately).
            let next = unsafe { (*node).next.load(Ordering::Relaxed) };
            let event = unsafe { (*node).event.take() }.expect("drained node holds an event");
            self.recycle(node);
            out.push(event);
            node = next;
        }
        let n = out.len() - start;
        self.len.fetch_sub(n, Ordering::Relaxed);
        // The stack yields newest-first; callers want oldest-first.
        out[start..].reverse();
        n
    }

    /// [`InjectionInbox::drain_into`] into a fresh vector, for tests
    /// and teardown; the worker loop and steals use `drain_into` with
    /// reused buffers instead.
    pub fn drain(&self) -> Vec<Event> {
        let mut batch = Vec::new();
        self.drain_into(&mut batch);
        batch
    }

    /// Approximate number of buffered events (exact when quiescent).
    /// Feeds the core's load estimate so `construct_core_set` still sees
    /// backlog that has not reached the queue yet.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether nothing is buffered (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a published event is waiting: a SeqCst read of the head
    /// itself, not the approximate `len`, for the parking re-check.
    pub(crate) fn has_pending(&self) -> bool {
        !self.head.load(Ordering::SeqCst).is_null()
    }

    /// Total events ever pushed into this inbox.
    pub fn total_pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Total pushes that reused a recycled node instead of allocating.
    pub fn total_node_reuses(&self) -> u64 {
        self.node_reuses.load(Ordering::Relaxed)
    }
}

impl Default for InjectionInbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for InjectionInbox {
    fn drop(&mut self) {
        // A runtime may shut down (stop flag) with events still buffered;
        // release them — and their boxed actions — here. The drain
        // recycles the nodes into the free list...
        drop(self.drain());
        // ...which is then deallocated wholesale (`&mut self`: no
        // concurrent producers can exist any more).
        let mut node = (self.free.load(Ordering::Relaxed) & PTR_MASK) as *mut Node;
        while !node.is_null() {
            // SAFETY: exclusive access; every free-list node is live.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next.load(Ordering::Relaxed);
        }
    }
}

// SAFETY: nodes are heap-allocated and handed between threads only
// through atomic operations with acquire/release ordering; `Event` is
// `Send` (its action is `Box<dyn FnOnce + Send>`), and no `&Event` is
// ever shared before transfer completes.
unsafe impl Send for InjectionInbox {}
unsafe impl Sync for InjectionInbox {}

impl std::fmt::Debug for InjectionInbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectionInbox")
            .field("len", &self.len())
            .field("pushes", &self.total_pushes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use std::sync::Arc;

    #[test]
    fn drain_preserves_fifo_of_a_single_producer() {
        let inbox = InjectionInbox::new();
        for i in 0..10u16 {
            inbox.push(Event::new(Color::new(i), u64::from(i)));
        }
        assert_eq!(inbox.len(), 10);
        let batch = inbox.drain();
        assert_eq!(batch.len(), 10);
        for (i, ev) in batch.iter().enumerate() {
            assert_eq!(ev.color(), Color::new(i as u16), "FIFO order");
        }
        assert!(inbox.is_empty());
        assert_eq!(inbox.total_pushes(), 10);
        assert!(inbox.drain().is_empty());
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let inbox = Arc::new(InjectionInbox::new());
        let producers = 4;
        let per = 5_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let inbox = Arc::clone(&inbox);
                std::thread::spawn(move || {
                    for i in 0..per {
                        inbox.push(Event::new(Color::new(p), i));
                    }
                })
            })
            .collect();
        // Consumer drains concurrently with the producers.
        let mut seen = vec![Vec::new(); producers as usize];
        let mut total = 0u64;
        while total < per * u64::from(producers) {
            for ev in inbox.drain() {
                seen[ev.color().value() as usize].push(ev.cost());
                total += 1;
            }
            std::hint::spin_loop();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(inbox.is_empty());
        // Every event arrived, in per-producer FIFO order.
        for per_producer in &seen {
            assert_eq!(per_producer.len(), per as usize);
            assert!(per_producer.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn nodes_are_recycled_across_push_drain_rounds() {
        let inbox = InjectionInbox::new();
        let mut buf = Vec::with_capacity(64);
        for round in 0..5u64 {
            for i in 0..32u16 {
                inbox.push(Event::new(Color::new(i), round));
            }
            assert_eq!(inbox.drain_into(&mut buf), 32);
            assert_eq!(buf.len(), 32);
            // FIFO within the round.
            for (i, ev) in buf.iter().enumerate() {
                assert_eq!(ev.color(), Color::new(i as u16));
            }
            buf.clear();
        }
        // Every push after the first round reused a pooled node.
        assert_eq!(inbox.total_pushes(), 160);
        assert_eq!(inbox.total_node_reuses(), 128);
    }

    #[test]
    fn node_pool_is_capacity_bounded() {
        let inbox = InjectionInbox::new();
        // Two big rounds: far more nodes than the pool may ever claim.
        for _ in 0..2 {
            for i in 0..(2 * NODE_POOL_CAP as u64) {
                inbox.push(Event::new(Color::DEFAULT, i));
            }
            let batch = inbox.drain();
            assert_eq!(batch.len(), 2 * NODE_POOL_CAP);
        }
        // Reuse happened, but never beyond the budget per round.
        let reuses = inbox.total_node_reuses();
        assert!(reuses >= NODE_POOL_CAP as u64, "pool was used: {reuses}");
        assert!(
            reuses <= NODE_POOL_CAP as u64,
            "pool exceeded its budget: {reuses}"
        );
        assert_eq!(inbox.pool_budget.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn recycled_nodes_never_leak_events_across_drains() {
        // A node must hand over exactly the event stored by its latest
        // push — a stale `event` would surface as a duplicate/wrong cost.
        let inbox = InjectionInbox::new();
        let mut expected = 0u64;
        for round in 0..50u64 {
            let n = 1 + (round % 7);
            for _ in 0..n {
                inbox.push(Event::new(Color::DEFAULT, expected));
                expected += 1;
            }
            let batch = inbox.drain();
            assert_eq!(batch.len() as u64, n);
            let base = expected - n;
            for (i, ev) in batch.iter().enumerate() {
                assert_eq!(ev.cost(), base + i as u64, "round {round}");
            }
        }
    }

    #[test]
    fn concurrent_producers_share_the_node_pool_safely() {
        // Producers pop the free list concurrently while the consumer
        // keeps refilling it — the ABA/UAF-sensitive interleaving.
        let inbox = Arc::new(InjectionInbox::new());
        let producers = 4u16;
        let per = 20_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let inbox = Arc::clone(&inbox);
                std::thread::spawn(move || {
                    for i in 0..per {
                        inbox.push(Event::new(Color::new(p), i));
                    }
                })
            })
            .collect();
        let mut seen = vec![0u64; producers as usize];
        let mut total = 0u64;
        let mut buf = Vec::new();
        while total < per * u64::from(producers) {
            inbox.drain_into(&mut buf);
            for ev in buf.drain(..) {
                let p = ev.color().value() as usize;
                assert_eq!(ev.cost(), seen[p], "per-producer FIFO with recycling");
                seen[p] += 1;
                total += 1;
            }
            std::hint::spin_loop();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(inbox.is_empty());
        assert!(inbox.total_node_reuses() > 0, "pool saw traffic");
    }

    #[test]
    fn dropping_a_nonempty_inbox_releases_events() {
        let marker = Arc::new(());
        {
            let inbox = InjectionInbox::new();
            for _ in 0..8 {
                let m = Arc::clone(&marker);
                inbox.push(Event::new(Color::DEFAULT, 0).with_action(move |_| {
                    let _ = &m;
                }));
            }
            assert_eq!(inbox.len(), 8);
        }
        // All queued actions (and their captures) were dropped.
        assert_eq!(Arc::strong_count(&marker), 1);
    }
}
