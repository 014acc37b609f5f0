//! Cycle-accounted hardware resources: unit pools, per-cycle bandwidth and
//! occupancy windows.
//!
//! The out-of-order model is *one-pass*: micro-ops are processed in program
//! order and every pipeline event time is computed immediately from resource
//! constraints. Four resource shapes cover the whole core:
//!
//! * [`SlotPool`] — up to eight interchangeable units, each busy for some
//!   occupancy (dispatch and issue ports, ALUs, memory ports, write buffer).
//!   Requests may arrive in any cycle order.
//! * [`Bandwidth`] — `width` one-cycle slots per cycle, requested in
//!   non-decreasing cycle order (fetch and commit). A `(cycle, used)`
//!   counter grants exactly the starts a one-cycle [`SlotPool`] would.
//! * [`FifoOccupancy`] — a bounded buffer whose entries release in order
//!   (ROB, LQ, SQ, physical registers).
//! * [`UnorderedOccupancy`] — a bounded buffer whose entries release out of
//!   order (the issue queue), kept as a sorted ring.
//!
//! Both occupancy windows keep their release cycles in one power-of-two
//! ring. The tests below drive each shape and a plain reference model with
//! the same random requests and require the same answers.

/// The most units a [`SlotPool`] holds. The widest configured core is
/// 8-wide with eight integer ALUs and an 8-entry write buffer.
const MAX_UNITS: usize = 8;

/// A pool of up to eight identical units, each usable by one operation at a
/// time.
#[derive(Debug, Clone)]
pub struct SlotPool {
    /// Busy-until cycle of each unit; only the first `n` entries are units.
    free_at: [u64; MAX_UNITS],
    n: usize,
}

impl SlotPool {
    /// Creates a pool of `n` units, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or more than 8.
    pub fn new(n: usize) -> SlotPool {
        assert!(n > 0, "a slot pool needs at least one unit");
        assert!(n <= MAX_UNITS, "a slot pool holds at most {MAX_UNITS} units, not {n}");
        SlotPool { free_at: [0; MAX_UNITS], n }
    }

    /// Acquires the earliest-available unit (the lowest index among ties)
    /// no earlier than `earliest`, holding it for `occupancy` cycles.
    /// Returns `(unit_index, start)`.
    #[inline]
    pub fn take(&mut self, earliest: u64, occupancy: u64) -> (usize, u64) {
        let units = &self.free_at[..self.n];
        let (mut best, mut min) = (0, units[0]);
        for (i, &free_at) in units.iter().enumerate().skip(1) {
            if free_at < min {
                (best, min) = (i, free_at);
            }
        }
        let start = earliest.max(min);
        self.free_at[best] = start + occupancy;
        (best, start)
    }

    /// Overrides the busy-until time of one unit — used when the occupancy
    /// is not known until after acquisition (e.g. a write-buffer entry held
    /// until its store's cache write completes).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn set_busy(&mut self, unit: usize, until: u64) {
        let free_at = &mut self.free_at[..self.n][unit];
        *free_at = (*free_at).max(until);
    }
}

/// `width` one-cycle slots per cycle, granted to requests that arrive in
/// non-decreasing cycle order (the core's fetch and commit bandwidth).
///
/// Under that order a `width`-unit [`SlotPool`] taken for one cycle at a
/// time grants either the request's own cycle or the cycle of its latest
/// grant (the one after it once `width` grants fill it), so counting the
/// slots `used` in the latest granted `cycle` gives exactly the pool's
/// starts in O(1).
#[derive(Debug, Clone)]
pub(crate) struct Bandwidth {
    width: usize,
    cycle: u64,
    used: usize,
    /// The latest request, to refuse one that goes back in time.
    last: u64,
}

impl Bandwidth {
    /// `width` slots per cycle, all free from cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub(crate) fn new(width: usize) -> Bandwidth {
        assert!(width > 0, "bandwidth needs at least one slot per cycle");
        Bandwidth { width, cycle: 0, used: 0, last: 0 }
    }

    /// Grants the first free slot at or after `earliest`.
    ///
    /// # Panics
    ///
    /// Panics if `earliest` is before an earlier request: the counter then
    /// no longer matches the pool.
    #[inline]
    pub(crate) fn take(&mut self, earliest: u64) -> u64 {
        assert!(
            earliest >= self.last,
            "bandwidth request at cycle {earliest} after one at {}",
            self.last
        );
        self.last = earliest;
        if earliest > self.cycle {
            self.cycle = earliest;
            self.used = 0;
        } else if self.used == self.width {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// A power-of-two ring of release cycles: the storage of both occupancy
/// windows. It is indexed by mask rather than a `VecDeque`: every micro-op
/// touches several windows, and the hand-rolled ring keeps front, push and
/// pop free of capacity bookkeeping on the hot path.
#[derive(Debug, Clone)]
struct Ring {
    /// `buf.len()` is a power of two and `mask` its minus-one.
    buf: Vec<u64>,
    mask: usize,
    head: usize,
    len: usize,
}

impl Ring {
    /// An empty ring with room for at least `n` entries before it grows.
    fn new(n: usize) -> Ring {
        let n = n.next_power_of_two();
        Ring { buf: vec![0; n], mask: n - 1, head: 0, len: 0 }
    }

    /// The `i`-th entry from the front.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        self.buf[(self.head + i) & self.mask]
    }

    #[inline]
    fn pop_front(&mut self) -> u64 {
        debug_assert!(self.len > 0);
        let v = self.buf[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        v
    }

    /// Drops the entries at the front that release at or before `t`.
    #[inline]
    fn drain_through(&mut self, t: u64) {
        while self.len > 0 && self.buf[self.head] <= t {
            self.head = (self.head + 1) & self.mask;
            self.len -= 1;
        }
    }

    #[inline]
    fn push_back(&mut self, v: u64) {
        if self.len == self.buf.len() {
            self.grow();
        }
        self.buf[(self.head + self.len) & self.mask] = v;
        self.len += 1;
    }

    /// Inserts `v` behind every entry not after it, so a sorted ring stays
    /// sorted. The walk starts at the back, where nearly every release
    /// lands.
    #[inline]
    fn insert_sorted(&mut self, v: u64) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let mut i = self.len;
        while i > 0 {
            let prev = self.get(i - 1);
            if prev <= v {
                break;
            }
            self.buf[(self.head + i) & self.mask] = prev;
            i -= 1;
        }
        self.buf[(self.head + i) & self.mask] = v;
        self.len += 1;
    }

    /// Doubles the ring, re-linearizing entries from `head`.
    #[cold]
    fn grow(&mut self) {
        let n = self.buf.len() * 2;
        let mut buf = vec![0; n];
        for (i, slot) in buf.iter_mut().take(self.len).enumerate() {
            *slot = self.get(i);
        }
        self.buf = buf;
        self.mask = n - 1;
        self.head = 0;
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// A bounded FIFO whose entries release in order (ROB, LQ, SQ, free lists).
///
/// `acquire` returns the earliest cycle at which a slot is available given
/// the desired start; the caller later records the release time with `push`.
#[derive(Debug, Clone)]
pub struct FifoOccupancy {
    cap: usize,
    ring: Ring,
}

impl FifoOccupancy {
    /// Creates an empty window with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> FifoOccupancy {
        assert!(cap > 0, "occupancy window needs at least one entry");
        // One slack slot so the common over-capacity transient (uops of one
        // macro-op pushed before the next acquire) rarely grows the ring.
        FifoOccupancy { cap, ring: Ring::new(cap + 1) }
    }

    /// Returns the earliest cycle ≥ `earliest` at which an entry is free,
    /// draining entries that have released by then.
    pub fn acquire(&mut self, earliest: u64) -> u64 {
        let mut t = earliest;
        self.ring.drain_through(t);
        // If still full, wait for the oldest entry (in-order release).
        while self.ring.len >= self.cap {
            t = t.max(self.ring.pop_front());
        }
        t
    }

    /// Records that the entry acquired for this operation releases at
    /// `release_cycle`.
    ///
    /// The window may transiently hold more recorded entries than its
    /// capacity when several acquisitions are in flight before their
    /// releases are recorded (e.g. the micro-ops of one macro-op);
    /// [`acquire`](Self::acquire) drains the excess by waiting on the
    /// oldest entries.
    pub fn push(&mut self, release_cycle: u64) {
        self.ring.push_back(release_cycle);
    }

    /// Current number of unreleased entries recorded.
    pub fn len(&self) -> usize {
        self.ring.len
    }

    /// Whether the window has no recorded entries.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Clears the window.
    ///
    /// Also the event-driven fast path for a quiescent window: when every
    /// recorded release is at or before the acquisition cycle, draining and
    /// clearing are the same state transition, and clearing is O(1).
    pub fn reset(&mut self) {
        self.ring.clear();
    }
}

/// A bounded buffer whose entries release out of order (the issue queue:
/// micro-ops leave when they issue, not in age order).
///
/// Releases live in a ring sorted from earliest to latest. A full buffer
/// waits for its `len − cap + 1` earliest releases, and an acquisition then
/// drops every release at or before its start, all from the front. A push
/// insertion-sorts from the back, where nearly every release lands.
#[derive(Debug, Clone)]
pub struct UnorderedOccupancy {
    cap: usize,
    ring: Ring,
}

impl UnorderedOccupancy {
    /// Creates an empty buffer with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> UnorderedOccupancy {
        assert!(cap > 0, "occupancy buffer needs at least one entry");
        // No slack: the core records each release right after its acquire,
        // so the buffer holds at most `cap`.
        UnorderedOccupancy { cap, ring: Ring::new(cap) }
    }

    /// Returns the earliest cycle ≥ `earliest` at which an entry is free,
    /// removing the entries that release first if the buffer is full.
    pub fn acquire(&mut self, earliest: u64) -> u64 {
        let mut t = earliest;
        if self.ring.len >= self.cap {
            t = t.max(self.ring.get(self.ring.len - self.cap));
        }
        self.ring.drain_through(t);
        t
    }

    /// Records the release time of the acquired entry (see
    /// [`FifoOccupancy::push`] on transient over-capacity).
    pub fn push(&mut self, release_cycle: u64) {
        self.ring.insert_sorted(release_cycle);
    }

    /// Clears the buffer (see [`FifoOccupancy::reset`] on the quiescent
    /// fast path).
    pub fn reset(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 from `seed`: the deterministic request streams of the
    /// reference-model tests.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut z = seed;
        move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
    }

    /// The releases a ring holds, front to back.
    fn recorded(ring: &Ring) -> Vec<u64> {
        (0..ring.len).map(|i| ring.get(i)).collect()
    }

    #[test]
    fn slot_pool_width_limits_throughput() {
        let mut p = SlotPool::new(3);
        // Six ops all wanting cycle 10 with occupancy 1: three at 10, three
        // at 11.
        let starts: Vec<u64> = (0..6).map(|_| p.take(10, 1).1).collect();
        assert_eq!(starts, vec![10, 10, 10, 11, 11, 11]);
    }

    #[test]
    fn slot_pool_unpipelined_occupancy() {
        let mut p = SlotPool::new(1);
        let (_, a) = p.take(0, 12); // divider busy 12 cycles
        let (_, b) = p.take(1, 12);
        assert_eq!(a, 0);
        assert_eq!(b, 12);
    }

    #[test]
    fn slot_pool_returns_unit_index() {
        let mut p = SlotPool::new(2);
        let (u0, _) = p.take(0, 100);
        let (u1, _) = p.take(0, 100);
        assert_ne!(u0, u1);
    }

    #[test]
    #[should_panic(expected = "at most 8 units, not 9")]
    fn slot_pool_refuses_more_than_eight_units() {
        SlotPool::new(9);
    }

    /// The reference model for `SlotPool`: the original scan over a `Vec`
    /// of units, re-reading the best unit's busy-until on every compare.
    struct RefPool {
        free_at: Vec<u64>,
    }

    impl RefPool {
        fn take(&mut self, earliest: u64, occupancy: u64) -> (usize, u64) {
            let mut best = 0;
            for i in 1..self.free_at.len() {
                if self.free_at[i] < self.free_at[best] {
                    best = i;
                }
            }
            let start = earliest.max(self.free_at[best]);
            self.free_at[best] = start + occupancy;
            (best, start)
        }

        fn set_busy(&mut self, unit: usize, until: u64) {
            self.free_at[unit] = self.free_at[unit].max(until);
        }
    }

    #[test]
    fn inline_pool_matches_reference_vec_scan() {
        // The unit index matters as much as the start: stuck-at ALU faults
        // strike by unit, and the write buffer holds its unit with
        // `set_busy`.
        let mut rng = splitmix(0x5107_b001_2345_6789);
        for n in 1..=MAX_UNITS {
            let mut pool = SlotPool::new(n);
            let mut reference = RefPool { free_at: vec![0; n] };
            let mut t = 0u64;
            for _ in 0..3000 {
                let r = rng();
                // Requests wander back and forth, as dispatch and issue
                // requests do; occupancies span pipelined and unpipelined
                // units and the write buffer's zero.
                t = (t + r % 7).saturating_sub((r >> 8) % 4 * 2);
                let occupancy = [0, 1, 1, 1, 3, 12][(r >> 16) as usize % 6];
                let got = pool.take(t, occupancy);
                assert_eq!(got, reference.take(t, occupancy), "take({t}, {occupancy}) at {n}");
                if (r >> 24).is_multiple_of(4) {
                    let unit = (r >> 32) as usize % n;
                    let until = got.1 + (r >> 40) % 40;
                    pool.set_busy(unit, until);
                    reference.set_busy(unit, until);
                }
            }
        }
    }

    #[test]
    fn bandwidth_matches_a_one_cycle_pool() {
        let mut rng = splitmix(0xba2d_5eed_0000_0001);
        for width in 1..=MAX_UNITS {
            let mut counter = Bandwidth::new(width);
            let mut pool = SlotPool::new(width);
            let mut t = 0u64;
            for _ in 0..4000 {
                let r = rng();
                // Non-decreasing requests: repeats and small steps, which
                // pile up behind full cycles, and jumps past every grant.
                t += match r % 8 {
                    0..=3 => 0,
                    4..=6 => (r >> 8) % 3,
                    _ => (r >> 8) % 50,
                };
                assert_eq!(counter.take(t), pool.take(t, 1).1, "take({t}) at width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth request at cycle 4 after one at 5")]
    fn bandwidth_refuses_a_request_back_in_time() {
        let mut b = Bandwidth::new(2);
        b.take(5);
        b.take(4);
    }

    #[test]
    fn fifo_occupancy_blocks_when_full() {
        let mut f = FifoOccupancy::new(2);
        let t = f.acquire(0);
        f.push(10);
        assert_eq!(t, 0);
        let t = f.acquire(1);
        f.push(20);
        assert_eq!(t, 1);
        // Full: the third acquire waits for the first release (cycle 10).
        let t = f.acquire(2);
        assert_eq!(t, 10);
        f.push(30);
    }

    #[test]
    fn fifo_occupancy_drains_released() {
        let mut f = FifoOccupancy::new(2);
        f.acquire(0);
        f.push(5);
        f.acquire(0);
        f.push(6);
        // At cycle 100 both have released; no waiting.
        assert_eq!(f.acquire(100), 100);
        assert!(f.is_empty());
    }

    #[test]
    fn unordered_occupancy_releases_min_first() {
        let mut u = UnorderedOccupancy::new(2);
        u.acquire(0);
        u.push(50); // op issuing late
        u.acquire(0);
        u.push(5); // op issuing early

        // Full at cycle 1: earliest release is 5, not 50.
        let t = u.acquire(1);
        assert_eq!(t, 5);
        u.push(7);
    }

    #[test]
    fn fifo_tolerates_transient_over_capacity() {
        let mut f = FifoOccupancy::new(1);
        f.push(10);
        f.push(20); // second in-flight entry before any acquire

        // Next acquire must wait for both recorded releases.
        assert_eq!(f.acquire(0), 20);
    }

    /// The reference model for `FifoOccupancy`: the original `VecDeque`
    /// implementation. The ring must agree on every acquisition, including
    /// through over-capacity transients that force it to grow.
    struct RefFifo {
        cap: usize,
        release: std::collections::VecDeque<u64>,
    }

    impl RefFifo {
        fn acquire(&mut self, earliest: u64) -> u64 {
            let mut t = earliest;
            while let Some(&front) = self.release.front() {
                if front <= t {
                    self.release.pop_front();
                } else {
                    break;
                }
            }
            while self.release.len() >= self.cap {
                let front = self.release.pop_front().expect("non-empty");
                t = t.max(front);
            }
            t
        }
    }

    #[test]
    fn ring_matches_reference_deque() {
        let mut rng = splitmix(0xfeed_face_cafe_beef);
        for cap in [1usize, 2, 3, 7, 8, 60, 192] {
            let mut ring = FifoOccupancy::new(cap);
            let mut reference = RefFifo { cap, release: std::collections::VecDeque::new() };
            let mut t = 0u64;
            for step in 0..3000 {
                let r = rng();
                // Bursts of pushes without intervening acquires exercise the
                // transient over-capacity path (and ring growth).
                let burst = 1 + (r % 4) as usize * (step % 13 == 0) as usize * cap;
                t += r % 9;
                let a = ring.acquire(t);
                let b = reference.acquire(t);
                assert_eq!(a, b, "acquire({t}) diverged at cap {cap}");
                assert_eq!(ring.len(), reference.release.len());
                for j in 0..burst {
                    let release = a + 1 + (r >> 16) % 50 + j as u64;
                    ring.push(release);
                    reference.release.push_back(release);
                }
                assert!(recorded(&ring.ring).into_iter().eq(reference.release.iter().copied()));
            }
        }
    }

    /// The reference model for `UnorderedOccupancy`: the original
    /// scan-and-compact implementation, bit-for-bit the pre-event-skip
    /// semantics. The sorted ring must agree on every acquisition and hold
    /// the same releases after it.
    struct RefUnordered {
        cap: usize,
        release: Vec<u64>,
    }

    impl RefUnordered {
        fn acquire(&mut self, earliest: u64) -> u64 {
            let mut t = earliest;
            self.release.retain(|&r| r > t);
            while self.release.len() >= self.cap {
                let (idx, &min) =
                    self.release.iter().enumerate().min_by_key(|(_, &r)| r).expect("non-empty");
                t = t.max(min);
                self.release.swap_remove(idx);
                self.release.retain(|&r| r > t);
            }
            t
        }
    }

    #[test]
    fn sorted_ring_matches_reference_scan() {
        // Deterministic pseudo-random op streams over several geometries.
        let mut rng = splitmix(0x1234_5678_9abc_def0);
        for cap in [1usize, 2, 3, 8, 32, 120] {
            let mut sorted = UnorderedOccupancy::new(cap);
            let mut reference = RefUnordered { cap, release: Vec::new() };
            let mut t = 0u64;
            for step in 0..3000 {
                let r = rng();
                // Mostly-monotone acquire times with occasional jumps back,
                // as the core's per-uop dispatch stream produces.
                t = (t + r % 7).saturating_sub((r >> 8) % 5 % 2 * 3);
                let a = sorted.acquire(t);
                let b = reference.acquire(t);
                assert_eq!(a, b, "acquire({t}) diverged at cap {cap}");
                // Bursts of pushes without intervening acquires exercise the
                // transient over-capacity path and ring growth; releases
                // land out of order, some ahead of the ring's back.
                let burst = 1 + (r % 4) as usize * (step % 13 == 0) as usize * cap;
                for _ in 0..burst {
                    let release = a + 1 + rng() % 40;
                    sorted.push(release);
                    reference.release.push(release);
                }
                let mut expected = reference.release.clone();
                expected.sort_unstable();
                assert_eq!(recorded(&sorted.ring), expected, "releases diverged at cap {cap}");
            }
        }
    }
}
