//! Memory and allocation observability: a counting [`GlobalAlloc`] wrapper,
//! per-thread allocation counters, and the [`MemSize`] deep-footprint trait.
//!
//! The paper frames vehicular clouds as pools of *resource-constrained*
//! nodes: CPU time is only half the budget, heap footprint is the other.
//! This module is the measurement substrate for that second axis:
//!
//! * [`CountingAlloc`] — a `#[global_allocator]` wrapper over
//!   [`std::alloc::System`] maintaining per-thread cumulative allocation
//!   counters. Binaries opt in with [`counting_allocator!`](crate::counting_allocator); the libraries
//!   never install it, so library consumers keep whatever allocator they
//!   chose.
//! * [`AllocScope`] — RAII delta capture over the current thread's
//!   counters, used by the steady-state zero-alloc assertions and by
//!   `vc_obs::profile` to report `allocs`/`bytes` per frame.
//! * [`MemSize`] — deterministic *deep heap bytes* for std containers and
//!   the workspace's big resident structures (`Fleet` slabs, the CSR
//!   neighbor table, recorder rings, metrics hub). Deep-bytes gauges are
//!   derived from capacities and lengths only — never from allocator
//!   state — so they are deterministic and feed the byte-compared
//!   time-series (`mem.fleet.bytes` and friends), which carries them
//!   whenever it is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Cumulative allocations performed by this thread.
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Cumulative bytes allocated by this thread.
    static T_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A counting wrapper over the system allocator. Install per binary with
/// [`counting_allocator!`](crate::counting_allocator); when not installed, every counter stays zero
/// and all reporting degrades to zeros.
///
/// The counting path is allocation-free and never reads the environment:
/// two thread-local `Cell`s, skipped without panicking during thread
/// teardown. Frees are not counted.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn on_alloc(size: u64) {
        // `try_with`: TLS may already be torn down while the runtime frees
        // thread state.
        let _ = T_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = T_BYTES.try_with(|c| c.set(c.get() + size));
    }
}

#[allow(unsafe_code)] // the one place the crate touches raw allocation
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_alloc(new_size as u64);
        }
        p
    }
}

/// Installs [`CountingAlloc`] as the binary's `#[global_allocator]`.
///
/// ```ignore
/// vc_obs::counting_allocator!();
/// ```
#[macro_export]
macro_rules! counting_allocator {
    () => {
        #[global_allocator]
        static VC_COUNTING_ALLOC: $crate::mem::CountingAlloc = $crate::mem::CountingAlloc;
    };
}

/// `(allocations, bytes)` performed by the *current thread* so far.
/// Monotone counters: subtract two readings for a scoped delta (that is
/// exactly what [`AllocScope`] does).
pub(crate) fn thread_counters() -> (u64, u64) {
    let allocs = T_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = T_BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

/// Registers the counting allocator as `vc_testkit::bench`'s allocation
/// probe, so bench suites report allocs/iter and alloc bytes/iter columns.
/// Call once from a bench binary's `main` (after [`counting_allocator!`](crate::counting_allocator)).
pub fn register_bench_probe() {
    vc_testkit::bench::set_alloc_probe(thread_counters);
}

/// The allocation delta observed by an [`AllocScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Allocations performed by this thread inside the scope.
    pub allocs: u64,
    /// Bytes allocated by this thread inside the scope.
    pub bytes: u64,
}

/// RAII capture of the current thread's allocation activity. Start one,
/// run the code under measurement, and call [`AllocScope::finish`]:
///
/// ```
/// let scope = vc_obs::mem::AllocScope::start();
/// let v: Vec<u8> = Vec::with_capacity(64);
/// drop(v);
/// let delta = scope.finish();
/// // Without the counting allocator installed the delta is zero; with it,
/// // the Vec above is visible.
/// assert!(delta.allocs == 0 || delta.bytes >= 64);
/// ```
#[derive(Debug)]
pub struct AllocScope {
    start_allocs: u64,
    start_bytes: u64,
}

impl AllocScope {
    /// Snapshots the current thread's counters.
    pub fn start() -> AllocScope {
        let (start_allocs, start_bytes) = thread_counters();
        AllocScope { start_allocs, start_bytes }
    }

    /// Returns the allocation activity since [`AllocScope::start`].
    pub fn finish(self) -> AllocDelta {
        let (allocs, bytes) = thread_counters();
        AllocDelta { allocs: allocs - self.start_allocs, bytes: bytes - self.start_bytes }
    }
}

/// Deterministic deep heap bytes: everything a value owns on the heap,
/// excluding `size_of::<Self>()` itself (the inline part is the owner's
/// problem). Derived purely from lengths and capacities, so two
/// structurally identical values report identical bytes regardless of
/// thread or allocator — which is what lets the `mem.*`
/// gauges ride in the byte-compared deterministic time-series.
///
/// Node-based containers (`BTreeMap`, `HashMap`) use documented
/// approximations of their allocation layout; the goal is a stable,
/// comparable footprint signal, not malloc-exact accounting.
pub trait MemSize {
    /// Deep heap bytes owned by `self`.
    fn mem_bytes(&self) -> u64;
}

macro_rules! inline_only {
    ($($t:ty),* $(,)?) => {
        $(impl MemSize for $t {
            fn mem_bytes(&self) -> u64 {
                0
            }
        })*
    };
}

inline_only!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char);

impl MemSize for String {
    fn mem_bytes(&self) -> u64 {
        self.capacity() as u64
    }
}

impl<T: MemSize> MemSize for Vec<T> {
    fn mem_bytes(&self) -> u64 {
        (self.capacity() * std::mem::size_of::<T>()) as u64
            + self.iter().map(MemSize::mem_bytes).sum::<u64>()
    }
}

impl<T: MemSize> MemSize for std::collections::VecDeque<T> {
    fn mem_bytes(&self) -> u64 {
        (self.capacity() * std::mem::size_of::<T>()) as u64
            + self.iter().map(MemSize::mem_bytes).sum::<u64>()
    }
}

impl<T: MemSize> MemSize for Option<T> {
    fn mem_bytes(&self) -> u64 {
        self.as_ref().map_or(0, MemSize::mem_bytes)
    }
}

impl<A: MemSize, B: MemSize> MemSize for (A, B) {
    fn mem_bytes(&self) -> u64 {
        self.0.mem_bytes() + self.1.mem_bytes()
    }
}

/// B-tree nodes hold up to 11 entries and average ~3/4 full; model the
/// slack plus one pointer of per-node overhead per entry.
const BTREE_SLACK_NUM: u64 = 4;
const BTREE_SLACK_DEN: u64 = 3;

impl<K: MemSize, V: MemSize> MemSize for std::collections::BTreeMap<K, V> {
    fn mem_bytes(&self) -> u64 {
        let entry = (std::mem::size_of::<K>() + std::mem::size_of::<V>() + 8) as u64;
        let nodes = self.len() as u64 * entry * BTREE_SLACK_NUM / BTREE_SLACK_DEN;
        nodes + self.iter().map(|(k, v)| k.mem_bytes() + v.mem_bytes()).sum::<u64>()
    }
}

impl<K: MemSize, V: MemSize, S> MemSize for std::collections::HashMap<K, V, S> {
    fn mem_bytes(&self) -> u64 {
        // SwissTable: one (K, V) slot plus one control byte per slot of
        // capacity. Iteration order is random but the sum is not.
        let table = self.capacity() as u64 * (std::mem::size_of::<(K, V)>() as u64 + 1);
        table + self.iter().map(|(k, v)| k.mem_bytes() + v.mem_bytes()).sum::<u64>()
    }
}

impl<T: MemSize, S> MemSize for std::collections::HashSet<T, S> {
    fn mem_bytes(&self) -> u64 {
        let table = self.capacity() as u64 * (std::mem::size_of::<T>() as u64 + 1);
        table + self.iter().map(MemSize::mem_bytes).sum::<u64>()
    }
}

impl MemSize for vc_sim::mobility::Fleet {
    fn mem_bytes(&self) -> u64 {
        self.heap_bytes()
    }
}

impl MemSize for vc_sim::roadnet::RoadNetwork {
    fn mem_bytes(&self) -> u64 {
        self.heap_bytes()
    }
}

impl MemSize for vc_sim::radio::NeighborTable {
    fn mem_bytes(&self) -> u64 {
        self.heap_bytes()
    }
}

impl MemSize for vc_sim::geom::SpatialGrid {
    fn mem_bytes(&self) -> u64 {
        self.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_counts_capacity_not_len() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(v.mem_bytes(), 16 * 8);
    }

    #[test]
    fn nested_containers_recurse() {
        let v: Vec<Vec<u32>> = vec![Vec::with_capacity(4), Vec::with_capacity(2)];
        let inline = v.capacity() * std::mem::size_of::<Vec<u32>>();
        assert_eq!(v.mem_bytes(), (inline + 4 * 4 + 2 * 4) as u64);
    }

    #[test]
    fn string_and_scalars() {
        assert_eq!(5u64.mem_bytes(), 0);
        let s = String::with_capacity(32);
        assert_eq!(s.mem_bytes(), 32);
    }

    #[test]
    fn identical_structures_report_identical_bytes() {
        let build = || {
            let mut m = std::collections::HashMap::new();
            for i in 0..100u64 {
                m.insert(i, vec![0u8; 10]);
            }
            m
        };
        assert_eq!(build().mem_bytes(), build().mem_bytes());
    }

    #[test]
    fn alloc_scope_is_monotone_and_zero_without_allocator() {
        // The obs test binary does not install the counting allocator, so
        // deltas are zero — which is itself the contract under test: the
        // reporting layer degrades to zeros, never garbage.
        let scope = AllocScope::start();
        let v: Vec<u8> = Vec::with_capacity(1024);
        drop(v);
        let delta = scope.finish();
        assert_eq!(delta, AllocDelta { allocs: 0, bytes: 0 });
    }
}
