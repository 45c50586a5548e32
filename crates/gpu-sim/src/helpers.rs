//! Launch helpers: host threads that outlive a launch.
//!
//! A launch hands its work-groups to the calling thread and to helpers
//! through an atomic counter. Spawning a thread for each launch cost
//! 130–170 µs on a shared 2-vCPU host, as much as a few thousand metered
//! work-items, so small launches ran on the calling thread alone. A device
//! now spawns its helpers once, when a launch first wants them, and keeps
//! them: between launches each spins for up to [`SPIN`], so the kernels of
//! one region, launched back to back, find it awake, then parks, so that an
//! idle device burns no CPU. The next launch unparks it. The helpers are
//! joined when the device is dropped.
//!
//! A launch's work borrows its kernel and the device's buffers. The helpers
//! outlive it, so they receive it lifetime-erased, and [`Helpers::run`]
//! does not return — not even by unwinding — before every helper it asked
//! for has finished with it.

use crate::kernel::GroupState;
use crate::memory::audit::LaunchLog;
use crate::stats::LaunchStats;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long an idle helper spins before it parks: a region's launches
/// follow one another within a few microseconds, its next region after
/// the host has packed it.
const SPIN: Duration = Duration::from_micros(50);

/// One worker's share of a launch: its stats and, in debug builds, its
/// accesses for the launch audit.
pub(crate) type Outcome = (LaunchStats, LaunchLog);

/// A launch's work as each worker runs it, on that worker's own state.
pub(crate) type Work<'a> = dyn Fn(&mut GroupState) -> Outcome + Sync + 'a;

/// What the helpers read when a launch starts.
struct Slot {
    /// Counts launches; a helper runs each one it is wanted for once.
    epoch: u64,
    /// Helpers `[0, wanted)` take part in the running launch.
    wanted: usize,
    /// The running launch's work, its lifetime erased: it is valid until
    /// every wanted helper has counted itself done.
    work: Option<*const Work<'static>>,
    shutdown: bool,
}

// SAFETY: the work pointer is only dereferenced by a wanted helper while
// the launch that published it waits for that helper (see `Helpers::run`),
// and the work is `Sync`.
unsafe impl Send for Slot {}

struct Shared {
    slot: Mutex<Slot>,
    /// `slot.epoch`, for helpers to spin on without the lock.
    epoch: AtomicU64,
    /// Wanted helpers finished with the running launch.
    done: AtomicUsize,
}

struct Helper {
    thread: Thread,
    handle: JoinHandle<()>,
    outcome: Arc<Mutex<Option<thread::Result<Outcome>>>>,
}

/// A device's helper threads (none until a launch wants one).
pub(crate) struct Helpers {
    shared: Arc<Shared>,
    helpers: Vec<Helper>,
}

impl Default for Helpers {
    fn default() -> Self {
        let slot = Slot {
            epoch: 0,
            wanted: 0,
            work: None,
            shutdown: false,
        };
        Helpers {
            shared: Arc::new(Shared {
                slot: Mutex::new(slot),
                epoch: AtomicU64::new(0),
                done: AtomicUsize::new(0),
            }),
            helpers: Vec::new(),
        }
    }
}

/// `m` locked; a panic on another thread cannot leave these mutexes'
/// contents half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Helpers {
    /// Run `work` on the calling thread, on `caller`'s state, and on `n`
    /// helpers, spawned first if the device has fewer. Returns every
    /// worker's outcome, the caller's first; a panic in any worker resumes
    /// here once they are all done.
    pub(crate) fn run(
        &mut self,
        n: usize,
        caller: &mut GroupState,
        work: &Work<'_>,
    ) -> Vec<Outcome> {
        if n == 0 {
            return vec![work(caller)];
        }
        while self.helpers.len() < n {
            self.spawn();
        }
        // SAFETY: only the lifetime changes. No helper dereferences the
        // pointer after it counts itself done, and this function waits for
        // all `n` of them below before it returns or unwinds.
        let erased = unsafe { std::mem::transmute::<*const Work<'_>, *const Work<'static>>(work) };
        {
            let mut slot = lock(&self.shared.slot);
            slot.epoch += 1;
            slot.wanted = n;
            slot.work = Some(erased);
            self.shared.done.store(0, Ordering::Relaxed);
            self.shared.epoch.store(slot.epoch, Ordering::Release);
        }
        for h in &self.helpers[..n] {
            h.thread.unpark();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| work(caller)));
        let mut spins = 0u32;
        while self.shared.done.load(Ordering::Acquire) < n {
            spins += 1;
            if spins < 1 << 12 {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        {
            let mut slot = lock(&self.shared.slot);
            slot.wanted = 0;
            slot.work = None;
        }
        let mut outcomes = vec![mine];
        for h in &self.helpers[..n] {
            outcomes.push(
                lock(&h.outcome)
                    .take()
                    .expect("a finished helper's outcome"),
            );
        }
        let mut out = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            out.push(o.unwrap_or_else(|p| resume_unwind(p)));
        }
        out
    }

    /// Start one more helper.
    fn spawn(&mut self) {
        let index = self.helpers.len();
        let shared = Arc::clone(&self.shared);
        let outcome = Arc::new(Mutex::new(None));
        let theirs = Arc::clone(&outcome);
        let handle = thread::Builder::new()
            .name(format!("gpusim-helper-{index}"))
            .spawn(move || help(index, &shared, &theirs))
            .expect("spawn a launch helper");
        self.helpers.push(Helper {
            thread: handle.thread().clone(),
            handle,
            outcome,
        });
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            slot.epoch += 1;
            self.shared.epoch.store(slot.epoch, Ordering::Release);
        }
        for h in self.helpers.drain(..) {
            h.thread.unpark();
            // A helper catches its work's panics, so it only ends here.
            let _ = h.handle.join();
        }
    }
}

/// Helper `index`'s loop: wait for a launch, run it if wanted, repeat.
fn help(index: usize, shared: &Shared, outcome: &Mutex<Option<thread::Result<Outcome>>>) {
    let mut state = GroupState::default();
    let mut seen = 0u64;
    loop {
        let since = Instant::now();
        let mut polls = 0u32;
        while shared.epoch.load(Ordering::Acquire) == seen {
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(64) && since.elapsed() >= SPIN {
                thread::park();
            } else {
                std::hint::spin_loop();
            }
        }
        let (epoch, wanted, work, shutdown) = {
            let slot = lock(&shared.slot);
            (slot.epoch, slot.wanted, slot.work, slot.shutdown)
        };
        if shutdown {
            return;
        }
        seen = epoch;
        let Some(work) = work.filter(|_| index < wanted) else {
            continue;
        };
        // SAFETY: this launch is running — its work is published and this
        // helper is wanted — and it waits for this helper's count below.
        let work = unsafe { &*work };
        let out = catch_unwind(AssertUnwindSafe(|| work(&mut state)));
        if out.is_err() {
            state = GroupState::default();
        }
        *lock(outcome) = Some(out);
        shared.done.fetch_add(1, Ordering::Release);
    }
}
