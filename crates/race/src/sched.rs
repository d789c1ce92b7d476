//! The deterministic virtual scheduler and the instrumented atomic cell.
//!
//! A *checked execution* runs the model's threads as real OS threads, but
//! only one is ever runnable: every instrumented operation (a [`VCell`]
//! access, a [`spin_wait`]) is a *yield point*
//! where the thread surrenders control and blocks until the controller
//! grants it the next step. The sequence of thread indices the controller
//! picks — the **schedule** — therefore fully determines the execution,
//! which is what makes exploration exhaustive and witnesses replayable.
//!
//! Interleaving model: sequential consistency. Every `VCell` access is a
//! single global step; `Ordering` arguments are accepted (the production
//! code passes them) but do not weaken the exploration — see DESIGN §14
//! for why SC is the right model for the protocols checked here.
//!
//! Spin loops are the one place exhaustive exploration would diverge: a
//! polling thread can be scheduled forever. The scheduler instead *parks*
//! a thread whose poll failed ([`spin_wait`]) until some other thread
//! performs a store. Because a failed poll can only start succeeding
//! after the shared state changes, and shared state only changes through
//! stores, skipping the fruitless re-polls is a sound stutter reduction —
//! and "every thread parked" becomes a positive deadlock/lost-wakeup
//! detection.

use elmo_core::sync::AtomicCell;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What a thread is asking to do at a yield point (recorded for traces).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Thread reached its entry point.
    Start,
    /// Atomic load of a location.
    Load,
    /// Atomic store to a location.
    Store,
    /// Atomic read-modify-write of a location.
    Rmw,
    /// Re-poll after a failed try (the thread was parked or yielded).
    Spin,
}

/// One recorded step of an execution: which thread did what.
#[derive(Clone, Debug)]
pub struct Step {
    pub thread: usize,
    pub kind: OpKind,
    /// Location index for cell ops (`usize::MAX` for Start/Spin).
    pub loc: usize,
    /// Value loaded / stored / resulting from the rmw.
    pub value: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Currently granted (or still starting up / winding down).
    Running,
    /// At a yield point, ready to be granted.
    Waiting(OpKind),
    /// Poll failed at `store_epoch == epoch`; runnable again after any
    /// store (`store_epoch > epoch`).
    Parked { epoch: u64 },
    /// Body returned.
    Done,
}

struct SchedState {
    status: Vec<Status>,
    /// Thread currently allowed past its yield point, if any.
    granted: Option<usize>,
    /// Bumped on every Store/Rmw; parked threads wake when it advances.
    store_epoch: u64,
    /// Execution trace (one entry per granted yield point).
    trace: Vec<Step>,
    /// Next location index to hand out.
    next_loc: usize,
    /// Human labels for locations (index = loc).
    loc_names: Vec<Option<&'static str>>,
    /// When set, gating is off: every yield point passes straight
    /// through and `spin_wait` returns `false` so threads unwind.
    abort: bool,
}

/// The controller's view of one settled decision point.
pub(crate) struct Decision {
    /// Thread indices that could be granted next, ascending.
    pub candidates: Vec<usize>,
    /// `true` when every thread is Done (no decision to make).
    pub all_done: bool,
}

/// Shared scheduler for one family of executions (one per execution).
pub struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    pub(crate) fn new(threads: usize) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                status: vec![Status::Running; threads],
                granted: None,
                store_epoch: 0,
                trace: Vec::new(),
                next_loc: 0,
                loc_names: Vec::new(),
                abort: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Declare the execution's thread count (after setup, before spawn).
    pub(crate) fn register_threads(&self, n: usize) {
        let mut st = self.lock();
        st.status = vec![Status::Running; n];
    }

    /// Allocate a fresh location index (cells are created on the
    /// controller thread during setup, so this is deterministic).
    fn alloc_loc(&self) -> usize {
        let mut st = self.lock();
        let loc = st.next_loc;
        st.next_loc += 1;
        st.loc_names.push(None);
        loc
    }

    /// Attach a human label to a location for witness rendering.
    pub fn label_loc(&self, loc: usize, name: &'static str) {
        let mut st = self.lock();
        if loc < st.loc_names.len() {
            st.loc_names[loc] = Some(name);
        }
    }

    /// Block `tid` at a yield point until granted; returns whether the
    /// execution is still live (`false` = abort mode, caller must not
    /// block again but may finish its work free-running).
    fn yield_point(&self, tid: usize, kind: OpKind, loc: usize) -> bool {
        let mut st = self.lock();
        if st.abort {
            return false;
        }
        st.status[tid] = Status::Waiting(kind);
        if st.granted == Some(tid) {
            st.granted = None;
        }
        self.cv.notify_all();
        loop {
            if st.abort {
                return false;
            }
            if st.granted == Some(tid) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.status[tid] = Status::Running;
        if matches!(kind, OpKind::Store | OpKind::Rmw) {
            st.store_epoch += 1;
        }
        st.trace.push(Step {
            thread: tid,
            kind,
            loc,
            value: 0,
        });
        true
    }

    /// Patch the value recorded for the step just granted to `tid`
    /// (the actual atomic op runs after the yield point returns).
    fn record_value(&self, value: usize) {
        let mut st = self.lock();
        if let Some(step) = st.trace.last_mut() {
            step.value = value;
        }
    }

    fn thread_start(&self, tid: usize) -> bool {
        self.yield_point(tid, OpKind::Start, usize::MAX)
    }

    fn thread_done(&self, tid: usize) {
        let mut st = self.lock();
        st.status[tid] = Status::Done;
        if st.granted == Some(tid) {
            st.granted = None;
        }
        self.cv.notify_all();
    }

    /// Current store epoch, for [`spin_wait`]'s pre-poll snapshot.
    fn spin_epoch(&self) -> u64 {
        self.lock().store_epoch
    }

    /// Park after a failed poll that observed epoch `seen`. Returns
    /// `false` in abort mode — the caller must unwind its loop.
    fn spin_wait(&self, tid: usize, seen: u64) -> bool {
        let mut st = self.lock();
        if st.abort {
            return false;
        }
        if st.store_epoch > seen {
            // A store already landed since the poll; just yield normally
            // so the re-poll is a fresh choice point.
            drop(st);
            return self.yield_point(tid, OpKind::Spin, usize::MAX);
        }
        st.status[tid] = Status::Parked { epoch: seen };
        if st.granted == Some(tid) {
            st.granted = None;
        }
        self.cv.notify_all();
        loop {
            if st.abort {
                return false;
            }
            if st.granted == Some(tid) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.status[tid] = Status::Running;
        st.trace.push(Step {
            thread: tid,
            kind: OpKind::Spin,
            loc: usize::MAX,
            value: 0,
        });
        true
    }

    /// Wait until every thread is settled (Waiting/Parked/Done with no
    /// grant outstanding) and report the next decision.
    pub(crate) fn await_decision(&self) -> Decision {
        let mut st = self.lock();
        loop {
            let settled =
                st.granted.is_none() && st.status.iter().all(|s| !matches!(s, Status::Running));
            if settled {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let epoch = st.store_epoch;
        let candidates: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Status::Waiting(_) => Some(i),
                Status::Parked { epoch: e } if epoch > *e => Some(i),
                _ => None,
            })
            .collect();
        let all_done = st.status.iter().all(|s| matches!(s, Status::Done));
        Decision {
            candidates,
            all_done,
        }
    }

    /// Grant the next step to `tid`.
    pub(crate) fn grant(&self, tid: usize) {
        let mut st = self.lock();
        st.granted = Some(tid);
        self.cv.notify_all();
    }

    /// Enter abort mode: stop gating, wake everyone, let threads unwind.
    pub(crate) fn abort(&self) {
        let mut st = self.lock();
        st.abort = true;
        st.granted = None;
        self.cv.notify_all();
    }

    /// The executed trace so far.
    pub(crate) fn trace(&self) -> Vec<Step> {
        self.lock().trace.clone()
    }

    pub(crate) fn loc_name(&self, loc: usize) -> Option<&'static str> {
        self.lock().loc_names.get(loc).copied().flatten()
    }

    /// Render one step for witness output.
    pub(crate) fn render_step(&self, step: &Step) -> String {
        let loc = if step.loc == usize::MAX {
            String::new()
        } else if let Some(name) = self.loc_name(step.loc) {
            format!(" {name}")
        } else {
            format!(" loc{}", step.loc)
        };
        match step.kind {
            OpKind::Start => format!("t{} start", step.thread),
            OpKind::Load => format!("t{} load{loc} -> {}", step.thread, step.value),
            OpKind::Store => format!("t{} store{loc} = {}", step.thread, step.value),
            OpKind::Rmw => format!("t{} rmw{loc} -> {}", step.thread, step.value),
            OpKind::Spin => format!("t{} spin-resume", step.thread),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Scheduler>>> = const { RefCell::new(None) };
    static CURRENT_TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Install `sched` as the current execution on this thread. Returns a
/// guard restoring the previous binding on drop.
pub(crate) struct TlsGuard {
    prev: Option<Arc<Scheduler>>,
    prev_tid: Option<usize>,
}

pub(crate) fn bind(sched: &Arc<Scheduler>, tid: Option<usize>) -> TlsGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(sched)));
    let prev_tid = CURRENT_TID.with(|c| c.replace(tid));
    TlsGuard { prev, prev_tid }
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        CURRENT_TID.with(|c| c.set(self.prev_tid));
    }
}

fn current() -> Option<Arc<Scheduler>> {
    CURRENT.with(|c| c.borrow().clone())
}

fn current_tid() -> Option<usize> {
    CURRENT_TID.with(|c| c.get())
}

/// Store-epoch snapshot to take *before* a try-operation; pass it to
/// [`spin_wait`] if the try fails.
pub fn spin_epoch() -> u64 {
    current().map(|s| s.spin_epoch()).unwrap_or(0)
}

/// Park until any store lands after the epoch `seen` (snapshotted before
/// the failed try). Returns `false` when the execution is aborting — the
/// caller must break out of its retry loop.
pub fn spin_wait(seen: u64) -> bool {
    match (current(), current_tid()) {
        (Some(s), Some(tid)) => s.spin_wait(tid, seen),
        _ => true,
    }
}

/// Label the cell's location for witness rendering.
pub fn label_cell(cell: &VCell, name: &'static str) {
    if let Some(s) = current() {
        s.label_loc(cell.loc, name);
    }
}

/// The instrumented atomic backend: every access yields to the virtual
/// scheduler before executing, so the *real* protocol code from
/// `elmo_core` (the generic SPSC ring, the `Pending` counter) runs under
/// exhaustive interleaving exploration unchanged.
///
/// Outside a checked execution (or on the controller thread during model
/// setup) accesses pass straight through.
pub struct VCell {
    sched: Option<Arc<Scheduler>>,
    loc: usize,
    val: AtomicUsize,
}

impl AtomicCell for VCell {
    fn new(v: usize) -> Self {
        let sched = current();
        let loc = sched.as_ref().map(|s| s.alloc_loc()).unwrap_or(usize::MAX);
        VCell {
            sched,
            loc,
            val: AtomicUsize::new(v),
        }
    }

    fn load(&self, _order: Ordering) -> usize {
        if let (Some(s), Some(tid)) = (&self.sched, current_tid()) {
            s.yield_point(tid, OpKind::Load, self.loc);
            // ordering: SeqCst — the scheduler serializes all accesses
            // (one runnable thread); SeqCst keeps the backing value an
            // SC interleaving model regardless of the requested order.
            let v = self.val.load(Ordering::SeqCst);
            s.record_value(v);
            v
        } else {
            // ordering: SeqCst — uninstrumented access outside a checked
            // execution (setup / final check); strongest order, zero risk.
            self.val.load(Ordering::SeqCst)
        }
    }

    fn store(&self, v: usize, _order: Ordering) {
        if let (Some(s), Some(tid)) = (&self.sched, current_tid()) {
            s.yield_point(tid, OpKind::Store, self.loc);
            // ordering: SeqCst — see `load`; the scheduler is the real
            // synchronization, the backing atomic just holds the value.
            self.val.store(v, Ordering::SeqCst);
            s.record_value(v);
        } else {
            // ordering: SeqCst — uninstrumented access outside a checked
            // execution.
            self.val.store(v, Ordering::SeqCst);
        }
    }

    fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
        if let (Some(s), Some(tid)) = (&self.sched, current_tid()) {
            s.yield_point(tid, OpKind::Rmw, self.loc);
            // ordering: SeqCst — see `load`.
            let prev = self.val.fetch_add(v, Ordering::SeqCst);
            s.record_value(prev.wrapping_add(v));
            prev
        } else {
            // ordering: SeqCst — uninstrumented access outside a checked
            // execution.
            self.val.fetch_add(v, Ordering::SeqCst)
        }
    }

    fn fetch_sub(&self, v: usize, _order: Ordering) -> usize {
        if let (Some(s), Some(tid)) = (&self.sched, current_tid()) {
            s.yield_point(tid, OpKind::Rmw, self.loc);
            // ordering: SeqCst — see `load`.
            let prev = self.val.fetch_sub(v, Ordering::SeqCst);
            s.record_value(prev.wrapping_sub(v));
            prev
        } else {
            // ordering: SeqCst — uninstrumented access outside a checked
            // execution.
            self.val.fetch_sub(v, Ordering::SeqCst)
        }
    }
}

impl fmt::Debug for VCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VCell").field("loc", &self.loc).finish()
    }
}

/// Spawn-side wrapper: binds the execution TLS on the new OS thread,
/// waits for the first grant, runs the body, marks itself done.
pub(crate) fn run_thread(sched: Arc<Scheduler>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    let _guard = bind(&sched, Some(tid));
    if sched.thread_start(tid) {
        body();
    }
    sched.thread_done(tid);
}
