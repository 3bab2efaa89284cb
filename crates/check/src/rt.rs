//! The cooperative scheduling runtime behind the deterministic interleaving
//! explorer.
//!
//! One *schedule* executes a model closure on a set of real OS threads
//! ("tasks") of which **exactly one runs at a time**: every instrumented
//! shim operation (lock, condvar, atomic, spawn, sleep) is a *yield point*
//! where the scheduler picks the next runnable task from a deterministic
//! choice source — a seeded random walk or a replayed/enumerated choice
//! vector. Because the choice source is the only source of nondeterminism,
//! any failing schedule replays exactly from its seed.
//!
//! The runtime detects deadlocks structurally: when no task is runnable and
//! no timed waiter remains, the schedule fails with every task's block site.
//! Timed waits (`wait_timeout`) never fire while any task
//! can still run — logical time only advances when the system is otherwise
//! idle, which keeps schedules deterministic without modelling real clocks.

use std::cell::RefCell;
use std::io::Write;
use std::panic::Location;
// check-exempt: the runtime is the instrumentation layer itself.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Source location of the shim operation a task last executed or is blocked
/// at; used in deadlock reports.
pub(crate) type Site = &'static Location<'static>;

/// Allocate a process-unique resource id (one per lock / condvar / join
/// handle) for the runtime's wait queues.
pub(crate) fn next_res_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// How a blocked task was woken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wake {
    /// A peer released the resource / sent a notification.
    Notified,
    /// The system went idle and this timed waiter's timeout fired.
    TimedOut,
}

/// Deterministic source of scheduling choices for one schedule.
#[derive(Clone, Debug)]
pub(crate) enum ChoiceSrc {
    /// Seeded random walk (xorshift64*).
    Random(u64),
    /// Fixed prefix of choices (bounded-exhaustive enumeration / replay);
    /// beyond the prefix, the first runnable task is chosen.
    Fixed(Vec<usize>),
}

impl ChoiceSrc {
    fn choose(&mut self, n: usize, pos: usize) -> usize {
        debug_assert!(n > 0);
        match self {
            ChoiceSrc::Random(state) => {
                // xorshift64*: deterministic, dependency-free, well mixed.
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as usize % n
            }
            ChoiceSrc::Fixed(v) => v.get(pos).map_or(0, |&c| c.min(n - 1)),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked { res: u64, timed: bool },
    Done,
}

struct Task {
    name: String,
    status: Status,
    wake: Wake,
    site: Option<Site>,
}

struct RtState {
    tasks: Vec<Task>,
    current: usize,
    live: usize,
    steps: usize,
    max_steps: usize,
    choices: ChoiceSrc,
    /// The seed a random walk started from.
    seed: Option<u64>,
    trace: Vec<(usize, usize)>,
    failure: Option<String>,
    aborting: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// One schedule's scheduler: shared by all of the schedule's task threads.
pub(crate) struct Rt {
    m: Mutex<RtState>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Rt>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Rt>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// True when the calling thread is a task of an active schedule — i.e. the
/// instrumented primitives should take their cooperative path.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Panic payload used to unwind tasks when a schedule aborts; recognised (and
/// swallowed) by the task wrapper so it never masks the original failure.
struct AbortUnwind;

/// Unwind the calling task out of an aborted schedule. A task unwinding
/// already (a destructor needing the scheduler on its way out) cannot unwind
/// twice: the process aborts, so it says why first, and how to replay the
/// schedule, in the words of a [`Failure`](crate::explore::Failure).
fn abort_unwind(st: MutexGuard<'_, RtState>) -> ! {
    if std::thread::panicking() {
        let failure = st.failure.as_deref().unwrap_or("no failure recorded");
        let replay = match st.seed {
            Some(seed) => format!("replay with seed {seed:#018x}"),
            None => format!(
                "replay trace {:?}",
                Vec::from_iter(st.trace.iter().map(|c| c.0))
            ),
        };
        // Straight to the descriptor: the test harness's capture of
        // `eprintln!` would die with the process.
        let _ = writeln!(
            std::io::stderr(),
            "masort-check: schedule aborted during an unwind ({replay}): {failure}"
        );
        std::process::abort();
    }
    drop(st);
    std::panic::panic_any(AbortUnwind);
}

/// Outcome of one fully-executed schedule.
pub(crate) struct ScheduleOutcome {
    /// The `(chosen, runnable_count)` decisions taken, in order.
    pub trace: Vec<(usize, usize)>,
    /// First failure observed (panic, deadlock, step-bound), if any.
    pub failure: Option<String>,
}

impl Rt {
    fn new(choices: ChoiceSrc, max_steps: usize) -> Arc<Rt> {
        Arc::new(Rt {
            m: Mutex::new(RtState {
                tasks: Vec::new(),
                current: 0,
                live: 0,
                steps: 0,
                max_steps,
                seed: match choices {
                    ChoiceSrc::Random(seed) => Some(seed),
                    ChoiceSrc::Fixed(_) => None,
                },
                choices,
                trace: Vec::new(),
                failure: None,
                aborting: false,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, RtState> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pick the next task to run. Called with the state lock held, after the
    /// calling task has updated its own status. Handles idle-time timeouts,
    /// deadlock detection and the step bound.
    fn pick_next(&self, st: &mut RtState) {
        if st.aborting || st.live == 0 {
            return;
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            self.fail(
                st,
                format!("schedule exceeded the step bound of {}", st.max_steps),
            );
            return;
        }
        let runnable: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            // Idle: logical time advances — fire the first timed waiter.
            if let Some(i) = st
                .tasks
                .iter()
                .position(|t| matches!(t.status, Status::Blocked { timed: true, .. }))
            {
                st.tasks[i].status = Status::Runnable;
                st.tasks[i].wake = Wake::TimedOut;
                st.current = i;
                return;
            }
            let report: Vec<String> = st
                .tasks
                .iter()
                .filter(|t| t.status != Status::Done)
                .map(|t| {
                    format!(
                        "  task '{}' blocked at {}",
                        t.name,
                        t.site.map_or("<unknown>".into(), |s| s.to_string())
                    )
                })
                .collect();
            self.fail(st, format!("deadlock detected:\n{}", report.join("\n")));
            return;
        }
        let pos = st.trace.len();
        let c = st.choices.choose(runnable.len(), pos);
        st.trace.push((c, runnable.len()));
        st.current = runnable[c];
    }

    /// Record the first failure and abort the schedule: every task wakes and
    /// unwinds at its next runtime interaction.
    fn fail(&self, st: &mut RtState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborting = true;
        for t in &mut st.tasks {
            if matches!(t.status, Status::Blocked { .. }) {
                t.status = Status::Runnable;
            }
        }
    }

    /// Hand the token to the next task and wait until this task is scheduled
    /// again (or the schedule aborts).
    fn switch(&self, mut st: MutexGuard<'_, RtState>, me: usize) {
        self.pick_next(&mut st);
        self.cv.notify_all();
        loop {
            if st.aborting {
                abort_unwind(st);
            }
            if st.current == me && st.tasks[me].status == Status::Runnable {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A scheduling choice point: if the calling thread is a task of an active
/// schedule, hand the token to the scheduler; otherwise do nothing.
#[inline]
pub(crate) fn yield_point(site: Option<Site>) {
    let Some((rt, me)) = ctx() else { return };
    let mut st = rt.lock();
    if st.aborting {
        abort_unwind(st);
    }
    st.tasks[me].site = site;
    rt.switch(st, me);
}

/// Block the calling task on `res` until a peer wakes it (or, for timed
/// waits, until the system goes idle). Panics if called off-task.
pub(crate) fn block_on(res: u64, timed: bool, site: Option<Site>) -> Wake {
    let (rt, me) = ctx().expect("block_on called outside a schedule");
    let mut st = rt.lock();
    if st.aborting {
        abort_unwind(st);
    }
    st.tasks[me].site = site;
    st.tasks[me].status = Status::Blocked { res, timed };
    rt.switch(st, me);
    let st = rt.lock();
    st.tasks[me].wake
}

/// Make every task blocked on `res` runnable. No-op off-task (an unmanaged
/// thread cannot wake tasks — models must confine shared state to tasks).
pub(crate) fn wake_all(res: u64) {
    let Some((rt, _)) = ctx() else { return };
    let mut st = rt.lock();
    for t in &mut st.tasks {
        if t.status == (Status::Blocked { res, timed: false })
            || t.status == (Status::Blocked { res, timed: true })
        {
            t.status = Status::Runnable;
            t.wake = Wake::Notified;
        }
    }
}

/// Make the first task blocked on `res` runnable (condvar `notify_one`).
pub(crate) fn wake_one(res: u64) {
    let Some((rt, _)) = ctx() else { return };
    let mut st = rt.lock();
    for t in &mut st.tasks {
        if matches!(t.status, Status::Blocked { res: r, .. } if r == res) {
            t.status = Status::Runnable;
            t.wake = Wake::Notified;
            return;
        }
    }
}

/// Record a task panic as the schedule's failure and abort the schedule.
pub(crate) fn note_panic(name: &str, payload: &(dyn std::any::Any + Send)) {
    let Some((rt, _)) = ctx() else { return };
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    let mut st = rt.lock();
    let msg = format!("task '{name}' panicked: {msg}");
    rt.fail(&mut st, msg);
    rt.cv.notify_all();
}

/// Spawn a new task running `f`. The spawner keeps the token; the spawn is
/// followed by a yield point at the caller (in the shim layer). Panics
/// inside `f` are the caller's business — wrappers in the shim layer route
/// assertion failures to [`note_panic`].
pub(crate) fn spawn_task(name: String, f: Box<dyn FnOnce() + Send>) {
    let (rt, _) = ctx().expect("spawn_task called outside a schedule");
    spawn_on(&rt, name, f, false);
}

fn spawn_on(rt: &Arc<Rt>, name: String, f: Box<dyn FnOnce() + Send>, root: bool) {
    let id = {
        let mut st = rt.lock();
        st.tasks.push(Task {
            name: name.clone(),
            status: Status::Runnable,
            wake: Wake::Notified,
            site: None,
        });
        st.live += 1;
        if root {
            st.current = st.tasks.len() - 1;
        }
        st.tasks.len() - 1
    };
    let rt2 = Arc::clone(rt);
    let handle = std::thread::Builder::new()
        .name(format!("masort-check-{name}"))
        .spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&rt2), id)));
            // Wait for the first time the scheduler picks this task.
            let started = {
                let mut st = rt2.lock();
                loop {
                    if st.aborting {
                        break false;
                    }
                    if st.current == id && st.tasks[id].status == Status::Runnable {
                        break true;
                    }
                    st = rt2.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            if started {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                if let Err(payload) = r {
                    if !payload.is::<AbortUnwind>() {
                        note_panic(&name, payload.as_ref());
                    }
                }
            }
            // Exit protocol: mark done, hand the token onwards, wake the
            // harness if this was the last live task.
            let mut st = rt2.lock();
            st.tasks[id].status = Status::Done;
            st.live -= 1;
            if st.live > 0 {
                rt2.pick_next(&mut st);
            }
            rt2.cv.notify_all();
        })
        .expect("spawning a schedule task thread failed");
    rt.lock().os_handles.push(handle);
}

/// Execute one complete schedule of `model` under `choices` and return the
/// choice trace plus the first failure, if any. Blocks the calling (harness)
/// thread until every task thread has exited.
pub(crate) fn run_schedule(
    choices: ChoiceSrc,
    max_steps: usize,
    model: Box<dyn FnOnce() + Send>,
) -> ScheduleOutcome {
    let rt = Rt::new(choices, max_steps);
    spawn_on(&rt, "root".to_string(), model, true);
    let handles: Vec<std::thread::JoinHandle<()>> = {
        let mut st = rt.lock();
        while st.live > 0 {
            st = rt.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        std::mem::take(&mut st.os_handles)
    };
    for h in handles {
        let _ = h.join();
    }
    let mut st = rt.lock();
    ScheduleOutcome {
        trace: std::mem::take(&mut st.trace),
        failure: st.failure.take(),
    }
}
