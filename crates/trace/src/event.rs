//! Structured trace events: the vocabulary of the sort's timeline.

use crate::json::JsonValue;

/// Identifies one job's timeline across threads.
///
/// Every [`TraceEvent`] carries the span of the job it
/// belongs to, so one sort's history is reconstructable from a recorder
/// shared by worker threads, the store, and the broker. Span `0` is the
/// conventional *service* span for events that belong to no particular job
/// (session open/close, pool-wide changes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The service-wide span for events not tied to one job.
    pub const SERVICE: SpanId = SpanId(0);
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What happened. Each variant is one point on a job's timeline; the
/// numeric payloads carry enough state to reconstruct the paper's
/// grant-level-vs-time figures without consulting any other source.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A sort phase (split, merge, …) began.
    PhaseStart {
        /// Phase name (`"split"`, `"merge"`).
        phase: &'static str,
    },
    /// A sort phase ended.
    PhaseEnd {
        /// Phase name, matching the opening event.
        phase: &'static str,
    },
    /// The budget owner moved the job's page target (a grant change).
    BudgetTarget {
        /// Target before the change.
        prev: usize,
        /// Target after the change.
        target: usize,
    },
    /// The sort reported a change in pages actually held.
    BudgetHeld {
        /// Held pages before the report.
        prev: usize,
        /// Held pages after the report.
        held: usize,
    },
    /// The merge suspended, waiting for its target to come back.
    Suspend {
        /// Pages the active step needs to proceed.
        need: usize,
        /// Target at the moment of suspension.
        target: usize,
    },
    /// The merge resumed after a suspension.
    Resume {
        /// Seconds spent suspended.
        waited: f64,
    },
    /// A merge step started producing output.
    MergeStepStart {
        /// Number of input runs the step merges.
        fan_in: usize,
    },
    /// A merge step completed.
    MergeStepEnd {
        /// Tuples the step had produced when it completed.
        tuples_out: u64,
    },
    /// Dynamic splitting divided the active step.
    Split {
        /// Pages available when the split was decided.
        target: usize,
    },
    /// A dormant child step was absorbed back into its parent.
    Combine,
    /// The executor switched to a different active step.
    Switch,
    /// A run was created in the store.
    RunCreate {
        /// Store-assigned run id.
        run: u64,
    },
    /// A run was deleted from the store.
    RunDelete {
        /// Store-assigned run id.
        run: u64,
    },
    /// Run formation closed (emitted) a sorted run.
    RunEmit {
        /// Store-assigned run id.
        run: u64,
        /// Tuples in the run.
        tuples: u64,
        /// Whether the run was written in reverse rank order (a descending
        /// run from adaptive up/down replacement selection).
        reversed: bool,
    },
    /// Pages were read from storage.
    IoRead {
        /// Run read from.
        run: u64,
        /// Pages read.
        pages: usize,
    },
    /// Pages were written to storage.
    IoWrite {
        /// Run written to.
        run: u64,
        /// Pages written.
        pages: usize,
    },
    /// The request entered the broker's admission queue.
    AdmissionQueued,
    /// The broker admitted the job and granted its initial share.
    AdmissionGranted {
        /// Pages granted at admission.
        pages: usize,
    },
    /// The broker rejected the request outright.
    AdmissionRejected {
        /// Pages the request needed.
        needed: usize,
        /// Pages the pool could offer.
        granted: usize,
    },
    /// The job was cancelled (while queued or running).
    Cancelled,
    /// A brokered job's final merge step is over and its grant went back:
    /// how much of the result went from the merge to the consumer, how much
    /// was settled into a stored run for the consumer to read later, and why.
    RootFinished {
        /// Result pages handed from the merge straight to the consumer.
        pages_streamed: u64,
        /// Result pages left in a stored run instead.
        pages_settled: u64,
        /// `"exhausted"` (all streamed), why the rest was settled
        /// (`"queued-request"`, `"shutdown"`), or why there is no
        /// rest (`"cancelled"`, `"failed"`).
        reason: &'static str,
    },
    /// A network session opened.
    SessionOpen,
    /// A network session closed.
    SessionClose,
}

impl EventKind {
    /// Stable short name of the event kind, used in exports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::PhaseStart { .. } => "phase_start",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::BudgetTarget { .. } => "budget_target",
            EventKind::BudgetHeld { .. } => "budget_held",
            EventKind::Suspend { .. } => "suspend",
            EventKind::Resume { .. } => "resume",
            EventKind::MergeStepStart { .. } => "merge_step_start",
            EventKind::MergeStepEnd { .. } => "merge_step_end",
            EventKind::Split { .. } => "split",
            EventKind::Combine => "combine",
            EventKind::Switch => "switch",
            EventKind::RunCreate { .. } => "run_create",
            EventKind::RunDelete { .. } => "run_delete",
            EventKind::RunEmit { .. } => "run_emit",
            EventKind::IoRead { .. } => "io_read",
            EventKind::IoWrite { .. } => "io_write",
            EventKind::AdmissionQueued => "admission_queued",
            EventKind::AdmissionGranted { .. } => "admission_granted",
            EventKind::AdmissionRejected { .. } => "admission_rejected",
            EventKind::Cancelled => "cancelled",
            EventKind::RootFinished { .. } => "root_finished",
            EventKind::SessionOpen => "session_open",
            EventKind::SessionClose => "session_close",
        }
    }

    /// The kind-specific payload fields, in a stable order.
    pub(crate) fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        fn n(v: usize) -> JsonValue {
            JsonValue::Number(v as f64)
        }
        match self {
            EventKind::PhaseStart { phase } | EventKind::PhaseEnd { phase } => {
                vec![("phase", JsonValue::String((*phase).to_string()))]
            }
            EventKind::BudgetTarget { prev, target } => {
                vec![("prev", n(*prev)), ("target", n(*target))]
            }
            EventKind::BudgetHeld { prev, held } => vec![("prev", n(*prev)), ("held", n(*held))],
            EventKind::Suspend { need, target } => vec![("need", n(*need)), ("target", n(*target))],
            EventKind::Resume { waited } => vec![("waited", JsonValue::Number(*waited))],
            EventKind::MergeStepStart { fan_in } => vec![("fan_in", n(*fan_in))],
            EventKind::MergeStepEnd { tuples_out } => {
                vec![("tuples_out", JsonValue::Number(*tuples_out as f64))]
            }
            EventKind::Split { target } => vec![("target", n(*target))],
            EventKind::Combine
            | EventKind::Switch
            | EventKind::AdmissionQueued
            | EventKind::Cancelled
            | EventKind::SessionOpen
            | EventKind::SessionClose => Vec::new(),
            EventKind::RunCreate { run } | EventKind::RunDelete { run } => {
                vec![("run", JsonValue::Number(*run as f64))]
            }
            EventKind::RunEmit {
                run,
                tuples,
                reversed,
            } => vec![
                ("run", JsonValue::Number(*run as f64)),
                ("tuples", JsonValue::Number(*tuples as f64)),
                ("reversed", JsonValue::Number(u64::from(*reversed) as f64)),
            ],
            EventKind::IoRead { run, pages } | EventKind::IoWrite { run, pages } => {
                vec![
                    ("run", JsonValue::Number(*run as f64)),
                    ("pages", n(*pages)),
                ]
            }
            EventKind::AdmissionGranted { pages } => vec![("pages", n(*pages))],
            EventKind::AdmissionRejected { needed, granted } => {
                vec![("needed", n(*needed)), ("granted", n(*granted))]
            }
            EventKind::RootFinished {
                pages_streamed,
                pages_settled,
                reason,
            } => vec![
                ("pages_streamed", JsonValue::Number(*pages_streamed as f64)),
                ("pages_settled", JsonValue::Number(*pages_settled as f64)),
                ("reason", JsonValue::String((*reason).to_string())),
            ],
        }
    }

    /// Rebuild a kind from its exported `name` + payload fields. Returns
    /// `None` for unknown names or missing fields.
    pub(crate) fn from_fields(
        name: &str,
        get: impl Fn(&str) -> Option<JsonValue>,
    ) -> Option<EventKind> {
        let num = |k: &str| -> Option<f64> {
            match get(k)? {
                JsonValue::Number(v) => Some(v),
                _ => None,
            }
        };
        let us = |k: &str| -> Option<usize> { num(k).map(|v| v as usize) };
        let phase = |k: &str| -> Option<&'static str> {
            match get(k)? {
                // Phase names come from a small closed set; intern the known
                // ones and fall back to a generic label for anything else.
                JsonValue::String(s) => Some(match s.as_str() {
                    "split" => "split",
                    "merge" => "merge",
                    _ => "phase",
                }),
                _ => None,
            }
        };
        Some(match name {
            "phase_start" => EventKind::PhaseStart {
                phase: phase("phase")?,
            },
            "phase_end" => EventKind::PhaseEnd {
                phase: phase("phase")?,
            },
            "budget_target" => EventKind::BudgetTarget {
                prev: us("prev")?,
                target: us("target")?,
            },
            "budget_held" => EventKind::BudgetHeld {
                prev: us("prev")?,
                held: us("held")?,
            },
            "suspend" => EventKind::Suspend {
                need: us("need")?,
                target: us("target")?,
            },
            "resume" => EventKind::Resume {
                waited: num("waited")?,
            },
            "merge_step_start" => EventKind::MergeStepStart {
                fan_in: us("fan_in")?,
            },
            "merge_step_end" => EventKind::MergeStepEnd {
                tuples_out: num("tuples_out")? as u64,
            },
            "split" => EventKind::Split {
                target: us("target")?,
            },
            "combine" => EventKind::Combine,
            "switch" => EventKind::Switch,
            "run_create" => EventKind::RunCreate {
                run: num("run")? as u64,
            },
            "run_delete" => EventKind::RunDelete {
                run: num("run")? as u64,
            },
            "run_emit" => EventKind::RunEmit {
                run: num("run")? as u64,
                tuples: num("tuples")? as u64,
                reversed: num("reversed")? != 0.0,
            },
            "io_read" => EventKind::IoRead {
                run: num("run")? as u64,
                pages: us("pages")?,
            },
            "io_write" => EventKind::IoWrite {
                run: num("run")? as u64,
                pages: us("pages")?,
            },
            "admission_queued" => EventKind::AdmissionQueued,
            "admission_granted" => EventKind::AdmissionGranted {
                pages: us("pages")?,
            },
            "admission_rejected" => EventKind::AdmissionRejected {
                needed: us("needed")?,
                granted: us("granted")?,
            },
            "cancelled" => EventKind::Cancelled,
            "root_finished" => EventKind::RootFinished {
                pages_streamed: num("pages_streamed")? as u64,
                pages_settled: num("pages_settled")? as u64,
                reason: match get("reason")? {
                    JsonValue::String(s) => match s.as_str() {
                        "exhausted" => "exhausted",
                        "queued-request" => "queued-request",
                        "shutdown" => "shutdown",
                        "cancelled" => "cancelled",
                        _ => "failed",
                    },
                    _ => return None,
                },
            },
            "session_open" => EventKind::SessionOpen,
            "session_close" => EventKind::SessionClose,
            _ => return None,
        })
    }
}

/// One timestamped point on a job's timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Seconds since the recorder's epoch.
    pub ts: f64,
    /// The job this event belongs to.
    pub span: SpanId,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_fields() {
        let kinds = vec![
            EventKind::PhaseStart { phase: "split" },
            EventKind::PhaseEnd { phase: "merge" },
            EventKind::BudgetTarget { prev: 4, target: 9 },
            EventKind::BudgetHeld { prev: 9, held: 3 },
            EventKind::Suspend { need: 5, target: 2 },
            EventKind::Resume { waited: 0.25 },
            EventKind::MergeStepStart { fan_in: 7 },
            EventKind::MergeStepEnd { tuples_out: 1_000 },
            EventKind::Split { target: 3 },
            EventKind::Combine,
            EventKind::Switch,
            EventKind::RunCreate { run: 11 },
            EventKind::RunDelete { run: 11 },
            EventKind::RunEmit {
                run: 11,
                tuples: 640,
                reversed: true,
            },
            EventKind::IoRead { run: 2, pages: 8 },
            EventKind::IoWrite { run: 3, pages: 16 },
            EventKind::AdmissionQueued,
            EventKind::AdmissionGranted { pages: 12 },
            EventKind::AdmissionRejected {
                needed: 64,
                granted: 32,
            },
            EventKind::Cancelled,
            EventKind::RootFinished {
                pages_streamed: 40,
                pages_settled: 2,
                reason: "queued-request",
            },
            EventKind::SessionOpen,
            EventKind::SessionClose,
        ];
        for kind in kinds {
            let fields = kind.fields();
            let rebuilt = EventKind::from_fields(kind.name(), |k| {
                fields.iter().find(|(n, _)| *n == k).map(|(_, v)| v.clone())
            })
            .unwrap_or_else(|| panic!("kind {} did not rebuild", kind.name()));
            assert_eq!(rebuilt, kind);
        }
    }

    #[test]
    fn unknown_kind_name_is_rejected() {
        assert_eq!(EventKind::from_fields("no_such_event", |_| None), None);
    }
}
