//! Executor-level event tracing and the Chrome `trace_event` exporter.
//!
//! The runtime's observability layer has two halves. The timing engine
//! (`gpstream-machine`) records cycle-stamped
//! [`MachineEvent`](gpstream_machine::MachineEvent)s; this module holds
//! the task-attributed [`ExecEvent`] the simulating executor derives
//! from them (and the serve span trace reuses), and [`chrome_trace`],
//! which renders one or more traced runs as Chrome `trace_event` JSON
//! that loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! Timestamps are raw `u64` ticks whose unit is chosen by the producer;
//! both producers stamp simulated machine cycles. A [`TraceRun`] carries
//! the ticks-per-microsecond factor so runs coexist in one export on a
//! common microsecond axis. The native executor keeps no event trace:
//! its one instrumentation is the per-task wall time of
//! [`NativeExecutor::with_task_timing`](crate::exec::native::NativeExecutor::with_task_timing).

use crate::task::{ScheduledProgram, TaskId, TaskKind};
use gpstream_util::Json;

/// What an executor-level event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEventKind {
    /// The control thread pushed the task into a worker queue.
    Enqueue,
    /// The task's dependencies all cleared.
    Ready,
    /// A worker began executing the task body.
    Start,
    /// The task body finished and its window slot was released.
    Finish,
    /// A worker found the task's dependency mask non-zero and waited.
    DepWait {
        /// The blocking dependency mask at wait entry.
        mask: u64,
    },
    /// The front-side bus granted a transfer.
    Bus {
        /// Bytes moved.
        bytes: u64,
        /// Cycles the request queued for the bus.
        queued: u64,
    },
    /// A waiting context resumed after its signal.
    Wakeup {
        /// Dispatch cycles paid to resume.
        dispatch: u64,
    },
    /// A miss was covered by a prefetcher.
    PrefetchCover {
        /// Software prefetch (`true`) or the hardware stream prefetcher.
        sw: bool,
    },
    /// A DTLB miss walked the page tables.
    TlbWalk {
        /// Walk cycles.
        cycles: u64,
    },
    /// A write-combining buffer flushed.
    WcFlush,
}

/// One executor-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEvent {
    /// Timestamp in producer-defined ticks (cycles or nanoseconds).
    pub ts: u64,
    /// Lane that produced the event (an index into
    /// [`TraceRun::lanes`] — a hardware context or an OS thread).
    pub who: u8,
    /// The task the event concerns, when attributable.
    pub task: Option<TaskId>,
    /// What happened.
    pub kind: ExecEventKind,
}

/// One traced run, ready for export: the events plus the naming context
/// needed to label them.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Run label (becomes the process name in the viewer).
    pub name: String,
    /// Ticks per microsecond (cycles: the clock in GHz × 1000; native
    /// nanosecond stamps: 1000).
    pub ticks_per_us: f64,
    /// Lane names, indexed by [`ExecEvent::who`] (become thread names).
    pub lanes: Vec<String>,
    /// Display name per task id.
    pub task_names: Vec<String>,
    /// Category per task id (`kernel`, `gather` or `scatter`).
    pub task_cats: Vec<&'static str>,
    /// The events.
    pub events: Vec<ExecEvent>,
    /// Events the producer's bounded buffer dropped at capacity (the
    /// exporter surfaces the count in the trace footer).
    pub dropped: u64,
}

impl TraceRun {
    /// Build a run from a program (which names the tasks) and its events.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        ticks_per_us: f64,
        lanes: &[&str],
        program: &ScheduledProgram,
        events: Vec<ExecEvent>,
    ) -> Self {
        let mut task_names = Vec::with_capacity(program.tasks.len());
        let mut task_cats = Vec::with_capacity(program.tasks.len());
        for t in &program.tasks {
            let (cat, label) = match &t.kind {
                TaskKind::Gather { binding, .. } => {
                    ("gather", format!("gather s{} [{:?})", binding.stream.0, binding.elems))
                }
                TaskKind::Scatter { binding, .. } => {
                    ("scatter", format!("scatter s{} [{:?})", binding.stream.0, binding.elems))
                }
                TaskKind::Kernel { kernel, items, .. } => {
                    ("kernel", format!("kernel k{} [{:?})", kernel.0, items))
                }
            };
            task_names.push(format!("{label} #{}", t.id.0));
            task_cats.push(cat);
        }
        TraceRun {
            name: name.into(),
            ticks_per_us,
            lanes: lanes.iter().map(|s| (*s).to_string()).collect(),
            task_names,
            task_cats,
            events,
            dropped: 0,
        }
    }

    /// Record how many events the producer's buffer dropped at capacity.
    #[must_use]
    pub fn with_dropped(mut self, dropped: u64) -> Self {
        self.dropped = dropped;
        self
    }
}

fn instant_name(kind: &ExecEventKind) -> (&'static str, &'static str) {
    match kind {
        ExecEventKind::Enqueue => ("enqueue", "queue"),
        ExecEventKind::Ready => ("ready", "queue"),
        ExecEventKind::DepWait { .. } => ("dep_wait", "queue"),
        ExecEventKind::Bus { .. } => ("bus_grant", "bus"),
        ExecEventKind::WcFlush => ("wc_flush", "bus"),
        ExecEventKind::Wakeup { .. } => ("wakeup", "sync"),
        ExecEventKind::PrefetchCover { .. } => ("prefetch_cover", "mem"),
        ExecEventKind::TlbWalk { .. } => ("tlb_walk", "mem"),
        ExecEventKind::Start | ExecEventKind::Finish => ("", ""),
    }
}

fn instant_args(kind: &ExecEventKind, task: Option<TaskId>) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    if let Some(t) = task {
        pairs.push(("task".into(), Json::U64(u64::from(t.0))));
    }
    match kind {
        ExecEventKind::DepWait { mask } => {
            pairs.push(("mask".into(), Json::Str(format!("{mask:#018x}"))));
        }
        ExecEventKind::Bus { bytes, queued } => {
            pairs.push(("bytes".into(), Json::U64(*bytes)));
            pairs.push(("queued".into(), Json::U64(*queued)));
        }
        ExecEventKind::Wakeup { dispatch } => {
            pairs.push(("dispatch".into(), Json::U64(*dispatch)));
        }
        ExecEventKind::PrefetchCover { sw } => {
            pairs.push(("sw".into(), Json::Bool(*sw)));
        }
        ExecEventKind::TlbWalk { cycles } => {
            pairs.push(("cycles".into(), Json::U64(*cycles)));
        }
        _ => {}
    }
    Json::Obj(pairs)
}

/// Render traced runs as Chrome `trace_event` JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper). Each run becomes one process;
/// paired [`Start`](ExecEventKind::Start) /
/// [`Finish`](ExecEventKind::Finish) events become complete (`"X"`)
/// slices, everything else becomes instant (`"i"`) events.
#[must_use]
pub fn chrome_trace(runs: &[TraceRun]) -> String {
    let mut out: Vec<Json> = Vec::new();
    for (ri, run) in runs.iter().enumerate() {
        let pid = ri as u64 + 1;
        out.push(Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::U64(pid)),
            ("tid", Json::U64(0)),
            ("args", Json::obj([("name", Json::Str(run.name.clone()))])),
        ]));
        for (li, lane) in run.lanes.iter().enumerate() {
            out.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::U64(pid)),
                ("tid", Json::U64(li as u64)),
                ("args", Json::obj([("name", Json::Str(lane.clone()))])),
            ]));
        }
        let to_us = |ts: u64| Json::F64(ts as f64 / run.ticks_per_us);
        // Open Start slices per (lane, task), closed by the next Finish.
        let mut open: std::collections::HashMap<(u8, u32), u64> = std::collections::HashMap::new();
        for e in &run.events {
            match e.kind {
                ExecEventKind::Start => {
                    if let Some(t) = e.task {
                        open.insert((e.who, t.0), e.ts);
                    }
                }
                ExecEventKind::Finish => {
                    let Some(t) = e.task else { continue };
                    let Some(start) = open.remove(&(e.who, t.0)) else { continue };
                    let idx = t.0 as usize;
                    let name = run
                        .task_names
                        .get(idx)
                        .cloned()
                        .unwrap_or_else(|| format!("task #{}", t.0));
                    let cat = run.task_cats.get(idx).copied().unwrap_or("task");
                    out.push(Json::obj([
                        ("name", Json::Str(name)),
                        ("cat", Json::from(cat)),
                        ("ph", Json::from("X")),
                        ("ts", to_us(start)),
                        ("dur", Json::F64((e.ts - start) as f64 / run.ticks_per_us)),
                        ("pid", Json::U64(pid)),
                        ("tid", Json::U64(u64::from(e.who))),
                        ("args", instant_args(&e.kind, e.task)),
                    ]));
                }
                _ => {
                    let (name, cat) = instant_name(&e.kind);
                    out.push(Json::obj([
                        ("name", Json::from(name)),
                        ("cat", Json::from(cat)),
                        ("ph", Json::from("i")),
                        ("s", Json::from("t")),
                        ("ts", to_us(e.ts)),
                        ("pid", Json::U64(pid)),
                        ("tid", Json::U64(u64::from(e.who))),
                        ("args", instant_args(&e.kind, e.task)),
                    ]));
                }
            }
        }
    }
    // Footer: total events dropped by bounded trace buffers, so a
    // truncated trace is never mistaken for a complete one.
    let dropped: u64 = runs.iter().map(|r| r.dropped).sum();
    Json::obj([
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::from("ms")),
        ("droppedEvents", Json::U64(dropped)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program_with_one_gather() -> ScheduledProgram {
        use crate::graph::StreamId;
        use crate::task::{PortBinding, TaskDesc};
        ScheduledProgram {
            tasks: vec![TaskDesc {
                id: TaskId(0),
                kind: TaskKind::Gather {
                    binding: PortBinding {
                        stream: StreamId(0),
                        srf_offset: 0,
                        elems: 0..8,
                        elem_bytes: 4,
                    },
                    nt: false,
                },
                deps: vec![],
                strip: 0,
            }],
            srf_bytes: 32,
            n_strips: 1,
            strip_items: 8,
        }
    }

    #[test]
    fn chrome_export_pairs_slices() {
        let prog = program_with_one_gather();
        let events = vec![
            ExecEvent { ts: 5, who: 1, task: Some(TaskId(0)), kind: ExecEventKind::Start },
            ExecEvent {
                ts: 7,
                who: 1,
                task: None,
                kind: ExecEventKind::Bus { bytes: 64, queued: 2 },
            },
            ExecEvent { ts: 15, who: 1, task: Some(TaskId(0)), kind: ExecEventKind::Finish },
        ];
        let run = TraceRun::new("unit", 1000.0, &["control", "memory"], &prog, events);
        let json = chrome_trace(&[run]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""), "paired slice missing: {json}");
        assert!(json.contains("\"cat\":\"gather\""));
        assert!(json.contains("\"cat\":\"bus\""));
        assert!(json.contains("\"dur\":0.01"), "15-5 ticks at 1000/us = 0.01us: {json}");
    }

    #[test]
    fn bounded_buffer_drops_and_counts() {
        let ev: Vec<ExecEvent> = (0..2)
            .map(|ts| ExecEvent { ts, who: 0, task: None, kind: ExecEventKind::WcFlush })
            .collect();
        let prog = program_with_one_gather();
        let run = TraceRun::new("unit", 1000.0, &["t"], &prog, ev).with_dropped(3);
        let json = chrome_trace(&[run]);
        assert!(json.contains("\"droppedEvents\":3"), "footer must surface drops: {json}");
    }

    #[test]
    fn unpaired_finish_is_skipped() {
        let prog = program_with_one_gather();
        let events =
            vec![ExecEvent { ts: 3, who: 0, task: Some(TaskId(0)), kind: ExecEventKind::Finish }];
        let run = TraceRun::new("unit", 1000.0, &["t"], &prog, events);
        let json = chrome_trace(&[run]);
        assert!(!json.contains("\"ph\":\"X\""));
    }
}
