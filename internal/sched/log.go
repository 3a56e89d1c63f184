package sched

import (
	"fmt"
	"strings"

	"repro/internal/simtime"
)

// EventKind classifies scheduler log entries.
type EventKind int

// Scheduler event kinds.
const (
	EvDispatch EventKind = iota
	EvJobRelease
	EvJobComplete
	EvExhaust
	EvReplenish
	EvThrottle
	EvWakeup
	EvParamChange
)

var eventKindNames = [...]string{
	EvDispatch:    "dispatch",
	EvJobRelease:  "release",
	EvJobComplete: "complete",
	EvExhaust:     "exhaust",
	EvReplenish:   "replenish",
	EvThrottle:    "throttle",
	EvWakeup:      "wakeup",
	EvParamChange: "params",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// logOp refines an EventKind where one kind covers several events:
// the wake-up replenishment, and the migrations logged as
// EvParamChange.
type logOp uint8

const (
	opPlain      logOp = iota
	opWakeup           // EvReplenish applied by the CBS wake-up rule
	opDetachSrv        // server detached for migration
	opAdoptSrv         // server adopted after migration
	opDetachTask       // bare task detached for migration
	opAdoptTask        // bare task adopted after migration
)

// LogEntry is one record in the scheduler event log. It is typed
// rather than preformatted: the scheduler fills in plain fields, and
// String renders the text only when someone reads it. Fields a kind
// does not use stay zero.
type LogEntry struct {
	At   simtime.Time
	Kind EventKind
	// Task names the task of a task event: a dispatch, a job release
	// or completion, or a bare task's migration. Empty otherwise.
	Task string
	// Server names the server of a server event. Empty otherwise.
	Server string
	// Q is the server's remaining budget q after the event; for a
	// parameter change it is the new reserved budget Q.
	Q simtime.Duration
	// D is the server's absolute deadline d after the event; for
	// EvThrottle it is the instant the throttle ends.
	D simtime.Time
	// Arg carries the kind's own quantity: the slice length
	// (EvDispatch), the job's demand (EvJobRelease) or response time
	// (EvJobComplete) in nanoseconds, the new period T of a parameter
	// change, or the backlog of a migrating task.
	Arg int64

	op logOp
}

// String implements fmt.Stringer. Rendering happens here, on demand,
// never when the event is recorded. The text format is fixed: trace
// signatures compare it byte for byte across runs.
func (e LogEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v", e.At, e.Kind)
	if e.Task != "" && e.op == opPlain {
		fmt.Fprintf(&b, " %s", e.Task)
	}
	switch e.Kind {
	case EvDispatch:
		fmt.Fprintf(&b, " slice=%v", simtime.Duration(e.Arg))
	case EvJobRelease:
		fmt.Fprintf(&b, " demand=%v", simtime.Duration(e.Arg))
	case EvJobComplete:
		fmt.Fprintf(&b, " resp=%v", simtime.Duration(e.Arg))
	case EvExhaust:
		fmt.Fprintf(&b, " srv=%s d=%v", e.Server, e.D)
	case EvThrottle:
		fmt.Fprintf(&b, " srv=%s until=%v", e.Server, e.D)
	case EvWakeup:
		fmt.Fprintf(&b, " srv=%s d=%v q=%v", e.Server, e.D, e.Q)
	case EvReplenish:
		if e.op == opWakeup {
			fmt.Fprintf(&b, " srv=%s wakeup q=%v d=%v", e.Server, e.Q, e.D)
		} else {
			fmt.Fprintf(&b, " srv=%s q=%v d=%v", e.Server, e.Q, e.D)
		}
	case EvParamChange:
		switch e.op {
		case opDetachSrv, opAdoptSrv:
			fmt.Fprintf(&b, " srv=%s %s q=%v d=%v", e.Server, migrateVerb(e.op), e.Q, e.D)
		case opDetachTask, opAdoptTask:
			fmt.Fprintf(&b, " task=%s %s backlog=%d", e.Task, migrateVerb(e.op), e.Arg)
		default:
			fmt.Fprintf(&b, " srv=%s Q=%v T=%v", e.Server, e.Q, simtime.Duration(e.Arg))
		}
	}
	return b.String()
}

func migrateVerb(op logOp) string {
	if op == opAdoptSrv || op == opAdoptTask {
		return "adopted"
	}
	return "detached"
}

// Log is a bounded ring buffer of typed scheduler events, kept for
// tests and debugging. When full, the oldest entries are overwritten.
// Recording an event copies a LogEntry into the ring and formats
// nothing; LogEntry.String renders it on demand.
type Log struct {
	entries []LogEntry
	next    int
	full    bool
	dropped int
}

// NewLog returns a log that retains the most recent capacity entries.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		panic("sched: log capacity must be positive")
	}
	return &Log{entries: make([]LogEntry, 0, capacity)}
}

func (l *Log) add(e LogEntry) {
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % cap(l.entries)
	l.full = true
	l.dropped++
}

// Entries returns the retained entries in chronological order.
func (l *Log) Entries() []LogEntry {
	if !l.full {
		out := make([]LogEntry, len(l.entries))
		copy(out, l.entries)
		return out
	}
	out := make([]LogEntry, 0, cap(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// Dropped returns how many entries were overwritten.
func (l *Log) Dropped() int { return l.dropped }

// Count returns the number of events matching kind.
func (l *Log) Count(kind EventKind) int {
	n := 0
	for _, e := range l.Entries() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// The log* recorders below are the scheduler's only way into the log.
// Each takes its fields as plain arguments and checks for a log
// before building a record, so with logging off a call site costs one
// nil check and allocates nothing.

// logTask records a task event; arg is the kind's duration (slice,
// demand or response time).
func (sd *Scheduler) logTask(kind EventKind, t *Task, arg simtime.Duration) {
	if sd.log != nil {
		sd.log.add(LogEntry{At: sd.now(), Kind: kind, Task: t.name, Arg: int64(arg)})
	}
}

// logServer records a server event with the server's current (q, d).
func (sd *Scheduler) logServer(kind EventKind, op logOp, s *Server) {
	if sd.log != nil {
		sd.log.add(LogEntry{At: sd.now(), Kind: kind, op: op, Server: s.name, Q: s.q, D: s.d})
	}
}

// logParams records a reservation change to the server's (Q, T).
func (sd *Scheduler) logParams(s *Server) {
	if sd.log != nil {
		sd.log.add(LogEntry{At: sd.now(), Kind: EvParamChange, Server: s.name, Q: s.budget, Arg: int64(s.period)})
	}
}

// logMigrateTask records a bare task leaving (opDetachTask) or
// joining (opAdoptTask) this scheduler, with its backlog.
func (sd *Scheduler) logMigrateTask(op logOp, t *Task) {
	if sd.log != nil {
		sd.log.add(LogEntry{At: sd.now(), Kind: EvParamChange, op: op, Task: t.name, Arg: int64(len(t.pending))})
	}
}
