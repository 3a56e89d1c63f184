package sched

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtime"
)

// TestLogEntryStringKeepsTextFormat pins the rendering of every
// scheduler log record, for every EventKind, to the log's text
// format: "<at> <kind>[ <task>] <detail>", with the detail formats
// below. Log readers (trace signatures, debugging dumps) depend on it.
func TestLogEntryStringKeepsTextFormat(t *testing.T) {
	const ms, us = simtime.Millisecond, simtime.Microsecond
	eng := sim.New()
	sd := New(Config{Engine: eng, LogCapacity: 64})
	eng.At(simtime.Time(12345678), func() {})
	eng.Run()
	now := eng.Now()

	srv := &Server{name: "srv0", budget: 3 * ms, period: 10 * ms, q: 1500 * us, d: now.Add(7 * ms)}
	tk := &Task{name: "tk", pending: make([]*Job, 3)}
	// formatted renders the expected text of one entry.
	formatted := func(kind EventKind, task, format string, args ...any) string {
		s := fmt.Sprintf("%v %v", now, kind)
		if task != "" {
			s += " " + task
		}
		return s + " " + fmt.Sprintf(format, args...)
	}
	cases := []struct {
		kind   EventKind
		record func()
		want   string
	}{
		{EvDispatch, func() { sd.logTask(EvDispatch, tk, 700*us) },
			formatted(EvDispatch, "tk", "slice=%v", 700*us)},
		{EvJobRelease, func() { sd.logTask(EvJobRelease, tk, 4*ms) },
			formatted(EvJobRelease, "tk", "demand=%v", 4*ms)},
		{EvJobComplete, func() { sd.logTask(EvJobComplete, tk, 9*ms+250*us) },
			formatted(EvJobComplete, "tk", "resp=%v", 9*ms+250*us)},
		{EvExhaust, func() { sd.logServer(EvExhaust, opPlain, srv) },
			formatted(EvExhaust, "", "srv=%s d=%v", srv.name, srv.d)},
		{EvReplenish, func() { sd.logServer(EvReplenish, opWakeup, srv) },
			formatted(EvReplenish, "", "srv=%s wakeup q=%v d=%v", srv.name, srv.q, srv.d)},
		{EvReplenish, func() { sd.logServer(EvReplenish, opPlain, srv) },
			formatted(EvReplenish, "", "srv=%s q=%v d=%v", srv.name, srv.q, srv.d)},
		{EvThrottle, func() { sd.logServer(EvThrottle, opPlain, srv) },
			formatted(EvThrottle, "", "srv=%s until=%v", srv.name, srv.d)},
		{EvWakeup, func() { sd.logServer(EvWakeup, opPlain, srv) },
			formatted(EvWakeup, "", "srv=%s d=%v q=%v", srv.name, srv.d, srv.q)},
		{EvParamChange, func() { sd.logParams(srv) },
			formatted(EvParamChange, "", "srv=%s Q=%v T=%v", srv.name, srv.budget, srv.period)},
		{EvParamChange, func() { sd.logServer(EvParamChange, opDetachSrv, srv) },
			formatted(EvParamChange, "", "srv=%s detached q=%v d=%v", srv.name, srv.q, srv.d)},
		{EvParamChange, func() { sd.logServer(EvParamChange, opAdoptSrv, srv) },
			formatted(EvParamChange, "", "srv=%s adopted q=%v d=%v", srv.name, srv.q, srv.d)},
		{EvParamChange, func() { sd.logMigrateTask(opDetachTask, tk) },
			formatted(EvParamChange, "", "task=%s detached backlog=%d", tk.name, len(tk.pending))},
		{EvParamChange, func() { sd.logMigrateTask(opAdoptTask, tk) },
			formatted(EvParamChange, "", "task=%s adopted backlog=%d", tk.name, len(tk.pending))},
	}
	seen := map[EventKind]bool{}
	for _, c := range cases {
		c.record()
		entries := sd.Log().Entries()
		e := entries[len(entries)-1]
		if e.Kind != c.kind {
			t.Errorf("recorded kind %v, want %v", e.Kind, c.kind)
		}
		if got := e.String(); got != c.want {
			t.Errorf("rendered %q, want %q", got, c.want)
		}
		seen[c.kind] = true
	}
	for k := EvDispatch; k <= EvParamChange; k++ {
		if !seen[k] {
			t.Errorf("no rendering case for %v", k)
		}
	}

	// A kind outside the table renders its number and task, nothing else.
	e := LogEntry{At: now, Kind: EventKind(99), Task: "tk"}
	if got, want := e.String(), fmt.Sprintf("%v EventKind(99) tk", now); got != want {
		t.Errorf("unknown kind rendered %q, want %q", got, want)
	}
}
