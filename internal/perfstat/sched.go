package perfstat

import (
	"spire/internal/core"
	"spire/internal/pmu"
)

// Scheduler-event collection. Counter samples are multiplexed and
// scaled (perfstat.go); scheduler events are not — perf records every
// one — so collection here is a faithful conversion from the
// simulator's compact log to the serialized core form, with window
// numbers assigned by the same interval convention Collect uses
// (1-based, IntervalCycles wide).

// ConvertSched converts a scheduler event log to its serialized form.
// intervalCycles > 0 assigns 1-based window numbers by timestamp;
// 0 leaves windows unset.
func ConvertSched(events []pmu.SchedEvent, intervalCycles uint64) []core.SchedEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]core.SchedEvent, 0, len(events))
	for _, ev := range events {
		window := 0
		if intervalCycles > 0 {
			window = int(ev.Cycle/intervalCycles) + 1
		}
		out = append(out, core.SchedEvent{
			Time:   float64(ev.Cycle),
			Class:  ev.Class.Name(),
			Thread: ev.Thread,
			Hart:   max(ev.Hart, 0),
			Obj:    ev.Obj,
			Waker:  ev.Waker,
			Window: window,
		})
	}
	return out
}
