package par

import (
	"time"

	"aspectpar/internal/aspect"
)

// OpsReporter is implemented by core objects that count their arithmetic
// work. TakeOps returns the operations performed since the last call and
// resets the counter. Core classes stay oblivious of time: they count what
// they do; the Metering module converts counts into virtual CPU time.
type OpsReporter interface {
	TakeOps() int64
}

// Metering is the simulation's cost account, expressed as one more aspect —
// the methodology applied to the reproduction itself. It wraps the selected
// joinpoints innermost (after distribution placed the call), reads the
// object's operation count, and charges count×nsPerOp of CPU on the node the
// call executed at, plus a fixed per-joinpoint dispatch overhead modelling
// the woven call path (AspectJ's non-inlined advice code; our weaver's chain
// dispatch). Figure 16 compares runs whose only difference is this overhead.
type Metering struct {
	asp *aspect.Aspect
	// nsPerOp is the virtual cost of one counted operation.
	nsPerOp float64
	// dispatchOverhead is charged once per intercepted joinpoint.
	dispatchOverhead time.Duration
}

// NewMetering builds the module for the joinpoints selected by pc (calls and
// constructions of the metered classes).
func NewMetering(pc aspect.Pointcut, nsPerOp float64, dispatchOverhead time.Duration) *Metering {
	m := &Metering{nsPerOp: nsPerOp, dispatchOverhead: dispatchOverhead}
	m.asp = aspect.NewAspect("metering", precMetering).
		Around(pc, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			res, err := proceed(nil)
			var subject any
			if jp.Kind == aspect.KindNew {
				if len(res) > 0 {
					subject = res[0]
				}
			} else {
				subject = jp.Target
			}
			cost := m.dispatchOverhead
			if rep, ok := subject.(OpsReporter); ok {
				cost += time.Duration(float64(rep.TakeOps()) * m.nsPerOp)
			}
			if cost > 0 {
				ctxOf(jp).Compute(cost)
			}
			return res, err
		})
	return m
}

// NsPerOp returns the configured per-operation cost.
func (m *Metering) NsPerOp() float64 { return m.nsPerOp }

// ModuleName implements Module.
func (m *Metering) ModuleName() string { return "metering" }

// Plug implements Module.
func (m *Metering) Plug(w *aspect.Weaver) { w.Plug(m.asp) }

// Unplug implements Module.
func (m *Metering) Unplug(w *aspect.Weaver) { w.Unplug(m.asp) }
