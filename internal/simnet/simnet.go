// Package simnet models the communication costs of the paper's testbed: a
// switched Gigabit Ethernet connecting seven nodes, carrying either Java RMI
// calls (heavy per-call software overhead: stub/skeleton dispatch,
// serialisation, registry indirection) or MPP messages (thin nio-based
// framing). The model decomposes one message into
//
//	sender CPU overhead  -> wire time (latency + bytes/bandwidth) -> receiver CPU overhead
//
// CPU overheads occupy a hardware context of the respective machine; wire
// time overlaps with computation (the NIC does the work), which is what lets
// pipelined messages stream. The per-middleware profiles are calibrated so
// that RMI costs several hundred microseconds per call and MPP tens, the
// ratio the paper's Figure 17 exhibits.
package simnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"time"
)

// LinkProfile describes the cost of moving one message between two nodes
// with a given middleware.
type LinkProfile struct {
	// SendOverhead is the sender-side per-call CPU cost (marshalling,
	// protocol bookkeeping), charged on a hardware context.
	SendOverhead time.Duration
	// SendPerByte is the sender-side CPU serialisation cost per payload byte.
	SendPerByte time.Duration
	// RecvOverhead is the receiver-side per-call CPU cost (demarshalling,
	// dispatch).
	RecvOverhead time.Duration
	// RecvPerByte is the receiver-side CPU deserialisation cost per byte.
	RecvPerByte time.Duration
	// Latency is the one-way wire latency.
	Latency time.Duration
	// BytesPerSecond is the wire bandwidth; zero means infinite.
	BytesPerSecond float64
}

// SendCPU returns the sender-side CPU time for a payload of the given size.
func (l LinkProfile) SendCPU(bytes int) time.Duration {
	return l.SendOverhead + time.Duration(float64(l.SendPerByte)*float64(bytes))
}

// RecvCPU returns the receiver-side CPU time for a payload of the given size.
func (l LinkProfile) RecvCPU(bytes int) time.Duration {
	return l.RecvOverhead + time.Duration(float64(l.RecvPerByte)*float64(bytes))
}

// WireTime returns the non-CPU transfer time for a payload of the given size.
func (l LinkProfile) WireTime(bytes int) time.Duration {
	t := l.Latency
	if l.BytesPerSecond > 0 {
		t += time.Duration(float64(bytes) / l.BytesPerSecond * float64(time.Second))
	}
	return t
}

// Total returns the end-to-end one-way time for a message when sender and
// receiver are otherwise idle.
func (l LinkProfile) Total(bytes int) time.Duration {
	return l.SendCPU(bytes) + l.WireTime(bytes) + l.RecvCPU(bytes)
}

// String summarises the profile.
func (l LinkProfile) String() string {
	return fmt.Sprintf("link{send %v+%v/B, recv %v+%v/B, lat %v, bw %.0f B/s}",
		l.SendOverhead, l.SendPerByte, l.RecvOverhead, l.RecvPerByte, l.Latency, l.BytesPerSecond)
}

// Gigabit Ethernet wire characteristics of the 2006 testbed.
const (
	gigabitBytesPerSecond = 125e6 // 1 Gb/s
	gigabitLatency        = 55 * time.Microsecond
)

// RMIProfile models Java RMI on the paper's testbed: heavy per-call software
// overhead (stub dispatch, object serialisation, TCP per call) on both sides.
func RMIProfile() LinkProfile {
	return LinkProfile{
		SendOverhead:   190 * time.Microsecond,
		SendPerByte:    4 * time.Nanosecond, // Java object serialisation
		RecvOverhead:   190 * time.Microsecond,
		RecvPerByte:    4 * time.Nanosecond,
		Latency:        gigabitLatency,
		BytesPerSecond: gigabitBytesPerSecond,
	}
}

// MPPProfile models the Java MPP (nio message passing) library: thin framing,
// buffers handed to the NIC nearly as-is.
func MPPProfile() LinkProfile {
	return LinkProfile{
		SendOverhead:   25 * time.Microsecond,
		SendPerByte:    time.Nanosecond / 2,
		RecvOverhead:   25 * time.Microsecond,
		RecvPerByte:    time.Nanosecond / 2,
		Latency:        gigabitLatency,
		BytesPerSecond: gigabitBytesPerSecond,
	}
}

// LoopbackProfile models middleware traffic between two objects on the same
// machine: no wire, but the middleware software stack still runs.
func LoopbackProfile(base LinkProfile) LinkProfile {
	base.Latency = 5 * time.Microsecond
	base.BytesPerSecond = 2e9 // memory copy
	return base
}

// Sizer estimates the payload size of a set of call arguments.
type Sizer interface {
	// Size returns the estimated encoded size in bytes of args.
	Size(args []any) int
}

// GobSizer measures payloads the way Java object serialisation would lay
// them out: arrays of fixed-width elements — of any named type — count
// len × element width, scalars and strings their own size, and only what is
// left (structs, maps, slices of slices) is gob-encoded to be measured.
// Unencodable values fall back to a fixed estimate per argument.
type GobSizer struct{}

// Size implements Sizer.
func (GobSizer) Size(args []any) int {
	total := 0
	for _, a := range args {
		total += gobSize(a)
	}
	return total
}

func gobSize(v any) int {
	// Fast paths for the payload types that dominate the experiments; they
	// match the Java sizes (int = 4 bytes in the paper's packs of ints).
	switch x := v.(type) {
	case nil:
		return 0
	case []int32:
		return 4 * len(x)
	case []int64:
		return 8 * len(x)
	case []float64:
		return 8 * len(x)
	case []byte:
		return len(x)
	case int, int32, int64, float64:
		return 8
	case string:
		return len(x)
	}
	// A named array type (type Frame []float64) is as wide as its unnamed
	// twin above; encoding it just to count it would cost more than sending it.
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Slice {
		switch elem := rv.Type().Elem(); elem.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Uint8, reflect.Int16, reflect.Uint16,
			reflect.Int32, reflect.Uint32, reflect.Float32,
			reflect.Int64, reflect.Uint64, reflect.Float64:
			return rv.Len() * int(elem.Size())
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 64 // opaque argument: fixed estimate
	}
	return buf.Len()
}

// FixedSizer reports a constant size regardless of arguments; useful in
// tests and for control messages.
type FixedSizer int

// Size implements Sizer.
func (f FixedSizer) Size([]any) int { return int(f) }
